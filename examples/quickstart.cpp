// Quickstart: the smallest complete MatrixPIC program.
//
// Builds a uniform thermal plasma on a periodic grid, runs ten PIC steps with
// the full MatrixPIC deposition pipeline (hybrid VPU-MPU kernel + incremental
// GPMA sorting), and prints energy and modeled-performance diagnostics.
//
//   ./quickstart [steps]

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"

int main(int argc, char** argv) {
  const int steps = mpic::ParseBenchArgs(
      argc, argv, {{"steps", 10, 1, mpic::kMaxBenchSteps}})[0];

  // 1. Describe the workload: a 12^3 periodic box with 27 particles per cell.
  mpic::UniformWorkloadParams params;
  params.nx = params.ny = params.nz = 12;
  params.ppc_x = params.ppc_y = params.ppc_z = 3;
  params.order = 1;                                  // CIC shape
  params.variant = mpic::DepositVariant::kFullOpt;   // the MatrixPIC pipeline
  params.u_th = 0.01;                                // thermal spread (units of c)

  // 2. Create the modeled machine and the simulation.
  mpic::HwContext hw;  // the LX2-like CPU model (VPU + 8x8 FP64 MPU)
  auto sim = mpic::MakeUniformSimulation(hw, params);
  std::printf("quickstart: %lld macro-particles on a %dx%dx%d grid, dt = %.3e s\n",
              static_cast<long long>(sim->tiles().TotalLive()), params.nx, params.ny,
              params.nz, sim->dt());

  // 3. Run, collecting per-phase modeled timings.
  const mpic::PhaseCycles before = mpic::SnapshotCycles(hw.ledger());
  sim->Run(steps);
  const mpic::RunReport report =
      mpic::MakeRunReport(hw, before, sim->particles_pushed(), params.order);

  // 4. Report.
  std::printf("\nafter %d steps:\n", steps);
  std::printf("  field energy    : %.3e J\n", mpic::FieldEnergy(sim->fields()));
  std::printf("  kinetic energy  : %.3e J\n", mpic::TotalKineticEnergy(*sim));
  std::printf("  modeled wall    : %.4f s  (deposition %.4f s)\n",
              report.wall_seconds, report.deposition_seconds);
  std::printf("  throughput      : %.3e particles/s\n", report.particles_per_second);
  std::printf("  MOPA instructions issued: %llu\n",
              static_cast<unsigned long long>(hw.ledger().counters().mopas));
  std::printf("  global re-sorts : %lld\n",
              static_cast<long long>(sim->engine().total_global_sorts()));
  return 0;
}
