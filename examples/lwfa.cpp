// Laser-Wakefield Acceleration (the paper's realistic application workload).
//
// A Gaussian laser pulse (a0 ~ 4, lambda = 0.8 um) drives a wake in a cold
// background plasma while a moving window tracks the pulse at c. Prints a
// per-step summary — window position, per-species particle census, field
// energy, health-sentinel status — and an on-axis longitudinal field profile
// at the end (the wake structure). With `ions` a mobile proton background
// rides along, exercising the multi-species moving-window path.
//
//   ./lwfa [steps] [variant] [ions]

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/runtime/health.h"

int main(int argc, char** argv) {
  const int steps = mpic::ParseBenchArgs(
      argc, argv, {{"steps", 20, 1, mpic::kMaxBenchSteps}})[0];
  mpic::LwfaWorkloadParams params;
  params.variant = (argc > 2 && std::strcmp(argv[2], "baseline") == 0)
                       ? mpic::DepositVariant::kBaseline
                       : mpic::DepositVariant::kFullOpt;
  params.nx = params.ny = 8;
  params.nz = 64;
  params.ppc_x = params.ppc_y = params.ppc_z = 2;
  params.tile = 8;
  params.tile_z = 64;
  params.with_ions = argc > 3 && std::strcmp(argv[3], "ions") == 0;

  mpic::HwContext hw;
  auto sim = mpic::MakeLwfaSimulation(hw, params);
  // Per-step health sentinels. The laser antenna injects energy every step,
  // so the closed-system energy-drift bound does not apply; the particle,
  // field, and census sentinels carry the monitoring.
  mpic::HealthConfig health;
  health.check_energy = false;
  sim->EnableHealth(health);
  std::printf("lwfa: %s, grid %dx%dx%d, %d species, %lld particles, dt = %.3e s\n",
              mpic::VariantName(params.variant), params.nx, params.ny, params.nz,
              sim->num_species(),
              static_cast<long long>(sim->tiles().TotalLive()), sim->dt());
  std::printf("%5s %14s %12s %12s %14s %10s %8s\n", "step", "window z0 (um)",
              "electrons", "ions", "field E (J)", "sorts", "health");

  for (int s = 0; s < steps; ++s) {
    sim->Step();
    if ((s + 1) % 5 == 0 || s == 0) {
      const long long ions =
          sim->num_species() > 1
              ? static_cast<long long>(sim->block(1).tiles.TotalLive())
              : 0;
      long long sorts = 0;
      for (int sid = 0; sid < sim->num_species(); ++sid) {
        sorts += sim->block(sid).engine.total_global_sorts();
      }
      const mpic::HealthStepReport& rep = sim->last_sim_stats().health;
      std::printf("%5lld %14.3f %12lld %12lld %14.3e %10lld %8s\n",
                  static_cast<long long>(sim->step_count()),
                  sim->fields().geom.z0 * 1e6,
                  static_cast<long long>(sim->tiles().TotalLive()), ions,
                  mpic::FieldEnergy(sim->fields()), sorts,
                  rep.tripped() ? "TRIP" : "ok");
      if (rep.tripped()) {
        std::printf("      %s\n", rep.Summary().c_str());
      }
    }
  }
  std::printf("\nfinal %s\n", sim->last_sim_stats().health.Summary().c_str());

  // On-axis Ez profile: the longitudinal wake field behind the pulse.
  std::printf("\non-axis Ez(z) after %d steps:\n", steps);
  const auto& g = sim->fields().geom;
  const int ci = g.nx / 2;
  const int cj = g.ny / 2;
  for (int k = 0; k < g.nz; k += 4) {
    const double ez = sim->fields().ez.At(ci, cj, k);
    std::printf("  z = %7.3f um   Ez = %+.3e V/m\n", (g.z0 + k * g.dz) * 1e6, ez);
  }

  const mpic::RunReport report = mpic::MakeRunReport(
      hw, mpic::PhaseCycles{}, sim->particles_pushed(), 1);
  std::printf("\nmodeled wall %.4f s, deposition %.4f s, throughput %.3e p/s\n",
              report.wall_seconds, report.deposition_seconds,
              report.particles_per_second);
  return 0;
}
