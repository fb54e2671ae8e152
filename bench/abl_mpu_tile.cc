// Ablation (ours): MPU scheduling and staging choices — what each piece of the
// hybrid co-design buys:
//   * cell-resident tiles vs per-pair extraction (the register-reuse argument),
//   * VPU staging vs scalar staging (the hybrid-pipeline argument),
// for both CIC and QSP, plus the measured MPU occupancy (valid tile slots per
// MOPA issue) for the direct and the Esirkepov kernels.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

UniformWorkloadParams BaseParams(int order) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 12;
  p.tile = 12;
  p.ppc_x = 8;
  p.ppc_y = p.ppc_z = 4;
  p.order = order;
  return p;
}

void Run() {
  ConsoleTable t({"Order", "Scheduling", "Staging", "Deposit (s)", "Compute (s)",
                  "Preproc (s)", "MPU occupancy"});
  struct Config {
    DepositVariant v;
    const char* scheduling;
    const char* staging;
  };
  const Config configs[] = {
      {DepositVariant::kFullOpt, "cell-resident", "VPU"},
      {DepositVariant::kMatrixOnly, "cell-resident", "scalar"},
      {DepositVariant::kHybridNoSort, "pairwise", "VPU"},
  };
  for (int order : {1, 3}) {
    for (const Config& c : configs) {
      UniformWorkloadParams p = BaseParams(order);
      p.variant = c.v;
      HwContext hw;
      const WindowRecord r =
          MeasureWindow(*MakeUniformSimulation(hw, p), /*warmup=*/1, /*steps=*/2);
      t.AddRow({std::to_string(order), c.scheduling, c.staging,
                FormatDouble(r.report.deposition_seconds, 4),
                FormatDouble(PhaseSec(r.report, Phase::kCompute) +
                                 PhaseSec(r.report, Phase::kReduce),
                             4),
                FormatDouble(PhaseSec(r.report, Phase::kPreproc), 4),
                FormatDouble(100.0 * r.mpu_occupancy, 1) + "%"});
    }
  }
  t.Print("Ablation A2: MPU scheduling x staging (PPC=128)");
  std::printf(
      "\nExpected: cell-resident + VPU staging wins; pairwise extraction costs\n"
      "grow with order (per-pair tile drain); scalar staging inflates preproc.\n"
      "Direct occupancy is fixed by the kernel: 25%% CIC pairs, 50%% QSP "
      "pairs.\n");

  // Esirkepov MOPA utilization per order: the window width is data-dependent
  // (Order+1 nodes per axis without a cell crossing, Order+2 with), so the
  // occupancy is a measured property of the packing — order-1 narrow quads
  // 25%, order-2 narrow pairs 28%, order-3 narrow pairs 50%, diluted by the
  // crossing fraction of the drift (wide pairs / singles; esirkepov_mpu.h).
  ConsoleTable et({"Order", "Scheduling", "MOPAs/particle-step", "MPU occupancy"});
  for (int order : {1, 2, 3}) {
    for (DepositVariant v :
         {DepositVariant::kFullOpt, DepositVariant::kHybridNoSort}) {
      UniformWorkloadParams p = BaseParams(order);
      p.variant = v;
      p.scheme = CurrentScheme::kEsirkepov;
      HwContext hw;
      const WindowRecord r =
          MeasureWindow(*MakeUniformSimulation(hw, p), /*warmup=*/1, /*steps=*/2);
      et.AddRow({std::to_string(order),
                 v == DepositVariant::kFullOpt ? "cell-resident" : "pairwise",
                 FormatDouble(static_cast<double>(r.counters.mopas) /
                                  static_cast<double>(r.particles),
                              3),
                 FormatDouble(100.0 * r.mpu_occupancy, 1) + "%"});
    }
  }
  et.Print("Esirkepov MOPA utilization (PPC=128, thermal drift)");
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
