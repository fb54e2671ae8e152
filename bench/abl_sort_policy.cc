// Ablation (ours): sorting strategy and adaptive-policy sensitivity.
//
// Part A compares the three sorting strategies available to the hybrid kernel
// under increasing particle churn (thermal velocity): no sorting, counting sort
// every step, and the GPMA incremental sorter with the adaptive policy.
// Part B sweeps the fixed re-sort interval to show the policy's sweet spot.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void PartA() {
  ConsoleTable t({"u_th/c", "Strategy", "Deposit (s)", "Sort (s)", "Global sorts"});
  for (double u_th : {0.005, 0.02, 0.08}) {
    for (DepositVariant v :
         {DepositVariant::kHybridNoSort, DepositVariant::kHybridGlobalSort,
          DepositVariant::kFullOpt}) {
      UniformWorkloadParams p;
      p.nx = p.ny = p.nz = 12;
      p.tile = 12;
      p.ppc_x = p.ppc_y = p.ppc_z = 4;  // PPC 64
      p.variant = v;
      p.u_th = u_th;
      // 20 steps, twice the default min_sort_interval, so kFullOpt's
      // adaptive re-sort can fire inside the measured window.
      HwContext hw;
      const WindowRecord r = MeasureWindow(*MakeUniformSimulation(hw, p),
                                           /*warmup=*/1, /*steps=*/20);
      t.AddRow({FormatDouble(u_th, 3), VariantName(v),
                FormatDouble(r.report.deposition_seconds, 4),
                FormatDouble(PhaseSec(r.report, Phase::kSort), 4),
                std::to_string(r.global_sorts)});
    }
  }
  t.Print("Ablation A1a: sorting strategy vs particle churn (uniform, CIC, 20 steps)");
}

void PartB() {
  ConsoleTable t({"sort_interval", "Deposit (s)", "Sort (s)", "Global sorts"});
  for (int interval : {2, 5, 20, 1000}) {
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 12;
    p.tile = 12;
    p.ppc_x = p.ppc_y = p.ppc_z = 4;
    p.variant = DepositVariant::kFullOpt;
    p.u_th = 0.04;
    HwContext hw;
    SimulationConfig cfg = MakeUniformConfig(p);
    cfg.engine.policy.sort_interval = interval;
    cfg.engine.policy.min_sort_interval = 1;
    cfg.engine.policy.trigger_perf_enable = false;
    Simulation sim(hw, cfg);
    UniformPlasmaConfig plasma;
    plasma.ppc_x = p.ppc_x;
    plasma.ppc_y = p.ppc_y;
    plasma.ppc_z = p.ppc_z;
    plasma.u_th = p.u_th;
    sim.SeedUniformPlasma(plasma);
    ScrambleParticleOrder(sim.tiles(), 7);
    sim.Initialize();
    const WindowRecord r = MeasureWindow(sim, /*warmup=*/1, /*steps=*/8);
    t.AddRow({std::to_string(interval),
              FormatDouble(r.report.deposition_seconds, 4),
              FormatDouble(PhaseSec(r.report, Phase::kSort), 4),
              std::to_string(r.global_sorts)});
  }
  t.Print("Ablation A1b: fixed re-sort interval sweep (FullOpt, u_th=0.04)");
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::PartA();
  mpic::PartB();
  return 0;
}
