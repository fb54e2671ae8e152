// Figure 10: ablation study — Baseline / Matrix-only / Hybrid-noSort /
// Hybrid-GlobalSort / FullOpt across PPC densities (uniform plasma, CIC).
//
// Paper anchors at PPC=128: Matrix-only beats Hybrid-noSort (per-pair VPU<->MPU
// traffic degrades without sorting) and Hybrid-GlobalSort (full sorts are too
// expensive); FullOpt is best overall across the sweep; Hybrid-noSort peaks at
// medium density.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void Run() {
  const std::vector<DepositVariant> configs = {
      DepositVariant::kBaseline,       DepositVariant::kMatrixOnly,
      DepositVariant::kHybridNoSort,   DepositVariant::kHybridGlobalSort,
      DepositVariant::kFullOpt,
  };

  ConsoleTable t({"PPC", "Config", "Wall (s)", "Deposit (s)", "Particles/s",
                  "Wall speedup"});
  for (const PpcPoint& ppc : kPaperPpcSweep) {
    double baseline_wall = 0.0;
    for (DepositVariant v : configs) {
      HwContext hw;
      const WindowRecord r =
          MeasureWindow(*MakeUniformSimulation(hw, PaperUniformParams(ppc, v)),
                        /*warmup=*/1, /*steps=*/3);
      const double wall = r.report.wall_seconds;
      if (v == DepositVariant::kBaseline) {
        baseline_wall = wall;
      }
      t.AddRow({std::to_string(ppc.px * ppc.py * ppc.pz), VariantName(v),
                FormatDouble(wall, 4), FormatDouble(r.report.deposition_seconds, 4),
                FormatSci(r.report.particles_per_second, 2),
                FormatDouble(baseline_wall / wall, 3)});
    }
  }
  t.Print("Figure 10: Ablation study across PPC (uniform plasma, CIC)");
  std::printf(
      "\nPaper shape: FullOpt best overall; Hybrid-noSort degrades at high PPC\n"
      "(per-pair tile traffic); Hybrid-GlobalSort pays full-sort cost each step.\n");
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
