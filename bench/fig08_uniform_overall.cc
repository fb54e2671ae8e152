// Figure 8: overall performance for the uniform plasma workload across PPC
// densities — total wall time, deposition kernel time, throughput, and the
// normalized kernel-vs-overhead breakdown, Baseline vs MatrixPIC.
//
// Paper anchors: up to 16.2% faster wall time and +22% particles/s at PPC=128;
// deposition kernel up to 36.4% faster at PPC=32; MatrixPIC *loses* at PPC=1
// (overheads not amortized).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void Run() {
  ConsoleTable t({"PPC", "Config", "Wall (s)", "Deposit (s)", "Particles/s",
                  "Kernel %", "Overhead %", "Wall speedup"});
  for (const PpcPoint& ppc : kPaperPpcSweep) {
    double baseline_wall = 0.0;
    for (DepositVariant v : {DepositVariant::kBaseline, DepositVariant::kFullOpt}) {
      HwContext hw;
      const WindowRecord r =
          MeasureWindow(*MakeUniformSimulation(hw, PaperUniformParams(ppc, v)),
                        /*warmup=*/1, /*steps=*/3);
      const double wall = r.report.wall_seconds;
      const double dep = r.report.deposition_seconds;
      const double kernel = PhaseSec(r.report, Phase::kCompute) +
                            PhaseSec(r.report, Phase::kReduce);
      const double overhead =
          PhaseSec(r.report, Phase::kPreproc) + PhaseSec(r.report, Phase::kSort);
      if (v == DepositVariant::kBaseline) {
        baseline_wall = wall;
      }
      t.AddRow({std::to_string(ppc.px * ppc.py * ppc.pz), VariantName(v),
                FormatDouble(wall, 4), FormatDouble(dep, 4),
                FormatSci(r.report.particles_per_second, 2),
                FormatDouble(100.0 * kernel / dep, 1),
                FormatDouble(100.0 * overhead / dep, 1),
                FormatDouble(baseline_wall / wall, 3)});
    }
  }
  t.Print("Figure 8: Uniform plasma overall performance across PPC");
  std::printf(
      "\nPaper shape: MatrixPIC wins at high PPC (~1.2x wall at 128), loses at\n"
      "PPC=1 where framework overheads are not amortized.\n");
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
