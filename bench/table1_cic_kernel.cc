// Table 1: performance breakdown of the first-order (CIC) deposition kernel at
// PPC = 128 — Total / Preproc / Compute / Sort columns for the six
// configurations of the paper's VPU comparison study.
//
// Paper anchors (LX2, 100 steps): Baseline 74.13s total -> MatrixPIC 24.90s
// (2.98x); Baseline+IncrSort 1.62x over Baseline; MatrixPIC 1.37x over the
// hand-tuned VPU rhocell.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void Run() {
  const std::vector<DepositVariant> configs = {
      DepositVariant::kBaseline,          DepositVariant::kBaselineIncrSort,
      DepositVariant::kRhocell,           DepositVariant::kRhocellIncrSort,
      DepositVariant::kRhocellIncrSortVpu, DepositVariant::kFullOpt,
  };

  ConsoleTable t({"Configuration", "Total (s)", "Preproc (s)", "Compute (s)",
                  "Sort (s)", "Speedup vs Baseline"});
  double baseline_total = 0.0;
  double vpu_total = 0.0;
  double fullopt_total = 0.0;
  for (DepositVariant v : configs) {
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 16;  // 4096 cells: J working set exceeds the L1
    p.tile = 16;  // one tile: one core's share (README.md, "Hardware model")
    p.ppc_x = 8;
    p.ppc_y = p.ppc_z = 4;  // PPC 128
    p.order = 1;
    p.variant = v;
    HwContext hw;
    const WindowRecord r =
        MeasureWindow(*MakeUniformSimulation(hw, p), /*warmup=*/1, /*steps=*/3);
    const double total = r.report.deposition_seconds;
    const double pre = PhaseSec(r.report, Phase::kPreproc);
    const double compute =
        PhaseSec(r.report, Phase::kCompute) + PhaseSec(r.report, Phase::kReduce);
    const double sort = PhaseSec(r.report, Phase::kSort);
    if (v == DepositVariant::kBaseline) {
      baseline_total = total;
    }
    if (v == DepositVariant::kRhocellIncrSortVpu) {
      vpu_total = total;
    }
    if (v == DepositVariant::kFullOpt) {
      fullopt_total = total;
    }
    t.AddRow({VariantName(v), FormatDouble(total, 4), FormatDouble(pre, 4),
              FormatDouble(compute, 4), FormatDouble(sort, 4),
              FormatDouble(baseline_total / total, 2)});
  }
  t.Print("Table 1: First-order (CIC) deposition kernel breakdown, PPC=128");

  std::printf(
      "\nPaper shape: MatrixPIC 2.98x over Baseline; 1.37x over best VPU.\n"
      "Measured:    MatrixPIC %.2fx over Baseline; %.2fx over best VPU.\n",
      baseline_total / fullopt_total, vpu_total / fullopt_total);
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
