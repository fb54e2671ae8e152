// Table 2: performance breakdown of the third-order (QSP) deposition kernel at
// PPC = 128 — the paper's headline higher-order result.
//
// Paper anchors: Baseline 12.19s -> MatrixPIC 1.39s (8.7x); MatrixPIC 2.0x over
// the hand-tuned VPU implementation; sort cost drops to ~2% of kernel time.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

void Run() {
  const std::vector<DepositVariant> configs = {
      DepositVariant::kBaseline,
      DepositVariant::kBaselineIncrSort,
      DepositVariant::kRhocellIncrSortVpu,
      DepositVariant::kFullOpt,
  };

  ConsoleTable t({"Configuration", "Total (s)", "Preproc (s)", "Compute (s)",
                  "Sort (s)", "Speedup vs Baseline"});
  double baseline_total = 0.0;
  double vpu_total = 0.0;
  double fullopt_total = 0.0;
  double fullopt_sort = 0.0;
  for (DepositVariant v : configs) {
    UniformWorkloadParams p;
    // Smaller grid than Table 1 (the paper also uses a reduced single-core
    // setup for Table 2); QSP moves 8x the node traffic per particle.
    p.nx = p.ny = p.nz = 12;
    p.tile = 12;
    p.ppc_x = 8;
    p.ppc_y = p.ppc_z = 4;  // PPC 128
    p.order = 3;
    p.variant = v;
    HwContext hw;
    const WindowRecord r =
        MeasureWindow(*MakeUniformSimulation(hw, p), /*warmup=*/1, /*steps=*/2);
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
      fullopt_sort = sort;
    }
    t.AddRow({VariantName(v), FormatDouble(total, 4), FormatDouble(pre, 4),
              FormatDouble(compute, 4), FormatDouble(sort, 4),
              FormatDouble(baseline_total / total, 2)});
  }
  t.Print("Table 2: Third-order (QSP) deposition kernel breakdown, PPC=128");

  std::printf(
      "\nPaper shape: MatrixPIC 8.7x over Baseline; 2.0x over best VPU; sort ~2%%\n"
      "             of MatrixPIC kernel time.\n"
      "Measured:    MatrixPIC %.2fx over Baseline; %.2fx over best VPU; sort %.1f%%.\n",
      baseline_total / fullopt_total, vpu_total / fullopt_total,
      100.0 * fullopt_sort / fullopt_total);
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
