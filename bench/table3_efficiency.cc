// Table 3: cross-platform kernel efficiency (% of theoretical FP64 peak) on the
// QSP kernel at PPC=512 (8x8x8 particles per cell, Sec. 5.2.2).
//
// Paper anchors: MatrixPIC 83.08%, hand-tuned VPU 54.58%, LX2 baseline 9.84%,
// A800 CUDA baseline 29.76% — i.e. the co-designed CPU kernel extracts ~2.8x
// the fraction-of-peak that the GPU baseline does.
//
// Efficiency = canonical scalar FLOPs (deposit_scalar.h) / (modeled kernel
// cycles x platform peak). The LX2 peak is the MOPA rate (64 FLOP/cycle/core);
// the A800 peak is its FP64 CUDA-core rate. The GPU side runs through the SIMT
// cost model of src/gpu (src/gpu/gpu_model.h).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/gpu/gpu_model.h"

namespace mpic {
namespace {

double LxEfficiency(DepositVariant v) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 8;  // PPC 512, the paper's saturation density
  p.order = 3;
  p.variant = v;
  HwContext hw;
  return MeasureWindow(*MakeUniformSimulation(hw, p), /*warmup=*/1, /*steps=*/2)
      .report.peak_efficiency;
}

void Run() {
  ConsoleTable t({"System", "Config", "Peak efficiency (%)"});
  const double mpic_eff = LxEfficiency(DepositVariant::kFullOpt);
  const double vpu_eff = LxEfficiency(DepositVariant::kRhocellIncrSortVpu);
  const double base_eff = LxEfficiency(DepositVariant::kBaseline);

  // GPU baseline: same workload shape, executed through the SIMT model.
  HwContext hw;
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 8;
  p.order = 3;
  p.variant = DepositVariant::kBaseline;
  auto sim = MakeUniformSimulation(hw, p);
  sim->Run(1);
  const GpuRunResult gpu = GpuBaselineDeposit(GpuConfig::A800(), sim->tiles(), 3);

  t.AddRow({"LX2 CPU (model)", "MatrixPIC (Ours)", FormatDouble(100 * mpic_eff, 2)});
  t.AddRow({"LX2 CPU (model)", "Rhocell+IncrSort (VPU)", FormatDouble(100 * vpu_eff, 2)});
  t.AddRow({"LX2 CPU (model)", "Baseline", FormatDouble(100 * base_eff, 2)});
  t.AddRow({"A800 GPU (model)", "Baseline (CUDA)",
            FormatDouble(100 * gpu.peak_efficiency, 2)});
  t.Print("Table 3: Cross-platform QSP kernel efficiency (% of peak FP64)");

  std::printf(
      "\nPaper shape: MatrixPIC 83.1%% > VPU 54.6%% > GPU 29.8%% > LX2 baseline 9.8%%\n"
      "Measured:    MatrixPIC %.1f%% vs VPU %.1f%% vs GPU %.1f%% vs baseline %.1f%%\n"
      "             (CPU/GPU ratio: paper 2.8x, measured %.1fx)\n",
      100 * mpic_eff, 100 * vpu_eff, 100 * gpu.peak_efficiency, 100 * base_eff,
      mpic_eff / gpu.peak_efficiency);
}

}  // namespace
}  // namespace mpic

int main() {
  mpic::Run();
  return 0;
}
