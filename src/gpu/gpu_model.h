// SIMT cost model of the baseline CUDA deposition kernel on a data-center GPU
// (the paper's A800 comparison, Table 3).
//
// It stands in for the real GPU run (README.md, "Hardware model"): deposition is
// "executed" warp by warp over the real particle data, charging
//   * compute cycles for the canonical per-particle arithmetic on the FP64
//     CUDA cores, and
//   * atomic scatter cycles per node update, with intra-warp address conflicts
//     serialized (the scatter-add pathology that keeps the GPU's tensor/MMA
//     hardware idle — the paper's architectural argument).
//
// Efficiency is reported against the GPU's FP64 CUDA-core peak, mirroring the
// paper's "% of theoretical peak FP64" metric.

#ifndef MPIC_SRC_GPU_GPU_MODEL_H_
#define MPIC_SRC_GPU_GPU_MODEL_H_

#include <cstdint>

#include "src/grid/grid_geometry.h"
#include "src/particles/tile_set.h"

namespace mpic {

struct GpuConfig {
  double freq_ghz = 1.41;  // A800 boost clock
  int warp_size = 32;
  // FP64 FLOPs per cycle per SM via CUDA cores (A100/A800: 32 FMA units).
  double fp64_flops_per_cycle = 64.0;
  // Cycles per warp-wide atomicAdd instruction before serialization.
  double atomic_issue_cycles = 2.5;
  // Extra cycles per additional lane hitting the same address in one warp.
  // Ampere-class GPUs aggregate same-address FP atomics at the L2, so the
  // marginal conflict cost is small but nonzero.
  double atomic_conflict_cycles = 0.1;
  // Amortized memory cycles per distinct cache line touched by a warp access
  // (atomics bypass the L1 and pay L2 sector bandwidth).
  double mem_cycles_per_line = 0.75;

  static GpuConfig A800() { return GpuConfig{}; }
};

struct GpuRunResult {
  double cycles = 0.0;
  double seconds = 0.0;
  int64_t particles = 0;
  int64_t atomic_instructions = 0;
  int64_t conflict_lanes = 0;
  // Canonical useful FLOPs / (cycles * fp64 peak per cycle).
  double peak_efficiency = 0.0;
};

// Runs the modeled baseline CUDA deposition over all live particles of the
// tile set at the given shape order (1 or 3), in arrival (slot) order.
GpuRunResult GpuBaselineDeposit(const GpuConfig& cfg, const TileSet& tiles,
                                int order);

}  // namespace mpic

#endif  // MPIC_SRC_GPU_GPU_MODEL_H_
