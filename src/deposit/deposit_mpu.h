// MatrixPIC MPU deposition kernels (paper Sec. 4.2): current deposition
// reformulated as vector outer products on the 8x8 FP64 MPU tile.
//
// Order 1 (CIC), two particles per MOPA (Sec. 4.2.1):
//   A = [wq*sx0, wq*sx1 (p1) | wq*sx0, wq*sx1 (p2) | 0,0,0,0]   (4x8 logical)
//   B = [sy0*sz0, sy1*sz0, sy0*sz1, sy1*sz1 (p1) | ... (p2)]
//   C += A (x) B; p1's 8 nodes live in rows 0-1 x cols 0-3, p2's in rows 2-3 x
//   cols 4-7; cross blocks are never read. 16 of 64 tile slots carry valid
//   work (25% utilization — the paper's CIC figure).
//
// Order 3 (QSP), two particles per MOPA, one MOPA per z-shape term:
//   A_c = [wq*sz_c*sx0..3 (p1) | wq*sz_c*sx0..3 (p2)]
//   B   = [sy0..3 (p1) | sy0..3 (p2)]
//   T_c += A_c (x) B for c = 0..3; p1's 4x4 block in rows 0-3 x cols 0-3, p2's
//   in rows 4-7 x cols 4-7 (32 of 64 slots = 50% utilization). The z-term
//   scaling rides in A (VPU-prepared), matching the paper's hybrid split where
//   VPUs stage operands and the MPU performs the dense accumulation.
//
// Scheduling:
//   kCellResident — requires cell-sorted particles; accumulator tiles stay
//     resident across all particles of a cell and are extracted to the rhocell
//     once per cell (the register-reuse the incremental sorter exists for).
//   kPairwise     — no sorting assumption; tiles are zeroed and extracted per
//     particle pair (models Hybrid-noSort's VPU<->MPU traffic).
//
// Staging: the kernel stages its own operands (deposit_staging.h), one chunk
// of particles at a time in deposit order —
// whole GPMA bins for kCellResident, the next 64 live slots for kPairwise —
// so the VPU data preparation feeds the MOPAs from L1. Batches, pairs and
// accumulation order follow the deposit order, so J does not depend on the
// chunking.

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_MPU_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_MPU_H_

#include "src/deposit/deposit_params.h"
#include "src/deposit/rhocell.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

enum class MpuScheduling {
  kCellResident,
  kPairwise,
};

// Deposits all live particles of the tile into `rhocell` using the MPU.
// kCellResident iterates via the tile's GPMA (particles must be cell-sorted);
// kPairwise iterates in SoA slot order. Staging (StageChunk into `scratch`,
// VPU profile when `vpu_staging`, scalar otherwise) is charged to
// Phase::kPreproc, everything else to Phase::kCompute.
//
// sparse_fallback_ppc implements the adaptive strategy the paper recommends
// for production (Sec. 6.1) and lists as future work (Sec. 7): bins holding
// fewer than this many particles are deposited by a lightweight VPU path
// instead of spinning up MPU tiles whose per-cell setup/extraction cost cannot
// amortize. 0 disables the fallback. Only meaningful with kCellResident.
template <int Order>
void DepositMpu(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                bool vpu_staging, DepositScratch& scratch, RhocellBuffer& rhocell,
                MpuScheduling scheduling, int sparse_fallback_ppc = 0);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_MPU_H_
