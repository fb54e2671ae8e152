// Charge-conserving Esirkepov deposition on the 8x8 FP64 MPU tile.
//
// The staged Esirkepov combine is, per particle, three transverse planes of
// the rank-2 outer-product form
//
//     T[b][c] = m_b * m_c + (1/12) * d_b * d_c
//
// (esirkepov.h), which is exactly the MOPA shape: each plane is accumulated
// with two MOPA issues — a zeroing m (x) m followed by d (x) (k12*d) — and the
// longitudinal cumulative sums are applied at extraction time as by-element
// FMAs against the (1/cf-scaled) running-sum prefix vector of the axis.
//
// Plane/tile mapping (rows (x) cols):
//
//     tile 0:  T_yz = my (x) mz   -> Jx   (rows b over y, cols c over z)
//     tile 1:  T_xz = mz (x) mx   -> Jy   (rows c over z, cols a over x)
//     tile 2:  T_xy = my (x) mx   -> Jz   (rows b over y, cols a over x)
//
// so tiles 1 and 2 share their column operands (mx / k12*dx) and tiles 0 and
// 2 share their row operands (my / dy): a pair's six operand registers are
// built with six lane blends plus two k12 pre-scales — 8 VPU ops per MOPA
// group regardless of pairing.
//
// Multi-particle packing and width adaptivity. The union window of an axis is
// Order + 2 nodes wide only when the particle crossed a cell boundary on that
// axis; otherwise the effective width is Order + 1 and the staged last lane is
// exactly zero (EsirkepovScratch::wide). Groups grow greedily at the widest
// member's lane pitch while one more member fits in the 8 lanes, so at thermal
// drifts (nearly every particle all-axis narrow):
//
//   * order 1 packs FOUR narrow particles per tile at pitch 2 (wide pairs at
//     pitch 3);
//   * order 2 packs pairs at pitch 3 (wide pairs at pitch 4);
//   * order 3 packs narrow pairs at pitch 4, boundary-crossers go single.
//
// Per-MOPA occupancy (valid slots / 64, counted into the ledger's
// mopa_valid_slots so the figures below are measured, not asserted):
//
//     order 1:  4*(2*2)/64 = 25%  narrow quad,   2*(3*3)/64 = 28% wide pair
//     order 2:  2*(3*3)/64 = 28%  narrow pair,   2*(4*4)/64 = 50% wide pair
//     order 3:  2*(4*4)/64 = 50%  narrow pair,     (5*5)/64 = 39% wide single
//
// against the direct kernels' 25% (CIC) and 50% (QSP) pair figures
// (deposit_mpu.h). Narrowness also trims the transverse extraction loops (rows
// read and runs issued); the longitudinal run is always Order + 1 lanes, since
// the floating-point prefix at the last support lane is small but not exactly
// zero and the scalar reference includes it.
//
// Extraction cost is further amortized across a batch: all-narrow particles
// sharing the batch's reference window base (in cell-resident bins that is
// nearly every particle — same cell, no crossing) accumulate their runs into
// a register-resident (Order+1)^3-per-component J block, flushed to the tile
// scratch once per batch. At orders 1-2 the three blocks fit the vector
// register file (1-4 Vec8 each); order 3 keeps per-particle extraction, where
// the direct-scheme baseline is already beaten outright.
//
// Scheduling and staging mirror DepositMpu: cell-resident rides the GPMA bins
// (pairs come from the same cell; bins below sparse_fallback_ppc take a
// per-particle VPU path that reproduces DepositEsirkepovTile's arithmetic
// bit-for-bit), pairwise walks slot order for the unsorted hybrid variants.
// The kernel stages its own windows (esirkepov.h), one chunk at a time in
// deposit order — whole GPMA bins for cell-resident, the
// next 64 live slots for pairwise; a chunk of windows is 9 KB at order 1 and
// 15 KB at order 3, inside the 32 KB L1 — so each batch reads its side
// streams and window blocks as contiguous vector loads from L1; the batches,
// and so J, do not depend on the chunking. Values are
// schedule- and core-count-invariant: kernel selection and iteration order
// depend only on the configuration and the particle data.

#ifndef MPIC_SRC_DEPOSIT_ESIRKEPOV_MPU_H_
#define MPIC_SRC_DEPOSIT_ESIRKEPOV_MPU_H_

#include "src/deposit/deposit_mpu.h"
#include "src/deposit/esirkepov.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Stages and combines every live particle of the tile, accumulating into the
// tile-private TileCurrent. Staging (StageChunk into `scratch`,
// VPU profile when `vpu_staging`, scalar otherwise) is charged to
// Phase::kPreproc, the combine to Phase::kCompute. Requires a machine with an
// MPU; cell-resident scheduling additionally requires valid GPMA bins.
// params.dt must be the step dt.
template <int Order>
void DepositEsirkepovMpuTile(HwContext& hw, const ParticleTile& tile,
                             const DepositParams& params,
                             MpuScheduling scheduling, int sparse_fallback_ppc,
                             bool vpu_staging, EsirkepovScratch& scratch,
                             TileCurrent& tile_j);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_ESIRKEPOV_MPU_H_
