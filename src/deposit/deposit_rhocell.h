// Rhocell deposition kernels (paper Sec. 3.4 and baselines of Sec. 6.3).
//
//   DepositRhocellAutoVec — reproduction of the compiler-vectorized rhocell
//     kernel of Vincenti et al.: the 8-node (CIC) / 64-node (QSP) inner loop
//     vectorizes because the cell block is contiguous, but the per-particle
//     setup stays scalar (the scalar profile of StageChunk, one chunk at a
//     time in deposit order) and particles arrive in whatever order the tile
//     holds.
//   DepositRhocellVpu — the hand-tuned strongest VPU baseline: it stages its
//     own operands chunk by chunk in deposit order (the VPU profile of
//     StageChunk, deposit_staging.h), then per batch of 8: vector loads of
//     the staged chunk, register-built weight vectors, vector FMAs into the
//     cell block.
//
// Both accumulate into a RhocellBuffer; ReduceRhocellToGrid then performs the
// single O(num_cells) scatter-add onto the global J arrays (Equation 5).
//
// Only odd orders (1 and 3) are supported: even-order (TSC) shapes are centered
// on the nearest *node*, so particles of one cell straddle two blocks and the
// rhocell invariant "one block per cell" does not hold — the same reason the
// paper evaluates CIC and QSP.

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_RHOCELL_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_RHOCELL_H_

#include "src/deposit/deposit_params.h"
#include "src/deposit/rhocell.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Stages chunk by chunk into `scratch` with the scalar profile and stores
// each particle's weight products in scratch.w3, which it grows to
// Support3D(Order) if smaller; size and register it beforehand so those
// stores land in mapped memory. Staging is charged to Phase::kPreproc, the
// rest to Phase::kCompute.
template <int Order>
void DepositRhocellAutoVec(HwContext& hw, const ParticleTile& tile,
                           const DepositParams& params, DepositScratch& scratch,
                           RhocellBuffer& rhocell, bool sorted);

// Staging is charged to Phase::kPreproc, the rest to Phase::kCompute.
template <int Order>
void DepositRhocellVpu(HwContext& hw, const ParticleTile& tile,
                       const DepositParams& params, DepositScratch& scratch,
                       RhocellBuffer& rhocell, bool sorted);

// Scatter-adds every cell block onto fields.jx/jy/jz and zeroes the buffer.
// Charged to Phase::kReduce. Works for any tile; node indices are global.
// With a narrower `planes` only the block nodes on those z planes are added
// and zeroed, so calls over disjoint plane ranges may run concurrently and
// together do exactly the full call's additions, each node's in the same
// cell order. A CIC block row spans two planes; a call that owns only part
// of it loads, adds and zeroes just its own lanes (masked load and store).
template <int Order>
void ReduceRhocellToGrid(HwContext& hw, const ParticleTile& tile,
                         RhocellBuffer& rhocell, FieldSet& fields,
                         ZPlanes planes = {});

// Tile-local cell id of a staged particle, derived from its start node indices
// (start = cell for order 1, cell-1 for order 3).
template <int Order>
inline int StagedCellOf(const ParticleTile& tile, const DepositScratch& scratch,
                        size_t i) {
  constexpr int kOff = Order == 3 ? 1 : 0;
  return tile.LocalCellId(scratch.ix[i] + kOff, scratch.iy[i] + kOff,
                          scratch.iz[i] + kOff);
}

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_RHOCELL_H_
