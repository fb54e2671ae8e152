// The "Baseline (WarpX)" deposition kernel model: compiler-handled loop that
// scatters each particle's contributions straight onto the global J arrays.
//
// Its staging is the compiler-emitted scalar loop, run one chunk at a time in
// deposit order, so each particle's shape factors are read back from L1 right
// after they are computed (WarpX computes them inline). The per-node
// arithmetic vectorizes, but the scatter-add cannot (no compiler proves the
// nodes disjoint), so each of the Support3D(order) nodes costs three scalar
// read-modify-writes against global memory. Its performance is therefore
// dominated by the locality of those writes: with unsorted particles the
// touched node lines thrash the cache; after (incremental) sorting they stay
// resident — which is exactly the paper's Baseline vs Baseline+IncrSort gap.

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_BASELINE_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_BASELINE_H_

#include "src/deposit/deposit_params.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Stages the tile chunk by chunk with the scalar profile (StageChunk into
// `scratch`, charged to Phase::kPreproc; see deposit_staging.h) and deposits
// each chunk to fields.jx/jy/jz (Phase::kCompute). When `sorted` is true,
// iterates particles cell-by-cell via the tile's GPMA; otherwise in SoA slot
// order.
template <int Order>
void DepositBaselineTile(HwContext& hw, const ParticleTile& tile,
                         const DepositParams& params, DepositScratch& scratch,
                         FieldSet& fields, bool sorted);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_BASELINE_H_
