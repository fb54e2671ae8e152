// Canonical scalar current deposition — the correctness oracle for every other
// kernel and the definition of "effective computational work" used by the
// peak-efficiency accounting (paper Sec. 5.2.2).

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_SCALAR_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_SCALAR_H_

#include "src/deposit/deposit_params.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Deposits all live particles of `tile` directly onto fields.jx/jy/jz
// (node-centered direct deposition). Charged entirely to Phase::kCompute.
template <int Order>
void DepositScalarTile(HwContext& hw, const ParticleTile& tile,
                       const DepositParams& params, FieldSet& fields);

// Floating-point operations per particle of the canonical scalar algorithm at
// a given order, counting only essential scientific work (index math, shape
// weights, gamma/velocity, and the per-node/per-component products and
// accumulations; excludes sorting and staging overheads). A multiply-add
// counts as 2 FLOPs. The paper uses the same construction (419 FLOPs/particle
// for order 3 under its counting convention); the exact constant differs with
// convention, which only rescales all efficiency numbers uniformly.
double CanonicalFlopsPerParticle(int order);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_SCALAR_H_
