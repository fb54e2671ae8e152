// Shared parameter and scratch types for the deposition kernels.

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_PARAMS_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_PARAMS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/grid/grid_geometry.h"

namespace mpic {

struct DepositParams {
  GridGeometry geom;
  // Species charge [C]. Current density J gets q * v * w * S / cell_volume.
  double charge = 0.0;
  // Timestep [s]. Consumed only by the Esirkepov current scheme, whose J is
  // charge motion per unit time; the direct kernels ignore it.
  double dt = 0.0;

  double InvCellVolume() const { return 1.0 / (geom.dx * geom.dy * geom.dz); }
};

// Staged particle quantities produced by the preprocessing stage (Algorithm 2,
// Stage 1) and consumed by the compute stage: one chunk of particles in
// deposit order, indexed by chunk slot (DepositChunkSlots entries), restaged
// chunk by chunk by every staged kernel (see deposit_staging.h). The
// Esirkepov scheme's EsirkepovScratch (esirkepov.h) is laid out the same way.
struct DepositScratch {
  void Resize(size_t n_slots, int order) {
    const size_t terms = static_cast<size_t>(order) + 1;
    for (size_t t = 0; t < 4; ++t) {
      const size_t sz = t < terms ? n_slots : 0;
      sx[t].resize(sz);
      sy[t].resize(sz);
      sz_[t].resize(sz);
    }
    ix.resize(n_slots);
    iy.resize(n_slots);
    iz.resize(n_slots);
    wqx.resize(n_slots);
    wqy.resize(n_slots);
    wqz.resize(n_slots);
  }
  // Entries an order-`order` staging can write: every stream it uses holds
  // that many.
  size_t slots(int order) const {
    return std::min(ix.size(), sx[static_cast<size_t>(order)].size());
  }

  // 1D shape terms per axis; sx[t][slot] is the weight of node (start+t).
  std::vector<double> sx[4], sy[4], sz_[4];
  // Base cell index per axis (global cells).
  std::vector<int32_t> ix, iy, iz;
  // Effective current factors: q * v_comp * w / cell_volume.
  std::vector<double> wqx, wqy, wqz;
  // The auto-vectorized rhocell kernel's weight-product temporary, which it
  // stores and reloads per particle (Support3D(order) entries). Only engines
  // running that kernel size it, so no other tile registers a region for it.
  std::vector<double> w3;
};

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_PARAMS_H_
