// Relativistic Boris particle pusher (the paper's WarpX configuration uses the
// Boris pusher; Sec. 5.2).
//
// Advances proper velocity u = gamma*v through a half electric kick, magnetic
// rotation, half electric kick, then advances position by dt * u/gamma. The
// pusher is arithmetic-only and vectorizes cleanly; it is charged to
// Phase::kPush.

#ifndef MPIC_SRC_PUSH_BORIS_PUSHER_H_
#define MPIC_SRC_PUSH_BORIS_PUSHER_H_

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"
#include "src/grid/grid_geometry.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"
#include "src/push/field_gather.h"

namespace mpic {

struct PushParams {
  double dt = 0.0;
  double charge = 0.0;  // C
  double mass = 0.0;    // kg
};

// Advances every live particle in SoA slots [begin, end) of the tile, slot i
// using gathered entry i - begin (GatherFieldsRange over the same range).
// Updates positions and momenta in place. Positions are NOT wrapped or
// redistributed here; boundary handling belongs to the step pipeline.
void PushRangeBoris(HwContext& hw, ParticleTile& tile, int32_t begin, int32_t end,
                    const GatherScratch& gathered, const PushParams& params);

// The whole tile in one range, against GatherFieldsTile's scratch.
inline void PushTileBoris(HwContext& hw, ParticleTile& tile,
                          const GatherScratch& gathered, const PushParams& params) {
  PushRangeBoris(hw, tile, 0, tile.num_slots(), gathered, params);
}

// Gathers and pushes the tile one chunk at a time, each chunk as many SoA
// slots as `scratch` holds, so a chunk's gathered fields stay in cache from
// the gather that writes them to the push that reads them, and the push finds
// the chunk's positions where the gather left them. A particle's gather reads
// only the fields and its own position, so the result is bit-identical to
// GatherFieldsTile + PushTileBoris; a chunk that is a multiple of kVpuLanes
// also keeps the push's batches, and so its charges, where they were.
template <int Order>
void GatherAndPushTile(HwContext& hw, ParticleTile& tile, const FieldSet& fields,
                       GatherScratch& scratch, const PushParams& params) {
  const auto chunk = static_cast<int32_t>(scratch.ex.size());
  MPIC_CHECK(chunk > 0);
  const int32_t n = tile.num_slots();
  for (int32_t begin = 0; begin < n; begin += chunk) {
    const int32_t end = std::min(n, begin + chunk);
    GatherFieldsRange<Order>(hw, tile, fields, begin, end, scratch);
    PushRangeBoris(hw, tile, begin, end, scratch, params);
  }
}

// Single-particle Boris step (shared by the tile kernel and physics tests).
void BorisStep(double ex, double ey, double ez, double bx, double by, double bz,
               double qdt_over_2m, double* ux, double* uy, double* uz);

}  // namespace mpic

#endif  // MPIC_SRC_PUSH_BORIS_PUSHER_H_
