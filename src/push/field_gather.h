// Field gather (grid -> particle interpolation) with Yee staggering.
//
// E and B components live at staggered half-cell offsets; the gather shifts the
// particle's grid-unit coordinate by 0.5 on each staggered axis before
// evaluating the shape function, which is how WarpX handles staggering.
// Results are written to a run of staging entries that the pusher consumes;
// the step pipeline gathers and pushes one chunk of slots at a time, so the
// run stays in L1 between the two.
//
// Together with deposition this dominates PIC runtime (Fig. 1); the gather is
// charged to Phase::kGather and its memory behavior (scattered reads over six
// field arrays) responds to particle sorting just like deposition does.

#ifndef MPIC_SRC_PUSH_FIELD_GATHER_H_
#define MPIC_SRC_PUSH_FIELD_GATHER_H_

#include <vector>

#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Gathered fields at particle positions for one run of SoA slots
// [begin, end): entry i - begin holds slot i. The step pipeline sizes it to
// one chunk; the tile-wide entry point sizes it to the whole tile.
struct GatherScratch {
  void Resize(size_t n) {
    ex.resize(n);
    ey.resize(n);
    ez.resize(n);
    bx.resize(n);
    by.resize(n);
    bz.resize(n);
  }
  std::vector<double> ex, ey, ez, bx, by, bz;
};

// Gathers E and B for every live particle in SoA slots [begin, end) of the
// tile into scratch entries 0 .. end - begin - 1. Guard cells of the field
// arrays must be filled (periodic images) before calling. The scratch must
// hold at least end - begin entries and be registered with the model's
// address space (RegisterGatherRegions) by the serial pre-pass.
template <int Order>
void GatherFieldsRange(HwContext& hw, const ParticleTile& tile,
                       const FieldSet& fields, int32_t begin, int32_t end,
                       GatherScratch& scratch);

// The whole tile in one range: sizes the scratch to the tile's slot count,
// so entry i is slot i.
template <int Order>
void GatherFieldsTile(HwContext& hw, const ParticleTile& tile, const FieldSet& fields,
                      GatherScratch& scratch) {
  scratch.Resize(tile.soa().size());
  GatherFieldsRange<Order>(hw, tile, fields, 0, tile.num_slots(), scratch);
}

// Registers the six gathered-field staging arrays with the hardware model's
// address space under stable keys (`tile_key_base` from MemRegionKey; streams
// 0..5). Without this the gather's scratch writes (and the pusher's reads)
// fall back to identity-mapped host addresses, making the modeled cache
// behavior depend on where the allocator happened to place the vectors — the
// source of the former run-to-run cycle noise. Cheap no-op while the vectors
// keep their allocation.
void RegisterGatherRegions(HwContext& hw, uint64_t tile_key_base,
                           const GatherScratch& scratch);

}  // namespace mpic

#endif  // MPIC_SRC_PUSH_FIELD_GATHER_H_
