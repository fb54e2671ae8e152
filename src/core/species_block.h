// SpeciesBlock: everything one particle species owns — its physical identity,
// its TileSet, its DepositionEngine (sorting structures are per species, like
// WarpX's per-species ParticleContainers), and the gather/push staging scratch.
//
// Simulation keeps a registry of blocks; every particle stage (seed, gather,
// push, boundaries, moving-window drop/refill, deposit) loops over them, while
// the FieldSet (E, B, J) is shared: each species' engine accumulates into the
// same J arrays and the guard folding happens once per step across species.

#ifndef MPIC_SRC_CORE_SPECIES_BLOCK_H_
#define MPIC_SRC_CORE_SPECIES_BLOCK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/deposition_engine.h"
#include "src/deposit/particle_iteration.h"
#include "src/particles/injector.h"
#include "src/particles/species.h"
#include "src/particles/tile_set.h"
#include "src/push/field_gather.h"

namespace mpic {

// Per-species simulation options. Charge and mass are plumbed per block at
// call time, not baked into the engine.
struct SpeciesConfig {
  Species species = Species::Electron();
  // Moving-window refill profile for this species. Species without a profile
  // are dropped behind the window but never replenished.
  std::optional<ProfiledPlasmaConfig> window_injection;
  // Engine override for this species; nullopt inherits the simulation-wide
  // EngineConfig. Heavy ions barely churn cells per step, so they typically
  // want kHybridNoSort or a long re-sort interval while electrons keep the
  // full incremental-sort pipeline.
  std::optional<EngineConfig> engine;
};

// One stage's per-tile cost feedback loop for the cost-guided tile scheduler
// (TileSchedulePolicy::kCostSteal). `estimate` feeds the current step's
// schedule (RegionCosts::estimates); `measured` collects the current step's
// per-tile cycle probe (RegionCosts::measured); Commit() rotates measured into
// estimate at the end of the stage. The owner pair rotates the same way:
// `owner_measured` collects the stage's placements (RegionCosts::owners),
// `owner` holds the last committed ones. Only pass 1's carry over to the next
// step (its sticky preference and the tiles' NUMA homes); the deposit follows
// this step's pass-1 owners, the reduction this step's deposit owners.
// All four start empty — the first step of a stage schedules with uniform
// costs and no affinity, then converges.
struct StageCostFeedback {
  std::vector<double> estimate;
  std::vector<double> measured;
  std::vector<int32_t> owner;
  std::vector<int32_t> owner_measured;
  void Commit() {
    estimate.swap(measured);
    owner.swap(owner_measured);
  }
};

struct SpeciesBlock {
  SpeciesBlock(HwContext& hw, const SpeciesConfig& config, const GridGeometry& geom,
               int tile_x, int tile_y, int tile_z, const EngineConfig& engine_config)
      : species(config.species),
        window_injection(config.window_injection),
        tiles(geom, tile_x, tile_y, tile_z),
        engine(hw, config.engine.value_or(engine_config)) {}

  Species species;
  std::optional<ProfiledPlasmaConfig> window_injection;
  TileSet tiles;
  DepositionEngine engine;
  // Per tile, one chunk of gathered fields: pass 1 gathers and pushes each
  // tile kStageChunk slots at a time through it.
  std::vector<GatherScratch> gather_scratch;
  // Key base for the gather scratch's keyed region registrations (tile t uses
  // MemRegionKey(mem_owner_id, t, 0..5)).
  uint64_t mem_owner_id = NextMemOwnerId();

  // Sizes tile t's gather scratch to one chunk and, when the tile holds
  // particles, registers it with the model's address space under the
  // calling context's home domain.
  void PrepareGatherScratch(HwContext& hw, int t) {
    GatherScratch& gs = gather_scratch[static_cast<size_t>(t)];
    gs.Resize(kStageChunk);
    if (tiles.tile(t).num_live() > 0) {
      RegisterGatherRegions(hw, MemRegionKey(mem_owner_id, t, 0), gs);
    }
  }

  // Particle-push census: lifetime total and the most recent step's count.
  int64_t particles_pushed = 0;
  int64_t pushed_last_step = 0;

  // Per-tile cycle feedback for the work-stealing scheduler, one loop per
  // tile-parallel stage of the fused pipeline (indexed by tile id for the two
  // full fan-outs; reduce_costs is also tile-indexed, gathered/scattered per
  // color class: a tile whose reduction splits into z-plane chunks gets the
  // sum of its chunks' cycles).
  // Unused (left empty) under TileSchedulePolicy::kStatic.
  StageCostFeedback pass1_costs;
  StageCostFeedback deposit_costs;
  StageCostFeedback reduce_costs;
};

}  // namespace mpic

#endif  // MPIC_SRC_CORE_SPECIES_BLOCK_H_
