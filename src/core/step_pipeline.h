// StepPipeline: the per-step particle schedule — which tile stages run in
// which fan-out regions, and in what order.
//
// Each species runs in two cache-resident passes:
//
//   pass 1 (one ParallelForTiles region): per tile, gather -> push ->
//          boundary wrap / window drop -> incremental-sort scan, so the
//          tile's SoA streams stay hot in the core's modeled private cache
//          across all four stages. Gather and push alternate over chunks
//          of kStageChunk slots through a one-chunk field scratch, which
//          stays in L1;
//   barrier: serial, order-preserving cross-tile mover delivery (and the
//          per-tile counting sort for the global-sort-each-step variant);
//   pass 2 (one ParallelForTiles region): per tile, staging + deposition
//          kernel; followed by the rhocell -> J reduction executed as a
//          halo-disjoint colored schedule — every color class fans out, the
//          classes run as sequential barriers. A class with fewer tiles
//          than the machine has cores splits each tile's reduction into
//          z-plane chunks (DepositionEngine::ReduceChunks), so every core
//          reduces. One-tile classes used to run serially on the main
//          context.
//
// Every stage is tile-private until the serial barriers, and the reduction
// visits its color classes in a fixed order, each J node reduced by one
// chunk in its tile's cell order, so physics output is bit-identical on any
// core count and thread count.
//
// J zeroing runs under its own fan-out: each core zeroes a contiguous chunk.

#ifndef MPIC_SRC_CORE_STEP_PIPELINE_H_
#define MPIC_SRC_CORE_STEP_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/species_block.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/hw/parallel_for.h"
#include "src/runtime/health.h"

namespace mpic {

// Per-species slice of one Step()'s accounting.
struct SpeciesStepStats {
  std::string name;
  int64_t live = 0;    // live macro-particles after the step
  int64_t pushed = 0;  // particles pushed this step
  // Census inputs for the health monitor's conservation sentinel: particles
  // removed (boundary/window drops) and injected (window refill) this step.
  int64_t dropped = 0;
  int64_t injected = 0;
  EngineStepStats engine;
};

// Aggregated per-step accounting across all species.
struct SimStepStats {
  std::vector<SpeciesStepStats> species;
  // Structured health-sentinel block (checked == false when the monitor is
  // disabled — the default).
  HealthStepReport health;

  int64_t TotalLive() const;
  int64_t TotalPushed() const;
  // Counter sums across species; global_sorted is true if any species sorted,
  // and decision reports the most severe species decision this step.
  EngineStepStats Aggregate() const;
};

struct StepPipelineInputs {
  double dt = 0.0;
  // Moving-window runs: particles ahead of/behind the window are dropped at
  // the boundary stage instead of wrapped in z.
  bool drop_behind_window = false;
  // Optional health monitor (src/runtime/health.h). When set, the per-tile
  // lane guards run fused into the particle passes and tiles that trip are
  // quarantined for the rest of the step (skipped by gather/push/boundary/
  // scan/deposit, contributing zero J).
  HealthMonitor* health = nullptr;
};

class StepPipeline {
 public:
  explicit StepPipeline(HwContext& hw) : hw_(hw) {}

  // Runs the particle stages of one step for every block — zero J, gather,
  // push, particle boundaries, sort scan + ordered delivery, staging +
  // deposition kernel, rhocell reduction, guard fold, and each species'
  // re-sort policy — and fills `stats` with one SpeciesStepStats per block
  // (`live` is left at 0 for the caller to census after the moving window).
  void RunParticleStages(const StepPipelineInputs& in,
                         std::vector<std::unique_ptr<SpeciesBlock>>& blocks,
                         FieldSet& fields, SimStepStats* stats);

 private:
  struct Pass1Partial {
    int64_t pushed = 0;
    int64_t dropped = 0;
    TileScanPartial scan;
    HealthTilePartial health;
  };

  void ZeroCurrentsStage(FieldSet& fields);
  // Serial pre-pass before a species' first fan-out of the step: sizes each
  // tile's gather scratch to one chunk and (re)registers it and the tiles'
  // SoA/staging arrays with the main context's address map, so in-region
  // accesses never fall back to nondeterministic identity mapping after a
  // reallocation.
  void PrepareTileRegions(SpeciesBlock& block);
  // Pre-push position capture into the SoA old-position lanes, for species
  // whose engine runs the Esirkepov current scheme (Phase::kPush).
  void CaptureOldPositionsTile(HwContext& hw, ParticleTile& tile);
  // Boundary wrap / window drop for one tile (Phase::kOther). Under the
  // Esirkepov scheme the old-position lanes shift with the wrap so the
  // displacement survives the coordinate jump. Window drops accumulate into
  // `dropped` (nullable) for the census sentinel.
  void BoundaryTile(HwContext& hw, SpeciesBlock& block, bool drop_behind_window,
                    int t, int64_t* dropped);

  // Fused pass 1 for one species: a single region fusing (guard,) gather and
  // push chunk by chunk, boundaries, and the sort scan per tile.
  void FusedPass1(const StepPipelineInputs& in, SpeciesBlock& block, int sid,
                  const FieldSet& fields, SpeciesStepStats* ss);
  template <int Order>
  void FusedPass1Impl(const StepPipelineInputs& in, SpeciesBlock& block,
                      int sid, const FieldSet& fields, SpeciesStepStats* ss);

  // Staging + kernel (+ colored reduction) for one species — fused pass 2.
  // Tiles the health monitor quarantined this step are skipped everywhere
  // (their J contribution is zero).
  void DepositTiles(const StepPipelineInputs& in, SpeciesBlock& block, int sid,
                    FieldSet& fields);

  HwContext& hw_;
};

}  // namespace mpic

#endif  // MPIC_SRC_CORE_STEP_PIPELINE_H_
