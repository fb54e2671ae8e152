// Tile-parallel execution over the modeled multi-core machine.
//
// ParallelForTiles runs `body(ctx, worker, index)` for every index in [0, n),
// distributed over cfg().num_cores modeled cores — either as a static
// contiguous block split (TileSchedulePolicy::kStatic, the seed model) or via
// the cost-guided work-stealing scheduler (kCostSteal, fed by RegionCosts
// estimates; see src/hw/tile_scheduler.h). Each worker gets its own HwContext
// view — a private CostLedger and CacheModel plus a snapshot of the main
// context's MemMap — so kernels charge costs exactly as they do serially.
// When the region ends, per-worker cycles merge into the main ledger (see
// RegionMerge below) and a fixed fork/join cost
// (MachineConfig::parallel_region_fork_join_cycles) is charged per fan-out,
// keeping the Fig. 1 / 8-10 phase breakdowns meaningful at num_cores > 1.
//
// Determinism: the position->worker mapping is computed from the machine
// config and cost estimates alone (independent of OpenMP scheduling), every
// tile's computation touches only tile-private state, and callers merge any
// cross-tile results in tile order — so the physics output is bit-identical
// to the serial run for any core or thread count under either policy. With
// num_cores == 1 the body runs inline on the main context and the model
// reproduces the single-core ledger exactly (no fork/join charge).
//
// Real parallelism comes from OpenMP: modeled workers map to OpenMP threads
// (capped by OMP_NUM_THREADS). Without OpenMP the same partition runs serially
// with identical results, including the multi-core ledger accounting.
//
// With MachineConfig::num_ranks > 1 (src/hw/rank_topology.h) positions first
// split contiguously over the modeled ranks — a z-slab split whenever the
// region covers the full tile grid — and each rank runs its share on its own
// HwContext (private cores, caches, ledger, memory map). Rank ledgers merge
// into the main ledger exactly like core ledgers do (ranks overlap in time),
// plus one rank-level launch/barrier charge per region.

#ifndef MPIC_SRC_HW_PARALLEL_FOR_H_
#define MPIC_SRC_HW_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/hw_context.h"
#include "src/hw/tile_scheduler.h"

namespace mpic {

// Contiguous index range [begin, end) assigned to one worker: a block split
// with the remainder spread over the leading workers.
struct TileRange {
  int begin = 0;
  int end = 0;
};
TileRange WorkerTileRange(int n, int num_workers, int worker);

using TileBody = std::function<void(HwContext& ctx, int worker, int index)>;

// How a region's per-worker ledgers merge into the main ledger.
enum class RegionMerge {
  // Per phase, max over workers (the region runs one logical stage; a core's
  // cycles in that stage overlap every other core's). The seed semantics.
  kPhaseMax,
  // Fused multi-stage region: the region's wall time is the slowest core's
  // TOTAL cycles, attributed with that core's own per-phase split (stages run
  // back-to-back per core, so per-phase max would double-bill imbalance).
  kFusedStages,
};

// Optional per-position cost plumbing for a region. Both pointers are
// caller-owned and may be null independently.
//
//  - `estimates`: per-position modeled-cycle estimates from a previous pass
//    (typically last step's `measured`). Used only under
//    TileSchedulePolicy::kCostSteal, and only when its size matches the
//    region's position count; otherwise positions cost 1.0 each and the
//    schedule degenerates to an even split with no steals.
//  - `measured`: filled (resized to n, one slot per position) with the
//    modeled cycles each position actually charged this region, measured as
//    the executing worker's ledger delta around the body call. Steal charges
//    are excluded, so feeding `measured` back as next step's `estimates`
//    estimates the work, not the scheduling overhead. The probe itself is
//    free in the model.
//  - `prev_owners`: per-position global worker id (rank * num_cores + core)
//    that executed the position last time (typically last step's `owners`).
//    Used only under kCostSteal with MachineConfig::sticky_placement, and
//    only when its size matches the position count: the scheduler prefers
//    re-placing each position on its previous owner (then the owner's NUMA
//    domain) within one cost bucket of the balance optimum.
//  - `owners`: filled (resized to n, -1 for positions no worker ran) with
//    the global worker id that executed each position this region, the
//    feedback source for the next step's `prev_owners`.
struct RegionCosts {
  const std::vector<double>* estimates = nullptr;
  std::vector<double>* measured = nullptr;
  const std::vector<int32_t>* prev_owners = nullptr;
  std::vector<int32_t>* owners = nullptr;
};

// Runs body over [0, n). Under TileSchedulePolicy::kStatic positions are
// partitioned as a contiguous block split; under kCostSteal each fan-out
// builds a deterministic LPT + work-stealing schedule from costs.estimates
// (see src/hw/tile_scheduler.h) and each worker executes exactly the task
// list the model assigned it, charging ChargeSteal per stolen task. Physics
// is bit-identical either way: bodies touch only tile-private state and
// callers merge cross-tile results in tile order, so only the *mapping* of
// tiles to modeled cores (and hence the modeled critical path) changes.
void ParallelForTiles(HwContext& hw, int n, const TileBody& body,
                      RegionMerge merge = RegionMerge::kPhaseMax,
                      const RegionCosts& costs = RegionCosts{});

// Fan-out over an explicit tile list (e.g. one color class of the reduction
// schedule): `body(ctx, worker, tiles[i])` for every i. Positions (and
// RegionCosts slots) index into `tiles`, not the tile ids themselves.
void ParallelForTileList(HwContext& hw, const std::vector<int>& tiles,
                         const TileBody& body,
                         RegionMerge merge = RegionMerge::kPhaseMax,
                         const RegionCosts& costs = RegionCosts{});

// The TileSchedulePolicy::kCostSteal schedule a fan-out of `n` positions runs
// on `node`'s cores: BuildTileSchedule with the node's steal cost and NUMA
// placement. `est` and `prev_owner` (either may be null) are the node's slice
// of the region's cost estimates and previous owners. Owners are global
// worker ids; they become node-local by subtracting `worker_base` (rank r's
// first core), and an owner outside the node counts as unknown. Fed the costs
// and owners one region measured, it returns the task lists the next region
// with those inputs runs.
TileScheduleResult PlanTileSchedule(const HwContext& node, int n,
                                    const double* est,
                                    const int32_t* prev_owner,
                                    int worker_base = 0);

// Per-worker accumulator slot padded to a cache line: callers index one slot
// per worker, and the padding keeps concurrent per-particle increments from
// false-sharing a line between real cores.
template <typename T>
struct alignas(64) PaddedSlot {
  T value{};
};

// True when ParallelForTiles will fan out (modeled cores or ranks > 1).
inline bool ParallelEnabled(const HwContext& hw) {
  return hw.num_cores() > 1 || hw.num_ranks() > 1;
}

// Number of distinct worker indices a fan-out can hand to bodies: rank r's
// core w runs as worker r * num_cores + w. Callers size per-worker slot
// arrays with this (not num_cores()) so slots stay private across ranks.
inline int WorkerSlotCount(const HwContext& hw) {
  return hw.num_cores() * hw.num_ranks();
}

}  // namespace mpic

#endif  // MPIC_SRC_HW_PARALLEL_FOR_H_
