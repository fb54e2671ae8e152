// Deterministic cost-guided work-stealing schedule for tile-parallel regions.
//
// BuildTileSchedule turns (n positions, per-position cost estimates) into an
// explicit per-worker execution list: a greedy longest-processing-time (LPT)
// assignment followed by a simulated steal sequence. Everything is computed
// from the estimates alone — no wall-clock, no thread timing — so the same
// inputs always produce the same schedule, the same steal events, and the
// same modeled cycle charges, regardless of how many OpenMP threads actually
// execute the lists. Real threads then run exactly the tile lists the model
// assigned, which keeps physics bit-identical to the static partition (tiles
// stay tile-private; cross-tile merges happen after the region, in tile
// order).
//
// The steal rule is overlap-based: an idle worker steals the tail task of the
// most-loaded queue iff it can *start* the task before the victim would have
// drained its remaining queue (thief_now + steal_cost < victim_now +
// victim_queued). Under LPT the load gap is bounded by one task, so steals
// fire only on genuine granularity remainders; each event charges
// steal_cost_cycles (plus one remote line, added by the caller) and the
// overhead is bounded by steal_cost per event.

#ifndef MPIC_SRC_HW_TILE_SCHEDULER_H_
#define MPIC_SRC_HW_TILE_SCHEDULER_H_

#include <cstdint>
#include <vector>

namespace mpic {

struct TileTask {
  int pos = 0;          // position index in [0, n)
  bool stolen = false;  // true if this worker pulled it from another queue
  bool remote = false;  // stolen across a NUMA domain boundary
};

struct TileScheduleResult {
  // worker_tasks[w] is worker w's execution list, in execution order.
  std::vector<std::vector<TileTask>> worker_tasks;
  int64_t total_steals = 0;
  int64_t total_steals_remote = 0;
  // Modeled finish time of each worker and the resulting makespan, in the
  // same (estimate) units the caller supplied. Informational: the real cycle
  // charges come from each worker's ledger as it executes its list.
  std::vector<double> worker_finish;
  double makespan = 0.0;
};

// NUMA placement inputs for BuildTileSchedule. The defaults reproduce the
// flat-memory, owner-oblivious schedule exactly.
struct TileSchedulePlacement {
  // Worker->domain split parameters (NumaDomainOfWorker semantics).
  int num_domains = 1;
  // Cross-domain steal premium: a steal whose thief and victim sit in
  // different domains costs steal_cost * remote_steal_factor +
  // remote_line_cost instead of steal_cost.
  double remote_steal_factor = 1.0;
  double remote_line_cost = 0.0;
  // Bias the LPT assignment toward each position's previous owner (then the
  // owner's domain) within one planner cost bucket of the least-loaded
  // worker; false keeps the pure least-loaded choice.
  bool sticky = true;
  // Per-position previous owner (node-local worker id; -1 or out-of-range =
  // unknown). May be null. Only consulted when `sticky`.
  const int* prev_owner = nullptr;
};

// Cost-spread ratio (max/min over per-position costs) below which the
// schedule falls back to the contiguous block split: near-uniform costs gain
// nothing from LPT but would lose the per-core cache affinity of a stable
// contiguous partition.
inline constexpr double kNearUniformCostRatio = 1.5;

// Multiplicative width of the planner's cost classes: the LPT assignment
// sees each position's cost rounded to the nearest power of this ratio. The
// steal simulation runs on the raw costs, so the within-class spread the
// planner ignores is exactly the imbalance stealing gets to fix (with exact
// planning costs the LPT schedule never strands a stealable task and the
// steal phase would be dead code); it also makes the assignment insensitive
// to per-step cost jitter within a class, preserving cache affinity.
inline constexpr double kCostBucketRatio = 1.25;

// Builds the deterministic LPT + steal schedule for n positions over
// num_workers workers. `estimates` may be nullptr (or any tile with a
// non-positive / missing estimate), in which case affected positions cost
// 1.0 — with no estimates at all (or a cost spread under
// kNearUniformCostRatio) the schedule is the contiguous block split with no
// steals. `steal_cost` is in the same units as the estimates.
//
// With a TileSchedulePlacement the schedule becomes NUMA-aware: within one
// ×kCostBucketRatio planner bucket of the least-loaded worker the LPT
// assignment prefers a position's previous owner, then any worker in the
// previous owner's domain (least load, lowest id), before falling back to
// the global least-loaded worker — and the steal simulation charges the
// distance-dependent premium above, tagging cross-domain tasks
// TileTask::remote. All tie-breaks are by lowest worker id, so the schedule
// stays a pure function of (estimates, prev_owner, parameters). The default
// placement gives the flat-memory, owner-oblivious schedule.
TileScheduleResult BuildTileSchedule(
    int n, int num_workers, const double* estimates, double steal_cost,
    const TileSchedulePlacement& placement = TileSchedulePlacement{});

}  // namespace mpic

#endif  // MPIC_SRC_HW_TILE_SCHEDULER_H_
