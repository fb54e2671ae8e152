#include "src/hw/parallel_for.h"

#include "src/common/check.h"

namespace mpic {
namespace {

// One rank's (or the single-rank machine's) share of a fan-out: positions
// [begin, end) of the region run on `node`'s cores. `worker_base` offsets the
// worker index handed to the body so per-worker slots stay globally unique
// across ranks (rank r core w -> slot r * num_cores + w). `est` and
// `prev_owner` point at the node's slice of the region's cost estimates and
// previous-owner ids (null when unavailable); `measured` / `owners` (when
// non-null) are the region-global feedback vectors, written at global
// positions. Serial inline on `node` when it has one core (no fork/join
// charge).
void RunRegionOnNode(HwContext& node, int begin, int end, int worker_base,
                     const TileBody& body, RegionMerge merge, const double* est,
                     std::vector<double>* measured, const int32_t* prev_owner,
                     std::vector<int32_t>* owners) {
  const int n_local = end - begin;
  const int num_workers = node.num_cores();
  if (num_workers <= 1) {
    for (int i = begin; i < end; ++i) {
      if (owners != nullptr) {
        (*owners)[static_cast<size_t>(i)] = static_cast<int32_t>(worker_base);
      }
      if (measured != nullptr) {
        const double before = node.ledger().TotalCycles();
        body(node, worker_base, i);
        (*measured)[static_cast<size_t>(i)] =
            node.ledger().TotalCycles() - before;
      } else {
        body(node, worker_base, i);
      }
    }
    return;
  }

  // Region setup (serial): make sure every worker context exists, give it the
  // current memory map and a zeroed per-region ledger. Worker caches are NOT
  // reset — they persist across regions, modeling each core's private cache.
  // Equal version stamps mean neither map mutated since the last snapshot
  // (worker-local in-region registrations bump the worker's stamp, forcing a
  // refresh next region), so the O(num_regions) copy is usually skipped.
  std::vector<const CostLedger*> region_ledgers;
  region_ledgers.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    HwContext& ctx = node.worker(w);
    ctx.ledger().Reset();
    if (ctx.mem().version() != node.mem().version()) {
      ctx.mem() = node.mem();
    }
    region_ledgers.push_back(&ctx.ledger());
  }

  if (node.cfg().tile_schedule == TileSchedulePolicy::kCostSteal) {
    // Cost-guided schedule: the task lists (and the steal sequence) are
    // computed serially from the estimates before the fan-out, so they are
    // identical for every OpenMP thread count; real threads just execute the
    // lists the model assigned.
    const TileScheduleResult sched =
        PlanTileSchedule(node, n_local, est, prev_owner, worker_base);
    if (owners != nullptr) {
      // Record placements serially from the schedule (not from the execution
      // loop) so the feedback is complete even if a worker list is empty.
      for (int w = 0; w < num_workers; ++w) {
        for (const TileTask& task : sched.worker_tasks[static_cast<size_t>(w)]) {
          (*owners)[static_cast<size_t>(begin + task.pos)] =
              static_cast<int32_t>(worker_base + w);
        }
      }
    }
#ifdef _OPENMP
#pragma omp parallel for schedule(static, 1)
#endif
    for (int w = 0; w < num_workers; ++w) {
      HwContext& ctx = node.worker(w);
      for (const TileTask& task : sched.worker_tasks[static_cast<size_t>(w)]) {
        // Steal overhead lands before the measurement window so the per-tile
        // probe records the tile's work, not where it ran.
        if (task.stolen) ctx.ChargeSteal(task.remote);
        const int pos = begin + task.pos;
        if (measured != nullptr) {
          const double before = ctx.ledger().TotalCycles();
          body(ctx, worker_base + w, pos);
          (*measured)[static_cast<size_t>(pos)] =
              ctx.ledger().TotalCycles() - before;
        } else {
          body(ctx, worker_base + w, pos);
        }
      }
    }
  } else {
    // Static block partition: worker w always owns the same contiguous
    // position range, regardless of how OpenMP maps workers to threads, so
    // both the physics and the modeled ledger are independent of the real
    // thread count.
#ifdef _OPENMP
#pragma omp parallel for schedule(static, 1)
#endif
    for (int w = 0; w < num_workers; ++w) {
      HwContext& ctx = node.worker(w);
      const TileRange range = WorkerTileRange(n_local, num_workers, w);
      for (int i = begin + range.begin; i < begin + range.end; ++i) {
        if (owners != nullptr) {
          (*owners)[static_cast<size_t>(i)] =
              static_cast<int32_t>(worker_base + w);
        }
        if (measured != nullptr) {
          const double before = ctx.ledger().TotalCycles();
          body(ctx, worker_base + w, i);
          (*measured)[static_cast<size_t>(i)] =
              ctx.ledger().TotalCycles() - before;
        } else {
          body(ctx, worker_base + w, i);
        }
      }
    }
  }

  switch (merge) {
    case RegionMerge::kPhaseMax:
      node.ledger().MergeParallel(region_ledgers);
      break;
    case RegionMerge::kFusedStages:
      node.ledger().MergeParallelFused(region_ledgers);
      break;
  }
  // Thread wake-up + join barrier for this fan-out (serial on the node
  // context, so the cost lands once per region, not per core).
  PhaseScope phase(node.ledger(), Phase::kOther);
  node.ChargeCycles(node.cfg().parallel_region_fork_join_cycles);
}

}  // namespace

// With one modeled rank this is exactly the single-node fan-out (inline on
// the main context when the machine also has one core). With
// num_ranks > 1 the positions first split contiguously over the ranks — a
// z-slab split whenever the region runs over the full tile grid (tile indices
// linearize z-slowest), or the caller's `rank_ends` — and each rank's
// HwContext runs its share with its own cores, caches, and memory map. Rank
// ledgers then merge into the main ledger with the region's own merge
// semantics (ranks overlap in time, like cores), plus one rank-level
// launch/barrier charge.
void ParallelForTiles(HwContext& hw, int n, const TileBody& body,
                      RegionMerge merge, const RegionCosts& costs,
                      const std::vector<int>* rank_ends) {
  if (costs.measured != nullptr) {
    costs.measured->assign(static_cast<size_t>(n), 0.0);
  }
  if (costs.owners != nullptr) {
    costs.owners->assign(static_cast<size_t>(n), -1);
  }
  const double* est = nullptr;
  if (costs.estimates != nullptr &&
      costs.estimates->size() == static_cast<size_t>(n)) {
    est = costs.estimates->data();
  }
  const int32_t* prev_own = nullptr;
  if (costs.prev_owners != nullptr &&
      costs.prev_owners->size() == static_cast<size_t>(n)) {
    prev_own = costs.prev_owners->data();
  }
  const int num_ranks = hw.num_ranks();
  if (num_ranks <= 1) {
    RunRegionOnNode(hw, 0, n, 0, body, merge, est, costs.measured, prev_own,
                    costs.owners);
    return;
  }

  std::vector<const CostLedger*> rank_ledgers;
  rank_ledgers.reserve(static_cast<size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    HwContext& node = hw.rank(r);
    node.ledger().Reset();
    if (node.mem().version() != hw.mem().version()) {
      node.mem() = hw.mem();
    }
    rank_ledgers.push_back(&node.ledger());
  }
  // Ranks execute serially here (real OpenMP threads parallelize the cores
  // inside each rank); the model treats them as concurrent via the merge.
  MPIC_CHECK(rank_ends == nullptr ||
             (rank_ends->size() == static_cast<size_t>(num_ranks) &&
              rank_ends->back() == n));
  for (int r = 0; r < num_ranks; ++r) {
    TileRange range = WorkerTileRange(n, num_ranks, r);
    if (rank_ends != nullptr) {
      range.begin = r == 0 ? 0 : (*rank_ends)[static_cast<size_t>(r - 1)];
      range.end = (*rank_ends)[static_cast<size_t>(r)];
    }
    RunRegionOnNode(hw.rank(r), range.begin, range.end, r * hw.num_cores(),
                    body, merge, est != nullptr ? est + range.begin : nullptr,
                    costs.measured,
                    prev_own != nullptr ? prev_own + range.begin : nullptr,
                    costs.owners);
  }
  switch (merge) {
    case RegionMerge::kPhaseMax:
      hw.ledger().MergeParallel(rank_ledgers);
      break;
    case RegionMerge::kFusedStages:
      hw.ledger().MergeParallelFused(rank_ledgers);
      break;
  }
  // Rank-level launch + barrier, charged once on the main ledger.
  PhaseScope phase(hw.ledger(), Phase::kOther);
  hw.ChargeCycles(hw.cfg().parallel_region_fork_join_cycles);
}

TileScheduleResult PlanTileSchedule(const HwContext& node, int n,
                                    const double* est,
                                    const int32_t* prev_owner,
                                    int worker_base) {
  const int num_workers = node.num_cores();
  TileSchedulePlacement placement;
  placement.num_domains = node.cfg().num_numa_domains;
  placement.remote_steal_factor = node.cfg().remote_mem_latency_factor;
  placement.remote_line_cost = node.cfg().remote_line_transfer_cycles;
  placement.sticky = node.cfg().sticky_placement;
  std::vector<int> prev_local;
  if (prev_owner != nullptr) {
    prev_local.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int local = static_cast<int>(prev_owner[i]) - worker_base;
      prev_local[static_cast<size_t>(i)] =
          (local >= 0 && local < num_workers) ? local : -1;
    }
    placement.prev_owner = prev_local.data();
  }
  return BuildTileSchedule(n, num_workers, est, node.cfg().steal_cost_cycles,
                           placement);
}

TileRange WorkerTileRange(int n, int num_workers, int worker) {
  MPIC_CHECK(num_workers > 0 && worker >= 0 && worker < num_workers);
  const int base = n / num_workers;
  const int extra = n % num_workers;
  TileRange r;
  r.begin = worker * base + (worker < extra ? worker : extra);
  r.end = r.begin + base + (worker < extra ? 1 : 0);
  return r;
}

void ParallelForChunks(HwContext& hw, int n, const ChunkBody& body) {
  const int chunks = WorkerSlotCount(hw);
  const Phase phase = hw.ledger().phase();
  ParallelForTiles(hw, chunks, [&](HwContext& ctx, int worker, int c) {
    PhaseScope scope(ctx.ledger(), phase);
    const TileRange r = WorkerTileRange(n, chunks, c);
    body(ctx, worker, r.begin, r.end);
  });
}

}  // namespace mpic
