#include "src/hw/parallel_for.h"

#include "src/common/check.h"

namespace mpic {

void ParallelForTiles(HwContext& hw, int n, const TileBody& body,
                      RegionMerge merge, const RegionCosts& costs) {
  std::vector<double>* measured = costs.measured;
  std::vector<int32_t>* owners = costs.owners;
  if (measured != nullptr) {
    measured->assign(static_cast<size_t>(n), 0.0);
  }
  if (owners != nullptr) {
    owners->assign(static_cast<size_t>(n), -1);
  }
  const double* est = nullptr;
  if (costs.estimates != nullptr &&
      costs.estimates->size() == static_cast<size_t>(n)) {
    est = costs.estimates->data();
  }
  const int32_t* prev_owner = nullptr;
  if (costs.prev_owners != nullptr &&
      costs.prev_owners->size() == static_cast<size_t>(n)) {
    prev_owner = costs.prev_owners->data();
  }

  const int num_workers = hw.num_cores();
  if (num_workers <= 1) {
    for (int i = 0; i < n; ++i) {
      if (owners != nullptr) {
        (*owners)[static_cast<size_t>(i)] = 0;
      }
      if (measured != nullptr) {
        const double before = hw.ledger().TotalCycles();
        body(hw, 0, i);
        (*measured)[static_cast<size_t>(i)] =
            hw.ledger().TotalCycles() - before;
      } else {
        body(hw, 0, i);
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
    HwContext& ctx = hw.worker(w);
    ctx.ledger().Reset();
    if (ctx.mem().version() != hw.mem().version()) {
      ctx.mem() = hw.mem();
    }
    region_ledgers.push_back(&ctx.ledger());
  }

  if (hw.cfg().tile_schedule == TileSchedulePolicy::kCostSteal) {
    // Cost-guided schedule: the task lists (and the steal sequence) are
    // computed serially from the estimates before the fan-out, so they are
    // identical for every OpenMP thread count; real threads just execute the
    // lists the model assigned.
    const TileScheduleResult sched = PlanTileSchedule(hw, n, est, prev_owner);
    if (owners != nullptr) {
      // Record placements serially from the schedule (not from the execution
      // loop) so the feedback is complete even if a worker list is empty.
      for (int w = 0; w < num_workers; ++w) {
        for (const TileTask& task : sched.worker_tasks[static_cast<size_t>(w)]) {
          (*owners)[static_cast<size_t>(task.pos)] = static_cast<int32_t>(w);
        }
      }
    }
#ifdef _OPENMP
#pragma omp parallel for schedule(static, 1)
#endif
    for (int w = 0; w < num_workers; ++w) {
      HwContext& ctx = hw.worker(w);
      for (const TileTask& task : sched.worker_tasks[static_cast<size_t>(w)]) {
        // Steal overhead lands before the measurement window so the per-tile
        // probe records the tile's work, not where it ran.
        if (task.stolen) ctx.ChargeSteal(task.remote);
        if (measured != nullptr) {
          const double before = ctx.ledger().TotalCycles();
          body(ctx, w, task.pos);
          (*measured)[static_cast<size_t>(task.pos)] =
              ctx.ledger().TotalCycles() - before;
        } else {
          body(ctx, w, task.pos);
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
      HwContext& ctx = hw.worker(w);
      const TileRange range = WorkerTileRange(n, num_workers, w);
      for (int i = range.begin; i < range.end; ++i) {
        if (owners != nullptr) {
          (*owners)[static_cast<size_t>(i)] = static_cast<int32_t>(w);
        }
        if (measured != nullptr) {
          const double before = ctx.ledger().TotalCycles();
          body(ctx, w, i);
          (*measured)[static_cast<size_t>(i)] =
              ctx.ledger().TotalCycles() - before;
        } else {
          body(ctx, w, i);
        }
      }
    }
  }

  switch (merge) {
    case RegionMerge::kPhaseMax:
      hw.ledger().MergeParallel(region_ledgers);
      break;
    case RegionMerge::kFusedStages:
      hw.ledger().MergeParallelFused(region_ledgers);
      break;
  }
  // Thread wake-up + join barrier for this fan-out (serial on the main
  // context, so the cost lands once per region, not per core).
  PhaseScope phase(hw.ledger(), Phase::kOther);
  hw.ChargeCycles(hw.cfg().parallel_region_fork_join_cycles);
}

TileScheduleResult PlanTileSchedule(const HwContext& hw, int n,
                                    const double* est,
                                    const int32_t* prev_owner) {
  const int num_workers = hw.num_cores();
  TileSchedulePlacement placement;
  placement.num_domains = hw.cfg().num_numa_domains;
  placement.remote_steal_factor = hw.cfg().remote_mem_latency_factor;
  placement.remote_line_cost = hw.cfg().remote_line_transfer_cycles;
  placement.sticky = hw.cfg().sticky_placement;
  std::vector<int> prev;
  if (prev_owner != nullptr) {
    prev.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int w = static_cast<int>(prev_owner[i]);
      prev[static_cast<size_t>(i)] = (w >= 0 && w < num_workers) ? w : -1;
    }
    placement.prev_owner = prev.data();
  }
  return BuildTileSchedule(n, num_workers, est, hw.cfg().steal_cost_cycles,
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
  const int chunks = hw.num_cores();
  const Phase phase = hw.ledger().phase();
  ParallelForTiles(hw, chunks, [&](HwContext& ctx, int worker, int c) {
    PhaseScope scope(ctx.ledger(), phase);
    const TileRange r = WorkerTileRange(n, chunks, c);
    body(ctx, worker, r.begin, r.end);
  });
}

}  // namespace mpic
