#include "src/hw/tile_scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/hw/machine_config.h"

namespace mpic {

TileScheduleResult BuildTileSchedule(int n, int num_workers,
                                     const double* estimates, double steal_cost,
                                     const TileSchedulePlacement& placement) {
  if (num_workers < 1) num_workers = 1;
  TileScheduleResult result;
  result.worker_tasks.resize(static_cast<size_t>(num_workers));
  result.worker_finish.assign(static_cast<size_t>(num_workers), 0.0);
  if (n <= 0) return result;

  // Clamp estimates to >= 1.0 so empty tiles still occupy a slot in the
  // schedule and a missing/zero estimate degenerates to unit cost.
  std::vector<double> cost(static_cast<size_t>(n), 1.0);
  if (estimates != nullptr) {
    for (int i = 0; i < n; ++i) {
      if (estimates[i] > 1.0) cost[static_cast<size_t>(i)] = estimates[i];
    }
  }

  // Near-uniform fallback: when the cost spread is small, the contiguous
  // block split is already within one task of optimal, and it preserves each
  // worker's cache affinity for its tile range across steps — LPT's permuted
  // assignment would churn tiles between per-core caches for no balance gain.
  // The ratio test is computed from the estimates alone, so the choice stays
  // deterministic. This is also the no-estimates path (all costs 1.0).
  double cmin = cost[0], cmax = cost[0];
  for (double c : cost) {
    cmin = c < cmin ? c : cmin;
    cmax = c > cmax ? c : cmax;
  }
  if (cmax <= kNearUniformCostRatio * cmin) {
    for (int w = 0; w < num_workers; ++w) {
      const int base = n / num_workers;
      const int extra = n % num_workers;
      const int begin = w * base + (w < extra ? w : extra);
      const int end = begin + base + (w < extra ? 1 : 0);
      for (int i = begin; i < end; ++i) {
        result.worker_tasks[static_cast<size_t>(w)].push_back(TileTask{i, false});
        result.worker_finish[static_cast<size_t>(w)] += cost[static_cast<size_t>(i)];
      }
    }
    for (double f : result.worker_finish) {
      result.makespan = f > result.makespan ? f : result.makespan;
    }
    return result;
  }

  // Greedy LPT over *quantized* cost classes: the planner buckets costs into
  // kCostBucketRatio multiplicative classes and assigns positions in
  // descending class (index ascending within a class) onto the worker with
  // the least planned load (lowest id on ties). Planning coarsely is what a
  // real runtime does with noisy measurements — and it is what leaves the
  // steal phase real work: with exact costs, greedy LPT provably never
  // strands a stealable task (the victim always starts its last task before
  // any thief drains), so stealing would be dead code. The within-bucket
  // spread the planner ignores becomes remainder imbalance in raw-cost
  // space, which the simulated steal phase then polishes. Bucketing also
  // stabilizes the assignment across steps: per-tile cycle jitter within
  // +/-12% of a bucket keeps the same schedule, preserving per-core cache
  // affinity. Each worker's queue keeps assignment order, so the front is
  // its biggest task and the tail its smallest — the cheapest to migrate.
  const double log_bucket = std::log(kCostBucketRatio);
  std::vector<double> planned(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const long long b = std::llround(std::log(cost[static_cast<size_t>(i)]) /
                                     log_bucket);
    planned[static_cast<size_t>(i)] =
        std::exp(static_cast<double>(b) * log_bucket);
  }
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return planned[static_cast<size_t>(a)] > planned[static_cast<size_t>(b)];
  });

  // NUMA domain of each worker (all 0 on a flat machine).
  std::vector<int> domain(static_cast<size_t>(num_workers), 0);
  for (int w = 0; w < num_workers; ++w) {
    domain[static_cast<size_t>(w)] =
        NumaDomainOfWorker(w, num_workers, placement.num_domains);
  }

  std::vector<std::vector<int>> queue(static_cast<size_t>(num_workers));
  std::vector<double> planned_load(static_cast<size_t>(num_workers), 0.0);
  std::vector<double> queued(static_cast<size_t>(num_workers), 0.0);
  for (int pos : order) {
    int best = 0;
    for (int w = 1; w < num_workers; ++w) {
      if (planned_load[static_cast<size_t>(w)] <
          planned_load[static_cast<size_t>(best)]) {
        best = w;
      }
    }
    int chosen = best;
    // Sticky placement: the planner already tolerates one bucket of cost
    // noise, so any worker whose planned load sits within one bucket ratio of
    // the minimum is "as good as least-loaded". Inside that slack, prefer the
    // position's previous owner (its pages and cached lines live there), then
    // the least-loaded worker of the owner's domain (lowest id on ties) —
    // crossing domains only when the whole domain is saturated. Tie-breaks
    // are by worker id, so the choice is a pure function of the inputs.
    if (placement.sticky && placement.prev_owner != nullptr) {
      const int po = placement.prev_owner[pos];
      if (po >= 0 && po < num_workers) {
        const double slack =
            planned_load[static_cast<size_t>(best)] * kCostBucketRatio;
        if (planned_load[static_cast<size_t>(po)] <= slack) {
          chosen = po;
        } else {
          int cand = -1;
          for (int w = 0; w < num_workers; ++w) {
            if (domain[static_cast<size_t>(w)] != domain[static_cast<size_t>(po)] ||
                planned_load[static_cast<size_t>(w)] > slack) {
              continue;
            }
            if (cand < 0 || planned_load[static_cast<size_t>(w)] <
                                planned_load[static_cast<size_t>(cand)]) {
              cand = w;
            }
          }
          if (cand >= 0) chosen = cand;
        }
      }
    }
    queue[static_cast<size_t>(chosen)].push_back(pos);
    planned_load[static_cast<size_t>(chosen)] += planned[static_cast<size_t>(pos)];
    queued[static_cast<size_t>(chosen)] += cost[static_cast<size_t>(pos)];
  }

  // Deterministic event simulation. Advance the worker with the smallest
  // modeled time (lowest id on ties): it pops the front of its own queue, or
  // — once empty — tries to steal the tail of the queue with the most
  // remaining work. The steal fires iff the thief can start the task before
  // the victim would have drained its remaining queue; the right-hand side
  // max_v (t_v + queued_v) only decreases over time, so once the test fails
  // for an idle worker it fails forever and the worker retires.
  std::vector<double> t(static_cast<size_t>(num_workers), 0.0);
  std::vector<size_t> front(static_cast<size_t>(num_workers), 0);
  std::vector<size_t> back(static_cast<size_t>(num_workers), 0);
  std::vector<bool> done(static_cast<size_t>(num_workers), false);
  for (int w = 0; w < num_workers; ++w) {
    back[static_cast<size_t>(w)] = queue[static_cast<size_t>(w)].size();
  }
  int active = num_workers;
  while (active > 0) {
    int w = -1;
    for (int c = 0; c < num_workers; ++c) {
      if (done[static_cast<size_t>(c)]) continue;
      if (w < 0 || t[static_cast<size_t>(c)] < t[static_cast<size_t>(w)]) {
        w = c;
      }
    }
    const size_t sw = static_cast<size_t>(w);
    if (front[sw] < back[sw]) {
      const int pos = queue[sw][front[sw]++];
      result.worker_tasks[sw].push_back(TileTask{pos, false});
      t[sw] += cost[static_cast<size_t>(pos)];
      queued[sw] -= cost[static_cast<size_t>(pos)];
      continue;
    }
    int victim = -1;
    for (int v = 0; v < num_workers; ++v) {
      const size_t sv = static_cast<size_t>(v);
      if (front[sv] >= back[sv]) continue;
      if (victim < 0 || queued[sv] > queued[static_cast<size_t>(victim)]) {
        victim = v;
      }
    }
    if (victim >= 0) {
      const size_t sv = static_cast<size_t>(victim);
      // Distance-dependent premium: a cross-domain steal's CAS round-trip
      // crosses the interconnect and the task descriptor's line migrates once.
      const bool remote = domain[sw] != domain[sv];
      const double this_steal_cost =
          remote ? steal_cost * placement.remote_steal_factor +
                       placement.remote_line_cost
                 : steal_cost;
      if (t[sw] + this_steal_cost < t[sv] + queued[sv]) {
        const int pos = queue[sv][--back[sv]];
        queued[sv] -= cost[static_cast<size_t>(pos)];
        result.worker_tasks[sw].push_back(TileTask{pos, true, remote});
        t[sw] += this_steal_cost + cost[static_cast<size_t>(pos)];
        ++result.total_steals;
        if (remote) ++result.total_steals_remote;
        continue;
      }
    }
    done[sw] = true;
    --active;
  }

  result.worker_finish = t;
  result.makespan = *std::max_element(t.begin(), t.end());
  return result;
}

}  // namespace mpic
