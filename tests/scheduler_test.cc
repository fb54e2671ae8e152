// Cost-guided work-stealing scheduler tests: the modeled schedule must be a
// pure deterministic function of the cost estimates (LPT over bucketed costs,
// steal simulation over raw costs), every position must execute exactly once,
// and — the load-bearing invariant — physics must stay bit-identical between
// the static partition and the stealing schedule for every workload and
// modeled core count. The OpenMP-thread dimension is covered by CI running
// this binary at OMP_NUM_THREADS=1 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/hw/parallel_for.h"
#include "src/hw/tile_scheduler.h"
#include "src/runtime/digest.h"

namespace mpic {
namespace {

void UseManyThreads() {
#ifdef _OPENMP
  omp_set_num_threads(4);
#endif
}

// Flattens a schedule into per-position execution counts; fails the test if
// any position is missing, duplicated, or out of range.
std::vector<int> ExecutionCounts(const TileScheduleResult& r, int n) {
  std::vector<int> counts(static_cast<size_t>(n), 0);
  for (const auto& tasks : r.worker_tasks) {
    for (const TileTask& task : tasks) {
      EXPECT_GE(task.pos, 0);
      EXPECT_LT(task.pos, n);
      ++counts[static_cast<size_t>(task.pos)];
    }
  }
  return counts;
}

void ExpectCoversEveryPositionOnce(const TileScheduleResult& r, int n) {
  for (int c : ExecutionCounts(r, n)) {
    EXPECT_EQ(c, 1);
  }
}

int64_t CountStolenFlags(const TileScheduleResult& r) {
  int64_t stolen = 0;
  for (const auto& tasks : r.worker_tasks) {
    for (const TileTask& task : tasks) {
      if (task.stolen) {
        ++stolen;
      }
    }
  }
  return stolen;
}

// Makespan of the plain contiguous block split on the same raw costs.
double StaticMakespan(const std::vector<double>& cost, int workers) {
  const int n = static_cast<int>(cost.size());
  double makespan = 0.0;
  for (int w = 0; w < workers; ++w) {
    const int base = n / workers;
    const int extra = n % workers;
    const int begin = w * base + (w < extra ? w : extra);
    const int end = begin + base + (w < extra ? 1 : 0);
    double sum = 0.0;
    for (int i = begin; i < end; ++i) {
      sum += std::max(cost[static_cast<size_t>(i)], 1.0);
    }
    makespan = std::max(makespan, sum);
  }
  return makespan;
}

// ---- BuildTileSchedule unit tests -------------------------------------------

TEST(TileScheduler, NearUniformCostsFallBackToContiguousSplit) {
  // Spread 1.4 < kNearUniformCostRatio: the schedule must be the exact
  // contiguous block split (cache-affine, zero steals).
  std::vector<double> cost(10);
  for (int i = 0; i < 10; ++i) {
    cost[static_cast<size_t>(i)] = 100.0 + 4.0 * i;  // 100..136
  }
  const TileScheduleResult r = BuildTileSchedule(10, 3, cost.data(), 120.0);
  EXPECT_EQ(r.total_steals, 0);
  ExpectCoversEveryPositionOnce(r, 10);
  // 10 over 3 workers: 4 + 3 + 3, contiguous ascending.
  ASSERT_EQ(r.worker_tasks.size(), 3u);
  ASSERT_EQ(r.worker_tasks[0].size(), 4u);
  ASSERT_EQ(r.worker_tasks[1].size(), 3u);
  ASSERT_EQ(r.worker_tasks[2].size(), 3u);
  int expect = 0;
  for (const auto& tasks : r.worker_tasks) {
    for (const TileTask& task : tasks) {
      EXPECT_EQ(task.pos, expect++);
      EXPECT_FALSE(task.stolen);
    }
  }
}

TEST(TileScheduler, NullEstimatesFallBackToContiguousSplit) {
  const TileScheduleResult r = BuildTileSchedule(7, 2, nullptr, 120.0);
  EXPECT_EQ(r.total_steals, 0);
  ASSERT_EQ(r.worker_tasks.size(), 2u);
  EXPECT_EQ(r.worker_tasks[0].size(), 4u);
  EXPECT_EQ(r.worker_tasks[1].size(), 3u);
  ExpectCoversEveryPositionOnce(r, 7);
}

TEST(TileScheduler, EmptyAndSingleWorkerEdgeCases) {
  const TileScheduleResult empty = BuildTileSchedule(0, 4, nullptr, 120.0);
  EXPECT_EQ(empty.total_steals, 0);
  EXPECT_EQ(empty.makespan, 0.0);

  // Skewed costs on one worker: everything lands there, nothing to steal.
  std::vector<double> cost = {900.0, 10.0, 10.0, 10.0, 400.0};
  const TileScheduleResult solo = BuildTileSchedule(5, 1, cost.data(), 120.0);
  EXPECT_EQ(solo.total_steals, 0);
  ASSERT_EQ(solo.worker_tasks.size(), 1u);
  EXPECT_EQ(solo.worker_tasks[0].size(), 5u);
  ExpectCoversEveryPositionOnce(solo, 5);
}

TEST(TileScheduler, LptBalancesSkewedCostsBelowStaticMakespan) {
  // A contiguous run of heavy positions — the static partition's worst case
  // (one worker owns the whole clump).
  std::vector<double> cost(32, 50.0);
  for (int i = 4; i < 10; ++i) {
    cost[static_cast<size_t>(i)] = 2000.0;
  }
  const TileScheduleResult r = BuildTileSchedule(32, 4, cost.data(), 120.0);
  ExpectCoversEveryPositionOnce(r, 32);
  double total = 0.0;
  for (double c : cost) {
    total += c;
  }
  EXPECT_GE(r.makespan, total / 4.0);  // cannot beat the perfect split
  EXPECT_LT(r.makespan, 0.6 * StaticMakespan(cost, 4));
}

TEST(TileScheduler, ScheduleIsDeterministic) {
  std::vector<double> cost(48);
  for (int i = 0; i < 48; ++i) {
    // Deterministic pseudo-jitter with spread well over the fallback ratio.
    cost[static_cast<size_t>(i)] = 100.0 + 37.0 * ((i * 13) % 29);
  }
  const TileScheduleResult a = BuildTileSchedule(48, 4, cost.data(), 120.0);
  const TileScheduleResult b = BuildTileSchedule(48, 4, cost.data(), 120.0);
  ASSERT_EQ(a.worker_tasks.size(), b.worker_tasks.size());
  for (size_t w = 0; w < a.worker_tasks.size(); ++w) {
    ASSERT_EQ(a.worker_tasks[w].size(), b.worker_tasks[w].size());
    for (size_t k = 0; k < a.worker_tasks[w].size(); ++k) {
      EXPECT_EQ(a.worker_tasks[w][k].pos, b.worker_tasks[w][k].pos);
      EXPECT_EQ(a.worker_tasks[w][k].stolen, b.worker_tasks[w][k].stolen);
      // The default placement is flat memory: no steal crosses a domain.
      EXPECT_FALSE(a.worker_tasks[w][k].remote);
    }
  }
  EXPECT_EQ(a.total_steals, b.total_steals);
  EXPECT_EQ(a.total_steals_remote, 0);
  EXPECT_EQ(a.makespan, b.makespan);
  ExpectCoversEveryPositionOnce(a, 48);
}

TEST(TileScheduler, StealsFireOnWithinBucketSpread) {
  // Two heavy anchors pin one per worker; the 60 light tasks all quantize to
  // the same planner bucket (1000 and 1115 both round to bucket 31 of ratio
  // 1.25) but alternate in raw cost, so the LPT assignment splits them evenly
  // in *planned* load while the raw loads diverge by 30 * 115 cycles — the
  // within-bucket remainder the steal phase exists to polish.
  std::vector<double> cost;
  cost.push_back(5000.0);
  cost.push_back(5000.0);
  for (int i = 0; i < 30; ++i) {
    cost.push_back(1115.0);
    cost.push_back(1000.0);
  }
  const int n = static_cast<int>(cost.size());
  const TileScheduleResult r = BuildTileSchedule(n, 2, cost.data(), 120.0);
  ExpectCoversEveryPositionOnce(r, n);
  EXPECT_GT(r.total_steals, 0);
  EXPECT_EQ(CountStolenFlags(r), r.total_steals);
  // Stealing must not cost more than it saves: the modeled makespan stays
  // below the static contiguous split's.
  EXPECT_LT(r.makespan, StaticMakespan(cost, 2));
}

// ---- NUMA placement unit tests ----------------------------------------------

TEST(NumaDomain, ContiguousSplitLikeRankOfTile) {
  // 4 cores / 2 domains: two contiguous halves.
  const int d42[] = {0, 0, 1, 1};
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(NumaDomainOfWorker(w, 4, 2), d42[w]);
  }
  // 4 cores / 4 domains: one core per domain.
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(NumaDomainOfWorker(w, 4, 4), w);
  }
  // 6 cores / 4 domains: remainder domains lead with the extra core
  // (sizes 2, 2, 1, 1), mirroring RankOfTile's contiguous split.
  const int d64[] = {0, 0, 1, 1, 2, 3};
  for (int w = 0; w < 6; ++w) {
    EXPECT_EQ(NumaDomainOfWorker(w, 6, 4), d64[w]);
  }
  // Flat machine and clamping edge cases.
  EXPECT_EQ(NumaDomainOfWorker(3, 4, 1), 0);
  EXPECT_EQ(NumaDomainOfWorker(0, 2, 8), 0);  // more domains than cores
  EXPECT_EQ(NumaDomainOfWorker(1, 2, 8), 1);
  EXPECT_EQ(NumaDomainOfWorker(9, 4, 2), 1);  // out-of-range worker clamps
  EXPECT_EQ(NumaDomainOfWorker(-1, 4, 2), 0);
}

TEST(TileScheduler, StickyOwnerPreferredWithinBucket) {
  // Four equal-bucket positions plus one heavier anchor. Previous owners are
  // a permutation; sticky placement must honor every one of them because each
  // owner sits within the LPT slack when its position is placed.
  const std::vector<double> cost = {1000.0, 1000.0, 1000.0, 1600.0};
  const std::vector<int> prev = {3, 2, 1, 0};
  TileSchedulePlacement placement;
  placement.prev_owner = prev.data();

  const TileScheduleResult sticky =
      BuildTileSchedule(4, 4, cost.data(), 120.0, placement);
  ExpectCoversEveryPositionOnce(sticky, 4);
  EXPECT_EQ(sticky.total_steals, 0);
  for (int pos = 0; pos < 4; ++pos) {
    const auto& tasks =
        sticky.worker_tasks[static_cast<size_t>(prev[static_cast<size_t>(pos)])];
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks[0].pos, pos);
  }

  // Owner-oblivious LPT scatters the same positions by descending-bucket
  // order instead: pos3 (heaviest) to w0, then pos0/1/2 to w1/w2/w3.
  const TileScheduleResult naive = BuildTileSchedule(4, 4, cost.data(), 120.0);
  EXPECT_EQ(naive.worker_tasks[0][0].pos, 3);
  EXPECT_EQ(naive.worker_tasks[1][0].pos, 0);
  EXPECT_EQ(naive.worker_tasks[2][0].pos, 1);
  EXPECT_EQ(naive.worker_tasks[3][0].pos, 2);
}

TEST(TileScheduler, DomainMatePreferredBeforeCrossingDomains) {
  // All four positions previously ran on worker 3 (domain 1 of {0,1}|{2,3}).
  // The heavy pos0 keeps its owner; pos1 finds the owner saturated and lands
  // on the owner's domain-mate w2; pos2 finds the whole domain saturated and
  // only then crosses to w0; pos3 crosses to w1. Deterministic tie-breaks:
  // two identical calls agree exactly.
  const std::vector<double> cost = {4000.0, 1000.0, 1000.0, 1000.0};
  const std::vector<int> prev = {3, 3, 3, 3};
  TileSchedulePlacement placement;
  placement.num_domains = 2;
  placement.prev_owner = prev.data();

  const TileScheduleResult r =
      BuildTileSchedule(4, 4, cost.data(), 120.0, placement);
  ExpectCoversEveryPositionOnce(r, 4);
  ASSERT_EQ(r.worker_tasks[3].size(), 1u);
  EXPECT_EQ(r.worker_tasks[3][0].pos, 0);  // owner kept the heavy position
  ASSERT_EQ(r.worker_tasks[2].size(), 1u);
  EXPECT_EQ(r.worker_tasks[2][0].pos, 1);  // domain mate before crossing
  ASSERT_EQ(r.worker_tasks[0].size(), 1u);
  EXPECT_EQ(r.worker_tasks[0][0].pos, 2);  // domain full: cross to w0
  ASSERT_EQ(r.worker_tasks[1].size(), 1u);
  EXPECT_EQ(r.worker_tasks[1][0].pos, 3);

  const TileScheduleResult again =
      BuildTileSchedule(4, 4, cost.data(), 120.0, placement);
  for (size_t w = 0; w < 4; ++w) {
    ASSERT_EQ(r.worker_tasks[w].size(), again.worker_tasks[w].size());
    for (size_t k = 0; k < r.worker_tasks[w].size(); ++k) {
      EXPECT_EQ(r.worker_tasks[w][k].pos, again.worker_tasks[w][k].pos);
    }
  }
}

TEST(TileScheduler, RemoteStealPremiumArithmetic) {
  // Two workers in separate domains, costs {3000, 2900, 100}: LPT queues
  // {pos0, pos2} on w0 and {pos1} on w1, so w1 idles at t=2900 with pos2
  // (cost 100) still queued behind w0's 3000-cycle front — the steal window
  // is 3100 - 2900 = 200 cycles.
  const std::vector<double> cost = {3000.0, 2900.0, 100.0};

  // Flat machine, steal cost 120 < 200: the local steal fires.
  const TileScheduleResult local = BuildTileSchedule(3, 2, cost.data(), 120.0);
  EXPECT_EQ(local.total_steals, 1);
  EXPECT_EQ(local.total_steals_remote, 0);
  EXPECT_EQ(local.makespan, 2900.0 + 120.0 + 100.0);

  // Two domains, remote premium 120 * 2 + 60 = 300 > 200: the same steal is
  // no longer profitable, so w0 keeps pos2 and finishes at 3100.
  TileSchedulePlacement placement;
  placement.num_domains = 2;
  placement.remote_steal_factor = 2.0;
  placement.remote_line_cost = 60.0;
  const TileScheduleResult suppressed =
      BuildTileSchedule(3, 2, cost.data(), 120.0, placement);
  EXPECT_EQ(suppressed.total_steals, 0);
  EXPECT_EQ(suppressed.makespan, 3100.0);

  // Milder premium 120 * 1.5 + 0 = 180 < 200: the steal fires, flagged
  // remote, and the thief pays the premium in its finish time.
  placement.remote_steal_factor = 1.5;
  placement.remote_line_cost = 0.0;
  const TileScheduleResult remote =
      BuildTileSchedule(3, 2, cost.data(), 120.0, placement);
  EXPECT_EQ(remote.total_steals, 1);
  EXPECT_EQ(remote.total_steals_remote, 1);
  bool found = false;
  for (const auto& tasks : remote.worker_tasks) {
    for (const TileTask& task : tasks) {
      if (task.stolen) {
        EXPECT_TRUE(task.remote);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(remote.makespan, 2900.0 + 180.0 + 100.0);
}

TEST(SchedulerLedger, ChargeStealRemotePremiumAndCounters) {
  MachineConfig cfg = MachineConfig::Lx2MultiCoreNuma(2, 2);
  HwContext hw(cfg);
  const double before = hw.ledger().TotalCycles();
  hw.ChargeSteal(false);
  const double local_cost =
      cfg.steal_cost_cycles + cfg.dram_penalty_cycles;
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles() - before, local_cost);
  EXPECT_EQ(hw.ledger().counters().tasks_stolen, 1u);
  EXPECT_EQ(hw.ledger().counters().tasks_stolen_remote, 0u);

  hw.ChargeSteal(true);
  const double remote_cost =
      cfg.steal_cost_cycles * cfg.remote_mem_latency_factor +
      cfg.remote_line_transfer_cycles + cfg.dram_penalty_cycles;
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles() - before,
                   local_cost + remote_cost);
  EXPECT_EQ(hw.ledger().counters().tasks_stolen, 2u);
  EXPECT_EQ(hw.ledger().counters().tasks_stolen_remote, 1u);
  EXPECT_DOUBLE_EQ(hw.ledger().counters().steal_cycles,
                   local_cost + remote_cost);
}

TEST(SchedulerNuma, PlacementKeepsPhysicsBitIdenticalAndCyclesDeterministic) {
  UseManyThreads();
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;

  const auto run = [&](MachineConfig cfg) {
    HwContext hw(cfg);
    auto sim = MakeBunchedBeamSimulation(hw, p);
    sim->Run(4);
    return std::pair<uint64_t, double>(SimulationDigest(*sim),
                                       hw.ledger().TotalCycles());
  };

  const auto flat = run(MachineConfig::Lx2MultiCore(4));
  MachineConfig naive = MachineConfig::Lx2MultiCoreNuma(4, 2);
  naive.sticky_placement = false;
  const auto numa_naive = run(naive);
  const auto numa_sticky = run(MachineConfig::Lx2MultiCoreNuma(4, 2));
  const auto numa_per_core = run(MachineConfig::Lx2MultiCoreNuma(4, 4));

  // NUMA charges and placement never touch the physics.
  EXPECT_EQ(flat.first, numa_naive.first);
  EXPECT_EQ(flat.first, numa_sticky.first);
  EXPECT_EQ(flat.first, numa_per_core.first);

  // The modeled cycle total is deterministic per configuration.
  const auto sticky_again = run(MachineConfig::Lx2MultiCoreNuma(4, 2));
  EXPECT_EQ(numa_sticky.first, sticky_again.first);
  EXPECT_EQ(numa_sticky.second, sticky_again.second);
}

// PlanTileSchedule is the planner the region runs: fed one region's measured
// costs and owners, it returns the task lists the next region executes.
TEST(SchedulerNuma, PlannerPredictsTheNextRegion) {
  UseManyThreads();
  HwContext hw(MachineConfig::Lx2MultiCoreNuma(4, 2));
  const int n = 24;
  // Skewed per-position work, so the schedule is LPT with steals and sticky
  // owners rather than the near-uniform block split.
  const TileBody body = [](HwContext& ctx, int, int t) {
    ctx.ChargeCycles(t % 7 == 0 ? 9000.0 : 1000.0 + 170.0 * (t % 5));
  };
  std::vector<double> measured;
  std::vector<int32_t> owners;
  RegionCosts first;
  first.measured = &measured;
  first.owners = &owners;
  ParallelForTiles(hw, n, body, RegionMerge::kPhaseMax, first);

  const TileScheduleResult plan =
      PlanTileSchedule(hw, n, measured.data(), owners.data());
  std::vector<int32_t> planned(static_cast<size_t>(n), -1);
  for (int w = 0; w < 4; ++w) {
    for (const TileTask& task : plan.worker_tasks[static_cast<size_t>(w)]) {
      planned[static_cast<size_t>(task.pos)] = w;
    }
  }
  EXPECT_GT(plan.total_steals, 0);

  std::vector<int32_t> next_owners;
  RegionCosts second;
  second.estimates = &measured;
  second.prev_owners = &owners;
  second.owners = &next_owners;
  ParallelForTiles(hw, n, body, RegionMerge::kPhaseMax, second);
  EXPECT_EQ(planned, next_owners);
  EXPECT_NE(planned, owners);  // the first region ran the block split
}

// ---- Physics bit-identity: static vs stealing -------------------------------

uint64_t DigestAfterRun(std::unique_ptr<Simulation> sim, int steps) {
  sim->Run(steps);
  return SimulationDigest(*sim);
}

// Builds each workload under one (policy, cores) machine and returns the
// digests after a few steps.
struct MatrixDigests {
  uint64_t uniform = 0;
  uint64_t bunched = 0;
  uint64_t lwfa = 0;
};

MatrixDigests RunMatrix(TileSchedulePolicy policy, int cores) {
  UseManyThreads();
  const auto mk_hw = [&] {
    return policy == TileSchedulePolicy::kCostSteal
               ? MachineConfig::Lx2MultiCoreStealing(cores)
               : MachineConfig::Lx2MultiCore(cores);
  };
  MatrixDigests d;

  UniformWorkloadParams up;
  up.nx = up.ny = up.nz = 8;
  up.ppc_x = up.ppc_y = up.ppc_z = 2;
  up.tile = 4;
  {
    HwContext hw(mk_hw());
    d.uniform = DigestAfterRun(MakeUniformSimulation(hw, up), 4);
  }

  BunchedBeamParams bp;
  bp.ppc_x = bp.ppc_y = bp.ppc_z = 4;  // lighter than the bench, same shape
  {
    HwContext hw(mk_hw());
    d.bunched = DigestAfterRun(MakeBunchedBeamSimulation(hw, bp), 3);
  }

  LwfaWorkloadParams lp;
  lp.nx = lp.ny = 8;
  lp.nz = 32;
  lp.tile = 4;
  lp.tile_z = 8;
  {
    HwContext hw(mk_hw());
    d.lwfa = DigestAfterRun(MakeLwfaSimulation(hw, lp), 6);
  }
  return d;
}

class SchedulerBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerBitIdentity, DigestsMatchStaticAcrossPolicies) {
  const int cores = GetParam();
  const MatrixDigests st = RunMatrix(TileSchedulePolicy::kStatic, cores);
  const MatrixDigests sl = RunMatrix(TileSchedulePolicy::kCostSteal, cores);
  EXPECT_EQ(st.uniform, sl.uniform);
  EXPECT_EQ(st.bunched, sl.bunched);
  EXPECT_EQ(st.lwfa, sl.lwfa);
}

INSTANTIATE_TEST_SUITE_P(Cores, SchedulerBitIdentity, ::testing::Values(1, 2, 4));

// ---- Steal accounting -------------------------------------------------------

TEST(SchedulerLedger, BunchedRunStealsAndChargesDeterministically) {
  UseManyThreads();
  BunchedBeamParams p;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;

  const auto run = [&](TileSchedulePolicy policy) {
    HwContext hw(policy == TileSchedulePolicy::kCostSteal
                     ? MachineConfig::Lx2MultiCoreStealing(4)
                     : MachineConfig::Lx2MultiCore(4));
    auto sim = MakeBunchedBeamSimulation(hw, p);
    sim->Run(4);
    struct {
      uint64_t stolen;
      double steal_cycles;
      double total;
    } out{hw.ledger().counters().tasks_stolen,
          hw.ledger().counters().steal_cycles, hw.ledger().TotalCycles()};
    return out;
  };

  const auto static_run = run(TileSchedulePolicy::kStatic);
  EXPECT_EQ(static_run.stolen, 0u);
  EXPECT_EQ(static_run.steal_cycles, 0.0);

  const auto steal_a = run(TileSchedulePolicy::kCostSteal);
  const auto steal_b = run(TileSchedulePolicy::kCostSteal);
  EXPECT_GT(steal_a.stolen, 0u) << "clumped 4-core run should steal";
  EXPECT_GT(steal_a.steal_cycles, 0.0);
  // The schedule — and with it every modeled charge — is a pure function of
  // the cost estimates, so two identical runs agree to the last cycle.
  EXPECT_EQ(steal_a.stolen, steal_b.stolen);
  EXPECT_EQ(steal_a.steal_cycles, steal_b.steal_cycles);
  EXPECT_EQ(steal_a.total, steal_b.total);
}

}  // namespace
}  // namespace mpic
