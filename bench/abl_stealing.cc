// Work-stealing scheduler ablation: static contiguous partition vs the
// cost-guided LPT + work-stealing tile scheduler (TileSchedulePolicy), on the
// clumped bunched-beam workload and the uniform control.
//
// Gates (non-zero exit on any failure):
//   * Bunched beam at 4 modeled cores: stealing cuts modeled critical-path
//     cycles by >= 25% vs the static partition.
//   * Uniform plasma at 4 modeled cores: stealing regresses modeled cycles by
//     <= 1% (LPT over near-equal costs must not cost anything material).
//   * Physics digests (full SimulationDigest) bit-identical across
//     static/stealing x cores {1, 2, 4} on both workloads — the scheduler
//     moves tiles between modeled cores, never changes what they compute.
//   * The bunched workload actually exhibits >= 4:1 per-tile imbalance.
//
// Also prints the pass-1 schedule the next step would run (per-core tile and
// steal counts from PlanTileSchedule, the planner the region itself calls),
// steal counters from the ledger, and the per-phase critical-path breakdown.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/hw/parallel_for.h"

namespace mpic {
namespace {

struct StealPoint {
  WindowRecord window;
  double imbalance = 1.0;
  // Final-step pass-1 schedule: tiles per modeled core (stolen included).
  std::vector<int> core_tiles;
  std::vector<int> core_steals;
};

StealPoint RunPoint(TileSchedulePolicy policy, int cores, int warmup, int steps,
                    const BenchWorkload& workload) {
  SetThreads(cores);
  HwContext hw(policy == TileSchedulePolicy::kCostSteal
                   ? MachineConfig::Lx2MultiCoreStealing(cores)
                   : MachineConfig::Lx2MultiCore(cores));
  std::unique_ptr<Simulation> sim = workload.make(hw);
  StealPoint r;
  r.imbalance = TileImbalance(*sim, 0);
  r.window = MeasureWindow(*sim, warmup, steps);

  // The pass-1 schedule the next step's region would run, planned from the
  // committed estimates and owners (a static run records no estimates, so
  // it plans the block split it runs).
  const StageCostFeedback& costs = sim->block(0).pass1_costs;
  const auto n = static_cast<size_t>(sim->block(0).tiles.num_tiles());
  const TileScheduleResult sched = PlanTileSchedule(
      hw, static_cast<int>(n),
      costs.estimate.size() == n ? costs.estimate.data() : nullptr,
      costs.owner.size() == n ? costs.owner.data() : nullptr);
  for (const std::vector<TileTask>& tasks : sched.worker_tasks) {
    int steals = 0;
    for (const TileTask& t : tasks) {
      if (t.stolen) ++steals;
    }
    r.core_tiles.push_back(static_cast<int>(tasks.size()));
    r.core_steals.push_back(steals);
  }
  return r;
}

const char* PolicyName(TileSchedulePolicy p) {
  return p == TileSchedulePolicy::kCostSteal ? "steal" : "static";
}

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += "/";
    out += std::to_string(v[i]);
  }
  return out;
}

bool Run(int warmup, int steps) {
  PrintThreadBanner();

  const std::vector<int> core_counts = {1, 2, 4};
  const std::vector<TileSchedulePolicy> policies = {
      TileSchedulePolicy::kStatic, TileSchedulePolicy::kCostSteal};

  bool ok = true;
  double bunched_static4 = 0.0, bunched_steal4 = 0.0;
  double uniform_static4 = 0.0, uniform_steal4 = 0.0;
  StealPoint bunched_steal4_point;
  double bunched_imbalance = 0.0;

  JsonWriter json;
  json.Field("bench", "abl_stealing");
  json.Field("warmup", warmup);
  json.Field("steps", steps);
  json.BeginArray("runs");

  ConsoleTable t({"Workload", "Schedule", "Cores", "Model cycles", "vs static",
                  "Stolen", "Tiles/core", "Steals/core", "Digest"});
  for (const BenchWorkload& w : SchedulerWorkloads()) {
    uint64_t ref_digest = 0;
    bool have_ref = false;
    std::vector<double> static_cycles(core_counts.size(), 0.0);
    for (TileSchedulePolicy policy : policies) {
      for (size_t ci = 0; ci < core_counts.size(); ++ci) {
        const int cores = core_counts[ci];
        const StealPoint r = RunPoint(policy, cores, warmup, steps, w);
        const WindowRecord& win = r.window;
        if (!have_ref) {
          ref_digest = win.sim_digest;
          have_ref = true;
        }
        if (win.sim_digest != ref_digest) {
          ok = false;
        }
        if (policy == TileSchedulePolicy::kStatic) {
          static_cycles[ci] = win.cycles;
        }
        const double ratio =
            static_cycles[ci] > 0.0 ? win.cycles / static_cycles[ci] : 1.0;
        if (w.name == std::string("bunched")) {
          bunched_imbalance = r.imbalance;
          if (cores == 4) {
            if (policy == TileSchedulePolicy::kStatic) {
              bunched_static4 = win.cycles;
            } else {
              bunched_steal4 = win.cycles;
              bunched_steal4_point = r;
            }
          }
        } else if (cores == 4) {
          if (policy == TileSchedulePolicy::kStatic) {
            uniform_static4 = win.cycles;
          } else {
            uniform_steal4 = win.cycles;
          }
        }
        const std::string digest_hex = DigestHex(win.sim_digest);
        json.BeginObject();
        json.Field("workload", w.name);
        json.Field("schedule", PolicyName(policy));
        json.Field("cores", cores);
        json.Field("cycles", win.cycles);
        json.Field("vs_static", ratio);
        json.Field("tasks_stolen", win.counters.tasks_stolen);
        json.Field("steal_cycles", win.counters.steal_cycles);
        json.Field("digest", digest_hex);
        json.EndObject();
        t.AddRow({w.name, PolicyName(policy), std::to_string(cores),
                  FormatSci(win.cycles, 4), FormatDouble(ratio, 3),
                  std::to_string(win.counters.tasks_stolen),
                  JoinInts(r.core_tiles), JoinInts(r.core_steals), digest_hex});
      }
    }
  }
  t.Print("Work-stealing scheduler ablation (bunched beam 16^3 vs uniform)");

  // Critical-path breakdown of the 4-core stealing bunched run.
  std::printf("\nBunched 4-core stealing critical path (modeled cycles):\n");
  const WindowRecord& steal4 = bunched_steal4_point.window;
  for (int p = 0; p < kNumPhases; ++p) {
    const double c = steal4.phase_cycles[static_cast<size_t>(p)];
    if (c > 0.0) {
      std::printf("  %-8s %.3e\n", PhaseName(static_cast<Phase>(p)), c);
    }
  }
  std::printf("  steal overhead: %.3e cycles over %llu steals\n",
              steal4.counters.steal_cycles,
              static_cast<unsigned long long>(steal4.counters.tasks_stolen));

  const double improvement =
      bunched_static4 > 0.0 ? 1.0 - bunched_steal4 / bunched_static4 : 0.0;
  const double regression =
      uniform_static4 > 0.0 ? uniform_steal4 / uniform_static4 - 1.0 : 0.0;
  std::printf("\nBunched per-tile imbalance (max/mean): %.2f (gate >= 4)\n",
              bunched_imbalance);
  std::printf("Bunched 4-core improvement from stealing: %.1f%% (gate >= 25%%)\n",
              improvement * 100.0);
  std::printf("Uniform 4-core regression from stealing: %.2f%% (gate <= 1%%)\n",
              regression * 100.0);
  std::printf("Physics digests %s across schedules and core counts.\n",
              ok ? "IDENTICAL" : "DIFFER (BUG!)");

  bool pass = ok;
  if (bunched_imbalance < 4.0) {
    std::printf("FAIL: bunched workload imbalance below 4:1.\n");
    pass = false;
  }
  if (improvement < 0.25) {
    std::printf("FAIL: stealing improvement below 25%% on the bunched beam.\n");
    pass = false;
  }
  if (regression > 0.01) {
    std::printf("FAIL: stealing regresses the uniform workload by > 1%%.\n");
    pass = false;
  }
  if (!ok) {
    std::printf("FAIL: physics digests differ.\n");
  }

  json.EndArray();
  json.BeginObject("gates");
  json.Field("bunched_imbalance", bunched_imbalance);
  json.Field("bunched_improvement", improvement);
  json.Field("uniform_regression", regression);
  json.Field("digests_identical", ok);
  json.Field("pass", pass);
  json.EndObject();
  json.WriteFile("BENCH_stealing.json");
  return pass;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv,
      {{"warmup", 2, 1, mpic::kMaxBenchSteps},
       {"steps", 6, 1, mpic::kMaxBenchSteps}});
  return mpic::Run(args[0], args[1]) ? 0 : 1;
}
