// NUMA placement ablation: owner-oblivious LPT (sticky_placement = false) vs
// sticky-owner placement on the cost-steal scheduler, at 4 modeled cores
// split into 1 vs 2 NUMA domains, on the bunched-beam stress workload, the
// uniform control, and the LWFA application workload. The memory model
// charges `remote_mem_latency_factor` on DRAM lines homed in another domain,
// so placement quality shows up as the remote-line count, and steals carry a
// distance-dependent premium split local/remote in the ledger.
//
// Gates (non-zero exit on any failure):
//   * Physics digests bit-identical across placement arms and domain counts
//     on every headline workload, and across the full determinism matrix —
//     domains {1,2,4} x cores {1,2,4} x {static, cost-steal} — on a reduced
//     bunched beam.
//   * Modeled cycles AND digests bit-identical between OpenMP thread counts
//     1 and 4 for every matrix configuration (in-process rerun): the NUMA
//     charges are part of the model, so they must stay a pure function of
//     modeled quantities, never of the real thread count.
//   * Bunched beam at 4 cores / 2 domains: sticky-owner placement cuts
//     modeled remote lines >= 30% vs owner-oblivious LPT at equal-or-better
//     modeled critical path.
//   * Uniform at 4 cores / 2 domains: sticky regresses modeled cycles by
//     <= 0.5%.
//
// Prints the critical-path phase breakdown of the bunched sticky run and
// emits machine-readable BENCH_numa.json next to the console tables.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/hw/tile_scheduler.h"

namespace mpic {
namespace {

struct NumaPoint {
  double cycles = 0.0;  // modeled cycles over the measured window
  uint64_t digest = 0;  // SimulationDigest after the full run
  uint64_t stolen = 0, stolen_remote = 0;
  double steal_cycles = 0.0;
  uint64_t remote_lines = 0, l2_misses = 0;
  double remote_cycles = 0.0;
  std::array<double, kNumPhases> phase_cycles{};
};

struct PointConfig {
  int cores = 4;
  int domains = 1;
  int threads = 4;  // real OpenMP threads; must never change the model
  TileSchedulePolicy policy = TileSchedulePolicy::kCostSteal;
  bool sticky = true;
};

using MakeSim = std::function<std::unique_ptr<Simulation>(HwContext&)>;

NumaPoint RunPoint(const PointConfig& pc, int warmup, int steps,
                   const MakeSim& make_sim) {
#ifdef _OPENMP
  omp_set_num_threads(pc.threads);
#endif
  MachineConfig cfg = pc.policy == TileSchedulePolicy::kCostSteal
                          ? MachineConfig::Lx2MultiCoreNuma(pc.cores, pc.domains)
                          : MachineConfig::Lx2MultiCore(pc.cores);
  cfg.num_numa_domains = pc.domains;
  cfg.sticky_placement = pc.sticky;
  HwContext hw(cfg);
  std::unique_ptr<Simulation> sim = make_sim(hw);
  sim->Run(warmup);
  const double cycles0 = hw.ledger().TotalCycles();
  const LedgerCounters c0 = hw.ledger().counters();
  std::array<double, kNumPhases> phase0{};
  for (int p = 0; p < kNumPhases; ++p) {
    phase0[static_cast<size_t>(p)] =
        hw.ledger().PhaseCycles(static_cast<Phase>(p));
  }
  sim->Run(steps);
  const LedgerCounters& c1 = hw.ledger().counters();
  NumaPoint r;
  r.cycles = hw.ledger().TotalCycles() - cycles0;
  for (int p = 0; p < kNumPhases; ++p) {
    r.phase_cycles[static_cast<size_t>(p)] =
        hw.ledger().PhaseCycles(static_cast<Phase>(p)) -
        phase0[static_cast<size_t>(p)];
  }
  r.stolen = c1.tasks_stolen - c0.tasks_stolen;
  r.stolen_remote = c1.tasks_stolen_remote - c0.tasks_stolen_remote;
  r.steal_cycles = c1.steal_cycles - c0.steal_cycles;
  r.remote_lines = c1.remote_lines - c0.remote_lines;
  r.l2_misses = c1.l2_misses - c0.l2_misses;
  r.remote_cycles = c1.remote_cycles - c0.remote_cycles;
  r.digest = SimulationDigest(*sim);
  return r;
}

BunchedBeamParams BunchedParams() {
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;
  return p;
}

UniformWorkloadParams UniformParams() {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 3;
  return p;
}

LwfaWorkloadParams LwfaParams() {
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  return p;
}

// Reduced bunched beam for the determinism matrix (36 short runs).
BunchedBeamParams SmallBunchedParams() {
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  return p;
}

double RemoteShare(const NumaPoint& r) {
  return r.l2_misses == 0
             ? 0.0
             : static_cast<double>(r.remote_lines) /
                   static_cast<double>(r.l2_misses);
}

bool Run(int warmup, int steps) {
#ifdef _OPENMP
  std::printf("OpenMP enabled, %d host thread(s) available.\n",
              omp_get_max_threads());
#else
  std::printf("Built without OpenMP: partitions run serially.\n");
#endif

  JsonWriter json;
  json.Field("bench", "abl_numa");
  json.Field("warmup", warmup);
  json.Field("steps", steps);

  struct Workload {
    const char* name;
    MakeSim make;
  };
  const std::vector<Workload> workloads = {
      {"bunched",
       [](HwContext& hw) { return MakeBunchedBeamSimulation(hw, BunchedParams()); }},
      {"uniform",
       [](HwContext& hw) { return MakeUniformSimulation(hw, UniformParams()); }},
      {"lwfa",
       [](HwContext& hw) { return MakeLwfaSimulation(hw, LwfaParams()); }},
  };

  // ---- Headline grid: 4 cores, domains {1,2}, naive vs sticky -------------
  bool digests_ok = true;
  NumaPoint bunched_naive2, bunched_sticky2, uniform_naive2, uniform_sticky2;
  json.BeginArray("runs");
  ConsoleTable t({"Workload", "Domains", "Placement", "Model cycles",
                  "vs naive", "Stolen (loc/rem)", "Remote lines", "Rem share",
                  "Digest"});
  for (const Workload& w : workloads) {
    uint64_t ref_digest = 0;
    bool have_ref = false;
    for (const int domains : {1, 2}) {
      double naive_cycles = 0.0;
      for (const bool sticky : {false, true}) {
        PointConfig pc;
        pc.cores = 4;
        pc.domains = domains;
        pc.sticky = sticky;
        const NumaPoint r = RunPoint(pc, warmup, steps, w.make);
        if (!have_ref) {
          ref_digest = r.digest;
          have_ref = true;
        }
        digests_ok = digests_ok && r.digest == ref_digest;
        if (!sticky) {
          naive_cycles = r.cycles;
        }
        if (w.name == std::string("bunched") && domains == 2) {
          (sticky ? bunched_sticky2 : bunched_naive2) = r;
        }
        if (w.name == std::string("uniform") && domains == 2) {
          (sticky ? uniform_sticky2 : uniform_naive2) = r;
        }
        const double ratio = naive_cycles > 0.0 ? r.cycles / naive_cycles : 1.0;
        const char* placement = sticky ? "sticky" : "naive";
        json.BeginObject();
        json.Field("workload", w.name);
        json.Field("cores", pc.cores);
        json.Field("domains", domains);
        json.Field("placement", placement);
        json.Field("cycles", r.cycles);
        json.Field("vs_naive", ratio);
        json.Field("tasks_stolen", r.stolen);
        json.Field("tasks_stolen_remote", r.stolen_remote);
        json.Field("steal_cycles", r.steal_cycles);
        json.Field("remote_lines", r.remote_lines);
        json.Field("remote_cycles", r.remote_cycles);
        json.Field("remote_share", RemoteShare(r));
        json.Field("digest", DigestHex(r.digest));
        json.EndObject();
        char share[24];
        std::snprintf(share, sizeof(share), "%.3f", RemoteShare(r));
        t.AddRow({w.name, std::to_string(domains), placement,
                  FormatSci(r.cycles, 4), FormatDouble(ratio, 3),
                  std::to_string(r.stolen - r.stolen_remote) + "/" +
                      std::to_string(r.stolen_remote),
                  std::to_string(r.remote_lines), share, DigestHex(r.digest)});
      }
    }
  }
  json.EndArray();
  t.Print("NUMA placement ablation (4 modeled cores, naive LPT vs sticky owner)");

  // Critical path of the bunched 2-domain sticky run.
  std::printf("\nBunched 4-core / 2-domain sticky critical path (modeled cycles):\n");
  for (int p = 0; p < kNumPhases; ++p) {
    const double c = bunched_sticky2.phase_cycles[static_cast<size_t>(p)];
    if (c > 0.0) {
      std::printf("  %-8s %.3e\n", PhaseName(static_cast<Phase>(p)), c);
    }
  }
  std::printf("  steals: %llu local + %llu remote, %.3e cycles overhead\n",
              static_cast<unsigned long long>(bunched_sticky2.stolen -
                                              bunched_sticky2.stolen_remote),
              static_cast<unsigned long long>(bunched_sticky2.stolen_remote),
              bunched_sticky2.steal_cycles);

  // ---- Determinism matrix on the reduced bunched beam ---------------------
  // Digests must match across everything; cycles and digests must match
  // between OpenMP thread counts for each configuration.
  bool matrix_digests_ok = true;
  bool omp_identical = true;
  uint64_t matrix_ref = 0;
  bool have_matrix_ref = false;
  const MakeSim make = [](HwContext& hw) {
    return MakeBunchedBeamSimulation(hw, SmallBunchedParams());
  };
  for (const TileSchedulePolicy policy :
       {TileSchedulePolicy::kStatic, TileSchedulePolicy::kCostSteal}) {
    for (const int domains : {1, 2, 4}) {
      for (const int cores : {1, 2, 4}) {
        PointConfig pc;
        pc.cores = cores;
        pc.domains = domains;
        pc.policy = policy;
        pc.threads = 4;
        const NumaPoint r4 = RunPoint(pc, /*warmup=*/1, /*steps=*/3, make);
        pc.threads = 1;
        const NumaPoint r1 = RunPoint(pc, /*warmup=*/1, /*steps=*/3, make);
        if (!have_matrix_ref) {
          matrix_ref = r4.digest;
          have_matrix_ref = true;
        }
        matrix_digests_ok = matrix_digests_ok && r4.digest == matrix_ref &&
                            r1.digest == matrix_ref;
        omp_identical = omp_identical && r1.cycles == r4.cycles &&
                        r1.digest == r4.digest;
      }
    }
  }
  std::printf(
      "\nDeterminism matrix (domains x cores x policy): "
      "digests %s, OMP 1-vs-4 cycles %s.\n",
      matrix_digests_ok ? "IDENTICAL" : "DIFFER (BUG!)",
      omp_identical ? "IDENTICAL" : "DIFFER (BUG!)");

  // ---- Gates --------------------------------------------------------------
  const double remote_cut =
      bunched_naive2.remote_lines > 0
          ? 1.0 - static_cast<double>(bunched_sticky2.remote_lines) /
                      static_cast<double>(bunched_naive2.remote_lines)
          : 0.0;
  const double uniform_regression =
      uniform_naive2.cycles > 0.0
          ? uniform_sticky2.cycles / uniform_naive2.cycles - 1.0
          : 0.0;
  std::printf("Bunched 2-domain remote-line cut from sticky placement: "
              "%.1f%% (gate >= 30%%)\n",
              remote_cut * 100.0);
  std::printf("Bunched 2-domain sticky/naive critical path: %.4f "
              "(gate <= 1.0)\n",
              bunched_naive2.cycles > 0.0
                  ? bunched_sticky2.cycles / bunched_naive2.cycles
                  : 1.0);
  std::printf("Uniform 2-domain regression from sticky placement: %.2f%% "
              "(gate <= 0.5%%)\n",
              uniform_regression * 100.0);
  std::printf("Headline physics digests %s across domains and placements.\n",
              digests_ok ? "IDENTICAL" : "DIFFER (BUG!)");

  bool pass = true;
  if (!digests_ok || !matrix_digests_ok) {
    std::printf("FAIL: physics digests differ.\n");
    pass = false;
  }
  if (!omp_identical) {
    std::printf("FAIL: modeled cycles depend on the OpenMP thread count.\n");
    pass = false;
  }
  if (remote_cut < 0.30) {
    std::printf("FAIL: sticky placement cuts remote lines by < 30%%.\n");
    pass = false;
  }
  if (bunched_sticky2.cycles > bunched_naive2.cycles) {
    std::printf("FAIL: sticky placement worsens the bunched critical path.\n");
    pass = false;
  }
  if (uniform_regression > 0.005) {
    std::printf("FAIL: sticky placement regresses the uniform workload "
                "by > 0.5%%.\n");
    pass = false;
  }

  json.BeginObject("gates");
  json.Field("remote_line_cut", remote_cut);
  json.Field("bunched_sticky_vs_naive",
             bunched_naive2.cycles > 0.0
                 ? bunched_sticky2.cycles / bunched_naive2.cycles
                 : 1.0);
  json.Field("uniform_regression", uniform_regression);
  json.Field("digests_identical", digests_ok && matrix_digests_ok);
  json.Field("omp_identical", omp_identical);
  json.Field("pass", pass);
  json.EndObject();
  json.WriteFile("BENCH_numa.json");
  return pass;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  int warmup = argc > 1 ? std::atoi(argv[1]) : 2;
  int steps = argc > 2 ? std::atoi(argv[2]) : 6;
  if (warmup < 1 || steps < 1) {
    std::fprintf(stderr, "usage: %s [warmup >= 1] [steps >= 1]; using defaults\n",
                 argv[0]);
    warmup = warmup < 1 ? 2 : warmup;
    steps = steps < 1 ? 6 : steps;
  }
  return mpic::Run(warmup, steps) ? 0 : 1;
}
