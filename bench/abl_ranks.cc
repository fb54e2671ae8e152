// Multi-rank decomposition ablation: strong and weak scaling of the modeled
// z-slab rank decomposition, with the comm-vs-compute cycle breakdown the
// Phase::kComm ledger bucket makes visible.
//
// The ranks are a cost-model construct layered over one global simulation:
// each rank's cores sweep the rank's own tile slab (the field solve, window
// shift and global sorts included), the stages that stay serial (guard folds,
// mover delivery, the shared-J scatter deposit) scale by 1/R, and the
// guard-plane halo exchange plus cross-rank particle migration are charged
// to Phase::kComm through the modeled inter-rank link. The
// physics is computed once, identically, whatever the rank count — which is
// exactly what the digest matrix gates.
//
// Gates (non-zero exit on any failure):
//   * Physics digests (full SimulationDigest) bit-identical across
//     ranks {1, 2, 4, 8} x cores {1, 4} x static/steal.
//   * Phase::kComm > 0 on every multi-rank run, and == 0 at one rank.
//   * Strong scaling: 8 ranks beat 1 rank in modeled cycles.
// MeasureWindow aborts if any phase's cycles, kComm included, are not finite.
//
// Tables: strong scaling (fixed 8x8x32 grid), weak scaling (8x8x(8R) grid,
// constant work per rank), each with comm cycles, comm share, and the
// rank-link traffic from the per-rank RankCommStats.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

struct RankPoint {
  WindowRecord window;
  double comm_cycles = 0.0;    // Phase::kComm share of the window
  uint64_t link_bytes = 0;     // summed over ranks
  uint64_t link_messages = 0;  // summed over ranks
  uint64_t migrated = 0;       // cross-rank movers, summed over ranks
  bool comm_ok = true;         // kComm > 0 iff ranks > 1
};

// Uniform thermal plasma with enough z extent that the tile-plane count
// divides every rank count under test, and enough thermal churn that
// particles actually cross the rank planes.
UniformWorkloadParams BaseParams(int nz) {
  UniformWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = nz;  // tile 4 -> nz/4 tile planes along z
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.u_th = 0.1;
  return p;
}

RankPoint RunPoint(const UniformWorkloadParams& p, int ranks, int cores,
                   bool steal, int warmup, int steps) {
  SetThreads(cores);
  HwContext hw(MachineConfig::Lx2Cluster(ranks, cores, steal));
  auto sim = MakeUniformSimulation(hw, p);
  RankPoint r;
  r.window = MeasureWindow(*sim, warmup, steps);
  r.comm_cycles = r.window.phase_cycles[static_cast<size_t>(Phase::kComm)];
  if (ranks > 1) {
    r.comm_ok = r.comm_cycles > 0.0 && sim->rank_comm() != nullptr;
    if (sim->rank_comm() != nullptr) {
      for (const RankCommStats& s : sim->rank_comm()->stats()) {
        r.link_bytes += s.bytes_sent;
        r.link_messages += s.messages;
        r.migrated += s.migrated_particles;
      }
    }
  } else {
    r.comm_ok = r.comm_cycles == 0.0 && sim->rank_comm() == nullptr;
  }
  return r;
}

bool Run(int warmup, int steps) {
  PrintThreadBanner();

  const std::vector<int> rank_counts = {1, 2, 4, 8};
  bool pass = true;

  // ---- Strong scaling: fixed global grid, ranks split it ever thinner. ----
  {
    ConsoleTable t({"Ranks", "Model cycles", "Speedup", "Comm cycles",
                    "Comm %", "Link MiB", "Msgs", "Migrated"});
    double base = 0.0;
    double best = 0.0;
    const UniformWorkloadParams p = BaseParams(32);  // 8 tile planes
    for (int ranks : rank_counts) {
      const RankPoint r = RunPoint(p, ranks, 4, false, warmup, steps);
      if (ranks == 1) base = r.window.cycles;
      if (ranks == 8) best = r.window.cycles;
      if (!r.comm_ok) {
        std::printf("FAIL: comm-phase accounting wrong at %d ranks (strong).\n",
                    ranks);
        pass = false;
      }
      t.AddRow({std::to_string(ranks), FormatSci(r.window.cycles, 4),
                FormatDouble(base > 0.0 ? base / r.window.cycles : 1.0, 2),
                FormatSci(r.comm_cycles, 3),
                FormatDouble(r.window.cycles > 0.0
                                 ? 100.0 * r.comm_cycles / r.window.cycles
                                 : 0.0,
                             1),
                FormatDouble(static_cast<double>(r.link_bytes) / (1024.0 * 1024.0), 2),
                std::to_string(r.link_messages), std::to_string(r.migrated)});
    }
    t.Print("Strong scaling, 8x8x32 uniform plasma, 4 modeled cores/rank");
    if (best >= base) {
      std::printf("FAIL: 8 ranks not faster than 1 rank on the fixed grid.\n");
      pass = false;
    }
  }

  // ---- Weak scaling: constant slab per rank, the grid grows with R. -------
  {
    ConsoleTable t({"Ranks", "Grid", "Model cycles", "Efficiency",
                    "Comm cycles", "Comm %"});
    double base = 0.0;
    for (int ranks : rank_counts) {
      const UniformWorkloadParams p = BaseParams(8 * ranks);
      const RankPoint r = RunPoint(p, ranks, 4, false, warmup, steps);
      if (ranks == 1) base = r.window.cycles;
      if (!r.comm_ok) {
        std::printf("FAIL: comm-phase accounting wrong at %d ranks (weak).\n",
                    ranks);
        pass = false;
      }
      t.AddRow({std::to_string(ranks),
                "8x8x" + std::to_string(8 * ranks),
                FormatSci(r.window.cycles, 4),
                FormatDouble(base > 0.0 ? base / r.window.cycles : 1.0, 3),
                FormatSci(r.comm_cycles, 3),
                FormatDouble(r.window.cycles > 0.0
                                 ? 100.0 * r.comm_cycles / r.window.cycles
                                 : 0.0,
                             1)});
    }
    t.Print("Weak scaling, 8x8x8 slab per rank, 4 modeled cores/rank");
  }

  // ---- Determinism matrix: the decomposition must never touch physics. ----
  {
    ConsoleTable t({"Ranks", "Cores", "Policy", "Digest", "OK"});
    const UniformWorkloadParams p = BaseParams(32);
    uint64_t want = 0;
    bool have_want = false;
    bool all_same = true;
    for (int ranks : rank_counts) {
      for (int cores : {1, 4}) {
        for (bool steal : {false, true}) {
          const RankPoint r = RunPoint(p, ranks, cores, steal, warmup, steps);
          if (!have_want) {
            want = r.window.sim_digest;
            have_want = true;
          }
          const bool same = r.window.sim_digest == want;
          all_same = all_same && same;
          if (!r.comm_ok) {
            pass = false;
          }
          t.AddRow({std::to_string(ranks), std::to_string(cores),
                    steal ? "steal" : "static", DigestHex(r.window.sim_digest),
                    same ? "yes" : "NO"});
        }
      }
    }
    t.Print("Physics digest matrix (must be one digest)");
    if (!all_same) {
      std::printf("FAIL: physics digests differ across the rank matrix.\n");
      pass = false;
    } else {
      std::printf("Physics digests IDENTICAL across ranks x cores x policy "
                  "(%s).\n", DigestHex(want).c_str());
    }
  }

  return pass;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv,
      {{"warmup", 1, 1, mpic::kMaxBenchSteps},
       {"steps", 4, 1, mpic::kMaxBenchSteps}});
  return mpic::Run(args[0], args[1]) ? 0 : 1;
}
