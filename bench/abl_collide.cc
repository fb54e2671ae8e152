// Collision-module ablation: the Takizuka-Abe collision stage on the
// collisional-relaxation workload, with and without collisions, at 1 and 4
// modeled cores (see src/collide/collision.h).
//
// Per (cores, collisions) it prints modeled cycles per step with the
// collide-phase share and FNV digests of the fields and of the particle
// state. Invariants enforced (non-zero exit on violation):
//   1. digests are bit-identical across core/thread counts — the per-cell
//      counter-based RNG streams make the collision stage
//      schedule-independent;
//   2. Phase::kCollide is charged when collisions run and is exactly zero
//      when they are disabled (and collisions actually change the physics:
//      the on/off particle digests differ);
//   3. the per-phase breakdown sums exactly to the total in every run.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

// Digest of every species' live particle state (positions + momenta +
// weights, in slot order). Fields alone lag the final step's collisions —
// those momenta only reach J on the next deposit.
uint64_t ParticlesDigest(const Simulation& sim) {
  uint64_t h = 1469598103934665603ull;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const TileSet& tiles = sim.block(sid).tiles;
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      const ParticleTile& tile = tiles.tile(t);
      const ParticleSoA& soa = tile.soa();
      for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
        if (!tile.IsLive(pid)) {
          continue;
        }
        const auto i = static_cast<size_t>(pid);
        const double v[7] = {soa.x[i],  soa.y[i],  soa.z[i], soa.ux[i],
                             soa.uy[i], soa.uz[i], soa.w[i]};
        h = Fnv1a(v, sizeof(v), h);
      }
    }
  }
  return h;
}

struct CollidePoint {
  double total = 0.0;
  double collide = 0.0;
  bool phases_sum = false;
  uint64_t fields_digest = 0;
  uint64_t particles_digest = 0;
};

CollidePoint RunPoint(int cores, bool collisions, int steps) {
#ifdef _OPENMP
  omp_set_num_threads(cores);
#endif
  CollisionalRelaxationParams p;
  p.coulomb_log = 300.0;
  p.collisions_enabled = collisions;
  HwContext hw(MachineConfig::Lx2MultiCore(cores));
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);
  sim->Run(steps);
  CollidePoint r;
  r.total = hw.ledger().TotalCycles();
  r.collide = hw.ledger().PhaseCycles(Phase::kCollide);
  double phase_sum = 0.0;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    phase_sum += hw.ledger().PhaseCycles(static_cast<Phase>(ph));
  }
  r.phases_sum = std::abs(phase_sum - r.total) <= 1e-6 * r.total;
  r.fields_digest = FieldsDigest(sim->fields());
  r.particles_digest = ParticlesDigest(*sim);
  return r;
}

bool Run(int steps) {
#ifdef _OPENMP
  std::printf("OpenMP enabled, %d host thread(s) available.\n",
              omp_get_max_threads());
#else
  std::printf("Built without OpenMP: partitions run serially.\n");
#endif

  struct Row {
    int cores;
    bool collisions;
    CollidePoint pt;
  };
  std::vector<Row> rows;
  ConsoleTable t({"Cores", "Collisions", "Cycles/step", "Collide/step",
                  "Collide %", "Fields digest", "Particles digest"});
  bool ok = true;
  for (int cores : {1, 4}) {
    for (bool collisions : {true, false}) {
      const CollidePoint r = RunPoint(cores, collisions, steps);
      rows.push_back({cores, collisions, r});
      ok = ok && r.phases_sum;
      t.AddRow({std::to_string(cores), collisions ? "on" : "off",
                FormatSci(r.total / steps, 3), FormatSci(r.collide / steps, 2),
                FormatSci(100.0 * r.collide / r.total, 2),
                DigestHex(r.fields_digest), DigestHex(r.particles_digest)});
    }
  }
  t.Print("Collision ablation: Takizuka-Abe stage on the relaxation workload");

  // Invariant 1: per (collisions on/off), every core count must produce the
  // same physics, bitwise.
  auto reference = [&rows](bool collisions) -> const Row& {
    for (const Row& row : rows) {
      if (row.collisions == collisions) {
        return row;
      }
    }
    return rows.front();
  };
  for (const Row& row : rows) {
    const Row& ref = reference(row.collisions);
    if (row.pt.fields_digest != ref.pt.fields_digest ||
        row.pt.particles_digest != ref.pt.particles_digest) {
      std::printf("DIGEST MISMATCH (BUG!): cores=%d collisions=%s\n",
                  row.cores, row.collisions ? "on" : "off");
      ok = false;
    }
  }
  // Invariant 2: collide phase charged iff collisions run, and they matter.
  for (const Row& row : rows) {
    if (row.collisions && row.pt.collide <= 0.0) {
      std::printf("NO COLLIDE CYCLES CHARGED (BUG!): cores=%d\n", row.cores);
      ok = false;
    }
    if (!row.collisions && row.pt.collide != 0.0) {
      std::printf("COLLIDE CYCLES WITHOUT COLLISIONS (BUG!): cores=%d\n",
                  row.cores);
      ok = false;
    }
  }
  if (reference(true).pt.particles_digest ==
      reference(false).pt.particles_digest) {
    std::printf("COLLISIONS CHANGED NOTHING (BUG!)\n");
    ok = false;
  }

  std::printf("\nInvariants %s: identical digests across cores, "
              "collide phase charged iff enabled, phases sum to totals.\n",
              ok ? "HOLD" : "VIOLATED");
  return ok;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  int steps = argc > 1 ? std::atoi(argv[1]) : 6;
  if (steps < 1) {
    std::fprintf(stderr, "usage: %s [steps >= 1]; using default\n", argv[0]);
    steps = 6;
  }
  return mpic::Run(steps) ? 0 : 1;
}
