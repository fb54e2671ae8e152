// Collision-module ablation: the Takizuka-Abe collision stage on the
// collisional-relaxation workload, with and without collisions, at 1 and 4
// modeled cores (see src/collide/collision.h).
//
// Per (cores, collisions) it prints modeled cycles per step over the steps
// after Initialize, with the collide-phase share and FNV digests of the
// fields and of the particle state. Invariants enforced (non-zero exit on
// violation):
//   1. digests are bit-identical across core/thread counts — the per-cell
//      counter-based RNG streams make the collision stage
//      schedule-independent;
//   2. Phase::kCollide is charged when collisions run and is exactly zero
//      when they are disabled (and collisions actually change the physics:
//      the on/off particle digests differ).
// MeasureWindow aborts if any phase's cycles are not finite.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

struct CollidePoint {
  WindowRecord window;
  uint64_t fields_digest = 0;
  uint64_t particles_digest = 0;
};

CollidePoint RunPoint(int cores, bool collisions, int steps) {
  SetThreads(cores);
  CollisionalRelaxationParams p;
  p.coulomb_log = 300.0;
  p.collisions_enabled = collisions;
  HwContext hw(MachineConfig::Lx2MultiCore(cores));
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);
  CollidePoint r;
  r.window = MeasureWindow(*sim, /*warmup=*/0, steps);
  r.fields_digest = FieldsDigest(sim->fields());
  // Every species' particle storage. Fields alone lag the final step's
  // collisions: those momenta only reach J on the next deposit.
  r.particles_digest = kFnvOffsetBasis;
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    r.particles_digest =
        Mix64(r.particles_digest ^ ParticlesDigest(sim->block(sid).tiles));
  }
  return r;
}

bool Run(int steps) {
  PrintThreadBanner();

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
      const double total = r.window.cycles;
      const double collide =
          r.window.phase_cycles[static_cast<size_t>(Phase::kCollide)];
      t.AddRow({std::to_string(cores), collisions ? "on" : "off",
                FormatSci(total / steps, 3), FormatSci(collide / steps, 2),
                FormatSci(100.0 * collide / total, 2),
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
    const double collide =
        row.pt.window.phase_cycles[static_cast<size_t>(Phase::kCollide)];
    if (row.collisions && collide <= 0.0) {
      std::printf("NO COLLIDE CYCLES CHARGED (BUG!): cores=%d\n", row.cores);
      ok = false;
    }
    if (!row.collisions && collide != 0.0) {
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
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv, {{"steps", 6, 1, mpic::kMaxBenchSteps}});
  return mpic::Run(args[0]) ? 0 : 1;
}
