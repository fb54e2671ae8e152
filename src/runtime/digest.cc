#include "src/runtime/digest.h"

#include "src/core/simulation.h"

namespace mpic {

namespace {

uint64_t HashDoubles(const std::vector<double>& v, uint64_t h) {
  return Fnv1a(v.data(), v.size() * sizeof(double), h);
}

uint64_t HashDouble(double v, uint64_t h) { return Fnv1a(&v, sizeof(v), h); }

}  // namespace

uint64_t FieldsDigest(const FieldSet& fields) {
  uint64_t h = kFnvOffsetBasis;
  for (const FieldArray* a : {&fields.ex, &fields.ey, &fields.ez, &fields.bx,
                              &fields.by, &fields.bz, &fields.jx, &fields.jy,
                              &fields.jz}) {
    h = HashDoubles(a->vec(), h);
  }
  return h;
}

uint64_t ParticlesDigest(const TileSet& tiles) {
  uint64_t h = kFnvOffsetBasis;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    const ParticleTile& tile = tiles.tile(t);
    const ParticleSoA& soa = tile.soa();
    const uint64_t n = soa.size();
    h = Fnv1a(&n, sizeof(n), h);
    for (const std::vector<double>* lane :
         {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w, &soa.xo,
          &soa.yo, &soa.zo}) {
      h = HashDoubles(*lane, h);
    }
    h = Fnv1a(tile.live_bits().data(), tile.live_bits().size(), h);
  }
  return h;
}

uint64_t SimulationDigest(const Simulation& sim) {
  uint64_t h = FieldsDigest(sim.fields());
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    h = Mix64(h ^ ParticlesDigest(sim.block(sid).tiles));
  }
  const int64_t step = sim.step_count();
  return Fnv1a(&step, sizeof(step), h);
}

uint64_t LedgerDigest(const CostLedger& ledger) {
  // A new LedgerCounters field must be hashed below, which this assert forces.
  static_assert(sizeof(LedgerCounters) == 18 * 8,
                "LedgerCounters changed: update LedgerDigest");
  uint64_t h = kFnvOffsetBasis;
  for (double cycles : ledger.phase_cycles()) {
    h = HashDouble(cycles, h);
  }
  const LedgerCounters& c = ledger.counters();
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  for (double v : {d(c.scalar_ops), d(c.scalar_mem), d(c.vpu_ops), d(c.vpu_mem),
                   d(c.gathers), d(c.scatters), d(c.mopas), d(c.mopa_valid_slots),
                   d(c.atomics), d(c.tasks_stolen), d(c.tasks_stolen_remote),
                   c.steal_cycles, d(c.l1_hits), d(c.l1_misses), d(c.l2_hits),
                   d(c.l2_misses), d(c.remote_lines), c.remote_cycles}) {
    h = HashDouble(v, h);
  }
  return h;
}

}  // namespace mpic
