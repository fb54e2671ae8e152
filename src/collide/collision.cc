#include "src/collide/collision.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/hw/parallel_for.h"

namespace mpic {

void ScatterPair(double cos_theta, double sin_theta, double phi, double m1,
                 double w1, double m2, double w2, double u1[3], double u2[3]) {
  const double gx = u1[0] - u2[0];
  const double gy = u1[1] - u2[1];
  const double gz = u1[2] - u2[2];
  const double g = std::sqrt(gx * gx + gy * gy + gz * gz);
  if (g <= 0.0) {
    return;  // no relative motion, nothing to scatter
  }
  const double g_perp = std::sqrt(gx * gx + gy * gy);
  const double cphi = std::cos(phi);
  const double sphi = std::sin(phi);
  const double omc = 1.0 - cos_theta;
  double dgx, dgy, dgz;
  if (g_perp > 1e-12 * g) {
    // Takizuka-Abe rotation of g by (theta, phi).
    dgx = (gx / g_perp) * gz * sin_theta * cphi - (gy / g_perp) * g * sin_theta * sphi -
          gx * omc;
    dgy = (gy / g_perp) * gz * sin_theta * cphi + (gx / g_perp) * g * sin_theta * sphi -
          gy * omc;
    dgz = -g_perp * sin_theta * cphi - gz * omc;
  } else {
    // g along z: the rotation frame is free in phi.
    dgx = g * sin_theta * cphi;
    dgy = g * sin_theta * sphi;
    dgz = -g * omc;
  }
  // One impulse with the weight-aware reduced mass: momentum sum(w m u)
  // changes by +p on one side and -p on the other, cancelling exactly.
  const double wm1 = w1 * m1;
  const double wm2 = w2 * m2;
  const double mu = wm1 * wm2 / (wm1 + wm2);
  const double px = mu * dgx;
  const double py = mu * dgy;
  const double pz = mu * dgz;
  u1[0] += px / wm1;
  u1[1] += py / wm1;
  u1[2] += pz / wm1;
  u2[0] -= px / wm2;
  u2[1] -= py / wm2;
  u2[2] -= pz / wm2;
}

CollisionModule::CollisionModule(HwContext& hw, const CollisionConfig& config)
    : hw_(hw), config_(config), mem_owner_id_(NextMemOwnerId()) {}

void CollisionModule::Initialize(std::vector<SpeciesBlock*> blocks) {
  MPIC_CHECK_MSG(!blocks.empty(), "collision module needs a species registry");
  blocks_ = std::move(blocks);
  const std::vector<SpeciesBlock*>& reg = blocks_;
  const int num_tiles = reg[0]->tiles.num_tiles();
  pair_coeff_.clear();
  for (const CollisionPairConfig& pair : config_.pairs) {
    const int n = static_cast<int>(reg.size());
    MPIC_CHECK_MSG(pair.species_a >= 0 && pair.species_a < n &&
                       pair.species_b >= 0 && pair.species_b < n,
                   "collision pair references an unknown species id");
    MPIC_CHECK_MSG(pair.coulomb_log > 0.0, "coulomb_log must be positive");
    const SpeciesBlock& a = *reg[static_cast<size_t>(pair.species_a)];
    const SpeciesBlock& b = *reg[static_cast<size_t>(pair.species_b)];
    // Pairing walks the per-cell GPMA bins: both species must run a sort mode
    // that keeps them valid (the unsorted baselines have no cell lists).
    MPIC_CHECK_MSG(a.engine.traits().sort_mode != SortMode::kNone &&
                       b.engine.traits().sort_mode != SortMode::kNone,
                   "collisions require a GPMA-maintaining sort mode for both "
                   "species of every pair");
    MPIC_CHECK_MSG(a.tiles.num_tiles() == num_tiles &&
                       b.tiles.num_tiles() == num_tiles,
                   "colliding species must share the tile decomposition");
    const double qq = a.species.charge * a.species.charge * b.species.charge *
                      b.species.charge;
    const double m_ab =
        a.species.mass * b.species.mass / (a.species.mass + b.species.mass);
    pair_coeff_.push_back(qq * pair.coulomb_log /
                          (8.0 * M_PI * kEpsilon0 * kEpsilon0 * m_ab * m_ab));
  }
  scratch_.assign(static_cast<size_t>(num_tiles), TileScratch{});
  last_stats_ = CollisionStepStats{};
}

void CollisionModule::Apply(int64_t step, double dt) {
  if (config_.pairs.empty()) {
    last_stats_ = CollisionStepStats{};
    return;
  }
  const int num_tiles = blocks_[0]->tiles.num_tiles();

  // Serial pre-pass: size each tile's pairing scratch to the largest SoA slot
  // count any configured species has there, and register it with the main
  // context's address map (workers snapshot it at the region start). Sized
  // before the fan-out so no worker-side reallocation can fall back to
  // nondeterministic identity mapping.
  for (int t = 0; t < num_tiles; ++t) {
    size_t max_slots = 0;
    for (const CollisionPairConfig& pair : config_.pairs) {
      max_slots = std::max(
          max_slots,
          blocks_[static_cast<size_t>(pair.species_a)]->tiles.tile(t).soa().size());
      max_slots = std::max(
          max_slots,
          blocks_[static_cast<size_t>(pair.species_b)]->tiles.tile(t).soa().size());
    }
    TileScratch& ts = scratch_[static_cast<size_t>(t)];
    if (ts.perm_a.size() < max_slots) {
      ts.perm_a.resize(max_slots);
      ts.perm_b.resize(max_slots);
    }
    if (!ts.perm_a.empty()) {
      hw_.RegisterRegionKeyed(MemRegionKey(mem_owner_id_, t, 0), ts.perm_a.data(),
                              ts.perm_a.size() * sizeof(int32_t));
      hw_.RegisterRegionKeyed(MemRegionKey(mem_owner_id_, t, 1), ts.perm_b.data(),
                              ts.perm_b.size() * sizeof(int32_t));
    }
  }

  // One fan-out covers every configured pair: all mutations are cell-private
  // (a cell's particles live in one tile of each species), and the per-cell
  // RNG streams are pure functions of (seed, step, cell, pair), so the result
  // is bit-identical for any tile partition, core count, or thread count.
  std::vector<PaddedSlot<CollisionStepStats>> partials(
      static_cast<size_t>(hw_.num_cores()));
  ParallelForTiles(hw_, num_tiles, [&](HwContext& hw, int worker, int t) {
    PhaseScope phase(hw.ledger(), Phase::kCollide);
    CollisionStepStats& stats = partials[static_cast<size_t>(worker)].value;
    for (size_t p = 0; p < config_.pairs.size(); ++p) {
      const CollisionPairConfig& pair = config_.pairs[p];
      CollideTile(hw, pair, static_cast<int>(p), pair_coeff_[p],
                  *blocks_[static_cast<size_t>(pair.species_a)],
                  *blocks_[static_cast<size_t>(pair.species_b)], t, step, dt,
                  &stats);
    }
  });

  last_stats_ = CollisionStepStats{};
  for (const PaddedSlot<CollisionStepStats>& slot : partials) {
    last_stats_.pairs += slot.value.pairs;
    last_stats_.covered += slot.value.covered;
    last_stats_.unpaired += slot.value.unpaired;
  }
}

namespace {

// Loads the bin's pids into `perm` and Fisher-Yates shuffles them, charging
// the modeled index reads and shuffle writes.
void LoadAndShuffleBin(HwContext& hw, const Gpma& gpma, int cell, Rng& rng,
                       std::vector<int32_t>& perm, int32_t* out_len) {
  const int64_t off = gpma.BinOffset(cell);
  const int32_t len = gpma.BinLen(cell);
  *out_len = len;
  if (len <= 0) {
    return;
  }
  const auto& index = gpma.local_index();
  hw.TouchRead(&index[static_cast<size_t>(off)], sizeof(int32_t) * len);
  for (int32_t s = 0; s < len; ++s) {
    perm[static_cast<size_t>(s)] = index[static_cast<size_t>(off + s)];
  }
  for (int32_t i = len - 1; i > 0; --i) {
    const auto j =
        static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(i) + 1));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  hw.ScalarOps(3 * len);  // RNG draw + swap per element
  hw.TouchWrite(perm.data(), sizeof(int32_t) * len);
}

// Sums the bin's macro-weights (perm holds the bin's pids, length len).
double SumWeights(HwContext& hw, const ParticleSoA& soa,
                  const std::vector<int32_t>& perm, int32_t len) {
  double sum = 0.0;
  for (int32_t s = 0; s < len; ++s) {
    sum += hw.LoadScalar(&soa.w[static_cast<size_t>(perm[static_cast<size_t>(s)])]);
  }
  hw.ScalarOps(len);
  return sum;
}

}  // namespace

void CollisionModule::CollideTile(HwContext& hw, const CollisionPairConfig& pair,
                                  int pair_index, double coeff, SpeciesBlock& a,
                                  SpeciesBlock& b, int t, int64_t step, double dt,
                                  CollisionStepStats* stats) {
  const bool intra = pair.species_a == pair.species_b;
  ParticleTile& tile_a = a.tiles.tile(t);
  ParticleTile& tile_b = b.tiles.tile(t);
  if (tile_a.num_live() == 0 && tile_b.num_live() == 0) {
    return;
  }
  if (intra && tile_a.num_live() < 2) {
    stats->unpaired += tile_a.num_live();
    return;
  }
  const GridGeometry& geom = a.tiles.geom();
  const double inv_cell_volume = 1.0 / (geom.dx * geom.dy * geom.dz);
  TileScratch& ts = scratch_[static_cast<size_t>(t)];
  ParticleSoA& soa_a = tile_a.soa();
  ParticleSoA& soa_b = tile_b.soa();

  const Gpma& gpma_a = tile_a.gpma();
  const Gpma& gpma_b = tile_b.gpma();
  for (int cell = 0; cell < gpma_a.num_cells(); ++cell) {
    const int32_t len_a = gpma_a.BinLen(cell);
    const int32_t len_b = intra ? len_a : gpma_b.BinLen(cell);
    if (intra) {
      if (len_a < 2) {
        stats->unpaired += len_a;
        continue;
      }
    } else if (len_a == 0 || len_b == 0) {
      stats->unpaired += len_a + len_b;
      continue;
    }

    // Counter-based stream: a pure function of (seed, step, global cell,
    // pair), so the draw sequence is identical no matter which core or
    // schedule processes the cell.
    int ix, iy, iz;
    tile_a.LocalCellToGlobal(cell, &ix, &iy, &iz);
    const uint64_t cell_key = static_cast<uint64_t>(
        ix + geom.nx * (iy + static_cast<int64_t>(geom.ny) * iz));
    Rng rng = Rng::ForStream(config_.seed, static_cast<uint64_t>(step), cell_key,
                             static_cast<uint64_t>(pair_index));

    int32_t na = 0, nb = 0;
    LoadAndShuffleBin(hw, gpma_a, cell, rng, ts.perm_a, &na);
    const double sw_a = SumWeights(hw, soa_a, ts.perm_a, na);
    double n_eff = sw_a * inv_cell_volume;
    if (!intra) {
      LoadAndShuffleBin(hw, gpma_b, cell, rng, ts.perm_b, &nb);
      const double sw_b = SumWeights(hw, soa_b, ts.perm_b, nb);
      // Inter-species rate uses the sparser population's density (the
      // wrap-around pairing already scatters each majority particle once).
      n_eff = std::min(n_eff, sw_b * inv_cell_volume);
    }

    ts.pairs.clear();
    if (intra) {
      AppendIntraCellPairs(na, &ts.pairs);
    } else {
      AppendInterCellPairs(na, nb, &ts.pairs);
    }
    stats->pairs += static_cast<int64_t>(ts.pairs.size());
    stats->covered += intra ? na : na + nb;

    const std::vector<int32_t>& perm_b = intra ? ts.perm_a : ts.perm_b;
    ParticleSoA& soa_2 = intra ? soa_a : soa_b;
    const double mass_a = a.species.mass;
    const double mass_b = b.species.mass;
    for (const CellPair& cp : ts.pairs) {
      const auto pid_a = static_cast<size_t>(ts.perm_a[static_cast<size_t>(cp.a)]);
      const auto pid_b = static_cast<size_t>(perm_b[static_cast<size_t>(cp.b)]);
      double u1[3] = {hw.LoadScalar(&soa_a.ux[pid_a]),
                      hw.LoadScalar(&soa_a.uy[pid_a]),
                      hw.LoadScalar(&soa_a.uz[pid_a])};
      double u2[3] = {hw.LoadScalar(&soa_2.ux[pid_b]),
                      hw.LoadScalar(&soa_2.uy[pid_b]),
                      hw.LoadScalar(&soa_2.uz[pid_b])};
      const double w1 = hw.LoadScalar(&soa_a.w[pid_a]);
      const double w2 = hw.LoadScalar(&soa_2.w[pid_b]);

      const double gx = u1[0] - u2[0];
      const double gy = u1[1] - u2[1];
      const double gz = u1[2] - u2[2];
      const double g2 = gx * gx + gy * gy + gz * gz;
      // ~45 scalar ops for the angle sampling and rotation, plus the
      // Box-Muller draw; charged whether or not the pair scatters so the
      // modeled cost tracks the pair count, not the physics outcome.
      hw.ScalarOps(45);
      if (g2 <= 0.0) {
        continue;  // identical velocities: Coulomb scattering is the identity
      }
      const double g = std::sqrt(g2);
      const double var = coeff * n_eff * dt * cp.dt_scale / (g2 * g);
      double cos_theta, sin_theta;
      if (var < 1.0) {
        const double delta = std::sqrt(var) * rng.NextGaussian();
        const double d2 = delta * delta;
        cos_theta = (1.0 - d2) / (1.0 + d2);
        sin_theta = 2.0 * delta / (1.0 + d2);
      } else {
        // Strongly collisional limit: the small-angle expansion is invalid;
        // draw an isotropic scattering angle instead.
        cos_theta = 1.0 - 2.0 * rng.NextDouble();
        sin_theta = std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
      }
      const double phi = 2.0 * M_PI * rng.NextDouble();
      ScatterPair(cos_theta, sin_theta, phi, mass_a, w1, mass_b, w2, u1, u2);

      hw.StoreScalar(&soa_a.ux[pid_a], u1[0]);
      hw.StoreScalar(&soa_a.uy[pid_a], u1[1]);
      hw.StoreScalar(&soa_a.uz[pid_a], u1[2]);
      hw.StoreScalar(&soa_2.ux[pid_b], u2[0]);
      hw.StoreScalar(&soa_2.uy[pid_b], u2[1]);
      hw.StoreScalar(&soa_2.uz[pid_b], u2[2]);
    }
  }
}

}  // namespace mpic
