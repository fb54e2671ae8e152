#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/deposit/esirkepov.h"
#include "src/particles/species.h"

namespace mpic {
namespace {

GridGeometry MakeGeom(int n) {
  GridGeometry g;
  g.nx = g.ny = g.nz = n;
  g.dx = g.dy = g.dz = 1.0e-6;
  return g;
}

struct MovedWorld {
  MovedWorld(int n, int count, double max_cell_step, uint64_t seed)
      : geom(MakeGeom(n)), tile(0, 0, 0, n, n, n) {
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      Particle p;
      // Keep two cells away from the boundary so no support needs wrapping.
      p.x = rng.Uniform(2.0, n - 2.0) * geom.dx;
      p.y = rng.Uniform(2.0, n - 2.0) * geom.dy;
      p.z = rng.Uniform(2.0, n - 2.0) * geom.dz;
      p.w = rng.Uniform(0.5, 2.0) * 1e8;
      tile.AddParticle(p);
    }
    tile.BuildGpma(geom, GpmaConfig{});
    x_old = tile.soa().x;
    y_old = tile.soa().y;
    z_old = tile.soa().z;
    // Displace (the "push") by at most max_cell_step cells per axis.
    for (size_t i = 0; i < tile.soa().size(); ++i) {
      tile.soa().x[i] += rng.Uniform(-1.0, 1.0) * max_cell_step * geom.dx;
      tile.soa().y[i] += rng.Uniform(-1.0, 1.0) * max_cell_step * geom.dy;
      tile.soa().z[i] += rng.Uniform(-1.0, 1.0) * max_cell_step * geom.dz;
    }
  }

  DepositParams Params(double dt) const {
    DepositParams dp;
    dp.geom = geom;
    dp.charge = kElectronCharge;
    dp.dt = dt;
    return dp;
  }

  // Loads the saved pre-displacement positions into the SoA old-position
  // lanes, the form the staged engine path consumes.
  void FillOldLanes() {
    tile.soa().xo = x_old;
    tile.soa().yo = y_old;
    tile.soa().zo = z_old;
  }

  GridGeometry geom;
  ParticleTile tile;
  std::vector<double> x_old, y_old, z_old;
};

// Runs the staged tile path (chunk staging -> outer-product kernel -> reduce)
// into a fresh FieldSet.
template <int Order>
void RunStagedPath(HwContext& hw, MovedWorld& world, const DepositParams& dp,
                   bool vpu, bool sorted, FieldSet& fields) {
  world.FillOldLanes();
  EsirkepovScratch scratch;
  TileCurrent tile_j;
  tile_j.Resize(world.tile, Order);
  DepositEsirkepovTile<Order>(hw, world.tile, dp, sorted, vpu, scratch, tile_j);
  ReduceEsirkepovToGrid(hw, tile_j, fields);
}

// The load-bearing invariant: (rho_new - rho_old)/dt + div J == 0 exactly
// (to rounding) at every node, for every order.
template <int Order>
void ExpectContinuity(double max_cell_step, uint64_t seed, bool staged) {
  MovedWorld world(10, 200, max_cell_step, seed);
  const double dt = 1.0e-15;

  HwContext hw;
  FieldSet fields(world.geom, 2);
  const DepositParams dp = world.Params(dt);
  if (staged) {
    RunStagedPath<Order>(hw, world, dp, /*vpu=*/false, /*sorted=*/true, fields);
  } else {
    DepositEsirkepov<Order>(hw, world.tile, world.x_old, world.y_old, world.z_old,
                            dp, fields);
  }

  FieldArray rho_new(world.geom.nx, world.geom.ny, world.geom.nz, 2);
  DepositCharge<Order>(hw, world.tile, dp, rho_new);
  // Rewind positions for rho_old.
  ParticleTile old_tile(0, 0, 0, world.geom.nx, world.geom.ny, world.geom.nz);
  for (size_t i = 0; i < world.tile.soa().size(); ++i) {
    Particle p = world.tile.soa().Get(static_cast<int32_t>(i));
    p.x = world.x_old[i];
    p.y = world.y_old[i];
    p.z = world.z_old[i];
    old_tile.AddParticle(p);
  }
  FieldArray rho_old(world.geom.nx, world.geom.ny, world.geom.nz, 2);
  DepositCharge<Order>(hw, old_tile, dp, rho_old);

  const GridGeometry& g = world.geom;
  double max_violation = 0.0;
  double rho_scale = 0.0;
  for (int k = 1; k < g.nz - 1; ++k) {
    for (int j = 1; j < g.ny - 1; ++j) {
      for (int i = 1; i < g.nx - 1; ++i) {
        const double drho_dt = (rho_new.At(i, j, k) - rho_old.At(i, j, k)) / dt;
        const double div_j =
            (fields.jx.At(i, j, k) - fields.jx.At(i - 1, j, k)) / g.dx +
            (fields.jy.At(i, j, k) - fields.jy.At(i, j - 1, k)) / g.dy +
            (fields.jz.At(i, j, k) - fields.jz.At(i, j, k - 1)) / g.dz;
        max_violation = std::max(max_violation, std::fabs(drho_dt + div_j));
        rho_scale = std::max(rho_scale, std::fabs(drho_dt));
      }
    }
  }
  ASSERT_GT(rho_scale, 0.0);
  EXPECT_LT(max_violation / rho_scale, 1e-9)
      << "order " << Order << " step " << max_cell_step << (staged ? " staged" : "");
}

class Continuity : public ::testing::TestWithParam<double> {};

TEST_P(Continuity, Order1) { ExpectContinuity<1>(GetParam(), 11, false); }
TEST_P(Continuity, Order2) { ExpectContinuity<2>(GetParam(), 12, false); }
TEST_P(Continuity, Order3) { ExpectContinuity<3>(GetParam(), 13, false); }
TEST_P(Continuity, StagedOrder1) { ExpectContinuity<1>(GetParam(), 11, true); }
TEST_P(Continuity, StagedOrder2) { ExpectContinuity<2>(GetParam(), 12, true); }
TEST_P(Continuity, StagedOrder3) { ExpectContinuity<3>(GetParam(), 13, true); }

INSTANTIATE_TEST_SUITE_P(StepSizes, Continuity, ::testing::Values(0.05, 0.3, 0.9));

// The staged outer-product path must reproduce the scalar reference kernel on
// every order, for both staging cost profiles and both iteration orders. The
// transverse factors are algebraically identical but associate differently
// (midpoint/difference outer products vs. the four-term mix), so the match is
// to rounding, not bitwise.
template <int Order>
void ExpectStagedMatchesReference(bool vpu, bool sorted) {
  MovedWorld world(10, 200, 0.9, 21 + Order);
  const double dt = 1.0e-15;
  const DepositParams dp = world.Params(dt);
  HwContext hw;
  FieldSet ref(world.geom, 2);
  DepositEsirkepov<Order>(hw, world.tile, world.x_old, world.y_old, world.z_old,
                          dp, ref);
  FieldSet staged(world.geom, 2);
  RunStagedPath<Order>(hw, world, dp, vpu, sorted, staged);

  double j_scale = 0.0;
  for (const FieldArray* f : {&ref.jx, &ref.jy, &ref.jz}) {
    for (double v : f->vec()) {
      j_scale = std::max(j_scale, std::fabs(v));
    }
  }
  ASSERT_GT(j_scale, 0.0);
  const FieldArray* refs[3] = {&ref.jx, &ref.jy, &ref.jz};
  const FieldArray* got[3] = {&staged.jx, &staged.jy, &staged.jz};
  for (int comp = 0; comp < 3; ++comp) {
    for (size_t i = 0; i < refs[comp]->vec().size(); ++i) {
      ASSERT_NEAR(got[comp]->vec()[i], refs[comp]->vec()[i], j_scale * 1e-12)
          << "component " << comp << " index " << i;
    }
  }
}

TEST(EsirkepovStaged, MatchesReferenceOrder1) {
  ExpectStagedMatchesReference<1>(/*vpu=*/false, /*sorted=*/false);
}
TEST(EsirkepovStaged, MatchesReferenceOrder2) {
  ExpectStagedMatchesReference<2>(/*vpu=*/true, /*sorted=*/false);
}
TEST(EsirkepovStaged, MatchesReferenceOrder3) {
  ExpectStagedMatchesReference<3>(/*vpu=*/true, /*sorted=*/true);
}

TEST(EsirkepovStaged, VpuAndScalarStagingBitIdentical) {
  // The two staging cost profiles must produce identical values (they differ
  // only in the modeled charge).
  MovedWorld world(8, 120, 0.7, 99);
  const DepositParams dp = world.Params(1e-15);
  HwContext hw;
  FieldSet a(world.geom, 2);
  RunStagedPath<1>(hw, world, dp, /*vpu=*/false, /*sorted=*/false, a);
  FieldSet b(world.geom, 2);
  RunStagedPath<1>(hw, world, dp, /*vpu=*/true, /*sorted=*/false, b);
  for (size_t i = 0; i < a.jx.vec().size(); ++i) {
    ASSERT_EQ(a.jx.vec()[i], b.jx.vec()[i]);
    ASSERT_EQ(a.jy.vec()[i], b.jy.vec()[i]);
    ASSERT_EQ(a.jz.vec()[i], b.jz.vec()[i]);
  }
}

TEST(EsirkepovStaged, ReduceZeroesTheScratch) {
  MovedWorld world(8, 50, 0.5, 7);
  const DepositParams dp = world.Params(1e-15);
  HwContext hw;
  FieldSet fields(world.geom, 2);
  world.FillOldLanes();
  EsirkepovScratch scratch;
  TileCurrent tile_j;
  tile_j.Resize(world.tile, 1);
  DepositEsirkepovTile<1>(hw, world.tile, dp, false, false, scratch, tile_j);
  ReduceEsirkepovToGrid(hw, tile_j, fields);
  for (const std::vector<double>* v : {&tile_j.jx(), &tile_j.jy(), &tile_j.jz()}) {
    for (double x : *v) {
      ASSERT_EQ(x, 0.0);
    }
  }
}

// The Esirkepov StageChunk overload, per order and cost profile: a chunk of
// scattered pids stages the values a scalar-profile chunk of every slot in
// slot order stages for the same particles, bit for bit, and every charge
// lands in Phase::kPreproc.
template <int Order>
EsirkepovScratch StageEsirkepovAsChunk(HwContext& hw, MovedWorld& world,
                                       bool vpu_staging,
                                       const std::vector<int32_t>& pids) {
  world.FillOldLanes();
  EsirkepovScratch chunk;
  chunk.Resize(pids.size(), Order);
  StageChunk<Order>(hw, world.tile.soa(), world.Params(1e-15), vpu_staging,
                    pids.data(), static_cast<int32_t>(pids.size()), chunk);
  return chunk;
}

template <int Order>
void ExpectEsirkepovChunkMatchesSlotOrderChunk(bool vpu_staging) {
  MovedWorld world(8, 120, 0.7, 4321 + Order);
  std::vector<int32_t> slots(static_cast<size_t>(world.tile.num_slots()));
  std::iota(slots.begin(), slots.end(), 0);
  ASSERT_EQ(world.tile.num_live(), world.tile.num_slots());
  HwContext ref_hw;
  const EsirkepovScratch ref =
      StageEsirkepovAsChunk<Order>(ref_hw, world, /*vpu_staging=*/false, slots);
  // Every third pid, back to front: no two neighbours are consecutive.
  std::vector<int32_t> pids;
  for (int32_t pid = world.tile.num_slots() - 1; pid >= 0; pid -= 3) {
    pids.push_back(pid);
  }
  HwContext hw;
  const EsirkepovScratch chunk =
      StageEsirkepovAsChunk<Order>(hw, world, vpu_staging, pids);
  const auto stride = static_cast<size_t>(chunk.stride());
  bool any_wide = false;
  for (size_t k = 0; k < pids.size(); ++k) {
    const auto i = static_cast<size_t>(pids[k]);
    EXPECT_EQ(chunk.bx[k], ref.bx[i]);
    EXPECT_EQ(chunk.by[k], ref.by[i]);
    EXPECT_EQ(chunk.bz[k], ref.bz[i]);
    EXPECT_EQ(std::memcmp(chunk.Win(k), ref.Win(i), sizeof(double) * stride), 0)
        << "window block of chunk slot " << k;
    EXPECT_EQ(chunk.qf[k], ref.qf[i]);
    EXPECT_EQ(chunk.wide[k], ref.wide[i]);
    any_wide = any_wide || chunk.wide[k] != 0;
  }
  EXPECT_TRUE(any_wide) << "no boundary crossing staged";
  const CostLedger& ledger = hw.ledger();
  EXPECT_GT(ledger.PhaseCycles(Phase::kPreproc), 0.0);
  EXPECT_DOUBLE_EQ(ledger.TotalCycles(), ledger.PhaseCycles(Phase::kPreproc));
  if (!vpu_staging) {
    EXPECT_EQ(ledger.counters().gathers, 0u);
    EXPECT_EQ(ledger.counters().vpu_mem, 0u);
  }
}

class EsirkepovChunkStager
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(EsirkepovChunkStager, MatchesSlotOrderChunkAndChargesPreproc) {
  const auto [order, vpu_staging] = GetParam();
  if (order == 1) {
    ExpectEsirkepovChunkMatchesSlotOrderChunk<1>(vpu_staging);
  } else if (order == 2) {
    ExpectEsirkepovChunkMatchesSlotOrderChunk<2>(vpu_staging);
  } else {
    ExpectEsirkepovChunkMatchesSlotOrderChunk<3>(vpu_staging);
  }
}

INSTANTIATE_TEST_SUITE_P(OrderProfile, EsirkepovChunkStager,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool()));

// The VPU profile loads each of the seven consumed SoA streams of a batch by
// the indexed-load rule: one vector load when the batch's pids are
// consecutive, one gather otherwise. Its staged-stream stores are the same
// either way.
template <int Order>
void ExpectEsirkepovBatchLoadsFollowPidOrder() {
  MovedWorld world(8, 40, 0.5, 99);
  std::vector<int32_t> consecutive;
  std::vector<int32_t> scattered;
  for (int32_t j = 0; j < kVpuLanes; ++j) {
    consecutive.push_back(5 + j);
    scattered.push_back(2 * j);
  }
  HwContext a;
  StageEsirkepovAsChunk<Order>(a, world, true, consecutive);
  HwContext b;
  StageEsirkepovAsChunk<Order>(b, world, true, scattered);
  const LedgerCounters& ca = a.ledger().counters();
  const LedgerCounters& cb = b.ledger().counters();
  EXPECT_EQ(ca.gathers, 0u);
  EXPECT_EQ(cb.gathers, 7u);
  EXPECT_EQ(ca.vpu_mem, cb.vpu_mem + 7u);
  EXPECT_DOUBLE_EQ(a.ledger().TotalCycles(), a.ledger().PhaseCycles(Phase::kPreproc));
  EXPECT_DOUBLE_EQ(b.ledger().TotalCycles(), b.ledger().PhaseCycles(Phase::kPreproc));
}

TEST(EsirkepovChunkStager, BatchLoadsFollowPidOrderOrder1) {
  ExpectEsirkepovBatchLoadsFollowPidOrder<1>();
}
TEST(EsirkepovChunkStager, BatchLoadsFollowPidOrderOrder3) {
  ExpectEsirkepovBatchLoadsFollowPidOrder<3>();
}

TEST(Esirkepov, StationaryParticleDepositsNothing) {
  MovedWorld world(8, 50, 0.0, 5);
  HwContext hw;
  FieldSet fields(world.geom, 2);
  DepositEsirkepov<1>(hw, world.tile, world.x_old, world.y_old, world.z_old,
                      world.Params(1e-15), fields);
  for (double v : fields.jx.vec()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Esirkepov, PureXMotionProducesOnlyJx) {
  GridGeometry g = MakeGeom(8);
  ParticleTile tile(0, 0, 0, 8, 8, 8);
  Particle p;
  p.x = 3.25 * g.dx;
  p.y = 3.5 * g.dy;
  p.z = 3.5 * g.dz;
  p.w = 1e8;
  tile.AddParticle(p);
  const std::vector<double> x_old = {p.x};
  const std::vector<double> y_old = {p.y};
  const std::vector<double> z_old = {p.z};
  tile.soa().x[0] += 0.4 * g.dx;
  HwContext hw;
  FieldSet fields(g, 2);
  DepositParams dp;
  dp.geom = g;
  dp.charge = kElectronCharge;
  dp.dt = 1e-15;
  DepositEsirkepov<1>(hw, tile, x_old, y_old, z_old, dp, fields);
  double jy_max = 0.0;
  double jx_max = 0.0;
  for (double v : fields.jy.vec()) {
    jy_max = std::max(jy_max, std::fabs(v));
  }
  for (double v : fields.jx.vec()) {
    jx_max = std::max(jx_max, std::fabs(v));
  }
  EXPECT_GT(jx_max, 0.0);
  EXPECT_DOUBLE_EQ(jy_max, 0.0);
}

TEST(Esirkepov, TotalJxMatchesChargeFlux) {
  // Integrated Jx * dV = q * w * dx_moved / dt (the particle's current moment).
  GridGeometry g = MakeGeom(8);
  ParticleTile tile(0, 0, 0, 8, 8, 8);
  Particle p;
  p.x = 3.3 * g.dx;
  p.y = 3.7 * g.dy;
  p.z = 4.1 * g.dz;
  p.w = 2e8;
  tile.AddParticle(p);
  const std::vector<double> x_old = {p.x};
  const std::vector<double> y_old = {p.y};
  const std::vector<double> z_old = {p.z};
  const double dx_moved = 0.35 * g.dx;
  tile.soa().x[0] += dx_moved;
  const double dt = 2e-15;
  HwContext hw;
  FieldSet fields(g, 2);
  DepositParams dp;
  dp.geom = g;
  dp.charge = kElectronCharge;
  dp.dt = dt;
  DepositEsirkepov<1>(hw, tile, x_old, y_old, z_old, dp, fields);
  double total = 0.0;
  for (int k = 0; k < g.nz; ++k) {
    for (int j = 0; j < g.ny; ++j) {
      for (int i = 0; i < g.nx; ++i) {
        total += fields.jx.At(i, j, k);
      }
    }
  }
  total *= g.dx * g.dy * g.dz;  // integrate the density
  const double expected = kElectronCharge * 2e8 * dx_moved / dt;
  EXPECT_NEAR(total, expected, std::fabs(expected) * 1e-12);
}

}  // namespace
}  // namespace mpic
