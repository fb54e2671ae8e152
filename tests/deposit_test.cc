#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/deposit/deposit_baseline.h"
#include "src/deposit/deposit_mpu.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/deposit_scalar.h"
#include "src/deposit/deposit_staging.h"
#include "src/grid/field_set.h"
#include "src/particles/species.h"

namespace mpic {
namespace {

constexpr double kTol = 1e-12;

struct TestWorld {
  TestWorld(int n_cells, int ppc, uint64_t seed, double u_scale = 0.05)
      : tile(0, 0, 0, n_cells, n_cells, n_cells),
        fields(MakeGeom(n_cells), 2) {
    geom = fields.geom;
    Rng rng(seed);
    for (int i = 0; i < n_cells * n_cells * n_cells * ppc; ++i) {
      Particle p;
      p.x = rng.Uniform(0.0, geom.LengthX());
      p.y = rng.Uniform(0.0, geom.LengthY());
      p.z = rng.Uniform(0.0, geom.LengthZ());
      p.ux = rng.NextGaussian() * u_scale * kSpeedOfLight;
      p.uy = rng.NextGaussian() * u_scale * kSpeedOfLight;
      p.uz = rng.NextGaussian() * u_scale * kSpeedOfLight;
      p.w = rng.Uniform(0.5, 2.0) * 1e10;
      tile.AddParticle(p);
    }
    tile.BuildGpma(geom, GpmaConfig{});
    params.geom = geom;
    params.charge = kElectronCharge;
  }

  static GridGeometry MakeGeom(int n_cells) {
    GridGeometry g;
    g.nx = g.ny = g.nz = n_cells;
    g.dx = g.dy = g.dz = 2.5e-7;
    return g;
  }

  GridGeometry geom;
  ParticleTile tile;
  FieldSet fields;
  DepositParams params;
};

// Runs the scalar reference into a fresh field set and returns (jx, jy, jz).
template <int Order>
std::tuple<std::vector<double>, std::vector<double>, std::vector<double>>
ReferenceJ(TestWorld& world) {
  HwContext hw;
  FieldSet ref(world.geom, 2);
  DepositScalarTile<Order>(hw, world.tile, world.params, ref);
  return {ref.jx.vec(), ref.jy.vec(), ref.jz.vec()};
}

template <int Order>
void ExpectMatchesReference(TestWorld& world, const FieldSet& got) {
  const auto [jx, jy, jz] = ReferenceJ<Order>(world);
  EXPECT_LT(RelMaxError(jx, got.jx.vec()), kTol);
  EXPECT_LT(RelMaxError(jy, got.jy.vec()), kTol);
  EXPECT_LT(RelMaxError(jz, got.jz.vec()), kTol);
}

void ExpectBitwiseEqual(const FieldSet& want, const FieldSet& got) {
  EXPECT_EQ(want.jx.vec(), got.jx.vec());
  EXPECT_EQ(want.jy.vec(), got.jy.vec());
  EXPECT_EQ(want.jz.vec(), got.jz.vec());
}

// ---------------------------------------------------------------------------
// Staging
// ---------------------------------------------------------------------------

// Every live pid of the tile in slot order: the whole tile as one chunk.
std::vector<int32_t> LivePids(const ParticleTile& tile) {
  std::vector<int32_t> pids;
  for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
    if (tile.IsLive(pid)) {
      pids.push_back(pid);
    }
  }
  return pids;
}

// Stages `pids` with StageChunk into a scratch sized for them.
template <int Order>
DepositScratch StageAsChunk(HwContext& hw, const TestWorld& world, bool vpu_staging,
                            const std::vector<int32_t>& pids) {
  DepositScratch scratch;
  scratch.Resize(pids.size(), Order);
  StageChunk<Order>(hw, world.tile.soa(), world.params, vpu_staging, pids.data(),
                    static_cast<int32_t>(pids.size()), scratch);
  return scratch;
}

// Chunk slot `k` of `got` holds the values slot `i` of `want` holds, bit for
// bit.
template <int Order>
void ExpectSameStaged(const DepositScratch& want, size_t i, const DepositScratch& got,
                      size_t k) {
  EXPECT_EQ(got.ix[k], want.ix[i]);
  EXPECT_EQ(got.iy[k], want.iy[i]);
  EXPECT_EQ(got.iz[k], want.iz[i]);
  for (int t = 0; t <= Order; ++t) {
    EXPECT_EQ(got.sx[t][k], want.sx[t][i]);
    EXPECT_EQ(got.sy[t][k], want.sy[t][i]);
    EXPECT_EQ(got.sz_[t][k], want.sz_[t][i]);
  }
  EXPECT_EQ(got.wqx[k], want.wqx[i]);
  EXPECT_EQ(got.wqy[k], want.wqy[i]);
  EXPECT_EQ(got.wqz[k], want.wqz[i]);
}

// The two cost profiles stage the same chunk (every live pid in slot order)
// to the same values.
template <int Order>
void ExpectStagingAgrees() {
  TestWorld world(3, 7, 1234);
  HwContext hw;
  const std::vector<int32_t> pids = LivePids(world.tile);
  const DepositScratch scalar_scratch =
      StageAsChunk<Order>(hw, world, /*vpu_staging=*/false, pids);
  const DepositScratch vpu_scratch =
      StageAsChunk<Order>(hw, world, /*vpu_staging=*/true, pids);
  for (size_t k = 0; k < pids.size(); ++k) {
    ExpectSameStaged<Order>(scalar_scratch, k, vpu_scratch, k);
  }
}

TEST(Staging, ScalarAndVpuAgreeOrder1) { ExpectStagingAgrees<1>(); }
TEST(Staging, ScalarAndVpuAgreeOrder2) { ExpectStagingAgrees<2>(); }
TEST(Staging, ScalarAndVpuAgreeOrder3) { ExpectStagingAgrees<3>(); }

TEST(Staging, ShapeWeightsSumToOne) {
  TestWorld world(3, 5, 77);
  HwContext hw;
  const std::vector<int32_t> pids = LivePids(world.tile);
  const DepositScratch scratch = StageAsChunk<3>(hw, world, true, pids);
  for (size_t k = 0; k < pids.size(); ++k) {
    double sx = 0.0, sy = 0.0, sz = 0.0;
    for (int t = 0; t < 4; ++t) {
      sx += scratch.sx[t][k];
      sy += scratch.sy[t][k];
      sz += scratch.sz_[t][k];
    }
    EXPECT_NEAR(sx, 1.0, 1e-12);
    EXPECT_NEAR(sy, 1.0, 1e-12);
    EXPECT_NEAR(sz, 1.0, 1e-12);
  }
}

TEST(Staging, PhasesChargedToPreproc) {
  TestWorld world(3, 5, 78);
  HwContext hw;
  StageAsChunk<1>(hw, world, true, LivePids(world.tile));
  EXPECT_GT(hw.ledger().PhaseCycles(Phase::kPreproc), 0.0);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kCompute), 0.0);
}

// StageChunk, per order and cost profile: a chunk of scattered pids stages the
// values a scalar-profile chunk of every slot in slot order stages for the
// same particles, bit for bit, and every charge lands in Phase::kPreproc.
class ChunkStager : public ::testing::TestWithParam<std::tuple<int, bool>> {};

template <int Order>
void ExpectChunkMatchesSlotOrderChunk(bool vpu_staging) {
  TestWorld world(3, 7, 4321);
  const std::vector<int32_t> slots = LivePids(world.tile);
  ASSERT_EQ(slots.size(), static_cast<size_t>(world.tile.num_slots()));
  HwContext ref_hw;
  const DepositScratch ref =
      StageAsChunk<Order>(ref_hw, world, /*vpu_staging=*/false, slots);
  // Every third pid, back to front: no two neighbours are consecutive.
  std::vector<int32_t> pids;
  for (int32_t pid = world.tile.num_slots() - 1; pid >= 0; pid -= 3) {
    pids.push_back(pid);
  }
  HwContext hw;
  const DepositScratch chunk = StageAsChunk<Order>(hw, world, vpu_staging, pids);
  for (size_t k = 0; k < pids.size(); ++k) {
    ExpectSameStaged<Order>(ref, static_cast<size_t>(pids[k]), chunk, k);
  }
  const CostLedger& ledger = hw.ledger();
  EXPECT_GT(ledger.PhaseCycles(Phase::kPreproc), 0.0);
  EXPECT_DOUBLE_EQ(ledger.TotalCycles(), ledger.PhaseCycles(Phase::kPreproc));
  if (!vpu_staging) {
    EXPECT_EQ(ledger.counters().gathers, 0u);
    EXPECT_EQ(ledger.counters().vpu_mem, 0u);
  }
}

TEST_P(ChunkStager, MatchesSlotOrderChunkAndChargesPreproc) {
  const auto [order, vpu_staging] = GetParam();
  if (order == 1) {
    ExpectChunkMatchesSlotOrderChunk<1>(vpu_staging);
  } else {
    ExpectChunkMatchesSlotOrderChunk<3>(vpu_staging);
  }
}

INSTANTIATE_TEST_SUITE_P(OrderProfile, ChunkStager,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Bool()));

// The VPU profile loads each of the seven SoA streams of a batch by the
// indexed-load rule: one vector load when the batch's pids are consecutive,
// one gather otherwise. Its staged-stream stores are the same either way.
template <int Order>
void ExpectBatchLoadsFollowPidOrder() {
  TestWorld world(3, 7, 99);
  ASSERT_GE(world.tile.num_slots(), 2 * kVpuLanes);
  std::vector<int32_t> consecutive;
  std::vector<int32_t> scattered;
  for (int32_t j = 0; j < kVpuLanes; ++j) {
    consecutive.push_back(5 + j);
    scattered.push_back(2 * j);
  }
  HwContext a;
  StageAsChunk<Order>(a, world, true, consecutive);
  HwContext b;
  StageAsChunk<Order>(b, world, true, scattered);
  const LedgerCounters& ca = a.ledger().counters();
  const LedgerCounters& cb = b.ledger().counters();
  EXPECT_EQ(ca.gathers, 0u);
  EXPECT_EQ(cb.gathers, 7u);
  EXPECT_EQ(ca.vpu_mem, cb.vpu_mem + 7u);
  EXPECT_DOUBLE_EQ(a.ledger().TotalCycles(), a.ledger().PhaseCycles(Phase::kPreproc));
  EXPECT_DOUBLE_EQ(b.ledger().TotalCycles(), b.ledger().PhaseCycles(Phase::kPreproc));
}

TEST(ChunkStager, BatchLoadsFollowPidOrderOrder1) {
  ExpectBatchLoadsFollowPidOrder<1>();
}
TEST(ChunkStager, BatchLoadsFollowPidOrderOrder3) {
  ExpectBatchLoadsFollowPidOrder<3>();
}

// ---------------------------------------------------------------------------
// Charge-current consistency: the deposited J integrates to sum(q v w)/V_cell.
// ---------------------------------------------------------------------------

template <int Order>
void ExpectCurrentIntegral() {
  TestWorld world(4, 4, 555);
  HwContext hw;
  DepositScalarTile<Order>(hw, world.tile, world.params, world.fields);
  world.fields.jx.FoldGuardsPeriodic();
  double expected = 0.0;
  const ParticleSoA& soa = world.tile.soa();
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  for (size_t i = 0; i < soa.size(); ++i) {
    const double u2 =
        soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] + soa.uz[i] * soa.uz[i];
    const double gamma = std::sqrt(1.0 + u2 * inv_c2);
    expected += kElectronCharge * soa.w[i] * soa.ux[i] / gamma;
  }
  expected /= world.geom.dx * world.geom.dy * world.geom.dz;
  // Shape weights sum to 1 per particle, so the grid total equals the particle
  // total exactly (up to rounding).
  const double got = world.fields.jx.InteriorSumUnique();
  EXPECT_NEAR(got, expected, std::fabs(expected) * 1e-10 + 1e-20);
}

TEST(DepositScalar, CurrentIntegralOrder1) { ExpectCurrentIntegral<1>(); }
TEST(DepositScalar, CurrentIntegralOrder2) { ExpectCurrentIntegral<2>(); }
TEST(DepositScalar, CurrentIntegralOrder3) { ExpectCurrentIntegral<3>(); }

TEST(DepositScalar, SingleParticleCicWeights) {
  // One particle at a known sub-cell position: the 8 nodal currents must be
  // the tensor-product CIC weights.
  GridGeometry g = TestWorld::MakeGeom(4);
  ParticleTile tile(0, 0, 0, 4, 4, 4);
  Particle p;
  p.x = 1.25 * g.dx;
  p.y = 2.5 * g.dy;
  p.z = 0.75 * g.dz;
  p.ux = 0.1 * kSpeedOfLight;
  p.w = 1e10;
  tile.AddParticle(p);
  tile.BuildGpma(g, GpmaConfig{});
  DepositParams params;
  params.geom = g;
  params.charge = kElectronCharge;
  FieldSet fields(g, 2);
  HwContext hw;
  DepositScalarTile<1>(hw, tile, params, fields);
  const double gamma = std::sqrt(1.0 + 0.01);
  const double wq = kElectronCharge * 1e10 * (0.1 * kSpeedOfLight / gamma) /
                    (g.dx * g.dy * g.dz);
  EXPECT_NEAR(fields.jx.At(1, 2, 0), wq * 0.75 * 0.5 * 0.25, std::fabs(wq) * 1e-14);
  EXPECT_NEAR(fields.jx.At(2, 2, 1), wq * 0.25 * 0.5 * 0.75, std::fabs(wq) * 1e-14);
  EXPECT_NEAR(fields.jx.At(2, 3, 1), wq * 0.25 * 0.5 * 0.75, std::fabs(wq) * 1e-14);
}

// ---------------------------------------------------------------------------
// Variant equivalence: every kernel reproduces the scalar reference, bit for
// bit where it sums in the reference's order.
// ---------------------------------------------------------------------------

// Unsorted, the baseline kernel runs the scalar reference's arithmetic in the
// same slot order, so J is bitwise equal. Sorted, it sums in GPMA order, so J
// matches to rounding.
template <int Order>
void RunBaseline(bool sorted, int ppc) {
  TestWorld world(4, ppc, 999 + ppc);
  HwContext hw;
  DepositScratch scratch;
  DepositBaselineTile<Order>(hw, world.tile, world.params, scratch, world.fields,
                             sorted);
  if (sorted) {
    ExpectMatchesReference<Order>(world, world.fields);
    return;
  }
  HwContext ref_hw;
  FieldSet ref(world.geom, 2);
  DepositScalarTile<Order>(ref_hw, world.tile, world.params, ref);
  ExpectBitwiseEqual(ref, world.fields);
}

class BaselineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(BaselineEquivalence, MatchesScalarReference) {
  const auto [order, sorted, ppc] = GetParam();
  if (order == 1) {
    RunBaseline<1>(sorted, ppc);
  } else if (order == 2) {
    RunBaseline<2>(sorted, ppc);
  } else {
    RunBaseline<3>(sorted, ppc);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 4, 9, 80)));

// Deposits the world's tile through one rhocell kernel and reduces it onto
// `fields`.
template <int Order>
void DepositRhocell(bool hand_tuned, bool sorted, TestWorld& world,
                    FieldSet& fields) {
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), Order);
  if (hand_tuned) {
    DepositRhocellVpu<Order>(hw, world.tile, world.params, scratch, rhocell, sorted);
  } else {
    DepositRhocellAutoVec<Order>(hw, world.tile, world.params, scratch, rhocell,
                                 sorted);
  }
  ReduceRhocellToGrid<Order>(hw, world.tile, rhocell, fields);
}

// Both rhocell kernels match the scalar reference to rounding. The auto-vec
// kernel runs the VPU kernel's NodeWeights/AccumulateBlock arithmetic in the
// same deposit order, so its J is bitwise the VPU kernel's.
template <int Order>
void RunRhocellVariant(bool hand_tuned, bool sorted, int ppc, uint64_t seed) {
  TestWorld world(4, ppc, seed);
  DepositRhocell<Order>(hand_tuned, sorted, world, world.fields);
  ExpectMatchesReference<Order>(world, world.fields);
  if (!hand_tuned) {
    FieldSet vpu(world.geom, 2);
    DepositRhocell<Order>(/*hand_tuned=*/true, sorted, world, vpu);
    ExpectBitwiseEqual(vpu, world.fields);
  }
}

class RhocellEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, int>> {};

TEST_P(RhocellEquivalence, MatchesScalarReference) {
  const auto [order, hand_tuned, sorted, ppc] = GetParam();
  if (order == 1) {
    RunRhocellVariant<1>(hand_tuned, sorted, ppc, 31337);
  } else {
    RunRhocellVariant<3>(hand_tuned, sorted, ppc, 31337);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RhocellEquivalence,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Bool(), ::testing::Bool(),
                                            ::testing::Values(1, 4, 9, 80)));

template <int Order>
void RunMpuVariant(MpuScheduling scheduling, int ppc, uint64_t seed) {
  TestWorld world(4, ppc, seed);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), Order);
  DepositMpu<Order>(hw, world.tile, world.params, /*vpu_staging=*/true, scratch,
                    rhocell, scheduling);
  ReduceRhocellToGrid<Order>(hw, world.tile, rhocell, world.fields);
  EXPECT_GT(hw.ledger().counters().mopas, 0u);
  ExpectMatchesReference<Order>(world, world.fields);
}

class MpuEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MpuEquivalence, MatchesScalarReference) {
  const auto [order, sched, ppc] = GetParam();
  const MpuScheduling scheduling =
      sched == 0 ? MpuScheduling::kCellResident : MpuScheduling::kPairwise;
  if (order == 1) {
    RunMpuVariant<1>(scheduling, ppc, 4242);
  } else {
    RunMpuVariant<3>(scheduling, ppc, 4242);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MpuEquivalence,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(1, 2, 5, 16, 80)));

TEST(DepositMpu, CicTileUtilizationIs25Percent) {
  // 2 particles x 8 nodes = 16 useful FMAs out of the 64 an 8x8 MOPA performs.
  TestWorld world(2, 8, 808);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), 1);
  DepositMpu<1>(hw, world.tile, world.params, /*vpu_staging=*/true, scratch, rhocell,
                MpuScheduling::kCellResident);
  const auto n = world.tile.num_live();
  const auto pairs = hw.ledger().counters().mopas / 3;  // 3 components
  // ceil(n_cell_particles/2) pairs summed over cells; at least n/2.
  EXPECT_GE(static_cast<int64_t>(pairs), n / 2);
  const double useful = static_cast<double>(n) * 8.0;
  const double slots = static_cast<double>(pairs) * 64.0;
  EXPECT_NEAR(useful / slots, 0.25, 0.07);
}

TEST(DepositMpu, QspTileUtilizationIs50Percent) {
  TestWorld world(2, 8, 809);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), 3);
  DepositMpu<3>(hw, world.tile, world.params, /*vpu_staging=*/true, scratch, rhocell,
                MpuScheduling::kCellResident);
  const auto n = world.tile.num_live();
  const auto mopas = hw.ledger().counters().mopas;
  // Per pair per component: 4 MOPAs; each pair contributes 2 x 64 useful FMAs
  // per component.
  const double useful = static_cast<double>(n) * 64.0 * 3.0;
  const double slots = static_cast<double>(mopas) * 64.0;
  EXPECT_NEAR(useful / slots, 0.5, 0.13);
}

TEST(Rhocell, BufferLayout) {
  RhocellBuffer rc(10, 3);
  EXPECT_EQ(rc.stride(), 64);
  EXPECT_EQ(rc.CellJy(3) - rc.jy().data(), 3 * 64);
  rc.CellJx(9)[63] = 1.0;
  rc.Zero();
  EXPECT_DOUBLE_EQ(rc.CellJx(9)[63], 0.0);
}

TEST(Rhocell, ReduceZeroesBuffer) {
  TestWorld world(3, 3, 2020);
  HwContext hw;
  DepositScratch scratch;
  RhocellBuffer rhocell(world.tile.num_cells(), 1);
  DepositRhocellVpu<1>(hw, world.tile, world.params, scratch, rhocell, true);
  ReduceRhocellToGrid<1>(hw, world.tile, rhocell, world.fields);
  for (double v : rhocell.jx()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Deposit, EmptyTileDepositsNothing) {
  GridGeometry g = TestWorld::MakeGeom(4);
  ParticleTile tile(0, 0, 0, 4, 4, 4);
  tile.BuildGpma(g, GpmaConfig{});
  DepositParams params;
  params.geom = g;
  params.charge = kElectronCharge;
  FieldSet fields(g, 2);
  HwContext hw;
  DepositScratch scratch;
  DepositBaselineTile<1>(hw, tile, params, scratch, fields, false);
  EXPECT_DOUBLE_EQ(Sum(fields.jx.vec()), 0.0);
}

TEST(Deposit, DeadSlotsAreSkipped) {
  TestWorld world(3, 4, 606);
  // Remove a third of the particles, then re-bin.
  Rng rng(2);
  for (int32_t pid = 0; pid < world.tile.num_slots(); ++pid) {
    if (rng.Bernoulli(0.33)) {
      world.tile.RemoveParticle(pid);
    }
  }
  world.tile.BuildGpma(world.geom, GpmaConfig{});
  // Unsorted (slot order) and sorted (GPMA order) must both skip dead slots
  // and produce the same J as the scalar reference on the live set.
  for (const bool sorted : {false, true}) {
    HwContext hw;
    DepositScratch scratch;
    FieldSet fields(world.geom, 2);
    DepositBaselineTile<1>(hw, world.tile, world.params, scratch, fields, sorted);
    ExpectMatchesReference<1>(world, fields);
  }
}


// Adaptive low-density fallback (paper Sec. 6.1): sparse bins go through a VPU
// path; results must be identical and MOPA counts must drop.
class SparseFallback : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparseFallback, MatchesReferenceAndSkipsMpuOnSparseBins) {
  const auto [order, threshold] = GetParam();
  TestWorld world(4, 3, 777);  // PPC 3: every bin is "sparse" for threshold 8
  HwContext hw;
  DepositScratch scratch;
  auto run = [&](int thr, FieldSet& out) -> uint64_t {
    HwContext local;
    DepositScratch sc;
    RhocellBuffer rc(world.tile.num_cells(), order);
    if (order == 1) {
      DepositMpu<1>(local, world.tile, world.params, /*vpu_staging=*/true, sc, rc,
                    MpuScheduling::kCellResident, thr);
      ReduceRhocellToGrid<1>(local, world.tile, rc, out);
    } else {
      DepositMpu<3>(local, world.tile, world.params, /*vpu_staging=*/true, sc, rc,
                    MpuScheduling::kCellResident, thr);
      ReduceRhocellToGrid<3>(local, world.tile, rc, out);
    }
    return local.ledger().counters().mopas;
  };
  FieldSet with_fallback(world.geom, 2);
  const uint64_t mopas_fallback = run(threshold, with_fallback);
  FieldSet without(world.geom, 2);
  const uint64_t mopas_full = run(0, without);
  if (order == 1) {
    const auto [jx, jy, jz] = ReferenceJ<1>(world);
    EXPECT_LT(RelMaxError(jx, with_fallback.jx.vec()), kTol);
    EXPECT_LT(RelMaxError(jz, with_fallback.jz.vec()), kTol);
  } else {
    const auto [jx, jy, jz] = ReferenceJ<3>(world);
    EXPECT_LT(RelMaxError(jx, with_fallback.jx.vec()), kTol);
    EXPECT_LT(RelMaxError(jz, with_fallback.jz.vec()), kTol);
  }
  if (threshold > 3) {
    EXPECT_EQ(mopas_fallback, 0u);  // every bin below threshold -> pure VPU
  }
  EXPECT_GT(mopas_full, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparseFallback,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(2, 8)));

TEST(CanonicalFlops, CountsAreStable) {
  // Pinned values: changing the canonical count silently rescales every
  // efficiency number bench_table3_efficiency prints.
  EXPECT_DOUBLE_EQ(CanonicalFlopsPerParticle(1), 12 + 3 + 17 + 4 + 8 * 7);
  EXPECT_DOUBLE_EQ(CanonicalFlopsPerParticle(2), 12 + 15 + 17 + 9 + 27 * 7);
  EXPECT_DOUBLE_EQ(CanonicalFlopsPerParticle(3), 12 + 27 + 17 + 16 + 64 * 7);
}

}  // namespace
}  // namespace mpic
