#include <gtest/gtest.h>

#include <vector>

#include "src/hw/cache_model.h"
#include "src/hw/cost_ledger.h"
#include "src/hw/hw_context.h"
#include "src/hw/machine_config.h"
#include "src/hw/mem_map.h"
#include "src/hw/vec.h"
#include "src/runtime/digest.h"

namespace mpic {
namespace {

TEST(MachineConfig, PeakRatesMatchPaperRatios) {
  const MachineConfig cfg = MachineConfig::Lx2();
  // MOPA: 64 FMA per instruction at issue interval 2 => 4x a single VPU MLA
  // pipe's 8 FMA/cycle (Sec. 5.1).
  const double mopa_fma_per_cycle = kMpuTile * kMpuTile / cfg.mopa_issue_cycles;
  const double mla_fma_per_cycle = kVpuLanes;
  EXPECT_DOUBLE_EQ(mopa_fma_per_cycle / mla_fma_per_cycle, 4.0);
  EXPECT_DOUBLE_EQ(cfg.MpuPeakFlopsPerCycle(), 64.0);
  EXPECT_DOUBLE_EQ(cfg.VpuPeakFlopsPerCycle(), 32.0);
}

TEST(CostLedger, PhaseAccounting) {
  CostLedger ledger;
  ledger.SetPhase(Phase::kPreproc);
  ledger.AddCycles(5.0);
  {
    PhaseScope scope(ledger, Phase::kCompute);
    ledger.AddCycles(7.0);
  }
  ledger.AddCycles(1.0);  // back to preproc
  EXPECT_DOUBLE_EQ(ledger.PhaseCycles(Phase::kPreproc), 6.0);
  EXPECT_DOUBLE_EQ(ledger.PhaseCycles(Phase::kCompute), 7.0);
  EXPECT_DOUBLE_EQ(ledger.TotalCycles(), 13.0);
}

TEST(CostLedger, DepositionCyclesSumsKernelPhases) {
  CostLedger ledger;
  for (Phase p : {Phase::kPreproc, Phase::kCompute, Phase::kSort, Phase::kReduce,
                  Phase::kGather, Phase::kSolver}) {
    ledger.SetPhase(p);
    ledger.AddCycles(1.0);
  }
  EXPECT_DOUBLE_EQ(ledger.DepositionCycles(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.TotalCycles(), 6.0);
}

// Field k of a is 1000 (k + 1) and of b is k + 1, so a - b reads 999 (k + 1)
// in field k only if every field subtracts its own counterpart.
TEST(LedgerCounters, SubtractionIsFieldByField) {
  constexpr uint64_t LedgerCounters::*kCounts[] = {
      &LedgerCounters::scalar_ops,   &LedgerCounters::scalar_mem,
      &LedgerCounters::vpu_ops,      &LedgerCounters::vpu_mem,
      &LedgerCounters::gathers,      &LedgerCounters::scatters,
      &LedgerCounters::mopas,        &LedgerCounters::mopa_valid_slots,
      &LedgerCounters::atomics,      &LedgerCounters::tasks_stolen,
      &LedgerCounters::tasks_stolen_remote, &LedgerCounters::l1_hits,
      &LedgerCounters::l1_misses,    &LedgerCounters::l2_hits,
      &LedgerCounters::l2_misses,    &LedgerCounters::remote_lines};
  constexpr double LedgerCounters::*kCycles[] = {&LedgerCounters::steal_cycles,
                                                 &LedgerCounters::remote_cycles};
  static_assert(sizeof(kCounts) / sizeof(kCounts[0]) * 8 +
                        sizeof(kCycles) / sizeof(kCycles[0]) * 8 ==
                    sizeof(LedgerCounters),
                "a LedgerCounters field is missing here");
  LedgerCounters a, b;
  uint64_t k = 1;
  for (auto field : kCounts) {
    a.*field = 1000 * k;
    b.*field = k++;
  }
  for (auto field : kCycles) {
    a.*field = 1000.0 * static_cast<double>(k);
    b.*field = static_cast<double>(k++);
  }
  const LedgerCounters d = a - b;
  k = 1;
  for (auto field : kCounts) {
    EXPECT_EQ(d.*field, 999 * k++);
  }
  for (auto field : kCycles) {
    EXPECT_EQ(d.*field, 999.0 * static_cast<double>(k++));
  }
}

TEST(CacheModel, RepeatAccessHitsL1) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  EXPECT_GT(cache.Touch(0x1000, ledger), 0.0);  // cold miss
  EXPECT_DOUBLE_EQ(cache.Touch(0x1000, ledger), 0.0);
  EXPECT_DOUBLE_EQ(cache.Touch(0x1008, ledger), 0.0);  // same line
  EXPECT_EQ(ledger.counters().l1_misses, 1u);
  EXPECT_EQ(ledger.counters().l1_hits, 2u);
}

TEST(CacheModel, L1EvictionFallsBackToL2) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  // L1: 32 KiB, 8-way, 64 sets. Touch 9 lines mapping to the same set.
  const uint64_t set_stride = 64ull * 64ull;  // num_sets * line
  for (int i = 0; i < 9; ++i) {
    cache.Touch(i * set_stride, ledger);
  }
  // First line was evicted from L1 but still sits in the (bigger) L2.
  const double penalty = cache.Touch(0, ledger);
  EXPECT_DOUBLE_EQ(penalty, cfg.l2.hit_penalty_cycles);
  EXPECT_GT(ledger.counters().l2_hits, 0u);
}

TEST(CacheModel, TouchRangeCountsEveryLine) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  cache.TouchRange(0, 64 * 4, ledger);  // exactly 4 lines
  EXPECT_EQ(ledger.counters().l1_misses, 4u);
  cache.TouchRange(32, 64, ledger);  // straddles two (now hot) lines
  EXPECT_EQ(ledger.counters().l1_hits, 2u);
}

TEST(CacheModel, ResetColdsTheCache) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CacheModel cache(cfg);
  CostLedger ledger;
  cache.Touch(0x40, ledger);
  cache.Reset();
  EXPECT_GT(cache.Touch(0x40, ledger), 0.0);
}

TEST(MemMap, TranslateIsStableAndDistinct) {
  MemMap map;
  std::vector<double> a(100), b(100);
  map.Register(a.data(), a.size() * sizeof(double));
  map.Register(b.data(), b.size() * sizeof(double));
  const uint64_t a0 = map.Translate(a.data());
  const uint64_t a5 = map.Translate(a.data() + 5);
  const uint64_t b0 = map.Translate(b.data());
  EXPECT_EQ(a5 - a0, 5 * sizeof(double));
  EXPECT_NE(a0, b0);
  // Logical layout is allocation-order deterministic: first region at the
  // first page.
  EXPECT_EQ(a0, 4096u);
}

TEST(MemMap, ReRegisterSameBaseIsStable) {
  MemMap map;
  std::vector<double> a(100);
  const uint64_t first = map.Register(a.data(), a.size() * sizeof(double));
  const uint64_t second = map.Register(a.data(), a.size() * sizeof(double));
  EXPECT_EQ(first, second);
}

// Growing a plain registration evicts the regions the grown range overlaps,
// so a pointer in the overlap translates through the grown region whatever
// was translated before it. (Without the eviction, A + 4196 translated
// through B right after A + 10000 had made B the MRU region.)
TEST(MemMap, GrowingARegionEvictsTheRegionsItOverlaps) {
  MemMap map;
  std::vector<char> buf(16384);
  const char* a = buf.data();
  map.Register(a, 1024);
  map.Register(a + 4096, 16384 - 4096);
  const uint64_t grown = map.Register(a, 8192);
  EXPECT_EQ(map.num_regions(), 1u);
  map.Translate(a + 10);
  const uint64_t after_near = map.Translate(a + 4196);
  EXPECT_GE(map.Translate(a + 10000), uint64_t{1} << 46);  // B is gone
  const uint64_t after_far = map.Translate(a + 4196);
  EXPECT_EQ(after_near, grown + 4196);
  EXPECT_EQ(after_far, grown + 4196);
}

TEST(MemMap, UnregisteredPointerMapsHigh) {
  MemMap map;
  double local = 0.0;
  EXPECT_GE(map.Translate(&local), uint64_t{1} << 46);
}

TEST(HwContext, VectorArithmeticSemantics) {
  HwContext hw;
  const Vec8 a = Vec8::Splat(2.0);
  const Vec8 b = Vec8::Splat(3.0);
  const Vec8 c = Vec8::Splat(10.0);
  EXPECT_DOUBLE_EQ(hw.VFma(a, b, c)[2], 16.0);
  EXPECT_GT(hw.ledger().TotalCycles(), 0.0);
}

TEST(HwContext, LoadStoreRoundTrip) {
  HwContext hw;
  std::vector<double> buf(16, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  Vec8 v;
  for (int i = 0; i < kVpuLanes; ++i) {
    v[i] = i * 1.5;
  }
  hw.VStore(buf.data(), v);
  const Vec8 r = hw.VLoad(buf.data());
  for (int i = 0; i < kVpuLanes; ++i) {
    EXPECT_DOUBLE_EQ(r[i], i * 1.5);
  }
}

TEST(HwContext, GatherScatterSemantics) {
  HwContext hw;
  std::vector<double> buf(64, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  const int64_t idx[8] = {0, 8, 16, 24, 32, 40, 48, 56};
  for (int i = 0; i < 8; ++i) {
    buf[static_cast<size_t>(8 * i)] = 100.0 + i;
  }
  const Vec8 g = hw.VGather(buf.data(), idx, Mask8::All());
  EXPECT_DOUBLE_EQ(g[7], 107.0);
}

// TouchGather charges one gather at any element width: one gathers count, the
// gather issue, then each active lane's line penalty in lane order, with
// masked lanes untouched. The reference replays the same lanes, in the same
// order, on a twin context's cache and address map.
template <typename T>
class TouchGatherWidth : public ::testing::Test {};
using GatherElementTypes = ::testing::Types<int32_t, uint8_t, double>;
TYPED_TEST_SUITE(TouchGatherWidth, GatherElementTypes);

TYPED_TEST(TouchGatherWidth, ChargesOneIssueAndActiveLanePenaltiesInOrder) {
  constexpr int64_t kPerLine = kCacheLineBytes / sizeof(TypeParam);
  std::vector<TypeParam> buf(static_cast<size_t>(32 * kPerLine));
  HwContext hw;
  HwContext ref;
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(TypeParam));
  ref.RegisterRegion(buf.data(), buf.size() * sizeof(TypeParam));
  // Cold lines, a revisit of lane 0's line (an L1 hit), an ascending run the
  // stride prefetcher can follow, and a masked lane on a line of its own.
  const int64_t idx[kVpuLanes] = {3 * kPerLine,  kPerLine,      3 * kPerLine + 1,
                                  9 * kPerLine,  20 * kPerLine, 10 * kPerLine,
                                  11 * kPerLine, 12 * kPerLine};
  Mask8 m = Mask8::All();
  m.lane[4] = false;

  hw.TouchGather(buf.data(), sizeof(TypeParam), idx, m);

  double want = hw.cfg().gather_issue_cycles;
  for (int i = 0; i < kVpuLanes; ++i) {
    if (m.lane[static_cast<size_t>(i)]) {
      const TypeParam* p = &buf[static_cast<size_t>(idx[i])];
      want += ref.cache().TouchRange(ref.mem().Translate(p), sizeof(TypeParam),
                                     ref.ledger());
    }
  }
  const LedgerCounters& got = hw.ledger().counters();
  EXPECT_EQ(got.gathers, 1u);
  EXPECT_EQ(got.scalar_mem, 0u);
  EXPECT_EQ(got.vpu_mem, 0u);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles(), want);
  EXPECT_GT(want, hw.cfg().gather_issue_cycles);
  // One lookup per active lane: the masked lane's line was never touched.
  EXPECT_EQ(got.l1_hits + got.l1_misses, 7u);
  EXPECT_EQ(got.l1_hits, ref.ledger().counters().l1_hits);
  EXPECT_EQ(got.l1_misses, ref.ledger().counters().l1_misses);
  EXPECT_EQ(got.l2_misses, ref.ledger().counters().l2_misses);
  EXPECT_GE(got.l1_hits, 1u);
}

// VGather charges through TouchGather: twin contexts, one gathering values and
// one only charging, end with the same ledger.
TEST(HwContext, VGatherChargesExactlyTouchGather) {
  std::vector<double> buf(512);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<double>(i);
  }
  HwContext gather;
  HwContext touch;
  gather.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  touch.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  const int64_t idx[kVpuLanes] = {40, 8, 300, 41, 9, 500, 16, 24};
  for (const Mask8& m : {Mask8::All(), Mask8::FirstN(5)}) {
    const Vec8 v = gather.VGather(buf.data(), idx, m);
    touch.TouchGather(buf.data(), sizeof(double), idx, m);
    EXPECT_DOUBLE_EQ(v[2], 300.0);
  }
  EXPECT_EQ(gather.ledger().counters().gathers, 2u);
  EXPECT_EQ(LedgerDigest(gather.ledger()), LedgerDigest(touch.ledger()));
}

TEST(HwContext, MopaMatchesNaiveOuterProduct) {
  HwContext hw;
  Vec8 a, b;
  for (int i = 0; i < 8; ++i) {
    a[i] = i + 1;
    b[i] = 10.0 * i;
  }
  MpuTileReg tile;
  hw.TileZero(tile);
  hw.Mopa(tile, a, b);
  hw.Mopa(tile, a, b);  // accumulate twice
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_DOUBLE_EQ(tile.At(r, c), 2.0 * (r + 1) * (10.0 * c));
    }
  }
  EXPECT_EQ(hw.ledger().counters().mopas, 2u);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kOther),
                   2.0 * hw.cfg().mopa_issue_cycles + 1.0);
}

TEST(HwContext, TileReadRowExtractsRow) {
  HwContext hw;
  MpuTileReg tile;
  tile.At(3, 5) = 42.0;
  const Vec8 row = hw.TileReadRow(tile, 3);
  EXPECT_DOUBLE_EQ(row[5], 42.0);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(HwContext, MopaRequiresMpu) {
  HwContext hw(MachineConfig::Lx2VpuOnly());
  MpuTileReg tile;
  Vec8 a = Vec8::Splat(1.0);
  EXPECT_DEATH(hw.Mopa(tile, a, a), "without an MPU");
}

TEST(HwContext, BulkChargeRoofline) {
  HwContext hw;
  const double before = hw.ledger().TotalCycles();
  // Compute-bound: 3200 flops at 32 flops/cycle = 100 cycles.
  hw.ChargeBulk(3200.0, 0.0);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles() - before, 100.0);
  // Memory-bound: 3200 bytes at 16 B/cycle = 200 cycles.
  hw.ChargeBulk(0.0, 3200.0);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles() - before, 300.0);
}

TEST(HwContext, ResetModelZeroesLedgerAndColdsCache) {
  HwContext hw;
  std::vector<double> buf(8, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  hw.TouchRead(&buf[0], sizeof(double));
  hw.ResetModel();
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles(), 0.0);
  hw.TouchRead(&buf[0], sizeof(double));
  EXPECT_EQ(hw.ledger().counters().l1_misses, 1u);  // cold again
}

TEST(HwContext, SortedAccessCheaperThanScattered) {
  // The load-bearing property of the whole model: streaming through an array
  // costs less than striding over it, because of the cache.
  HwContext hw;
  std::vector<double> buf(1 << 16, 1.0);  // 512 KiB: fits L2, not L1
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  // Sequential: every double in order; 7 of 8 touches hit the line in L1.
  for (size_t i = 0; i < buf.size(); ++i) {
    hw.TouchRead(&buf[i], 8);
  }
  const double sequential = hw.ledger().TotalCycles();
  hw.ResetModel();
  // Scattered: same touch count, but hopping 97 lines per access — defeats
  // both the L1 (revisits come after eviction) and the stride prefetcher.
  size_t pos = 0;
  for (size_t i = 0; i < buf.size(); ++i) {
    hw.TouchRead(&buf[pos], 8);
    pos = (pos + 97 * 8) % buf.size();
  }
  const double scattered = hw.ledger().TotalCycles();
  EXPECT_LT(sequential * 1.5, scattered);
}

}  // namespace
}  // namespace mpic
