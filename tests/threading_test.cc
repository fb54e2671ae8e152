// Tile-parallel execution tests: physics must be bit-identical to the serial
// run for any modeled core / OpenMP thread count, and the multi-core ledger
// must charge parallel regions as critical-path cycles (max over workers) with
// event counters summed.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/core/diagnostics.h"
#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/hw/parallel_for.h"
#include "tests/reduce_split_rows.h"

namespace mpic {
namespace {

// Use more OpenMP threads than the host may have cores: results must not
// depend on how modeled workers map onto real threads.
void UseManyThreads() {
#ifdef _OPENMP
  omp_set_num_threads(4);
#endif
}

void ExpectFieldsBitIdentical(const FieldSet& a, const FieldSet& b) {
  auto cmp = [](const FieldArray& fa, const FieldArray& fb, const char* name) {
    ASSERT_EQ(fa.vec().size(), fb.vec().size()) << name;
    EXPECT_EQ(std::memcmp(fa.vec().data(), fb.vec().data(),
                          fa.vec().size() * sizeof(double)),
              0)
        << name << " differs bitwise";
  };
  cmp(a.ex, b.ex, "ex");
  cmp(a.ey, b.ey, "ey");
  cmp(a.ez, b.ez, "ez");
  cmp(a.bx, b.bx, "bx");
  cmp(a.by, b.by, "by");
  cmp(a.bz, b.bz, "bz");
  cmp(a.jx, b.jx, "jx");
  cmp(a.jy, b.jy, "jy");
  cmp(a.jz, b.jz, "jz");
}

void ExpectParticlesBitIdentical(const TileSet& a, const TileSet& b) {
  ASSERT_EQ(a.num_tiles(), b.num_tiles());
  for (int t = 0; t < a.num_tiles(); ++t) {
    const ParticleTile& ta = a.tile(t);
    const ParticleTile& tb = b.tile(t);
    ASSERT_EQ(ta.num_slots(), tb.num_slots()) << "tile " << t;
    ASSERT_EQ(ta.num_live(), tb.num_live()) << "tile " << t;
    const ParticleSoA& sa = ta.soa();
    const ParticleSoA& sb = tb.soa();
    for (int32_t pid = 0; pid < ta.num_slots(); ++pid) {
      ASSERT_EQ(ta.IsLive(pid), tb.IsLive(pid)) << "tile " << t << " pid " << pid;
      if (!ta.IsLive(pid)) {
        continue;
      }
      const auto i = static_cast<size_t>(pid);
      EXPECT_EQ(sa.x[i], sb.x[i]);
      EXPECT_EQ(sa.y[i], sb.y[i]);
      EXPECT_EQ(sa.z[i], sb.z[i]);
      EXPECT_EQ(sa.ux[i], sb.ux[i]);
      EXPECT_EQ(sa.uy[i], sb.uy[i]);
      EXPECT_EQ(sa.uz[i], sb.uz[i]);
      EXPECT_EQ(sa.w[i], sb.w[i]);
    }
  }
}

void ExpectSimsBitIdentical(Simulation& a, Simulation& b) {
  ExpectFieldsBitIdentical(a.fields(), b.fields());
  ASSERT_EQ(a.num_species(), b.num_species());
  for (int sid = 0; sid < a.num_species(); ++sid) {
    ExpectParticlesBitIdentical(a.block(sid).tiles, b.block(sid).tiles);
  }
}

// ---- Ledger semantics ------------------------------------------------------

TEST(ParallelLedger, RegionChargesMaxCyclesAndSumsCounters) {
  UseManyThreads();
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  // Two indices over two workers: the static partition gives index 0 to
  // worker 0 and index 1 to worker 1.
  ParallelForTiles(hw, 2, [&](HwContext& ctx, int worker, int index) {
    EXPECT_EQ(worker, index);
    if (index == 0) {
      PhaseScope phase(ctx.ledger(), Phase::kCompute);
      ctx.ChargeCycles(100.0);
      ctx.ledger().counters().scalar_ops += 5;
    } else {
      {
        PhaseScope phase(ctx.ledger(), Phase::kCompute);
        ctx.ChargeCycles(60.0);
      }
      PhaseScope phase(ctx.ledger(), Phase::kPreproc);
      ctx.ChargeCycles(50.0);
      ctx.ledger().counters().scalar_ops += 7;
    }
  });
  // Critical path per phase: max(100, 60) compute, max(0, 50) preproc, plus
  // the region's fork/join charge under kOther.
  const double fork_join = hw.cfg().parallel_region_fork_join_cycles;
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kCompute), 100.0);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kPreproc), 50.0);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kOther), fork_join);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles(), 150.0 + fork_join);
  // Work counters sum across workers.
  EXPECT_EQ(hw.ledger().counters().scalar_ops, 12u);
}

TEST(ParallelLedger, FusedRegionChargesCriticalWorkerTotal) {
  UseManyThreads();
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  // Worker 0: 100 compute. Worker 1: 60 compute + 50 preproc = 110 total — the
  // critical core. A per-phase max would charge 100 + 50 = 150; the fused
  // merge charges the critical core's own split, so the breakdown still sums
  // exactly to the region's wall time.
  ParallelForTiles(
      hw, 2,
      [&](HwContext& ctx, int, int index) {
        if (index == 0) {
          PhaseScope phase(ctx.ledger(), Phase::kCompute);
          ctx.ChargeCycles(100.0);
        } else {
          {
            PhaseScope phase(ctx.ledger(), Phase::kCompute);
            ctx.ChargeCycles(60.0);
          }
          PhaseScope phase(ctx.ledger(), Phase::kPreproc);
          ctx.ChargeCycles(50.0);
        }
      },
      RegionMerge::kFusedStages);
  const double fork_join = hw.cfg().parallel_region_fork_join_cycles;
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kCompute), 60.0);
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kPreproc), 50.0);
  EXPECT_DOUBLE_EQ(hw.ledger().TotalCycles(), 110.0 + fork_join);
}

TEST(ParallelLedger, SingleCoreRunsInlineWithSerialAccounting) {
  HwContext hw;  // num_cores = 1
  ParallelForTiles(hw, 2, [&](HwContext& ctx, int worker, int) {
    EXPECT_EQ(&ctx, &hw);  // inline on the main context, no fork/merge
    EXPECT_EQ(worker, 0);
    PhaseScope phase(ctx.ledger(), Phase::kCompute);
    ctx.ChargeCycles(10.0);
  });
  // Serial semantics: charges accumulate, 2 * 10 cycles.
  EXPECT_DOUBLE_EQ(hw.ledger().PhaseCycles(Phase::kCompute), 20.0);
}

TEST(ParallelLedger, StaticPartitionIsBalancedAndComplete) {
  const int n = 10, workers = 4;
  std::vector<int> owner(n, -1);
  for (int w = 0; w < workers; ++w) {
    const TileRange r = WorkerTileRange(n, workers, w);
    EXPECT_GE(r.end - r.begin, n / workers);
    EXPECT_LE(r.end - r.begin, n / workers + 1);
    for (int i = r.begin; i < r.end; ++i) {
      EXPECT_EQ(owner[static_cast<size_t>(i)], -1);
      owner[static_cast<size_t>(i)] = w;
    }
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_NE(owner[static_cast<size_t>(i)], -1);
  }
}

TEST(ParallelLedger, MultiCoreCountersSumToSerialWork) {
  // Counters merge as sums across workers, so a multi-core run must report
  // exactly the serial run's instruction mix — same physics, same work, just
  // partitioned — plus what the split reduction adds: each CIC block row a
  // z-plane cut divides costs one masked load, scatter and store more. Here
  // every one-tile color class splits four ways. (Cycles and cache events
  // legitimately differ: private per-core caches and critical-path
  // accounting.)
  UseManyThreads();
  constexpr int kSteps = 3;
  int64_t cut_rows = 0;
  auto run = [&cut_rows](int cores) {
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.tile = 4;
    p.variant = DepositVariant::kFullOpt;
    auto sim = MakeUniformSimulation(hw, p);
    sim->Run(kSteps);
    cut_rows = kSteps * CutRowsPerStep(*sim, cores);
    return hw.ledger().counters();
  };
  const LedgerCounters serial = run(1);
  const LedgerCounters parallel = run(4);
  // Three cuts through each of eight 4x4x4 tiles, three components.
  ASSERT_EQ(cut_rows, kSteps * 8 * 3 * 16 * 3);
  EXPECT_EQ(parallel.scalar_ops, serial.scalar_ops);
  EXPECT_EQ(parallel.scalar_mem, serial.scalar_mem);
  EXPECT_EQ(parallel.vpu_ops, serial.vpu_ops);
  const auto cut = static_cast<uint64_t>(cut_rows);
  EXPECT_EQ(parallel.vpu_mem, serial.vpu_mem + 2 * cut);
  EXPECT_EQ(parallel.gathers, serial.gathers);
  EXPECT_EQ(parallel.scatters, serial.scatters + cut);
  EXPECT_EQ(parallel.mopas, serial.mopas);
  EXPECT_EQ(parallel.atomics, serial.atomics);
  EXPECT_GT(parallel.mopas, 0u);
}

// ---- Bit-identical physics across core counts ------------------------------

class ThreadCounts : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCounts, UniformPlasmaBitIdentical) {
  UseManyThreads();
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.variant = DepositVariant::kFullOpt;

  HwContext serial_hw;
  auto serial = MakeUniformSimulation(serial_hw, p);
  serial->Run(5);

  HwContext par_hw(MachineConfig::Lx2MultiCore(GetParam()));
  auto parallel = MakeUniformSimulation(par_hw, p);
  parallel->Run(5);

  ExpectSimsBitIdentical(*serial, *parallel);
}

TEST_P(ThreadCounts, TwoStreamBitIdentical) {
  UseManyThreads();
  TwoStreamParams p;
  p.variant = DepositVariant::kFullOpt;

  HwContext serial_hw;
  auto serial = MakeTwoStreamSimulation(serial_hw, p);
  serial->Run(5);

  HwContext par_hw(MachineConfig::Lx2MultiCore(GetParam()));
  auto parallel = MakeTwoStreamSimulation(par_hw, p);
  parallel->Run(5);

  ExpectSimsBitIdentical(*serial, *parallel);
}

TEST_P(ThreadCounts, LwfaMovingWindowBitIdentical) {
  UseManyThreads();
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  p.variant = DepositVariant::kFullOpt;
  p.with_ions = true;

  HwContext serial_hw;
  auto serial = MakeLwfaSimulation(serial_hw, p);
  serial->Run(8);

  HwContext par_hw(MachineConfig::Lx2MultiCore(GetParam()));
  auto parallel = MakeLwfaSimulation(par_hw, p);
  parallel->Run(8);

  ExpectSimsBitIdentical(*serial, *parallel);
}

// The unsorted baseline scatters straight into shared J and stays on the
// serial path — it must still produce identical physics at num_cores > 1.
TEST_P(ThreadCounts, BaselineVariantBitIdentical) {
  UseManyThreads();
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.variant = DepositVariant::kBaseline;

  HwContext serial_hw;
  auto serial = MakeUniformSimulation(serial_hw, p);
  serial->Run(4);

  HwContext par_hw(MachineConfig::Lx2MultiCore(GetParam()));
  auto parallel = MakeUniformSimulation(par_hw, p);
  parallel->Run(4);

  ExpectSimsBitIdentical(*serial, *parallel);
}

INSTANTIATE_TEST_SUITE_P(Cores, ThreadCounts, ::testing::Values(1, 2, 4));

// ---- Whole-grid sweeps and the global sort fan out --------------------------

// Phase::kSolver cycles of step 4 (the solve plus any window shift) of a small
// LWFA run.
double LwfaSolverCyclesOfOneStep(const MachineConfig& cfg) {
  HwContext hw(cfg);
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  auto sim = MakeLwfaSimulation(hw, p);
  sim->Run(3);
  const double before = hw.ledger().PhaseCycles(Phase::kSolver);
  sim->Step();
  return hw.ledger().PhaseCycles(Phase::kSolver) - before;
}

TEST(SerialSweepSplit, SolveAndShiftSplitOverEveryCore) {
  UseManyThreads();
  const double serial = LwfaSolverCyclesOfOneStep(MachineConfig::Lx2());
  ASSERT_GT(serial, 0.0);
  // Four k-slabs (and column blocks) bill about a quarter each.
  EXPECT_LE(LwfaSolverCyclesOfOneStep(MachineConfig::Lx2MultiCore(4)),
            0.30 * serial);
}

// Phase::kReduce cycles of the second step of a uniform_qsp-shaped run: a
// 16^3 QSP grid of 8-cell tiles, whose reduction coloring is eight one-tile
// classes. The reduction's cost does not depend on the particle count, so one
// particle per cell keeps the run small.
double UniformQspReduceCyclesOfOneStep(const MachineConfig& cfg) {
  HwContext hw(cfg);
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.order = 3;
  p.variant = DepositVariant::kFullOpt;
  auto sim = MakeUniformSimulation(hw, p);
  sim->Run(1);
  const double before = hw.ledger().PhaseCycles(Phase::kReduce);
  sim->Step();
  return hw.ledger().PhaseCycles(Phase::kReduce) - before;
}

TEST(SerialSweepSplit, OneTileReduceClassesSplitOverCores) {
  UseManyThreads();
  const double serial = UniformQspReduceCyclesOfOneStep(MachineConfig::Lx2());
  ASSERT_GT(serial, 0.0);
  // Each tile's reduction splits into four z-plane chunks, one per core; the
  // serial guard fold stays in the phase. One serial reduction per class
  // read 1.0x.
  EXPECT_LE(UniformQspReduceCyclesOfOneStep(MachineConfig::Lx2MultiCore(4)),
            0.55 * serial);
}

struct ForcedSort {
  std::unique_ptr<HwContext> hw;
  std::unique_ptr<Simulation> sim;
  double sort_cycles = 0.0;
};

// Runs `steps` steps so the particle order decays, then forces a global sort
// and records the Phase::kSort cycles it billed.
template <typename Params, typename Make>
ForcedSort RunForcedSort(const MachineConfig& cfg, const Params& p,
                         const Make& make, int steps) {
  ForcedSort r;
  r.hw = std::make_unique<HwContext>(cfg);
  r.sim = make(*r.hw, p);
  r.sim->Run(steps);
  const double before = r.hw->ledger().PhaseCycles(Phase::kSort);
  r.sim->engine().GlobalSort(r.sim->tiles());
  r.sort_cycles = r.hw->ledger().PhaseCycles(Phase::kSort) - before;
  return r;
}

UniformWorkloadParams SortUniformParams() {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = 0.05;
  p.variant = DepositVariant::kFullOpt;
  return p;
}

BunchedBeamParams SortBunchedParams() {
  BunchedBeamParams p;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;
  return p;
}

TEST(SerialSweepSplit, GlobalSortSplitsTilesOverCores) {
  UseManyThreads();
  const auto make = [](HwContext& hw, const UniformWorkloadParams& p) {
    return MakeUniformSimulation(hw, p);
  };
  const UniformWorkloadParams p = SortUniformParams();
  const ForcedSort serial = RunForcedSort(MachineConfig::Lx2(), p, make, 3);
  const ForcedSort four = RunForcedSort(MachineConfig::Lx2MultiCore(4), p, make, 3);
  ASSERT_GT(serial.sort_cycles, 0.0);
  EXPECT_LE(four.sort_cycles, 0.30 * serial.sort_cycles);
}

TEST(SerialSweepSplit, GlobalSortStealsTheBunchedBeamsDenseTiles) {
  UseManyThreads();
  const auto make = [](HwContext& hw, const BunchedBeamParams& p) {
    return MakeBunchedBeamSimulation(hw, p);
  };
  const BunchedBeamParams p = SortBunchedParams();
  const ForcedSort serial = RunForcedSort(MachineConfig::Lx2(), p, make, 2);
  const ForcedSort stealing =
      RunForcedSort(MachineConfig::Lx2MultiCoreStealing(4), p, make, 2);
  const ForcedSort fixed =
      RunForcedSort(MachineConfig::Lx2MultiCore(4), p, make, 2);
  ASSERT_GT(serial.sort_cycles, 0.0);
  // Each tile's bill is its estimate, so the dense tiles spread out; a static
  // split leaves the bunch's contiguous tiles on one core.
  EXPECT_LE(stealing.sort_cycles, 0.35 * serial.sort_cycles);
  EXPECT_GT(fixed.sort_cycles, 0.5 * serial.sort_cycles);
}

void ExpectSortedTilesBitEqual(const TileSet& a, const TileSet& b) {
  ASSERT_EQ(a.num_tiles(), b.num_tiles());
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  for (int t = 0; t < a.num_tiles(); ++t) {
    SCOPED_TRACE(t);
    const ParticleTile& ta = a.tile(t);
    const ParticleTile& tb = b.tile(t);
    const ParticleSoA& sa = ta.soa();
    const ParticleSoA& sb = tb.soa();
    EXPECT_TRUE(same(sa.x, sb.x) && same(sa.y, sb.y) && same(sa.z, sb.z));
    EXPECT_TRUE(same(sa.ux, sb.ux) && same(sa.uy, sb.uy) && same(sa.uz, sb.uz));
    EXPECT_TRUE(same(sa.w, sb.w));
    EXPECT_TRUE(same(sa.xo, sb.xo) && same(sa.yo, sb.yo) && same(sa.zo, sb.zo));
    EXPECT_EQ(ta.live_bits(), tb.live_bits());
    const Gpma::State ga = ta.gpma().ExportState();
    const Gpma::State gb = tb.gpma().ExportState();
    EXPECT_EQ(ga.local_index, gb.local_index);
    EXPECT_EQ(ga.bin_offsets, gb.bin_offsets);
    EXPECT_EQ(ga.bin_lengths, gb.bin_lengths);
    EXPECT_EQ(ga.slot_of_pid, gb.slot_of_pid);
    EXPECT_EQ(ga.cell_of_pid, gb.cell_of_pid);
  }
}

TEST(SerialSweepSplit, ParallelGlobalSortMatchesSerialSort) {
  UseManyThreads();
  const auto make_uniform = [](HwContext& hw, const UniformWorkloadParams& p) {
    return MakeUniformSimulation(hw, p);
  };
  const auto make_bunched = [](HwContext& hw, const BunchedBeamParams& p) {
    return MakeBunchedBeamSimulation(hw, p);
  };
  const UniformWorkloadParams up = SortUniformParams();
  const ForcedSort u1 = RunForcedSort(MachineConfig::Lx2(), up, make_uniform, 3);
  const ForcedSort u4 =
      RunForcedSort(MachineConfig::Lx2MultiCore(4), up, make_uniform, 3);
  ExpectSortedTilesBitEqual(u1.sim->tiles(), u4.sim->tiles());
  const BunchedBeamParams bp = SortBunchedParams();
  const ForcedSort b1 = RunForcedSort(MachineConfig::Lx2(), bp, make_bunched, 2);
  const ForcedSort b4 = RunForcedSort(MachineConfig::Lx2MultiCoreStealing(4),
                                      bp, make_bunched, 2);
  ExpectSortedTilesBitEqual(b1.sim->tiles(), b4.sim->tiles());
}

}  // namespace
}  // namespace mpic
