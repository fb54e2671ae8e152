// Step-pipeline tests: the two-pass schedule must be bit-identical across
// modeled core counts on every workload, variant, order, current scheme, and
// species count; the halo-disjoint reduction coloring must be a valid
// schedule; pass 1's chunked gather and push must match the tile-wide entry
// points through a one-chunk scratch; and the modeled ledger must be
// deterministic across runs now that every modeled array (including the
// gather scratch and the charge-density diagnostic's scratch) is registered
// with the address map.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/core/diagnostics.h"
#include "src/core/simulation.h"
#include "src/common/rng.h"
#include "src/core/workloads.h"
#include "src/deposit/particle_iteration.h"
#include "src/deposit/rhocell.h"
#include "src/hw/mem_map.h"
#include "src/hw/parallel_for.h"
#include "src/particles/species.h"
#include "src/push/boris_pusher.h"
#include "src/push/field_gather.h"
#include "tests/reduce_split_rows.h"

namespace mpic {
namespace {

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

// ---- Bit identity across core counts ----------------------------------------

// One workload of the cross-core matrix: a 1-core run is the reference, and
// every entry of `cores` must reproduce it bit for bit.
struct CoreCase {
  std::string name;
  std::function<std::unique_ptr<Simulation>(HwContext&)> make;
  int steps;
  std::vector<int> cores;
};

// A gtest parameter name: letters, digits and underscores only.
std::string TestNameOf(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

std::vector<CoreCase> CoreCases() {
  std::vector<CoreCase> cases;
  // Every variant at every order its kernels support.
  for (DepositVariant v :
       {DepositVariant::kScalar, DepositVariant::kBaseline,
        DepositVariant::kBaselineIncrSort, DepositVariant::kRhocell,
        DepositVariant::kRhocellIncrSort, DepositVariant::kRhocellIncrSortVpu,
        DepositVariant::kMatrixOnly, DepositVariant::kHybridNoSort,
        DepositVariant::kHybridGlobalSort, DepositVariant::kFullOpt}) {
    const VariantTraits traits = TraitsOf(v);
    for (int order : {1, 2, 3}) {
      if (order == 2 && (traits.uses_rhocell || traits.uses_mpu)) {
        continue;  // rhocell/MPU kernels are odd-order only
      }
      UniformWorkloadParams p;
      p.nx = p.ny = p.nz = 8;
      p.ppc_x = p.ppc_y = p.ppc_z = 2;
      p.tile = 4;
      p.variant = v;
      p.order = order;
      // The default configuration also runs on 3 cores, which split the
      // tiles unevenly, and for one step more.
      const bool full_opt_cic = v == DepositVariant::kFullOpt && order == 1;
      cases.push_back({std::string(VariantName(v)) + " order " +
                           std::to_string(order),
                       [p](HwContext& hw) { return MakeUniformSimulation(hw, p); },
                       full_opt_cic ? 5 : 4,
                       full_opt_cic ? std::vector<int>{2, 3, 4}
                                    : std::vector<int>{2, 4}});
    }
  }
  {
    TwoStreamParams p;
    p.variant = DepositVariant::kFullOpt;
    cases.push_back({"two-stream",
                     [p](HwContext& hw) { return MakeTwoStreamSimulation(hw, p); },
                     5, {2, 4}});
  }
  {
    // Electrons on the full MPU pipeline at CIC; heavy ions on the unsorted
    // hybrid at QSP — exercises per-species order dispatch.
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.tile = 4;
    UniformSpeciesParams electrons;
    electrons.species = Species::Electron();
    electrons.ppc_x = electrons.ppc_y = electrons.ppc_z = 2;
    UniformSpeciesParams ions;
    ions.species = Species::Proton();
    ions.ppc_x = ions.ppc_y = ions.ppc_z = 1;
    ions.variant = DepositVariant::kHybridNoSort;
    ions.order = 3;
    p.species_params = {electrons, ions};
    cases.push_back({"mixed per-species engines",
                     [p](HwContext& hw) { return MakeUniformSimulation(hw, p); },
                     5, {2, 4}});
  }
  // The charge-conserving scheme at every order, including TSC (order 2),
  // which only this scheme supports on the kFullOpt machinery. Its colored
  // reduce of the per-tile J scratch has a wider halo than rhocell; QSP, the
  // widest, also runs on 3 cores.
  for (int order : {1, 2, 3}) {
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.tile = 4;
    p.variant = DepositVariant::kFullOpt;
    p.order = order;
    p.scheme = CurrentScheme::kEsirkepov;
    cases.push_back({"Esirkepov order " + std::to_string(order),
                     [p](HwContext& hw) { return MakeUniformSimulation(hw, p); },
                     order == 3 ? 5 : 4,
                     order == 3 ? std::vector<int>{2, 3, 4}
                                : std::vector<int>{2, 4}});
  }
  // Moving window with ions, direct and Esirkepov: window drops remove charge
  // mid-step and the tile-parallel injection adds it back after the deposit;
  // the old-position lanes must survive both.
  for (CurrentScheme scheme : {CurrentScheme::kDirect, CurrentScheme::kEsirkepov}) {
    LwfaWorkloadParams p;
    p.nx = p.ny = 8;
    p.nz = 32;
    p.tile = 4;
    p.tile_z = 8;
    p.variant = DepositVariant::kFullOpt;
    p.scheme = scheme;
    p.with_ions = true;
    cases.push_back({std::string("LWFA with ions, ") + CurrentSchemeName(scheme),
                     [p](HwContext& hw) { return MakeLwfaSimulation(hw, p); },
                     8, {2, 4}});
  }
  return cases;
}

// One test case per workload, so ctest can run them side by side.
class FusedPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FusedPipeline, BitIdenticalAcrossCoreCounts) {
  UseManyThreads();
  const CoreCase c = CoreCases()[static_cast<size_t>(GetParam())];
  HwContext serial_hw;
  auto serial = c.make(serial_hw);
  serial->Run(c.steps);
  for (int cores : c.cores) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    HwContext par_hw(MachineConfig::Lx2MultiCore(cores));
    auto parallel = c.make(par_hw);
    parallel->Run(c.steps);
    ExpectSimsBitIdentical(*serial, *parallel);
    // The cores split the same work: instruction counters match too, up to
    // the one scatter more per block row the split reduction cuts.
    EXPECT_EQ(serial_hw.ledger().counters().mopas,
              par_hw.ledger().counters().mopas);
    const auto cut_rows =
        static_cast<uint64_t>(c.steps * CutRowsPerStep(*parallel, cores));
    EXPECT_EQ(serial_hw.ledger().counters().scatters + cut_rows,
              par_hw.ledger().counters().scatters);
    const auto& want = serial->last_sim_stats().species;
    const auto& got = parallel->last_sim_stats().species;
    ASSERT_EQ(want.size(), got.size());
    for (size_t sid = 0; sid < want.size(); ++sid) {
      EXPECT_EQ(want[sid].pushed, got[sid].pushed) << "species " << sid;
    }
  }
}

// Every modeled access of every case lands in a registered region, on one
// core and on four. An unmapped access is identity-mapped by its host address,
// so its cache set, and with it the ledger, would vary from run to run.
TEST_P(FusedPipeline, TouchesOnlyRegisteredMemory) {
  UseManyThreads();
  const CoreCase c = CoreCases()[static_cast<size_t>(GetParam())];
  for (const MachineConfig& cfg :
       {MachineConfig::Lx2(), MachineConfig::Lx2MultiCore(4)}) {
    SCOPED_TRACE(std::to_string(cfg.num_cores) + " cores");
    const uint64_t before = UnmappedTranslations();
    HwContext hw(cfg);
    auto sim = c.make(hw);
    sim->Run(c.steps);
    EXPECT_EQ(UnmappedTranslations() - before, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FusedPipeline,
    ::testing::Range(0, static_cast<int>(CoreCases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return TestNameOf(CoreCases()[static_cast<size_t>(info.param)].name);
    });

// ---- Colored reduction schedule --------------------------------------------

// Node-footprint overlap of two tiles: each writes nodes
// [lo - h, lo + extent + h] per axis during the rhocell reduction.
bool FootprintsOverlap(const ParticleTile& a, const ParticleTile& b, int h) {
  auto axis = [h](int lo1, int n1, int lo2, int n2) {
    return lo1 + n1 + h >= lo2 - h && lo2 + n2 + h >= lo1 - h;
  };
  return axis(a.lo_x(), a.nx(), b.lo_x(), b.nx()) &&
         axis(a.lo_y(), a.ny(), b.lo_y(), b.ny()) &&
         axis(a.lo_z(), a.nz(), b.lo_z(), b.nz());
}

void ExpectValidColoring(const TileSet& tiles, int halo) {
  const auto classes = tiles.HaloDisjointColoring(halo);
  std::vector<int> seen(static_cast<size_t>(tiles.num_tiles()), 0);
  for (const std::vector<int>& cls : classes) {
    int prev = -1;
    for (int t : cls) {
      ASSERT_GE(t, 0);
      ASSERT_LT(t, tiles.num_tiles());
      EXPECT_GT(t, prev) << "class not in ascending tile order";
      prev = t;
      ++seen[static_cast<size_t>(t)];
    }
    for (size_t i = 0; i < cls.size(); ++i) {
      for (size_t j = i + 1; j < cls.size(); ++j) {
        EXPECT_FALSE(FootprintsOverlap(tiles.tile(cls[i]), tiles.tile(cls[j]), halo))
            << "tiles " << cls[i] << " and " << cls[j]
            << " share nodes within one color";
      }
    }
  }
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], 1) << "tile " << t;
  }
}

GridGeometry MakeGeom(int nx, int ny, int nz) {
  GridGeometry g;
  g.nx = nx;
  g.ny = ny;
  g.nz = nz;
  g.dx = g.dy = g.dz = 1.0e-6;
  return g;
}

TEST(ReduceColoring, CheckerboardIsHaloDisjoint) {
  // Halo 0/1 are the rhocell reaches (CIC/QSP); 2 is the Esirkepov union
  // window's reach at orders 2-3 (EsirkepovHaloNodes).
  for (int halo : {0, 1, 2}) {
    SCOPED_TRACE(halo);
    TileSet cubic(MakeGeom(16, 16, 16), 4, 4, 4);
    ExpectValidColoring(cubic, halo);
    TileSet ragged(MakeGeom(10, 6, 16), 4, 4, 8);  // ragged edge tiles
    ExpectValidColoring(ragged, halo);
    TileSet slab(MakeGeom(8, 8, 64), 8, 8, 8);  // single tile in x/y
    ExpectValidColoring(slab, halo);
  }
}

TEST(ReduceColoring, ThinTilesFallBackToSerialAxis) {
  // Tile extent 2 <= 2 * halo for QSP: parity cannot separate tiles two apart
  // along z, so that axis degrades to one color per coordinate.
  TileSet thin(MakeGeom(8, 8, 8), 8, 8, 2);
  ExpectValidColoring(thin, 1);
  // Parity would give at most 2 z-colors; the fallback needs 4.
  EXPECT_EQ(thin.HaloDisjointColoring(1).size(), 4u);
  // CIC (halo 0) still gets the cheap checkerboard on the same tiling.
  EXPECT_EQ(thin.HaloDisjointColoring(0).size(), 2u);
}

TEST(ReduceColoring, SingleTileIsOneClass) {
  TileSet one(MakeGeom(8, 8, 8), 8, 8, 8);
  const auto classes = one.HaloDisjointColoring(1);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], std::vector<int>({0}));
}

// The colored parallel reduction must agree bitwise with the serial
// color-major sweep, pinned end-to-end: each grid, deposit and machine below
// reruns a 1-core run. 12^3 cells in 4-cell tiles color into classes of 8, 4,
// 2 and 1 tiles; 16^3 in 8-cell tiles into eight one-tile classes. Classes
// smaller than the worker count split each tile's reduction into z-plane
// chunks, so a plane no chunk reduces, or a CIC row one side zeroes for the
// other, shows as J drift on a later step.
TEST(ReduceColoring, ColoredReduceMatchesSerialReduceBitwise) {
  UseManyThreads();
  struct Grid {
    int cells, tile, ppc;
  };
  struct Deposit {
    const char* name;
    DepositVariant variant;
    CurrentScheme scheme;
    int order;
  };
  const Grid grids[] = {{12, 4, 2}, {16, 8, 1}};
  constexpr DepositVariant kVpu = DepositVariant::kRhocellIncrSortVpu;
  constexpr DepositVariant kMpu = DepositVariant::kFullOpt;
  const Deposit deposits[] = {
      {"CIC rhocell", kVpu, CurrentScheme::kDirect, 1},
      {"QSP rhocell", kVpu, CurrentScheme::kDirect, 3},
      {"Esirkepov order 1", kMpu, CurrentScheme::kEsirkepov, 1},
      {"Esirkepov order 3", kMpu, CurrentScheme::kEsirkepov, 3},
  };
  const std::pair<const char*, MachineConfig> machines[] = {
      {"2 cores", MachineConfig::Lx2MultiCore(2)},
      {"3 cores", MachineConfig::Lx2MultiCore(3)},
      {"4 cores", MachineConfig::Lx2MultiCore(4)},
  };
  for (const Grid& g : grids) {
    for (const Deposit& d : deposits) {
      SCOPED_TRACE(std::to_string(g.cells) + "^3, tile " +
                   std::to_string(g.tile) + ", " + d.name);
      UniformWorkloadParams p;
      p.nx = p.ny = p.nz = g.cells;
      p.ppc_x = p.ppc_y = p.ppc_z = g.ppc;
      p.tile = g.tile;
      // Hot enough that particles cross tile faces every step: only those
      // write an Esirkepov box's outer planes.
      p.u_th = 0.05;
      p.order = d.order;
      p.variant = d.variant;
      p.scheme = d.scheme;
      HwContext serial_hw;
      auto serial = MakeUniformSimulation(serial_hw, p);
      serial->Run(3);
      for (const auto& [name, cfg] : machines) {
        SCOPED_TRACE(name);
        HwContext par_hw(cfg);
        auto parallel = MakeUniformSimulation(par_hw, p);
        parallel->Run(3);
        ExpectSimsBitIdentical(*serial, *parallel);
      }
    }
  }
}

// ---- Chunked pass 1 ------------------------------------------------------------

// Pass 1 gathers and pushes each tile kStageChunk slots at a time through a
// one-chunk scratch (GatherAndPushTile). On a tile whose slot count is not a
// multiple of the chunk and whose dead slots fall in every chunk (and fill
// one batch), the chunked loop must leave all ten SoA lanes bit-identical to
// the tile-wide GatherFieldsTile + PushTileBoris, charge the same
// instructions, and make the same number of modeled accesses; only the cache
// level serving them may differ.
template <int Order>
void ExpectChunkedGatherPushMatchesTileWide() {
  GridGeometry g;
  g.nx = g.ny = g.nz = 8;
  g.dx = g.dy = g.dz = 0.5;
  FieldSet fields(g, 2);
  Rng rng(17);
  for (FieldArray* f : {&fields.ex, &fields.ey, &fields.ez}) {
    for (double& v : f->vec()) {
      v = rng.Uniform(-1e5, 1e5);
    }
  }
  for (FieldArray* f : {&fields.bx, &fields.by, &fields.bz}) {
    for (double& v : f->vec()) {
      v = rng.Uniform(-0.5, 0.5);
    }
  }
  ParticleTile whole(0, 0, 0, 8, 8, 8);
  constexpr int32_t kSlots = 2 * kStageChunk + 37;
  for (int32_t i = 0; i < kSlots; ++i) {
    Particle p;
    p.x = rng.Uniform(0.05, 3.95);
    p.y = rng.Uniform(0.05, 3.95);
    p.z = rng.Uniform(0.05, 3.95);
    p.ux = rng.Uniform(-0.3, 0.3) * kSpeedOfLight;
    p.uy = rng.Uniform(-0.3, 0.3) * kSpeedOfLight;
    p.uz = rng.Uniform(-0.3, 0.3) * kSpeedOfLight;
    p.w = rng.Uniform(0.5, 2.0);
    p.xo = p.x;
    p.yo = p.y;
    p.zo = p.z;
    whole.AddParticle(p);
  }
  for (int32_t pid = 3; pid < kSlots; pid += 11) {
    whole.RemoveParticle(pid);
  }
  for (int32_t pid = kStageChunk + 8; pid < kStageChunk + 16; ++pid) {
    if (whole.IsLive(pid)) {
      whole.RemoveParticle(pid);
    }
  }
  ASSERT_EQ(whole.num_slots(), kSlots);
  ASSERT_NE(kSlots % kStageChunk, 0);
  ParticleTile chunked = whole;
  PushParams pp;
  pp.dt = 1e-10;
  pp.charge = kElectronCharge;
  pp.mass = kElectronMass;

  // Register every array, as the pipeline does, so both runs see
  // line-aligned model addresses wherever the allocator put the host arrays.
  const auto register_all = [&fields](HwContext& hw, ParticleTile& tile,
                                      GatherScratch& scratch) {
    for (std::vector<double>* lane : tile.soa().Lanes()) {
      hw.RegisterRegion(lane->data(), lane->size() * sizeof(double));
    }
    for (const FieldArray* f : {&fields.ex, &fields.ey, &fields.ez, &fields.bx,
                                &fields.by, &fields.bz}) {
      hw.RegisterRegion(f->data(), f->vec().size() * sizeof(double));
    }
    RegisterGatherRegions(hw, MemRegionKey(NextMemOwnerId(), 0, 0), scratch);
  };
  HwContext whole_hw;
  GatherScratch tile_wide;
  tile_wide.Resize(static_cast<size_t>(kSlots));
  register_all(whole_hw, whole, tile_wide);
  GatherFieldsTile<Order>(whole_hw, whole, fields, tile_wide);
  PushTileBoris(whole_hw, whole, tile_wide, pp);

  HwContext chunk_hw;
  GatherScratch one_chunk;
  one_chunk.Resize(kStageChunk);
  register_all(chunk_hw, chunked, one_chunk);
  GatherAndPushTile<Order>(chunk_hw, chunked, fields, one_chunk, pp);

  const auto lanes_a = whole.soa().Lanes();
  const auto lanes_b = chunked.soa().Lanes();
  for (size_t l = 0; l < lanes_a.size(); ++l) {
    ASSERT_EQ(lanes_a[l]->size(), lanes_b[l]->size()) << "lane " << l;
    EXPECT_EQ(std::memcmp(lanes_a[l]->data(), lanes_b[l]->data(),
                          lanes_a[l]->size() * sizeof(double)),
              0)
        << "lane " << l << " differs bitwise";
  }
  EXPECT_NE(whole.soa().x, whole.soa().xo) << "the push moved nothing";
  const LedgerCounters& a = whole_hw.ledger().counters();
  const LedgerCounters& b = chunk_hw.ledger().counters();
  EXPECT_EQ(a.scalar_ops, b.scalar_ops);
  EXPECT_EQ(a.scalar_mem, b.scalar_mem);
  EXPECT_EQ(a.vpu_ops, b.vpu_ops);
  EXPECT_EQ(a.vpu_mem, b.vpu_mem);
  EXPECT_EQ(a.l1_hits + a.l1_misses, b.l1_hits + b.l1_misses);
}

TEST(ChunkedPass1, GatherPushMatchesTileWideOrder1) {
  ExpectChunkedGatherPushMatchesTileWide<1>();
}
TEST(ChunkedPass1, GatherPushMatchesTileWideOrder3) {
  ExpectChunkedGatherPushMatchesTileWide<3>();
}

// Every tile's gather scratch holds one chunk, not one entry per SoA slot,
// from Initialize() on and after steps that fan pass 1 out over four cores.
// The second case seeds a hot plasma into the lower half of the box only, so
// its upper tiles start empty and fill as particles cross into them.
TEST(ChunkedPass1, GatherScratchHoldsOneChunk) {
  UseManyThreads();
  const auto expect_one_chunk = [](const Simulation& sim) {
    const SpeciesBlock& b = sim.block(0);
    ASSERT_EQ(b.gather_scratch.size(),
              static_cast<size_t>(b.tiles.num_tiles()));
    for (size_t t = 0; t < b.gather_scratch.size(); ++t) {
      const GatherScratch& gs = b.gather_scratch[t];
      for (const std::vector<double>* lane :
           {&gs.ex, &gs.ey, &gs.ez, &gs.bx, &gs.by, &gs.bz}) {
        EXPECT_EQ(lane->size(), static_cast<size_t>(kStageChunk)) << "tile " << t;
        EXPECT_EQ(lane->capacity(), static_cast<size_t>(kStageChunk))
            << "tile " << t;
      }
    }
  };
  const auto empty_tiles = [](const Simulation& sim) {
    int empty = 0;
    const TileSet& tiles = sim.block(0).tiles;
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      empty += tiles.tile(t).num_live() == 0 ? 1 : 0;
    }
    return empty;
  };
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;
  p.tile = 4;
  p.order = 3;
  {
    SCOPED_TRACE("whole box");
    HwContext hw(MachineConfig::Lx2MultiCore(4));
    auto sim = MakeUniformSimulation(hw, p);
    ASSERT_GT(sim->block(0).tiles.tile(0).num_slots(), kStageChunk);
    expect_one_chunk(*sim);
    sim->Run(2);
    expect_one_chunk(*sim);
  }
  {
    SCOPED_TRACE("lower half");
    HwContext hw(MachineConfig::Lx2MultiCore(4));
    Simulation sim(hw, MakeUniformConfig(p));
    ProfiledPlasmaConfig plasma;
    plasma.ppc_x = plasma.ppc_y = plasma.ppc_z = 2;
    plasma.profile = [](double) { return 1e25; };
    plasma.u_th = 0.5;
    plasma.z_cell_hi = p.nz / 2;
    sim.SeedProfiledPlasma(plasma);
    sim.Initialize();
    ASSERT_EQ(empty_tiles(sim), 4);
    expect_one_chunk(sim);
    sim.Run(4);
    ASSERT_EQ(empty_tiles(sim), 0) << "no particle reached the upper tiles";
    expect_one_chunk(sim);
  }
}

// ---- Ledger determinism (registered scratch) ---------------------------------

// Two runs of the same configuration in one process must charge exactly the
// same cycles in every phase, even though the allocator hands the second run
// different host addresses. Before the gather scratch was registered with the
// MemMap, its identity-mapped addresses made the modeled cache behavior (and
// so total cycles) wobble by ~0.25% run to run. The `diagnose` input adds a
// mid-run charge-density diagnostic, which deposits into a fresh array on
// every call; its modeled accesses must not carry that array's host address
// into the cache model and the later steps' cycles.
TEST(LedgerDeterminism, RepeatedRunsChargeIdenticalCycles) {
  UseManyThreads();
  auto run = [](int cores, bool diagnose,
                std::unique_ptr<std::vector<char>>* ballast) {
    UniformWorkloadParams p;
    p.nx = p.ny = p.nz = 8;
    p.ppc_x = p.ppc_y = p.ppc_z = 2;
    p.tile = 4;
    p.variant = DepositVariant::kFullOpt;
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    auto sim = MakeUniformSimulation(hw, p);
    sim->Run(2);
    if (diagnose) {
      DepositChargeDensity(*sim);
    }
    sim->Run(2);
    // Shift the heap before the next run allocates, so identical cycle totals
    // cannot come from the allocator accidentally reusing the same addresses.
    *ballast = std::make_unique<std::vector<char>>(4097, 'x');
    return hw.ledger();
  };
  for (bool diagnose : {false, true}) {
    for (int cores : {1, 4}) {
      SCOPED_TRACE(std::to_string(cores) + " cores" +
                   (diagnose ? ", diagnostic" : ""));
      std::unique_ptr<std::vector<char>> ballast_a, ballast_b;
      const CostLedger a = run(cores, diagnose, &ballast_a);
      const CostLedger b = run(cores, diagnose, &ballast_b);
      for (int ph = 0; ph < kNumPhases; ++ph) {
        EXPECT_DOUBLE_EQ(a.PhaseCycles(static_cast<Phase>(ph)),
                         b.PhaseCycles(static_cast<Phase>(ph)))
            << PhaseName(static_cast<Phase>(ph));
      }
      EXPECT_EQ(a.counters().l1_misses, b.counters().l1_misses);
      EXPECT_EQ(a.counters().l2_misses, b.counters().l2_misses);
    }
  }
}

}  // namespace
}  // namespace mpic
