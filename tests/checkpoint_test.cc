// Checkpoint/restart tests: a restored simulation must continue bit-identical
// to the uninterrupted run — across every deposit variant, shape order, and
// current scheme; across modeled core counts; through multi-species engine
// overrides and the moving window. Corrupted or truncated checkpoints must be
// rejected with the target simulation untouched.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/fnv.h"
#include "src/common/rng.h"
#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/deposit/rhocell.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/digest.h"

namespace mpic {
namespace {

// ---- Round trip across the engine matrix ------------------------------------

struct EngineCombo {
  DepositVariant variant;
  int order;
  CurrentScheme scheme;
};

std::vector<EngineCombo> AllEngineCombos() {
  std::vector<EngineCombo> combos;
  for (DepositVariant v :
       {DepositVariant::kScalar, DepositVariant::kBaseline,
        DepositVariant::kBaselineIncrSort, DepositVariant::kRhocell,
        DepositVariant::kRhocellIncrSort, DepositVariant::kRhocellIncrSortVpu,
        DepositVariant::kMatrixOnly, DepositVariant::kHybridNoSort,
        DepositVariant::kHybridGlobalSort, DepositVariant::kFullOpt}) {
    const VariantTraits traits = TraitsOf(v);
    for (int order : {1, 2, 3}) {
      for (CurrentScheme scheme :
           {CurrentScheme::kDirect, CurrentScheme::kEsirkepov}) {
        if (scheme == CurrentScheme::kDirect && order == 2 &&
            (traits.uses_rhocell || traits.uses_mpu)) {
          continue;  // direct rhocell/MPU kernels are odd-order only
        }
        combos.push_back({v, order, scheme});
      }
    }
  }
  return combos;
}

std::string EngineComboName(const EngineCombo& c) {
  return std::string(VariantName(c.variant)) + " order " +
         std::to_string(c.order) +
         (c.scheme == CurrentScheme::kEsirkepov ? " esirkepov" : " direct");
}

// A gtest parameter name: letters, digits and underscores only.
std::string TestNameOf(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

// One test case per engine combination, so ctest can run them side by side.
class CheckpointEngine : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointEngine, RoundTrip) {
  const EngineCombo c = AllEngineCombos()[static_cast<size_t>(GetParam())];
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;
  p.variant = c.variant;
  p.order = c.order;
  p.scheme = c.scheme;
  p.u_th = 0.1;  // enough churn for movers and slot recycling

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(3);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt)) << "save failed";
  ref->Run(3);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeUniformSimulation(twin_hw, p);
  twin->Run(1);  // desynchronize; restore must overwrite everything
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
  ASSERT_TRUE(st) << st.error;
  EXPECT_EQ(twin->step_count(), 3);
  twin->Run(3);
  EXPECT_EQ(SimulationDigest(*twin), want);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckpointEngine,
    ::testing::Range(0, static_cast<int>(AllEngineCombos().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return TestNameOf(
          EngineComboName(AllEngineCombos()[static_cast<size_t>(info.param)]));
    });

// A checkpoint is core-count-portable: an image saved from a 4-core run must
// continue bit-identically on twins whose core counts split the tiles into
// different schedules.
TEST(CheckpointRoundTrip, CrossScheduleAndCoreRestore) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = 0.1;

  HwContext src_hw(MachineConfig::Lx2MultiCore(4));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(3);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));
  src->Run(4);
  const uint64_t want = SimulationDigest(*src);

  for (int cores : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    auto twin = MakeUniformSimulation(hw, p);
    const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
    ASSERT_TRUE(st) << st.error;
    twin->Run(4);
    EXPECT_EQ(SimulationDigest(*twin), want);
  }
}

// The restore matrix: every DepositVariant under both CurrentSchemes, saved
// on 2 modeled cores at step 3 and restored into twins on 1, 2 and 4 cores,
// each run to step 6 on the uninterrupted run's digest. The re-sort policy's
// throughput trigger is off: it reads modeled cycles, which differ between
// the machines, so with it on a twin may sort on another step.
struct MatrixCase {
  DepositVariant variant;
  CurrentScheme scheme;
};

std::vector<MatrixCase> RestoreMatrixCases() {
  std::vector<MatrixCase> cases;
  for (const EngineCombo& c : AllEngineCombos()) {
    if (c.order == 1) {
      cases.push_back({c.variant, c.scheme});
    }
  }
  return cases;
}

class CheckpointRestoreMatrix : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointRestoreMatrix, TwinsOnOneTwoAndFourCoresMatch) {
  const MatrixCase c = RestoreMatrixCases()[static_cast<size_t>(GetParam())];
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;
  p.u_th = 0.1;
  p.variant = c.variant;
  p.scheme = c.scheme;
  ResortPolicyConfig pol;
  pol.trigger_perf_enable = false;
  p.policy = pol;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(3);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt)) << "save failed";
  ref->Run(3);
  const uint64_t want = SimulationDigest(*ref);

  for (int cores : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    HwContext hw(MachineConfig::Lx2MultiCore(cores));
    auto twin = MakeUniformSimulation(hw, p);
    const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
    ASSERT_TRUE(st) << st.error;
    twin->Run(3);
    EXPECT_EQ(SimulationDigest(*twin), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckpointRestoreMatrix,
    ::testing::Range(0, static_cast<int>(RestoreMatrixCases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      const MatrixCase c = RestoreMatrixCases()[static_cast<size_t>(info.param)];
      return TestNameOf(std::string(VariantName(c.variant)) + "_" +
                        CurrentSchemeName(c.scheme));
    });

TEST(CheckpointRoundTrip, MultiSpeciesEngineOverrides) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.tile = 4;
  UniformSpeciesParams electrons;
  electrons.species = Species::Electron();
  electrons.ppc_x = electrons.ppc_y = electrons.ppc_z = 2;
  electrons.u_th = 0.1;
  UniformSpeciesParams ions;
  ions.species = Species::Proton();
  ions.ppc_x = ions.ppc_y = ions.ppc_z = 1;
  ions.variant = DepositVariant::kHybridNoSort;
  ions.order = 3;
  p.species_params = {electrons, ions};

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(3);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt));
  ref->Run(3);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeUniformSimulation(twin_hw, p);
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt);
  ASSERT_TRUE(st) << st.error;
  twin->Run(3);
  EXPECT_EQ(SimulationDigest(*twin), want);
}

// The moving window's non-structural state — shifted z0, fractional shift
// accumulator, injection RNG cursor — must all survive the round trip, or the
// continued runs inject different particles.
TEST(CheckpointRoundTrip, LwfaMovingWindowWithIons) {
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.tile = 4;
  p.tile_z = 8;
  p.with_ions = true;
  // The re-sort policy keeps its default configuration — including the
  // adaptive performance trigger. Its throughput baselines ride the v2
  // SPECIES tail, and the model_sync handshake makes the trigger's modeled
  // throughput input identical on both sides (see runtime/checkpoint.h).

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeLwfaSimulation(ref_hw, p);
  ref->Run(6);
  std::vector<uint8_t> ckpt;
  CheckpointWriteOptions wopts;
  wopts.model_sync = true;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt, wopts));
  ref->Run(6);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeLwfaSimulation(twin_hw, p);
  CheckpointReadOptions ropts;
  ropts.model_sync = true;
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt, ropts);
  ASSERT_TRUE(st) << st.error;
  // The twin starts at z0 = 0; the restore must reinstate the shifted window.
  EXPECT_GT(twin->config().geom.z0, 0.0);
  twin->Run(6);
  EXPECT_EQ(SimulationDigest(*twin), want);
}

// Restart-at-every-step bisection: checkpoint a two-stream run at each of its
// N steps; every restart must land on the same final digest. If a restart
// diverges, the first failing k isolates the step whose state the format
// fails to capture.
TEST(CheckpointRoundTrip, TwoStreamRestartAtEveryStep) {
  TwoStreamParams p;
  constexpr int kSteps = 8;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeTwoStreamSimulation(ref_hw, p);
  std::vector<std::vector<uint8_t>> ckpts;
  for (int k = 0; k < kSteps; ++k) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(SaveCheckpoint(*ref, &buf));
    ckpts.push_back(std::move(buf));
    ref->Step();
  }
  const uint64_t want = SimulationDigest(*ref);

  for (int k = 0; k < kSteps; ++k) {
    SCOPED_TRACE("restart at step " + std::to_string(k));
    HwContext hw(MachineConfig::Lx2MultiCore(2));
    auto twin = MakeTwoStreamSimulation(hw, p);
    const CheckpointStatus st =
        RestoreCheckpoint(twin.get(), ckpts[static_cast<size_t>(k)]);
    ASSERT_TRUE(st) << st.error;
    ASSERT_EQ(twin->step_count(), k);
    twin->Run(kSteps - k);
    EXPECT_EQ(SimulationDigest(*twin), want);
  }
}

TEST(CheckpointRoundTrip, FileBacked) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(1));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(2);
  const std::string path = ::testing::TempDir() + "/mpic_ckpt_test.bin";
  ASSERT_TRUE(SaveCheckpointFile(*ref, path));
  ref->Run(2);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(MachineConfig::Lx2MultiCore(1));
  auto twin = MakeUniformSimulation(twin_hw, p);
  const CheckpointStatus st = RestoreCheckpointFile(twin.get(), path);
  ASSERT_TRUE(st) << st.error;
  twin->Run(2);
  EXPECT_EQ(SimulationDigest(*twin), want);
  std::remove(path.c_str());
}

// Restoring with the ledger snapshot resumes the modeled clock of the
// checkpointed run.
TEST(CheckpointRoundTrip, LedgerRestoreResumesModeledClock) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext ref_hw(MachineConfig::Lx2MultiCore(2));
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(3);
  const double cycles_at_save = ref_hw.ledger().TotalCycles();
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt));

  HwContext twin_hw(MachineConfig::Lx2MultiCore(2));
  auto twin = MakeUniformSimulation(twin_hw, p);
  CheckpointReadOptions opts;
  opts.restore_ledger = true;
  ASSERT_TRUE(RestoreCheckpoint(twin.get(), ckpt, opts));
  EXPECT_DOUBLE_EQ(twin_hw.ledger().TotalCycles(), cycles_at_save);
}

// ---- Cycle-exact restore: the model-sync handshake ---------------------------

// Save with model_sync, restore with restore_ledger + model_sync: the twin
// must match the saving run bit-for-bit in physics AND in every modeled
// phase-cycle bucket and ledger counter — including the steal pair and with
// the adaptive performance trigger at its enabled default — across
// tile-schedule policies and core counts. These are exactly the states
// version-1 images omitted. One test case per machine.
struct CycleExactMachine {
  int cores;
  bool steal;
};

std::vector<CycleExactMachine> CycleExactMachines() {
  return {{4, false}, {4, true}, {1, true}};
}

class CheckpointMachine : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointMachine, CycleExactRestore) {
  const CycleExactMachine c = CycleExactMachines()[static_cast<size_t>(GetParam())];
  UniformWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 16;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = 0.1;

  const MachineConfig mc = c.steal ? MachineConfig::Lx2MultiCoreStealing(c.cores)
                                   : MachineConfig::Lx2MultiCore(c.cores);
  HwContext ref_hw(mc);
  auto ref = MakeUniformSimulation(ref_hw, p);
  ref->Run(4);
  std::vector<uint8_t> ckpt;
  CheckpointWriteOptions wopts;
  wopts.model_sync = true;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt, wopts));
  const std::vector<double> est_at_save = ref->block(0).pass1_costs.estimate;
  ref->Run(4);
  const uint64_t want = SimulationDigest(*ref);

  HwContext twin_hw(mc);
  auto twin = MakeUniformSimulation(twin_hw, p);
  twin->Run(2);  // desynchronize; restore must overwrite everything
  CheckpointReadOptions ropts;
  ropts.restore_ledger = true;
  ropts.model_sync = true;
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt, ropts);
  ASSERT_TRUE(st) << st.error;
  if (c.steal) {
    EXPECT_FALSE(twin->block(0).pass1_costs.estimate.empty())
        << "kCostSteal per-tile estimates not restored";
    EXPECT_EQ(twin->block(0).pass1_costs.estimate, est_at_save);
  }
  twin->Run(4);

  EXPECT_EQ(SimulationDigest(*twin), want);
  for (int ph = 0; ph < kNumPhases; ++ph) {
    EXPECT_DOUBLE_EQ(twin_hw.ledger().PhaseCycles(static_cast<Phase>(ph)),
                     ref_hw.ledger().PhaseCycles(static_cast<Phase>(ph)))
        << "phase " << PhaseName(static_cast<Phase>(ph));
  }
  const LedgerCounters& a = ref_hw.ledger().counters();
  const LedgerCounters& b = twin_hw.ledger().counters();
  EXPECT_EQ(b.scalar_ops, a.scalar_ops);
  EXPECT_EQ(b.vpu_ops, a.vpu_ops);
  EXPECT_EQ(b.vpu_mem, a.vpu_mem);
  EXPECT_EQ(b.gathers, a.gathers);
  EXPECT_EQ(b.scatters, a.scatters);
  EXPECT_EQ(b.mopas, a.mopas);
  EXPECT_EQ(b.l1_hits, a.l1_hits);
  EXPECT_EQ(b.l1_misses, a.l1_misses);
  EXPECT_EQ(b.l2_hits, a.l2_hits);
  EXPECT_EQ(b.l2_misses, a.l2_misses);
  EXPECT_EQ(b.tasks_stolen, a.tasks_stolen);
  EXPECT_DOUBLE_EQ(b.steal_cycles, a.steal_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckpointMachine,
    ::testing::Range(0, static_cast<int>(CycleExactMachines().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      const CycleExactMachine c = CycleExactMachines()[static_cast<size_t>(info.param)];
      return std::to_string(c.cores) + "cores_" + (c.steal ? "steal" : "static");
    });

// The kCostSteal estimate wire-through is not cosmetic: a restored stealing
// run must replan the same schedule and therefore accumulate the same steal
// counters as the uninterrupted run (checked above); this test pins the
// baseline expectation that the stealing machine actually steals on an
// imbalanced workload, so the counter comparisons above are non-vacuous.
TEST(CheckpointCycleExact, StealCountersAreNonVacuous) {
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 16;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;

  HwContext hw(MachineConfig::Lx2MultiCoreStealing(4));
  auto sim = MakeBunchedBeamSimulation(hw, p);
  sim->Run(3);
  EXPECT_GT(hw.ledger().counters().tasks_stolen, 0u);
}

// NUMA cycle-exact restore: on a 2-domain machine with live remote steals,
// the restored run must replan the same sticky placement — the committed
// pass-1 owners ride the SPECIES tail — and therefore accumulate the same
// remote-line, remote-cycle, and remote-steal totals as the uninterrupted
// run, to the last cycle.
TEST(CheckpointCycleExact, NumaRestoreMatchesUninterruptedRun) {
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 16;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;

  const MachineConfig mc = MachineConfig::Lx2MultiCoreNuma(4, 2);
  HwContext ref_hw(mc);
  auto ref = MakeBunchedBeamSimulation(ref_hw, p);
  ref->Run(4);
  std::vector<uint8_t> ckpt;
  CheckpointWriteOptions wopts;
  wopts.model_sync = true;
  ASSERT_TRUE(SaveCheckpoint(*ref, &ckpt, wopts));
  const std::vector<int32_t> own_at_save = ref->block(0).pass1_costs.owner;
  ref->Run(4);
  const uint64_t want = SimulationDigest(*ref);
  // Non-vacuous: this workload/machine combination must exercise the remote
  // paths, or the counter comparisons below prove nothing.
  EXPECT_GT(ref_hw.ledger().counters().tasks_stolen_remote, 0u);
  EXPECT_GT(ref_hw.ledger().counters().remote_lines, 0u);

  HwContext twin_hw(mc);
  auto twin = MakeBunchedBeamSimulation(twin_hw, p);
  twin->Run(2);  // desynchronize; restore must overwrite everything
  CheckpointReadOptions ropts;
  ropts.restore_ledger = true;
  ropts.model_sync = true;
  const CheckpointStatus st = RestoreCheckpoint(twin.get(), ckpt, ropts);
  ASSERT_TRUE(st) << st.error;
  ASSERT_FALSE(own_at_save.empty());
  EXPECT_EQ(twin->block(0).pass1_costs.owner, own_at_save)
      << "committed owner vector not restored";
  twin->Run(4);

  EXPECT_EQ(SimulationDigest(*twin), want);
  for (int ph = 0; ph < kNumPhases; ++ph) {
    EXPECT_DOUBLE_EQ(twin_hw.ledger().PhaseCycles(static_cast<Phase>(ph)),
                     ref_hw.ledger().PhaseCycles(static_cast<Phase>(ph)))
        << "phase " << PhaseName(static_cast<Phase>(ph));
  }
  const LedgerCounters& a = ref_hw.ledger().counters();
  const LedgerCounters& b = twin_hw.ledger().counters();
  EXPECT_EQ(b.l2_misses, a.l2_misses);
  EXPECT_EQ(b.tasks_stolen, a.tasks_stolen);
  EXPECT_EQ(b.tasks_stolen_remote, a.tasks_stolen_remote);
  EXPECT_EQ(b.remote_lines, a.remote_lines);
  EXPECT_DOUBLE_EQ(b.remote_cycles, a.remote_cycles);
  EXPECT_DOUBLE_EQ(b.steal_cycles, a.steal_cycles);
}

// ---- Rejection of damaged or incompatible checkpoints ------------------------

// Truncates a serialized checkpoint to `keep_bytes`.
void TruncateCheckpoint(std::vector<uint8_t>* buf, size_t keep_bytes) {
  if (keep_bytes < buf->size()) {
    buf->resize(keep_bytes);
  }
}

// Flips one bit, chosen by `seed`, in the section data past the 16-byte file
// header: storage corruption the section checksums must catch.
void FlipCheckpointBit(std::vector<uint8_t>* buf, uint64_t seed) {
  if (buf->size() <= 17) {
    return;
  }
  const size_t idx =
      16 + static_cast<size_t>(Mix64(seed) % (buf->size() - 16));
  const int bit = static_cast<int>(Mix64(seed ^ 0x9E3779B97F4A7C15ull) % 8);
  (*buf)[idx] ^= static_cast<uint8_t>(1u << bit);
}

// Version 1 images lack the adaptive-trigger baselines, the kCostSteal
// estimates, and the steal counters; restoring one would silently break the
// bit-exact contract, so the version gate must reject it outright. Version 3
// images carry two owner vectors more per species, and version 4 images a
// free-slot vector per tile; either would misread the SPECIES section, so
// they are rejected too. Version 5 LEDGERs carry eleven phase buckets, and
// version 6 LEDGERs ten.
TEST(CheckpointRejection, RejectsVersion1Image) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(1);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));

  HwContext tgt_hw(MachineConfig::Lx2MultiCore(1));
  auto tgt = MakeUniformSimulation(tgt_hw, p);
  const uint64_t before = SimulationDigest(*tgt);

  for (const uint8_t version : {1, 3, 4, 5, 6}) {
    SCOPED_TRACE(static_cast<int>(version));
    std::vector<uint8_t> old_image = ckpt;
    old_image[8] = version;  // u32 version field, little-endian, at offset 8
    const CheckpointStatus st = RestoreCheckpoint(tgt.get(), old_image);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("unsupported version"), std::string::npos)
        << st.error;
    EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
  }
}

// Rewrites the phase count that opens the LEDGER section's payload and
// re-signs the section's checksum, leaving every other byte as saved: a
// forgery the FNV cannot catch.
void SetLedgerPhaseCount(std::vector<uint8_t>* image, uint32_t count) {
  constexpr uint32_t kLedgerSectionId = 4;
  uint32_t n_sections = 0;
  std::memcpy(&n_sections, image->data() + 12, 4);
  size_t pos = 16;
  for (uint32_t s = 0; s < n_sections; ++s) {
    uint32_t id = 0;
    uint64_t bytes = 0;
    std::memcpy(&id, image->data() + pos, 4);
    std::memcpy(&bytes, image->data() + pos + 8, 8);
    uint8_t* payload = image->data() + pos + 24;
    if (id == kLedgerSectionId) {
      std::memcpy(payload, &count, 4);
      const uint64_t fnv = Fnv1a(payload, static_cast<size_t>(bytes));
      std::memcpy(image->data() + pos + 16, &fnv, 8);
      return;
    }
    pos += 24 + static_cast<size_t>(bytes);
  }
  ADD_FAILURE() << "image has no LEDGER section";
}

// A LEDGER whose phase count is not kNumPhases would read every later value
// into the wrong bucket or counter (one bucket short: the last bucket read as
// the first counter, each counter one field off, and 8 bytes left over). The
// parse rejects both a short and a long count, with the target untouched.
TEST(CheckpointRejection, RejectsLedgerWithWrongPhaseCount) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(2);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));

  HwContext tgt_hw(MachineConfig::Lx2MultiCore(1));
  auto tgt = MakeUniformSimulation(tgt_hw, p);
  tgt->Run(1);
  const uint64_t sim_before = SimulationDigest(*tgt);
  const uint64_t ledger_before = LedgerDigest(tgt_hw.ledger());
  CheckpointReadOptions opts;
  opts.restore_ledger = true;

  for (const int count : {kNumPhases - 1, kNumPhases + 1}) {
    SCOPED_TRACE(count);
    std::vector<uint8_t> bad = ckpt;
    SetLedgerPhaseCount(&bad, static_cast<uint32_t>(count));
    const CheckpointStatus st = RestoreCheckpoint(tgt.get(), bad, opts);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("LEDGER"), std::string::npos) << st.error;
    EXPECT_EQ(SimulationDigest(*tgt), sim_before) << "target mutated on reject";
    EXPECT_EQ(LedgerDigest(tgt_hw.ledger()), ledger_before);
  }
  // The unforged image restores.
  EXPECT_TRUE(RestoreCheckpoint(tgt.get(), ckpt, opts));
}

TEST(CheckpointRejection, TruncationAndCorruptionLeaveTargetUnmutated) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(2);
  std::vector<uint8_t> good;
  ASSERT_TRUE(SaveCheckpoint(*src, &good));

  HwContext tgt_hw(MachineConfig::Lx2MultiCore(1));
  auto tgt = MakeUniformSimulation(tgt_hw, p);
  tgt->Run(1);
  const uint64_t before = SimulationDigest(*tgt);

  // Truncation at several depths: inside the header, inside a section header,
  // inside a payload.
  for (size_t keep : {size_t{4}, size_t{20}, good.size() / 2, good.size() - 1}) {
    SCOPED_TRACE("truncate to " + std::to_string(keep));
    std::vector<uint8_t> bad = good;
    TruncateCheckpoint(&bad, keep);
    const CheckpointStatus st = RestoreCheckpoint(tgt.get(), bad);
    EXPECT_FALSE(st.ok);
    EXPECT_FALSE(st.error.empty());
    EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
  }

  // Single bit flips in the section data must fail the FNV checksums.
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("bit flip seed " + std::to_string(seed));
    std::vector<uint8_t> bad = good;
    FlipCheckpointBit(&bad, seed);
    const CheckpointStatus st = RestoreCheckpoint(tgt.get(), bad);
    EXPECT_FALSE(st.ok);
    EXPECT_EQ(SimulationDigest(*tgt), before) << "target mutated on reject";
  }

  // The pristine buffer still restores (the copies above never aliased it).
  EXPECT_TRUE(RestoreCheckpoint(tgt.get(), good));
}

TEST(CheckpointRejection, IncompatibleConfiguration) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;

  HwContext src_hw(MachineConfig::Lx2MultiCore(1));
  auto src = MakeUniformSimulation(src_hw, p);
  src->Run(1);
  std::vector<uint8_t> ckpt;
  ASSERT_TRUE(SaveCheckpoint(*src, &ckpt));

  // Different shape order.
  {
    UniformWorkloadParams q = p;
    q.order = 3;
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    const uint64_t before = SimulationDigest(*tgt);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
    EXPECT_EQ(SimulationDigest(*tgt), before);
  }
  // Different grid.
  {
    UniformWorkloadParams q = p;
    q.nx = 16;
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
  }
  // Different species registry.
  {
    UniformWorkloadParams q = p;
    q.species = {Species::Electron(), Species::Proton()};
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
  }
  // Different current scheme.
  {
    UniformWorkloadParams q = p;
    q.scheme = CurrentScheme::kEsirkepov;
    HwContext hw(MachineConfig::Lx2MultiCore(1));
    auto tgt = MakeUniformSimulation(hw, q);
    EXPECT_FALSE(RestoreCheckpoint(tgt.get(), ckpt).ok);
  }
}

}  // namespace
}  // namespace mpic
