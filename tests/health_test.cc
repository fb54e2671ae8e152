// Health-sentinel tests: each sentinel must trip on the fault class it was
// built for, planted directly into the simulation state; a clean run with
// sentinels enabled must stay bit-identical to one without them (detection
// is passive); and the sentinels plus periodic checkpoints must cost at most
// 2% of the QSP step in modeled cycles.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/digest.h"
#include "src/runtime/health.h"

namespace mpic {
namespace {

UniformWorkloadParams SmallUniform() {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = 0.1;
  return p;
}

// Flips the most significant clear exponent bit of v: a single-bit upset
// that grows any value below 2^513 by a factor of 2^512 or more, far past
// every sentinel's bound.
double FlipExponentBit(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  int bit = 62;
  while (bit > 52 && ((u >> bit) & 1u) != 0) {
    --bit;
  }
  u ^= uint64_t{1} << bit;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

// The first live slot of tile `t` of species 0.
int32_t FirstLiveSlot(Simulation& sim, int t) {
  const ParticleTile& tile = sim.tiles().tile(t);
  for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
    if (tile.IsLive(pid)) {
      return pid;
    }
  }
  return -1;
}

// ---- Passive detection ------------------------------------------------------

TEST(HealthSentinels, CleanRunIsBitIdenticalWithSentinelsOn) {
  const UniformWorkloadParams p = SmallUniform();

  HwContext off_hw(MachineConfig::Lx2MultiCore(2));
  auto off = MakeUniformSimulation(off_hw, p);
  off->Run(6);

  HwContext on_hw(MachineConfig::Lx2MultiCore(2));
  auto on = MakeUniformSimulation(on_hw, p);
  on->EnableHealth(HealthConfig{});
  on->Run(6);

  EXPECT_EQ(SimulationDigest(*on), SimulationDigest(*off));
  const HealthStepReport& rep = on->last_sim_stats().health;
  EXPECT_TRUE(rep.checked);
  EXPECT_FALSE(rep.tripped()) << rep.Summary();
  EXPECT_EQ(rep.quarantined_tiles, 0);
  EXPECT_EQ(rep.particles.status, SentinelStatus::kOk);
  EXPECT_EQ(rep.fields.status, SentinelStatus::kOk);
  EXPECT_EQ(rep.census.status, SentinelStatus::kOk);
  EXPECT_EQ(rep.energy.status, SentinelStatus::kOk);
  EXPECT_FALSE(rep.Summary().empty());
}

TEST(HealthSentinels, GaussSentinelStaysQuietOnEsirkepov) {
  UniformWorkloadParams p = SmallUniform();
  p.scheme = CurrentScheme::kEsirkepov;
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, p);
  HealthConfig hc;
  hc.gauss_interval = 1;
  sim->EnableHealth(hc);
  sim->Run(4);
  const HealthStepReport& rep = sim->last_sim_stats().health;
  EXPECT_EQ(rep.gauss.status, SentinelStatus::kOk) << rep.Summary();
  EXPECT_FALSE(rep.tripped());
}

// ---- One sentinel per fault class --------------------------------------------

TEST(HealthSentinels, PositionBitFlipTripsParticleGuard) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  sim->EnableHealth(HealthConfig{});
  sim->Run(2);

  const int32_t pid = FirstLiveSlot(*sim, 0);
  ASSERT_GE(pid, 0);
  double& x = sim->tiles().tile(0).soa().x[static_cast<size_t>(pid)];
  x = FlipExponentBit(x);
  sim->Step();

  const HealthStepReport& rep = sim->last_sim_stats().health;
  EXPECT_TRUE(rep.particles.tripped()) << rep.Summary();
  EXPECT_GE(rep.quarantined_tiles, 1);
  // Quarantine kept the poison out of the grid: fields stay finite.
  EXPECT_FALSE(rep.fields.tripped()) << rep.Summary();
}

TEST(HealthSentinels, MomentumBitFlipTripsEnergySentinel) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  sim->EnableHealth(HealthConfig{});
  sim->Run(2);  // arm the energy baseline

  // ux stays a finite number, so the lane guards pass it; only the energy
  // it carries is wrong.
  const int32_t pid = FirstLiveSlot(*sim, 0);
  ASSERT_GE(pid, 0);
  double& ux = sim->tiles().tile(0).soa().ux[static_cast<size_t>(pid)];
  ux = FlipExponentBit(ux);
  sim->Step();

  const HealthStepReport& rep = sim->last_sim_stats().health;
  EXPECT_TRUE(rep.energy.tripped()) << rep.Summary();
}

TEST(HealthSentinels, FieldBitFlipTripsFieldSentinel) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  sim->EnableHealth(HealthConfig{});
  sim->Run(2);

  // The largest-|Ex| unique interior node: guard nodes and the upper
  // periodic image are refilled from the interior every step, and a flipped
  // bit of 0.0 is a plain power of two no sentinel can tell from physics.
  FieldArray& ex = sim->fields().ex;
  int fi = 0, fj = 0, fk = 0;
  double best = -1.0;
  for (int k = 0; k < ex.nz(); ++k) {
    for (int j = 0; j < ex.ny(); ++j) {
      for (int i = 0; i < ex.nx(); ++i) {
        if (std::abs(ex.At(i, j, k)) > best) {
          best = std::abs(ex.At(i, j, k));
          fi = i;
          fj = j;
          fk = k;
        }
      }
    }
  }
  ASSERT_GT(best, 0.0);
  ex.At(fi, fj, fk) = FlipExponentBit(ex.At(fi, fj, fk));
  sim->Step();

  const HealthStepReport& rep = sim->last_sim_stats().health;
  EXPECT_TRUE(rep.fields.tripped()) << rep.Summary();
  EXPECT_GE(rep.fields.value, HealthConfig{}.max_field_magnitude);
}

TEST(HealthSentinels, TileSoACorruptTripsParticleGuard) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  sim->EnableHealth(HealthConfig{});
  sim->Run(1);

  // A corrupted cache line landing across the SoA: NaN in the seven physics
  // lanes of four live slots of one tile.
  ParticleTile& tile = sim->tiles().tile(0);
  ParticleSoA& soa = tile.soa();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int corrupted = 0;
  for (int32_t pid = 0; pid < tile.num_slots() && corrupted < 4; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    for (std::vector<double>* lane :
         {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w}) {
      (*lane)[static_cast<size_t>(pid)] = nan;
    }
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 4);
  sim->Step();

  const HealthStepReport& rep = sim->last_sim_stats().health;
  EXPECT_TRUE(rep.particles.tripped()) << rep.Summary();
  EXPECT_GE(rep.particles.count, 1);
  EXPECT_GE(rep.quarantined_tiles, 1);
}

TEST(HealthSentinels, DroppedMoversTripCensusSentinel) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  sim->EnableHealth(HealthConfig{});
  sim->Run(1);  // arm the census baseline
  ASSERT_FALSE(sim->last_sim_stats().health.tripped());

  // A particle lost between two steps, as a dropped migration buffer would
  // lose it: gone from its tile and its GPMA, counted in no drop.
  const int32_t pid = FirstLiveSlot(*sim, 0);
  ASSERT_GE(pid, 0);
  sim->engine().RemoveParticle(sim->tiles(), 0, pid);
  sim->Step();

  const HealthStepReport& rep = sim->last_sim_stats().health;
  EXPECT_TRUE(rep.census.tripped()) << rep.Summary();
  EXPECT_EQ(rep.census.count, 1);
}

// ---- Cycle-ledger regression sentinel ----------------------------------------

TEST(HealthSentinels, CycleSentinelOffByDefaultAndQuietWhenOn) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  sim->EnableHealth(HealthConfig{});
  sim->Run(3);
  EXPECT_EQ(sim->last_sim_stats().health.cycles.status,
            SentinelStatus::kDisabled);

  HwContext hw2(MachineConfig::Lx2MultiCore(2));
  auto sim2 = MakeUniformSimulation(hw2, SmallUniform());
  HealthConfig hc;
  hc.check_cycles = true;
  sim2->EnableHealth(hc);
  sim2->Run(8);
  const HealthStepReport& rep = sim2->last_sim_stats().health;
  EXPECT_EQ(rep.cycles.status, SentinelStatus::kOk) << rep.Summary();
  EXPECT_FALSE(rep.tripped());
  // Armed: the report carries the rolling baseline and a near-1 ratio.
  EXPECT_GT(rep.cycles.count, 0);
  EXPECT_GT(rep.cycles.value, 0.5);
  EXPECT_LT(rep.cycles.value, 2.0);
}

TEST(HealthSentinels, InjectedCycleSpikeTripsCycleSentinel) {
  HwContext hw(MachineConfig::Lx2MultiCore(2));
  auto sim = MakeUniformSimulation(hw, SmallUniform());
  HealthConfig hc;
  hc.check_cycles = true;
  hc.cycle_warmup_steps = 2;
  sim->EnableHealth(hc);
  sim->Run(5);  // warm the baseline
  const int64_t baseline = sim->last_sim_stats().health.cycles.count;
  ASSERT_GT(baseline, 0);
  EXPECT_FALSE(sim->last_sim_stats().health.tripped());

  // A performance fault: this step costs 10x the baseline in modeled cycles
  // (physics untouched — only the ledger sees it, which is exactly the fault
  // class the physics sentinels cannot catch).
  sim->hw().ChargeCycles(10.0 * static_cast<double>(baseline));
  sim->Step();
  const HealthStepReport& spiked = sim->last_sim_stats().health;
  EXPECT_TRUE(spiked.cycles.tripped()) << spiked.Summary();
  EXPECT_GT(spiked.cycles.value, HealthConfig{}.max_cycle_step_factor);

  // The tripped step must not feed the baseline: a normal step right after
  // reads clean again against the unpoisoned baseline.
  sim->Step();
  const HealthStepReport& after = sim->last_sim_stats().health;
  EXPECT_FALSE(after.cycles.tripped()) << after.Summary();

  // A sustained fault keeps tripping instead of ratcheting the baseline up.
  for (int s = 0; s < 3; ++s) {
    sim->hw().ChargeCycles(10.0 * static_cast<double>(baseline));
    sim->Step();
    EXPECT_TRUE(sim->last_sim_stats().health.cycles.tripped())
        << sim->last_sim_stats().health.Summary();
  }
}

// ---- Overhead ------------------------------------------------------------------

// Every default sentinel (Gauss stays opt-in) plus a checkpoint billed to the
// ledger before steps 0 and 10, against the same 20-step run with neither:
// uniform 12^3 cells, 3^3 PPC, 4-cell tiles, u_th 0.05, on 4 modeled cores.
struct Overhead {
  double off_cycles = 0.0;
  double on_cycles = 0.0;
  double health_cycles = 0.0;
  bool digests_match = false;
  bool tripped = false;
};

Overhead MeasureOverhead(int order) {
  constexpr int kSteps = 20;
  constexpr int kCheckpointInterval = 10;
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 12;
  p.ppc_x = p.ppc_y = p.ppc_z = 3;
  p.tile = 4;
  p.u_th = 0.05;
  p.order = order;

  Overhead o;
  HwContext off_hw(MachineConfig::Lx2MultiCore(4));
  auto off = MakeUniformSimulation(off_hw, p);
  off->Run(kSteps);
  o.off_cycles = off_hw.ledger().TotalCycles();

  HwContext on_hw(MachineConfig::Lx2MultiCore(4));
  auto on = MakeUniformSimulation(on_hw, p);
  on->EnableHealth(HealthConfig{});
  CheckpointWriteOptions opts;
  opts.charge = &on_hw;
  std::vector<uint8_t> image;
  for (int s = 0; s < kSteps; ++s) {
    if (s % kCheckpointInterval == 0) {
      EXPECT_TRUE(SaveCheckpoint(*on, &image, opts));
    }
    on->Step();
    o.tripped = o.tripped || on->last_sim_stats().health.tripped();
  }
  o.on_cycles = on_hw.ledger().TotalCycles();
  o.health_cycles = on_hw.ledger().PhaseCycles(Phase::kHealth);
  o.digests_match = SimulationDigest(*on) == SimulationDigest(*off);
  std::printf("order %d: %.4e -> %.4e cycles/step, health %.4e/step, "
              "overhead %.3f%%\n",
              order, o.off_cycles / kSteps, o.on_cycles / kSteps,
              o.health_cycles / kSteps,
              100.0 * (o.on_cycles - o.off_cycles) / o.off_cycles);
  return o;
}

// QSP (order 3) is the production shape order, where deposition dominates
// the step: the gate holds there.
TEST(HealthOverhead, QspSentinelsAndCheckpointsCostAtMostTwoPercent) {
  const Overhead o = MeasureOverhead(3);
  EXPECT_FALSE(o.tripped);
  EXPECT_TRUE(o.digests_match) << "sentinels or checkpoints moved the physics";
  EXPECT_GT(o.health_cycles, 0.0);
  EXPECT_LE((o.on_cycles - o.off_cycles) / o.off_cycles, 0.02);
}

// Against the cheapest kernel (CIC) the fixed per-particle guard work weighs
// more, so only passivity is asserted.
TEST(HealthOverhead, CicSentinelsAndCheckpointsLeaveDigestUnchanged) {
  const Overhead o = MeasureOverhead(1);
  EXPECT_FALSE(o.tripped);
  EXPECT_TRUE(o.digests_match) << "sentinels or checkpoints moved the physics";
  EXPECT_GT(o.health_cycles, 0.0);
}

}  // namespace
}  // namespace mpic
