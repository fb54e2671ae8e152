#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/stats.h"
#include "src/core/diagnostics.h"
#include "src/core/simulation.h"
#include "src/core/workloads.h"
#include "src/gpu/gpu_model.h"
#include "src/runtime/digest.h"

namespace mpic {
namespace {

UniformWorkloadParams SmallUniform(DepositVariant v, int order = 1, int ppc1d = 2) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = ppc1d;
  p.order = order;
  p.variant = v;
  p.tile = 4;
  return p;
}

TEST(Simulation, UniformPlasmaRunsAndConservesParticles) {
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, SmallUniform(DepositVariant::kFullOpt));
  const int64_t n0 = sim->tiles().TotalLive();
  EXPECT_EQ(n0, 8 * 8 * 8 * 8);
  sim->Run(5);
  EXPECT_EQ(sim->tiles().TotalLive(), n0);
  EXPECT_EQ(sim->step_count(), 5);
  EXPECT_EQ(sim->particles_pushed(), n0 * 5);
}

TEST(Simulation, FieldsStayFinite) {
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, SmallUniform(DepositVariant::kFullOpt));
  sim->Run(10);
  for (double v : sim->fields().ex.vec()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  for (double v : sim->fields().bz.vec()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(Simulation, AllPhasesAccrueCycles) {
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, SmallUniform(DepositVariant::kFullOpt));
  const PhaseCycles before = SnapshotCycles(hw.ledger());
  sim->Run(3);
  const RunReport r = MakeRunReport(hw, before, sim->particles_pushed(), 1);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kPreproc)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kCompute)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kSort)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kReduce)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kGather)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kPush)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<size_t>(Phase::kSolver)], 0.0);
  EXPECT_GT(r.wall_seconds, r.deposition_seconds);
  EXPECT_GT(r.particles_per_second, 0.0);
  EXPECT_GT(r.peak_efficiency, 0.0);
  EXPECT_LT(r.peak_efficiency, 1.0);
}

// The record of a window equals the ledger deltas around the same steps of a
// twin run: the warm-up is not billed, and nothing after the last step is.
TEST(MeasureWindow, RecordsTheMeasuredStepsOnly) {
  const UniformWorkloadParams p = SmallUniform(DepositVariant::kFullOpt);
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);
  const WindowRecord r = MeasureWindow(*sim, /*warmup=*/2, /*steps=*/3);

  HwContext twin_hw;
  auto twin = MakeUniformSimulation(twin_hw, p);
  twin->Run(2);
  const CostLedger before = twin_hw.ledger();
  const int64_t pushed_before = twin->particles_pushed();
  twin->Run(3);
  const CostLedger& after = twin_hw.ledger();

  for (int ph = 0; ph < kNumPhases; ++ph) {
    const auto phase = static_cast<Phase>(ph);
    EXPECT_EQ(r.phase_cycles[static_cast<size_t>(ph)],
              after.PhaseCycles(phase) - before.PhaseCycles(phase));
  }
  EXPECT_EQ(r.cycles, after.TotalCycles() - before.TotalCycles());
  EXPECT_EQ(r.counters.mopas, after.counters().mopas - before.counters().mopas);
  EXPECT_EQ(r.counters.l1_hits,
            after.counters().l1_hits - before.counters().l1_hits);
  EXPECT_EQ(r.particles, twin->particles_pushed() - pushed_before);
  EXPECT_EQ(r.particles, 3 * twin->tiles().TotalLive());
  EXPECT_EQ(r.global_sorts, twin->engine().total_global_sorts());
  EXPECT_EQ(r.sim_digest, SimulationDigest(*twin));
  EXPECT_EQ(r.ledger_digest, LedgerDigest(after));
  EXPECT_NEAR(r.report.wall_seconds, hw.cfg().CyclesToSeconds(r.cycles),
              1e-12 * r.report.wall_seconds);
  // FullOpt CIC packs its MOPAs a quarter full.
  EXPECT_DOUBLE_EQ(r.mpu_occupancy, 0.25);
  EXPECT_GE(r.host_seconds, 0.0);
}

TEST(MeasureWindowDeathTest, NonFiniteWindowAborts) {
  // An infinite MOPA cost makes the first measured deposit charge inf cycles.
  MachineConfig cfg = MachineConfig::Lx2();
  cfg.mopa_issue_cycles = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(
      {
        HwContext hw(cfg);
        auto sim =
            MakeUniformSimulation(hw, SmallUniform(DepositVariant::kFullOpt));
        MeasureWindow(*sim, /*warmup=*/0, /*steps=*/1);
      },
      "non-finite cycles in the measured window");
}

TEST(Simulation, VariantsProduceSamePhysics) {
  // After a few full PIC steps (gather/push feed back through the fields), the
  // kernel variants must still agree on the field state.
  HwContext hw_a, hw_b, hw_c;
  auto base = MakeUniformSimulation(hw_a, SmallUniform(DepositVariant::kBaseline));
  auto vpu = MakeUniformSimulation(
      hw_b, SmallUniform(DepositVariant::kRhocellIncrSortVpu));
  auto mpu = MakeUniformSimulation(hw_c, SmallUniform(DepositVariant::kFullOpt));
  base->Run(3);
  vpu->Run(3);
  mpu->Run(3);
  EXPECT_LT(RelMaxError(base->fields().ex.vec(), vpu->fields().ex.vec()), 1e-9);
  EXPECT_LT(RelMaxError(base->fields().ex.vec(), mpu->fields().ex.vec()), 1e-9);
  EXPECT_LT(RelMaxError(base->fields().bz.vec(), mpu->fields().bz.vec()), 1e-9);
}

TEST(Simulation, ColdUniformPlasmaStaysQuiet) {
  // A perfectly cold, uniform, current-free plasma should generate (almost) no
  // fields: J cancels between symmetric lattice particles only if u=0.
  UniformWorkloadParams p = SmallUniform(DepositVariant::kFullOpt);
  p.u_th = 0.0;
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);
  sim->Run(3);
  EXPECT_NEAR(FieldEnergy(sim->fields()), 0.0, 1e-20);
}

TEST(Simulation, ThermalPlasmaEnergyBounded) {
  HwContext hw;
  UniformWorkloadParams p = SmallUniform(DepositVariant::kFullOpt);
  p.u_th = 0.01;
  auto sim = MakeUniformSimulation(hw, p);
  const double ke0 = KineticEnergy(sim->tiles(), Species::Electron());
  sim->Run(10);
  const double ke = KineticEnergy(sim->tiles(), Species::Electron());
  const double fe = FieldEnergy(sim->fields());
  // No blow-up: total energy stays within a factor of the initial kinetic
  // energy over a short run.
  EXPECT_LT(fe, ke0);
  EXPECT_NEAR(ke, ke0, 0.5 * ke0);
}

TEST(Simulation, Order3RunsEndToEnd) {
  HwContext hw;
  auto sim =
      MakeUniformSimulation(hw, SmallUniform(DepositVariant::kFullOpt, 3, 2));
  sim->Run(3);
  for (double v : sim->fields().ex.vec()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(hw.ledger().counters().mopas, 0u);
}

// ---------------------------------------------------------------------------
// LWFA workload
// ---------------------------------------------------------------------------

LwfaWorkloadParams SmallLwfa(DepositVariant v) {
  LwfaWorkloadParams p;
  p.nx = p.ny = 8;
  p.nz = 32;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.variant = v;
  p.tile = 4;
  p.tile_z = 8;
  return p;
}

TEST(Lwfa, RunsWithMovingWindowAndInjection) {
  HwContext hw;
  auto sim = MakeLwfaSimulation(hw, SmallLwfa(DepositVariant::kFullOpt));
  const double z0_before = sim->fields().geom.z0;
  sim->Run(20);
  // Window advanced (cfl 0.98 -> ~0.98 cells per step).
  EXPECT_GT(sim->fields().geom.z0, z0_before);
  EXPECT_GT(sim->tiles().TotalLive(), 0);
  for (double v : sim->fields().ey.vec()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  for (int t = 0; t < sim->tiles().num_tiles(); ++t) {
    sim->tiles().tile(t).gpma().CheckInvariants();
  }
}

TEST(Lwfa, LaserInjectsFieldEnergy) {
  HwContext hw;
  auto sim = MakeLwfaSimulation(hw, SmallLwfa(DepositVariant::kFullOpt));
  sim->Run(10);
  EXPECT_GT(FieldEnergy(sim->fields()), 0.0);
}

TEST(Lwfa, VariantsAgreeOnFields) {
  HwContext hw_a, hw_b;
  auto base = MakeLwfaSimulation(hw_a, SmallLwfa(DepositVariant::kBaseline));
  auto mpu = MakeLwfaSimulation(hw_b, SmallLwfa(DepositVariant::kFullOpt));
  base->Run(8);
  mpu->Run(8);
  EXPECT_LT(RelMaxError(base->fields().ey.vec(), mpu->fields().ey.vec()), 1e-9);
  EXPECT_LT(RelMaxError(base->fields().jz.vec(), mpu->fields().jz.vec()), 1e-9);
}

// ---------------------------------------------------------------------------
// GPU comparison model
// ---------------------------------------------------------------------------

TEST(GpuModel, RunsAndReportsEfficiency) {
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, SmallUniform(DepositVariant::kBaseline));
  const GpuRunResult r =
      GpuBaselineDeposit(GpuConfig::A800(), sim->tiles(), /*order=*/3);
  EXPECT_EQ(r.particles, sim->tiles().TotalLive());
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_GT(r.peak_efficiency, 0.05);
  EXPECT_LT(r.peak_efficiency, 0.8);
  EXPECT_GT(r.atomic_instructions, 0);
}

TEST(GpuModel, ConflictsIncreaseWithDensity) {
  HwContext hw_lo, hw_hi;
  auto lo = MakeUniformSimulation(hw_lo,
                                  SmallUniform(DepositVariant::kBaseline, 1, 1));
  auto hi = MakeUniformSimulation(hw_hi,
                                  SmallUniform(DepositVariant::kBaseline, 1, 4));
  const auto r_lo = GpuBaselineDeposit(GpuConfig::A800(), lo->tiles(), 1);
  const auto r_hi = GpuBaselineDeposit(GpuConfig::A800(), hi->tiles(), 1);
  const double lo_rate = static_cast<double>(r_lo.conflict_lanes) /
                         static_cast<double>(r_lo.particles);
  const double hi_rate = static_cast<double>(r_hi.conflict_lanes) /
                         static_cast<double>(r_hi.particles);
  EXPECT_GT(hi_rate, lo_rate);
}

}  // namespace
}  // namespace mpic
