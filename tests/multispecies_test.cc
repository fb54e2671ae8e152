// Multi-species core: per-species blocks share one FieldSet, currents
// accumulate across species, and per-species stats are reported. These tests
// pin the physics of the SpeciesBlock registry: charge bookkeeping with
// electrons+protons, J accumulation/cancellation, moving-window injection per
// species, and the two-stream instability end-to-end.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/deposit/esirkepov.h"

namespace mpic {
namespace {

UniformWorkloadParams ElectronProtonBox(double u_th = 0.0) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.tile = 4;
  p.u_th = u_th;
  p.variant = DepositVariant::kFullOpt;
  p.species = {Species::Electron(), Species::Proton()};
  return p;
}

// Sums the deposited charge density of one species (periodic box).
double DepositedChargeOfSpecies(Simulation& sim, int sid) {
  const GridGeometry& g = sim.config().geom;
  FieldArray rho(g.nx, g.ny, g.nz, 2);
  SpeciesBlock& b = sim.block(sid);
  DepositParams dp;
  dp.geom = g;
  dp.charge = b.species.charge;
  for (int t = 0; t < b.tiles.num_tiles(); ++t) {
    DepositCharge<1>(sim.hw(), b.tiles.tile(t), dp, rho);
  }
  rho.FoldGuardsPeriodic();
  return rho.InteriorSumUnique();
}

// Sums the deposited charge density over all species (periodic box).
double TotalDepositedCharge(Simulation& sim) {
  double sum = 0.0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    sum += DepositedChargeOfSpecies(sim, sid);
  }
  return sum;
}

TEST(MultiSpecies, ElectronProtonBoxConservesParticlesAndCharge) {
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, ElectronProtonBox(0.01));
  ASSERT_EQ(sim->num_species(), 2);
  const int64_t per_species = 8 * 8 * 8 * 8;
  EXPECT_EQ(sim->block(0).tiles.TotalLive(), per_species);
  EXPECT_EQ(sim->block(1).tiles.TotalLive(), per_species);

  // Equal-density electrons and protons: the box is neutral, and deposition
  // of +q and -q weights must cancel to rounding relative to each species'
  // own deposited magnitude.
  const double q_scale = std::fabs(DepositedChargeOfSpecies(*sim, 0));
  ASSERT_GT(q_scale, 0.0);
  EXPECT_NEAR(TotalDepositedCharge(*sim), 0.0, q_scale * 1e-12);

  sim->Run(5);
  EXPECT_EQ(sim->block(0).tiles.TotalLive(), per_species);
  EXPECT_EQ(sim->block(1).tiles.TotalLive(), per_species);
  EXPECT_EQ(sim->particles_pushed(), 2 * per_species * 5);
  EXPECT_NEAR(TotalDepositedCharge(*sim), 0.0, q_scale * 1e-12);

  // Per-species stats reported for the last step.
  const SimStepStats& stats = sim->last_sim_stats();
  ASSERT_EQ(stats.species.size(), 2u);
  EXPECT_EQ(stats.species[0].name, "electrons");
  EXPECT_EQ(stats.species[1].name, "protons");
  EXPECT_EQ(stats.species[0].live, per_species);
  EXPECT_EQ(stats.species[1].live, per_species);
  EXPECT_EQ(stats.species[0].pushed, per_species);
  EXPECT_EQ(stats.TotalPushed(), 2 * per_species);
  EXPECT_EQ(stats.TotalLive(), sim->block(0).tiles.TotalLive() +
                                   sim->block(1).tiles.TotalLive());
}

TEST(MultiSpecies, OppositeChargesCancelCurrents) {
  // Electrons and protons seeded on the same lattice with the same drift:
  // J = n*(q_e + q_p)*v = 0. The fields must stay (numerically) quiet even
  // though each species alone would drive a large current.
  UniformWorkloadParams p = ElectronProtonBox(0.0);
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);
  const double u_drift = 0.02 * kSpeedOfLight;
  for (int sid = 0; sid < 2; ++sid) {
    TileSet& tiles = sim->block(sid).tiles;
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      ParticleSoA& soa = tiles.tile(t).soa();
      for (size_t i = 0; i < soa.size(); ++i) {
        soa.uz[i] = u_drift;
      }
    }
  }
  sim->Step();

  // Compare against the same drift carried by the electrons alone.
  UniformWorkloadParams pe = ElectronProtonBox(0.0);
  pe.species = {Species::Electron()};
  HwContext hw_e;
  auto sim_e = MakeUniformSimulation(hw_e, pe);
  for (int t = 0; t < sim_e->tiles().num_tiles(); ++t) {
    ParticleSoA& soa = sim_e->tiles().tile(t).soa();
    for (size_t i = 0; i < soa.size(); ++i) {
      soa.uz[i] = u_drift;
    }
  }
  sim_e->Step();

  const double jz_electron_only = std::fabs(sim_e->fields().jz.InteriorSumUnique());
  ASSERT_GT(jz_electron_only, 0.0);
  EXPECT_LT(std::fabs(sim->fields().jz.InteriorSumUnique()),
            jz_electron_only * 1e-9);
}

TEST(MultiSpecies, ProtonDriftCurrentMatchesAnalytic) {
  // Only the protons drift: total J must equal n * q_p * v_drift * volume /
  // cell_volume, proving the per-species charge reaches the deposit kernels.
  UniformWorkloadParams p = ElectronProtonBox(0.0);
  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);
  const double u_drift = 0.02 * kSpeedOfLight;
  TileSet& protons = sim->block(1).tiles;
  for (int t = 0; t < protons.num_tiles(); ++t) {
    ParticleSoA& soa = protons.tile(t).soa();
    for (size_t i = 0; i < soa.size(); ++i) {
      soa.uz[i] = u_drift;
    }
  }
  sim->Step();
  const GridGeometry& g = sim->config().geom;
  const double gamma = std::sqrt(1.0 + 0.0004);
  const double expected = p.density * (-kElectronCharge) * (u_drift / gamma) *
                          g.LengthX() * g.LengthY() * g.LengthZ() /
                          (g.dx * g.dy * g.dz);
  EXPECT_NEAR(sim->fields().jz.InteriorSumUnique(), expected,
              std::fabs(expected) * 1e-9);
}

TEST(MultiSpecies, EmptySecondSpeciesMatchesSingleSpeciesRun) {
  // A two-species run whose second species is empty must reproduce the
  // single-species fields exactly: the species loop and the shared guard fold
  // cannot perturb the electron-only physics.
  UniformWorkloadParams p1 = ElectronProtonBox(0.01);
  p1.species = {Species::Electron()};
  HwContext hw1;
  auto sim1 = MakeUniformSimulation(hw1, p1);
  sim1->Run(3);

  UniformWorkloadParams p2 = ElectronProtonBox(0.01);
  HwContext hw2;
  SimulationConfig cfg = MakeUniformConfig(p2);
  cfg.species.resize(1);
  Simulation sim2(hw2, cfg);
  SpeciesConfig ion_cfg;
  ion_cfg.species = Species::Proton();
  const int ion_id = sim2.AddSpecies(ion_cfg);
  EXPECT_EQ(ion_id, 1);
  UniformPlasmaConfig plasma;
  plasma.ppc_x = plasma.ppc_y = plasma.ppc_z = 2;
  plasma.u_th = 0.01;
  plasma.seed = p2.seed;
  sim2.SeedUniformPlasma(0, plasma);
  ScrambleParticleOrder(sim2.block(0).tiles, p2.seed ^ 0xABCD);
  sim2.Initialize();  // proton block stays empty
  sim2.Run(3);

  for (size_t i = 0; i < sim1->fields().ex.vec().size(); ++i) {
    ASSERT_EQ(sim1->fields().ex.vec()[i], sim2.fields().ex.vec()[i]) << i;
    ASSERT_EQ(sim1->fields().jz.vec()[i], sim2.fields().jz.vec()[i]) << i;
  }
}

TEST(MultiSpecies, MovingWindowInjectsEachSpecies) {
  LwfaWorkloadParams p;
  p.nx = p.ny = 4;
  p.nz = 32;
  p.ppc_x = p.ppc_y = p.ppc_z = 1;
  p.tile = 4;
  p.tile_z = 8;
  p.with_ions = true;
  HwContext hw;
  auto sim = MakeLwfaSimulation(hw, p);
  ASSERT_EQ(sim->num_species(), 2);
  const int64_t e0 = sim->block(0).tiles.TotalLive();
  const int64_t i0 = sim->block(1).tiles.TotalLive();
  EXPECT_EQ(e0, i0);  // same profile, same PPC
  sim->Run(30);
  // The window advanced; both species were dropped at the tail and re-injected
  // at the head, so their live counts stay within a few slabs of the start.
  const int64_t slab = p.nx * p.ny;
  EXPECT_NEAR(static_cast<double>(sim->block(0).tiles.TotalLive()),
              static_cast<double>(e0), static_cast<double>(6 * slab));
  EXPECT_NEAR(static_cast<double>(sim->block(1).tiles.TotalLive()),
              static_cast<double>(i0), static_cast<double>(6 * slab));
  const SimStepStats& stats = sim->last_sim_stats();
  ASSERT_EQ(stats.species.size(), 2u);
  EXPECT_GT(stats.species[0].live, 0);
  EXPECT_GT(stats.species[1].live, 0);
  for (int sid = 0; sid < 2; ++sid) {
    for (int t = 0; t < sim->block(sid).tiles.num_tiles(); ++t) {
      sim->block(sid).tiles.tile(t).gpma().CheckInvariants();
    }
  }
}

TEST(TwoStream, FieldEnergyGrowsFromSeededPerturbation) {
  TwoStreamParams p;
  p.u_drift = 0.2;
  HwContext hw;
  auto sim = MakeTwoStreamSimulation(hw, p);
  ASSERT_EQ(sim->num_species(), 2);
  sim->Run(5);
  const double fe_early = FieldEnergy(sim->fields());
  ASSERT_GT(fe_early, 0.0);  // the perturbation seeds a finite field
  sim->Run(75);
  const double fe_late = FieldEnergy(sim->fields());
  // The instability must amplify the seeded mode well beyond linear noise
  // growth; the textbook rate ~omega_p/(2*sqrt(2)) gives orders of magnitude
  // over this window. Require a conservative 10x in energy.
  EXPECT_GT(fe_late, 10.0 * fe_early);
  // Energy bookkeeping stays sane: field energy remains below the beams'
  // kinetic energy reservoir.
  EXPECT_LT(fe_late, TotalKineticEnergy(*sim));
}

TEST(MultiSpecies, PerSpeciesEngineOverride) {
  // Ions get a no-sort hybrid engine while electrons keep the full MatrixPIC
  // pipeline: each block must run its own engine configuration.
  UniformWorkloadParams p = ElectronProtonBox(0.01);
  p.species.clear();
  UniformSpeciesParams electrons;
  UniformSpeciesParams ions;
  ions.species = Species::Proton();
  ions.variant = DepositVariant::kHybridNoSort;
  p.species_params = {electrons, ions};

  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);
  ASSERT_EQ(sim->num_species(), 2);
  EXPECT_EQ(sim->block(0).engine.config().variant, DepositVariant::kFullOpt);
  EXPECT_EQ(sim->block(1).engine.config().variant, DepositVariant::kHybridNoSort);
  // A variant-only override inherits the workload's shape order.
  EXPECT_EQ(sim->block(1).engine.config().order, p.order);

  const int64_t n0 = sim->block(0).tiles.TotalLive();
  const int64_t n1 = sim->block(1).tiles.TotalLive();
  sim->Run(3);
  EXPECT_EQ(sim->block(0).tiles.TotalLive(), n0);
  EXPECT_EQ(sim->block(1).tiles.TotalLive(), n1);
  // The sorting electron engine paid its initial global sort; the no-sort ion
  // engine never sorts.
  EXPECT_GE(sim->block(0).engine.total_global_sorts(), 1);
  EXPECT_EQ(sim->block(1).engine.total_global_sorts(), 0);
  for (double v : sim->fields().ez.vec()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(MultiSpecies, PerSpeciesOrderOverride) {
  // A QSP (order 3) species next to a CIC (order 1) species: gather/push and
  // deposit must both use the per-block order.
  UniformWorkloadParams p = ElectronProtonBox(0.01);
  p.species.clear();
  UniformSpeciesParams electrons;
  UniformSpeciesParams ions;
  ions.species = Species::Proton();
  ions.order = 3;
  p.species_params = {electrons, ions};

  HwContext hw;
  auto sim = MakeUniformSimulation(hw, p);
  EXPECT_EQ(sim->block(0).engine.config().order, 1);
  EXPECT_EQ(sim->block(1).engine.config().order, 3);
  // An order-only override inherits the workload's variant.
  EXPECT_EQ(sim->block(1).engine.config().variant, DepositVariant::kFullOpt);
  sim->Run(3);
  EXPECT_EQ(sim->step_count(), 3);
  for (double v : sim->fields().ez.vec()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(TwoStream, VariantsAgreeWithTwoSpecies) {
  TwoStreamParams pa, pb;
  pa.variant = DepositVariant::kBaseline;
  pb.variant = DepositVariant::kFullOpt;
  HwContext hw_a, hw_b;
  auto a = MakeTwoStreamSimulation(hw_a, pa);
  auto b = MakeTwoStreamSimulation(hw_b, pb);
  a->Run(10);
  b->Run(10);
  // Tolerance floor scales with the field magnitude: nodes where one variant
  // cancels to ~0 must not demand bit-equality from the other's FP ordering.
  double scale = 0.0;
  for (double v : a->fields().ez.vec()) {
    scale = std::max(scale, std::fabs(v));
  }
  ASSERT_GT(scale, 0.0);
  for (size_t i = 0; i < a->fields().ez.vec().size(); ++i) {
    ASSERT_NEAR(b->fields().ez.vec()[i], a->fields().ez.vec()[i], scale * 1e-8)
        << i;
  }
}

}  // namespace
}  // namespace mpic
