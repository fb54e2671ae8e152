// Two-stream instability (multi-species showcase).
//
// Two electron beams counter-stream along z at +/- u_drift with a seeded
// sinusoidal velocity perturbation. The electrostatic two-stream instability
// amplifies the seeded mode exponentially until particle trapping saturates
// it. Prints a per-step timeline with the per-species census, the field /
// kinetic energy exchange, and the health-sentinel status, then the growth
// factor over the run.
//
//   ./two_stream [steps] [u_drift/c] [variant]

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/runtime/health.h"

int main(int argc, char** argv) {
  const int steps = mpic::ParseBenchArgs(
      argc, argv, {{"steps", 120, 1, mpic::kMaxBenchSteps}})[0];
  mpic::TwoStreamParams params;
  params.u_drift = argc > 2 ? std::atof(argv[2]) : 0.2;
  if (params.u_drift <= 0.0) {
    std::fprintf(stderr, "u_drift must be > 0 (got '%s'), using 0.2\n", argv[2]);
    params.u_drift = 0.2;
  }
  params.variant = (argc > 3 && std::strcmp(argv[3], "baseline") == 0)
                       ? mpic::DepositVariant::kBaseline
                       : mpic::DepositVariant::kFullOpt;
  params.nx = params.ny = 4;
  params.nz = 32;
  params.tile = 4;

  mpic::HwContext hw;
  auto sim = mpic::MakeTwoStreamSimulation(hw, params);
  // Closed periodic system: every default sentinel applies, including the
  // total-energy drift bound.
  sim->EnableHealth(mpic::HealthConfig{});
  std::printf("two_stream: %s, grid %dx%dx%d, u_drift %.2fc, %d species\n",
              mpic::VariantName(params.variant), params.nx, params.ny, params.nz,
              params.u_drift, sim->num_species());
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    std::printf("  species %d: %-12s %8lld particles\n", sid,
                sim->species(sid).name.c_str(),
                static_cast<long long>(sim->block(sid).tiles.TotalLive()));
  }

  sim->Step();
  const double fe0 = mpic::FieldEnergy(sim->fields());
  std::printf("\n%5s %14s %14s", "step", "field E (J)", "kinetic (J)");
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    std::printf(" %12s", sim->species(sid).name.c_str());
  }
  std::printf(" %8s\n", "health");

  for (int s = 1; s < steps; ++s) {
    sim->Step();
    if ((s + 1) % 10 == 0 || s == 1) {
      std::printf("%5lld %14.4e %14.4e",
                  static_cast<long long>(sim->step_count()),
                  mpic::FieldEnergy(sim->fields()),
                  mpic::TotalKineticEnergy(*sim));
      for (const mpic::SpeciesStepStats& ss : sim->last_sim_stats().species) {
        std::printf(" %12lld", static_cast<long long>(ss.live));
      }
      const mpic::HealthStepReport& rep = sim->last_sim_stats().health;
      std::printf(" %8s\n", rep.tripped() ? "TRIP" : "ok");
      if (rep.tripped()) {
        std::printf("      %s\n", rep.Summary().c_str());
      }
    }
  }
  std::printf("\nfinal %s\n", sim->last_sim_stats().health.Summary().c_str());

  const double fe1 = mpic::FieldEnergy(sim->fields());
  std::printf("\nfield energy grew %.1fx over %d steps (%.3e -> %.3e J)\n",
              fe0 > 0.0 ? fe1 / fe0 : 0.0, steps, fe0, fe1);
  const mpic::EngineStepStats agg = sim->last_sim_stats().Aggregate();
  std::printf("last step: %lld moved, %lld tile crossings across species\n",
              static_cast<long long>(agg.moved_particles),
              static_cast<long long>(agg.crossed_tiles));
  return 0;
}
