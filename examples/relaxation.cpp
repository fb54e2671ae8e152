// Collisional two-temperature relaxation (Takizuka-Abe collision showcase).
//
// A hot electron population and a cold equal-mass population of opposite
// charge relax toward a common temperature through binary Monte-Carlo Coulomb
// collisions riding the GPMA cell sort. Prints the two temperatures, the
// total momentum drift, and the collision-stage census over the run; the
// Coulomb logarithm is exposed as a rate knob (the relaxation rate is linear
// in it).
//
//   ./relaxation [steps] [coulomb_log] [variant]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"

int main(int argc, char** argv) {
  const int steps = mpic::ParseBenchArgs(
      argc, argv, {{"steps", 150, 1, mpic::kMaxBenchSteps}})[0];
  mpic::CollisionalRelaxationParams params;
  params.coulomb_log = argc > 2 ? std::atof(argv[2]) : 300.0;
  if (params.coulomb_log <= 0.0) {
    std::fprintf(stderr, "coulomb_log must be > 0 (got '%s'), using 300\n",
                 argv[2]);
    params.coulomb_log = 300.0;
  }
  params.variant = (argc > 3 && std::strcmp(argv[3], "baseline_incr") == 0)
                       ? mpic::DepositVariant::kBaselineIncrSort
                       : mpic::DepositVariant::kFullOpt;

  mpic::HwContext hw;
  auto sim = mpic::MakeCollisionalRelaxationSimulation(hw, params);
  std::printf(
      "relaxation: %s, grid %dx%dx%d, lnLambda %.0f, u_th %.3fc / %.3fc\n",
      mpic::VariantName(params.variant), params.nx, params.ny, params.nz,
      params.coulomb_log, params.u_th_hot, params.u_th_cold);
  for (int sid = 0; sid < sim->num_species(); ++sid) {
    std::printf("  species %d: %-8s %8lld particles\n", sid,
                sim->species(sid).name.c_str(),
                static_cast<long long>(sim->block(sid).tiles.TotalLive()));
  }

  auto temps = [&](double* hot, double* cold) {
    *hot = mpic::SpeciesTemperature(sim->block(0).tiles, sim->species(0));
    *cold = mpic::SpeciesTemperature(sim->block(1).tiles, sim->species(1));
  };
  auto momentum_mag = [&]() {
    double total[3] = {0.0, 0.0, 0.0};
    for (int sid = 0; sid < sim->num_species(); ++sid) {
      double p[3];
      mpic::SpeciesMomentum(sim->block(sid).tiles, sim->species(sid), p);
      for (int c = 0; c < 3; ++c) {
        total[c] += p[c];
      }
    }
    return std::sqrt(total[0] * total[0] + total[1] * total[1] +
                     total[2] * total[2]);
  };

  double t_hot0, t_cold0;
  temps(&t_hot0, &t_cold0);
  const double p0 = momentum_mag();
  std::printf("\n%5s %13s %13s %10s %12s %10s\n", "step", "T_hot (J)",
              "T_cold (J)", "gap", "pairs/step", "|p| drift");
  std::printf("%5d %13.4e %13.4e %10.3f %12s %10s\n", 0, t_hot0, t_cold0, 1.0,
              "-", "-");
  for (int s = 0; s < steps; ++s) {
    sim->Step();
    if ((s + 1) % 25 == 0 || s + 1 == steps) {
      double t_hot, t_cold;
      temps(&t_hot, &t_cold);
      const double gap = (t_hot - t_cold) / (t_hot0 - t_cold0);
      std::printf("%5lld %13.4e %13.4e %10.3f %12lld %10.2e\n",
                  static_cast<long long>(sim->step_count()), t_hot, t_cold, gap,
                  static_cast<long long>(sim->last_sim_stats().collisions.pairs),
                  momentum_mag() - p0);
    }
  }

  double t_hot1, t_cold1;
  temps(&t_hot1, &t_cold1);
  std::printf("\ntemperature gap closed to %.1f%% over %d steps "
              "(T_hot %.3e -> %.3e J, T_cold %.3e -> %.3e J)\n",
              100.0 * (t_hot1 - t_cold1) / (t_hot0 - t_cold0), steps, t_hot0,
              t_hot1, t_cold0, t_cold1);
  std::printf("collide phase: %.3e modeled cycles (%.1f%% of total)\n",
              hw.ledger().PhaseCycles(mpic::Phase::kCollide),
              100.0 * hw.ledger().PhaseCycles(mpic::Phase::kCollide) /
                  hw.ledger().TotalCycles());
  return 0;
}
