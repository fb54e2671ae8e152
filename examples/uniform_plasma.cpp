// Uniform plasma study (the paper's controlled workload, Table 4 left column).
//
// Runs the uniform Maxwellian plasma under a chosen deposition variant, shape
// order and particle density, printing a per-step timeline of the modeled
// phase costs plus the sorting policy's decisions. Use it to explore how the
// kernels respond to density and order:
//
//   ./uniform_plasma [variant] [order] [ppc1d] [steps]
//
//   variant: baseline | baseline-sort | rhocell | rhocell-sort | vpu |
//            matrix-only | hybrid-nosort | hybrid-globalsort | fullopt
//   order:   1 (CIC) | 2 (TSC; not on the rhocell/MPU variants) | 3 (QSP)
//   ppc1d:   particles per cell per dimension, 1..8 (total PPC = ppc1d^3)
//   steps:   1..100000

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"

namespace {

mpic::DepositVariant ParseVariant(const char* name) {
  using mpic::DepositVariant;
  const struct {
    const char* key;
    DepositVariant v;
  } table[] = {
      {"baseline", DepositVariant::kBaseline},
      {"baseline-sort", DepositVariant::kBaselineIncrSort},
      {"rhocell", DepositVariant::kRhocell},
      {"rhocell-sort", DepositVariant::kRhocellIncrSort},
      {"vpu", DepositVariant::kRhocellIncrSortVpu},
      {"matrix-only", DepositVariant::kMatrixOnly},
      {"hybrid-nosort", DepositVariant::kHybridNoSort},
      {"hybrid-globalsort", DepositVariant::kHybridGlobalSort},
      {"fullopt", DepositVariant::kFullOpt},
  };
  for (const auto& entry : table) {
    if (std::strcmp(name, entry.key) == 0) {
      return entry.v;
    }
  }
  std::fprintf(stderr, "unknown variant '%s', using fullopt\n", name);
  return DepositVariant::kFullOpt;
}

// The rhocell and MPU kernels deposit CIC (1) and QSP (3) only; the other
// variants also take TSC (2).
bool OrderSupported(mpic::DepositVariant v, int order) {
  const mpic::VariantTraits traits = mpic::TraitsOf(v);
  return order != 2 || !(traits.uses_rhocell || traits.uses_mpu);
}

}  // namespace

int main(int argc, char** argv) {
  mpic::UniformWorkloadParams params;
  params.variant =
      argc > 1 ? ParseVariant(argv[1]) : mpic::DepositVariant::kFullOpt;
  // Integer arguments: a bad one takes its default, with one usage line.
  int order = 1;
  int ppc1d = 4;
  int steps = 8;
  bool bad = false;
  if (argc > 2 && (!mpic::ParseBenchInt(argv[2], 1, 3, &order) ||
                   !OrderSupported(params.variant, order))) {
    order = 1;
    bad = true;
  }
  bad = (argc > 3 && !mpic::ParseBenchInt(argv[3], 1, 8, &ppc1d)) || bad;
  bad = (argc > 4 && !mpic::ParseBenchInt(argv[4], 1, mpic::kMaxBenchSteps,
                                          &steps)) ||
        bad;
  if (bad) {
    std::fprintf(stderr,
                 "usage: %s [variant] [order 1|3, or 2 on baseline variants] "
                 "[ppc1d 1..8] [steps 1..%d]; using defaults\n",
                 argv[0], mpic::kMaxBenchSteps);
  }
  params.order = order;
  params.nx = params.ny = params.nz = 12;
  params.tile = 12;
  params.ppc_x = params.ppc_y = params.ppc_z = ppc1d;

  mpic::HwContext hw;
  auto sim = mpic::MakeUniformSimulation(hw, params);
  std::printf("uniform_plasma: %s, order %d, PPC %d, %lld particles\n",
              mpic::VariantName(params.variant), params.order,
              ppc1d * ppc1d * ppc1d,
              static_cast<long long>(sim->tiles().TotalLive()));
  std::printf("%5s %12s %12s %12s %12s %10s %8s\n", "step", "preproc(ms)",
              "compute(ms)", "sort(ms)", "gather(ms)", "moved", "decision");

  for (int s = 0; s < steps; ++s) {
    const mpic::PhaseCycles before = mpic::SnapshotCycles(hw.ledger());
    sim->Step();
    const mpic::RunReport r = mpic::MakeRunReport(
        hw, before, sim->tiles().TotalLive(), params.order);
    const auto& stats = sim->last_step_stats();
    auto ms = [&](mpic::Phase p) {
      return r.phase_seconds[static_cast<size_t>(p)] * 1e3;
    };
    std::printf("%5lld %12.4f %12.4f %12.4f %12.4f %10lld %8s\n",
                static_cast<long long>(sim->step_count()), ms(mpic::Phase::kPreproc),
                ms(mpic::Phase::kCompute), ms(mpic::Phase::kSort),
                ms(mpic::Phase::kGather),
                static_cast<long long>(stats.moved_particles),
                mpic::SortDecisionName(stats.decision));
  }

  std::printf("\nfield energy %.3e J, kinetic %.3e J, global sorts %lld\n",
              mpic::FieldEnergy(sim->fields()), mpic::TotalKineticEnergy(*sim),
              static_cast<long long>(sim->engine().total_global_sorts()));
  return 0;
}
