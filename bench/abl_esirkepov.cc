// Current-scheme ablation: charge-conserving Esirkepov deposition vs the
// paper's direct scheme, on the uniform-plasma workload at CIC and QSP, at
// 1 and 4 modeled cores.
//
// Per (order, cores, scheme) it prints modeled cycles/step, an FNV physics
// digest, and the max Gauss-law residual change
// |d(div E - rho/eps0)| / max|rho/eps0| over the run. Four invariants are
// enforced (non-zero exit on violation):
//   1. digests match across core counts — the scheme changes physics, never
//      the schedule contract;
//   2. the Esirkepov residual stays at floating-point rounding level
//      (< 1e-8 relative) — the charge-conservation guarantee;
//   3. the direct residual exceeds it by orders of magnitude (> 1e-6) — the
//      documented drift the scheme exists to close;
//   4. on every MPU variant, the Esirkepov/direct cycle ratio stays within
//      kMaxMpuEsirkepovRatio — the MOPA Esirkepov kernel's price-of-charge-
//      conservation claim. A VPU variant, whose staged scalar/VPU combine
//      reads about 2.4x (CIC) and 2.8x (QSP), is reported alongside,
//      ungated, as the contrast row.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

constexpr double kEsirkepovTolerance = 1e-8;
constexpr double kDirectDriftFloor = 1e-6;
// Acceptance bar for the MOPA Esirkepov kernel: charge conservation may cost
// at most 30% whole-step cycles over the direct scheme on any MPU variant.
constexpr double kMaxMpuEsirkepovRatio = 1.3;

struct SchemePoint {
  WindowRecord window;
  double cycles_per_step = 0.0;
  uint64_t digest = 0;
  double residual = 0.0;
};

SchemePoint RunPoint(int order, DepositVariant variant, CurrentScheme scheme,
                     int cores, int steps) {
  SetThreads(cores);
  HwContext hw(MachineConfig::Lx2MultiCore(cores));
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 12;
  p.tile = 4;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.u_th = 0.02;
  p.order = order;
  p.variant = variant;
  p.scheme = scheme;
  auto sim = MakeUniformSimulation(hw, p);

  const GridGeometry& g = sim->fields().geom;
  const FieldArray rho0 = DepositChargeDensity(*sim);
  FieldArray res0(g.nx, g.ny, g.nz, 2);
  GaussResidualField(sim->fields(), rho0, &res0);

  // The window closes before the second charge deposit, which charges the
  // ledger too.
  SchemePoint r;
  r.window = MeasureWindow(*sim, /*warmup=*/0, steps);

  const FieldArray rho1 = DepositChargeDensity(*sim);
  FieldArray res1(g.nx, g.ny, g.nz, 2);
  GaussResidualField(sim->fields(), rho1, &res1);

  r.cycles_per_step = r.window.cycles / steps;
  r.digest = FieldsDigest(sim->fields());
  r.residual = MaxResidualChange(res1, res0, GaussResidualScale(rho0));
  return r;
}

bool Run(int steps) {
  PrintThreadBanner();

  ConsoleTable t({"Order", "Cores", "Scheme", "Cycles/step", "Esirk/direct",
                  "Gauss residual", "Digest"});
  bool ok = true;
  for (int order : {1, 3}) {
    uint64_t one_core_digest[2] = {0, 0};  // per scheme
    for (int cores : {1, 4}) {
      double direct_cycles = 0.0;  // the ratio's baseline
      for (int s = 0; s < 2; ++s) {
        const CurrentScheme scheme =
            s == 0 ? CurrentScheme::kDirect : CurrentScheme::kEsirkepov;
        const SchemePoint pt =
            RunPoint(order, DepositVariant::kFullOpt, scheme, cores, steps);
        if (s == 0) {
          direct_cycles = pt.cycles_per_step;
        }
        // Invariant 1: per scheme, digests agree across core counts.
        if (cores == 1) {
          one_core_digest[s] = pt.digest;
        } else if (pt.digest != one_core_digest[s]) {
          ok = false;
          std::printf("order %d %s: CORES 1 VS %d DIGEST MISMATCH (BUG!)\n",
                      order, CurrentSchemeName(scheme), cores);
        }
        // Invariants 2/3: the residual contract per scheme.
        const bool residual_ok = scheme == CurrentScheme::kEsirkepov
                                     ? pt.residual < kEsirkepovTolerance
                                     : pt.residual > kDirectDriftFloor;
        ok = ok && residual_ok;
        t.AddRow({std::to_string(order), std::to_string(cores),
                  CurrentSchemeName(scheme), FormatSci(pt.cycles_per_step, 3),
                  s == 1 ? FormatDouble(pt.cycles_per_step / direct_cycles, 3)
                         : std::string("-"),
                  FormatSci(pt.residual, 2), DigestHex(pt.digest)});
        if (!residual_ok) {
          std::printf("order %d cores %d %s: residual %.3e violates the "
                      "%s contract (BUG!)\n",
                      order, cores, CurrentSchemeName(scheme), pt.residual,
                      scheme == CurrentScheme::kEsirkepov ? "rounding"
                                                          : "drift");
        }
      }
    }
  }
  t.Print("Current-scheme ablation: Esirkepov vs direct deposition (kFullOpt)");
  std::printf("\nInvariants %s: digests identical across cores, "
              "Esirkepov residual < %.0e, direct drift > %.0e.\n",
              ok ? "HOLD" : "VIOLATED", kEsirkepovTolerance, kDirectDriftFloor);

  // Invariant 4: the MOPA kernel keeps charge conservation within
  // kMaxMpuEsirkepovRatio of the direct scheme on every MPU variant. The VPU
  // variant's ratio (staged scalar-VPU combine, no MOPA) is the ungated
  // contrast row. Order 2 has no direct MPU comparator (the direct rhocell/MPU
  // kernels are CIC/QSP only), so the gate covers orders 1 and 3.
  struct VariantRow {
    DepositVariant v;
    bool gated;
  };
  const VariantRow variant_rows[] = {
      {DepositVariant::kFullOpt, true},
      {DepositVariant::kHybridGlobalSort, true},
      {DepositVariant::kHybridNoSort, true},
      {DepositVariant::kRhocellIncrSortVpu, false},
  };
  ConsoleTable mt({"Variant", "Order", "Direct cyc/step", "Esirk cyc/step",
                   "Esirk/direct", "Gate", "MPU occupancy"});
  for (const VariantRow& row : variant_rows) {
    for (int order : {1, 3}) {
      const SchemePoint direct = RunPoint(order, row.v, CurrentScheme::kDirect,
                                          /*cores=*/1, steps);
      const SchemePoint esirk = RunPoint(order, row.v, CurrentScheme::kEsirkepov,
                                         /*cores=*/1, steps);
      const double ratio = esirk.cycles_per_step / direct.cycles_per_step;
      const bool within = ratio <= kMaxMpuEsirkepovRatio;
      if (row.gated && !within) {
        ok = false;
        std::printf("%s order %d: Esirkepov/direct ratio %.3f exceeds the "
                    "%.2f MPU gate (BUG!)\n",
                    VariantName(row.v), order, ratio, kMaxMpuEsirkepovRatio);
      }
      mt.AddRow({VariantName(row.v), std::to_string(order),
                 FormatSci(direct.cycles_per_step, 3),
                 FormatSci(esirk.cycles_per_step, 3), FormatDouble(ratio, 3),
                 row.gated ? (within ? "<= 1.3 ok" : "EXCEEDED") : "(ungated)",
                 esirk.window.counters.mopas == 0
                     ? std::string("-")
                     : FormatDouble(100.0 * esirk.window.mpu_occupancy, 1) + "%"});
    }
  }
  mt.Print("Esirkepov cost across variants (1 core): the MOPA kernel "
           "pays <= 1.3x; the VPU combine shows the gap it closes");
  return ok;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv, {{"steps", 8, 1, mpic::kMaxBenchSteps}});
  return mpic::Run(args[0]) ? 0 : 1;
}
