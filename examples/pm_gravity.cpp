// Particle-Mesh mass deposition (paper Appendix B.2.2): the same scatter-add
// pattern in a different science domain.
//
// In cosmological N-body codes the PM method deposits particle *mass* onto a
// density grid (to solve Poisson's equation for gravity). Algorithmically this
// is isomorphic to PIC current deposition: Source = massive particles, Target
// = density grid, Operation = shape-function scatter-add. This example reuses
// the MatrixPIC deposition machinery verbatim for that workload — validating
// the paper's generality argument — by treating mass/cell_volume as the
// "charge" and comparing the hybrid MPU kernel against the scalar reference.
//
//   ./pm_gravity [n_cells_1d] [ppc1d]

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/deposit/deposit_baseline.h"
#include "src/deposit/deposit_mpu.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/deposit_scalar.h"
#include "src/deposit/deposit_staging.h"
#include "src/grid/field_set.h"
#include "src/particles/species.h"

int main(int argc, char** argv) {
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv, {{"n_cells_1d", 12, 2, 32}, {"ppc1d", 4, 1, 8}});
  const int n = args[0];
  const int ppc1d = args[1];

  // A "cosmological" box: Mpc-scale cells, solar-mass particles clustered into
  // a few halos (clustering is what stresses deposition locality).
  mpic::GridGeometry geom;
  geom.nx = geom.ny = geom.nz = n;
  geom.dx = geom.dy = geom.dz = 1.0;  // 1 "Mpc" cells (units are irrelevant here)
  mpic::ParticleTile tile(0, 0, 0, n, n, n);
  mpic::Rng rng(2026);
  const int total = n * n * n * ppc1d * ppc1d * ppc1d;
  const int kHalos = 8;
  double halo_x[kHalos], halo_y[kHalos], halo_z[kHalos];
  for (int h = 0; h < kHalos; ++h) {
    halo_x[h] = rng.Uniform(0.2 * n, 0.8 * n);
    halo_y[h] = rng.Uniform(0.2 * n, 0.8 * n);
    halo_z[h] = rng.Uniform(0.2 * n, 0.8 * n);
  }
  for (int i = 0; i < total; ++i) {
    mpic::Particle p;
    if (rng.Bernoulli(0.7)) {
      // Clustered: Gaussian blob around a halo center.
      const int h = static_cast<int>(rng.NextBelow(kHalos));
      p.x = geom.WrapX(halo_x[h] + rng.NextGaussian() * 0.8);
      p.y = geom.WrapY(halo_y[h] + rng.NextGaussian() * 0.8);
      p.z = geom.WrapZ(halo_z[h] + rng.NextGaussian() * 0.8);
    } else {
      p.x = rng.Uniform(0.0, geom.LengthX());
      p.y = rng.Uniform(0.0, geom.LengthY());
      p.z = rng.Uniform(0.0, geom.LengthZ());
    }
    // "Mass" rides in the weight; the deposition's velocity factor is defeated
    // by giving every particle ux = c (so wqx = mass_factor * w / volume).
    p.ux = 0.0;
    p.w = rng.Uniform(0.8, 1.2);  // solar masses (arbitrary units)
    tile.AddParticle(p);
  }
  // Cell-sort the tile (MatrixPIC's precondition; the GPMA keeps it cheap in a
  // dynamic simulation — here a one-shot global sort suffices).
  tile.GlobalSortTile(geom, mpic::GpmaConfig{});

  // Deposit mass with the hybrid MPU kernel. We reuse the current-deposition
  // engine with charge = 1 and a unit "velocity": J_x becomes mass density
  // after scaling. To express pure mass deposition through the current kernel,
  // give particles ux such that q*w*ux/(gamma*V) = w/V: ux<<c => gamma~1.
  const double u_small = 1e-3 * mpic::kSpeedOfLight;
  for (size_t i = 0; i < tile.soa().size(); ++i) {
    tile.soa().ux[i] = u_small;
  }
  mpic::DepositParams params;
  params.geom = geom;
  params.charge = 1.0 / u_small;  // q*ux ~= 1 (gamma correction ~5e-7)

  // Each context maps what its kernels touch into the model's logical
  // address space, the way DepositionEngine::RegisterRegions does: the
  // tile's SoA lanes and staging scratch (sized first, as the kernel would
  // size it), the rhocell blocks and the current arrays. Unregistered
  // arrays would be modeled at their host addresses, and the printed
  // kcycles would follow ASLR and the allocator.
  const uint64_t key = mpic::MemRegionKey(mpic::NextMemOwnerId(), 0, 0);
  auto register_regions = [&](mpic::HwContext& ctx,
                              const mpic::DepositScratch& staging,
                              mpic::RhocellBuffer* blocks,
                              const mpic::FieldSet& fields) {
    mpic::RegisterStagingRegions(ctx, key, tile, staging);
    auto reg = [&ctx](const std::vector<double>& v) {
      ctx.RegisterRegion(v.data(), v.size() * sizeof(double));
    };
    if (blocks != nullptr) {
      reg(blocks->jx());
      reg(blocks->jy());
      reg(blocks->jz());
    }
    for (const mpic::FieldArray* f : {&fields.jx, &fields.jy, &fields.jz}) {
      reg(f->vec());
    }
  };

  mpic::HwContext hw;
  mpic::FieldSet mpu_fields(geom, 2);
  mpic::DepositScratch scratch;
  scratch.Resize(
      static_cast<size_t>(mpic::DepositChunkSlots(tile, /*sorted=*/true)), 1);
  mpic::RhocellBuffer rhocell(tile.num_cells(), 1);
  register_regions(hw, scratch, &rhocell, mpu_fields);
  mpic::DepositMpu<1>(hw, tile, params, /*vpu_staging=*/true, scratch, rhocell,
                      mpic::MpuScheduling::kCellResident);
  mpic::ReduceRhocellToGrid<1>(hw, tile, rhocell, mpu_fields);
  mpu_fields.jx.FoldGuardsPeriodic();
  const double mpu_cycles = hw.ledger().TotalCycles();

  // Scalar reference for validation and the WarpX-style baseline (scalar
  // staging + direct scatter) for the speed comparison.
  mpic::HwContext hw_ref;
  mpic::FieldSet ref_fields(geom, 2);
  register_regions(hw_ref, mpic::DepositScratch{}, nullptr, ref_fields);
  mpic::DepositScalarTile<1>(hw_ref, tile, params, ref_fields);
  ref_fields.jx.FoldGuardsPeriodic();
  mpic::HwContext hw_base;
  mpic::FieldSet base_fields(geom, 2);
  mpic::DepositScratch base_scratch;
  base_scratch.Resize(
      static_cast<size_t>(mpic::DepositChunkSlots(tile, /*sorted=*/false)), 1);
  register_regions(hw_base, base_scratch, nullptr, base_fields);
  mpic::DepositBaselineTile<1>(hw_base, tile, params, base_scratch, base_fields,
                               /*sorted=*/false);

  const double err = mpic::RelMaxError(ref_fields.jx.vec(), mpu_fields.jx.vec());
  const double total_mass = mpu_fields.jx.InteriorSumUnique();
  double expected_mass = 0.0;
  for (size_t i = 0; i < tile.soa().size(); ++i) {
    expected_mass += tile.soa().w[i];
  }
  expected_mass /= geom.dx * geom.dy * geom.dz;

  std::printf("pm_gravity: %d particles (%d halos) on %d^3 grid\n", total, kHalos, n);
  std::printf("  mass on grid      : %.6e (expected %.6e, gamma skew %.1e)\n",
              total_mass, expected_mass,
              std::abs(total_mass / expected_mass - 1.0));
  std::printf("  MPU vs scalar err : %.3e (must be < 1e-6 incl. gamma skew)\n", err);
  std::printf("  modeled speedup   : %.2fx over the staged scalar baseline\n",
              hw_base.ledger().TotalCycles() / mpu_cycles);
  std::printf("                      (MPU %.0f vs baseline %.0f vs pure-scalar %.0f"
              " kcycles)\n",
              mpu_cycles / 1e3, hw_base.ledger().TotalCycles() / 1e3,
              hw_ref.ledger().TotalCycles() / 1e3);

  // Print the densest cells — the halos should dominate.
  std::printf("  densest cells:\n");
  for (int rank = 0; rank < 3; ++rank) {
    double best = -1.0;
    int bi = 0, bj = 0, bk = 0;
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          const double v = mpu_fields.jx.At(i, j, k);
          if (v > best) {
            best = v;
            bi = i;
            bj = j;
            bk = k;
          }
        }
      }
    }
    std::printf("    node (%2d,%2d,%2d): density %.3e\n", bi, bj, bk, best);
    mpu_fields.jx.At(bi, bj, bk) = -1.0;  // mask for next rank
  }
  return err < 1e-6 ? 0 : 1;
}
