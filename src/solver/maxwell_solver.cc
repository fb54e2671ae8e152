#include "src/solver/maxwell_solver.h"

#include <cmath>

#include "src/common/check.h"
#include "src/hw/parallel_for.h"
#include "src/particles/species.h"

namespace mpic {
namespace {

// CKC transverse smoothing weights for cubic cells (Cowan et al. 2013):
// center, edge, corner of the 3x3 transverse neighborhood.
constexpr double kCkcAlpha = 7.0 / 12.0;
constexpr double kCkcBeta = 1.0 / 12.0;
constexpr double kCkcGamma = 1.0 / 48.0;

// Cells of the k-slab [k_begin, k_end): the whole grid's NumCells() for the
// single slab of a one-core machine.
double SlabCells(const GridGeometry& g, int k_begin, int k_end) {
  return static_cast<double>(static_cast<int64_t>(g.nx) * g.ny *
                             (k_end - k_begin));
}

}  // namespace

MaxwellSolver::MaxwellSolver(SolverKind kind, const GridGeometry& geom)
    : kind_(kind), geom_(geom) {}

double MaxwellSolver::StableCourant() const {
  if (kind_ == SolverKind::kCkc) {
    return 1.0;
  }
  return 1.0 / std::sqrt(3.0);
}

void MaxwellSolver::UpdateB(HwContext& hw, FieldSet& fields, double dt_half) const {
  PhaseScope phase(hw.ledger(), Phase::kSolver);
  fields.ex.FillGuardsPeriodic();
  fields.ey.FillGuardsPeriodic();
  fields.ez.FillGuardsPeriodic();
  const double cy = dt_half / geom_.dy;
  const double cz = dt_half / geom_.dz;
  const double cx = dt_half / geom_.dx;
  const bool ckc = kind_ == SolverKind::kCkc;
  const FieldArray& ex = fields.ex;
  const FieldArray& ey = fields.ey;
  const FieldArray& ez = fields.ez;

  // Forward difference of `f` along `axis` at (i,j,k): f(shift +1) - f(..);
  // CKC averages the difference over the 3x3 transverse offsets. Faraday's
  // law carries the whole CKC extension (see the header): the leapfrog
  // dispersion only sees the product of the two curl symbols, and keeping
  // Ampère's curl plain Yee keeps the solver charge-conserving.
  auto diff = [&](const FieldArray& f, int axis, int i, int j, int k) -> double {
    auto raw = [&](int ii, int jj, int kk) -> double {
      switch (axis) {
        case 0:
          return f.At(ii + 1, jj, kk) - f.At(ii, jj, kk);
        case 1:
          return f.At(ii, jj + 1, kk) - f.At(ii, jj, kk);
        default:
          return f.At(ii, jj, kk + 1) - f.At(ii, jj, kk);
      }
    };
    if (!ckc) {
      return raw(i, j, k);
    }
    // Transverse axes (the two != axis).
    double acc = kCkcAlpha * raw(i, j, k);
    auto at_offset = [&](int m, int n) -> double {
      switch (axis) {
        case 0:
          return raw(i, j + m, k + n);
        case 1:
          return raw(i + m, j, k + n);
        default:
          return raw(i + m, j + n, k);
      }
    };
    acc += kCkcBeta * (at_offset(1, 0) + at_offset(-1, 0) + at_offset(0, 1) +
                       at_offset(0, -1));
    acc += kCkcGamma * (at_offset(1, 1) + at_offset(1, -1) + at_offset(-1, 1) +
                        at_offset(-1, -1));
    return acc;
  };

  const double flops_per_cell = ckc ? 108.0 : 18.0;
  // B(i,j,k) reads only E, so the k-slabs are independent.
  ParallelForChunks(hw, geom_.nz, [&](HwContext& ctx, int, int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      for (int j = 0; j < geom_.ny; ++j) {
        for (int i = 0; i < geom_.nx; ++i) {
          fields.bx.At(i, j, k) -=
              cy * diff(ez, 1, i, j, k) - cz * diff(ey, 2, i, j, k);
          fields.by.At(i, j, k) -=
              cz * diff(ex, 2, i, j, k) - cx * diff(ez, 0, i, j, k);
          fields.bz.At(i, j, k) -=
              cx * diff(ey, 0, i, j, k) - cy * diff(ex, 1, i, j, k);
        }
      }
    }
    const double cells = SlabCells(geom_, k_begin, k_end);
    ctx.ChargeBulk(cells * flops_per_cell, cells * 8.0 * (ckc ? 55.0 : 15.0));
  });
  fields.bx.FillGuardsPeriodic();
  fields.by.FillGuardsPeriodic();
  fields.bz.FillGuardsPeriodic();
}

void MaxwellSolver::UpdateE(HwContext& hw, FieldSet& fields, double dt,
                            bool staggered_j) const {
  PhaseScope phase(hw.ledger(), Phase::kSolver);
  fields.bx.FillGuardsPeriodic();
  fields.by.FillGuardsPeriodic();
  fields.bz.FillGuardsPeriodic();
  fields.jx.FillGuardsPeriodic();
  fields.jy.FillGuardsPeriodic();
  fields.jz.FillGuardsPeriodic();

  const double c2 = kSpeedOfLight * kSpeedOfLight;
  const double cdx = c2 * dt / geom_.dx;
  const double cdy = c2 * dt / geom_.dy;
  const double cdz = c2 * dt / geom_.dz;
  const double jfac = dt / kEpsilon0;

  const FieldArray& bx = fields.bx;
  const FieldArray& by = fields.by;
  const FieldArray& bz = fields.bz;
  const FieldArray& jx = fields.jx;
  const FieldArray& jy = fields.jy;
  const FieldArray& jz = fields.jz;
  // E(i,j,k) reads only B and J, so the k-slabs are independent.
  ParallelForChunks(hw, geom_.nz, [&](HwContext& ctx, int, int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      for (int j = 0; j < geom_.ny; ++j) {
        for (int i = 0; i < geom_.nx; ++i) {
          // Direct deposition: node-centered J averaged to the staggered E
          // locations. Esirkepov: entry (i,j,k) of jx already holds
          // Jx(i+1/2, j, k), exactly where Ex lives.
          const double jx_s =
              staggered_j ? jx.At(i, j, k)
                          : 0.5 * (jx.At(i, j, k) + jx.At(i + 1, j, k));
          const double jy_s =
              staggered_j ? jy.At(i, j, k)
                          : 0.5 * (jy.At(i, j, k) + jy.At(i, j + 1, k));
          const double jz_s =
              staggered_j ? jz.At(i, j, k)
                          : 0.5 * (jz.At(i, j, k) + jz.At(i, j, k + 1));
          fields.ex.At(i, j, k) +=
              cdy * (bz.At(i, j, k) - bz.At(i, j - 1, k)) -
              cdz * (by.At(i, j, k) - by.At(i, j, k - 1)) - jfac * jx_s;
          fields.ey.At(i, j, k) +=
              cdz * (bx.At(i, j, k) - bx.At(i, j, k - 1)) -
              cdx * (bz.At(i, j, k) - bz.At(i - 1, j, k)) - jfac * jy_s;
          fields.ez.At(i, j, k) +=
              cdx * (by.At(i, j, k) - by.At(i - 1, j, k)) -
              cdy * (bx.At(i, j, k) - bx.At(i, j - 1, k)) - jfac * jz_s;
        }
      }
    }
    const double cells = SlabCells(geom_, k_begin, k_end);
    ctx.ChargeBulk(cells * 30.0, cells * 8.0 * 20.0);
  });
  fields.ex.FillGuardsPeriodic();
  fields.ey.FillGuardsPeriodic();
  fields.ez.FillGuardsPeriodic();
}

}  // namespace mpic
