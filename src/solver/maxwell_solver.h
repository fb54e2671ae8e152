// Electromagnetic field solvers on the staggered Yee mesh.
//
// Two curl discretizations are provided, matching the paper's WarpX setup
// (Sec. 5.2 uses the CKC solver with warpx.cfl = 1.0):
//
//   kYee — the classic Yee FDTD solver. In 3D it is stable only up to
//     c*dt <= dx/sqrt(3) for cubic cells.
//   kCkc — the Cole-Karkkainen-Cowan solver: the E-field differences entering
//     the B update (Faraday's law) are smoothed over the 3x3 transverse
//     neighborhood with weights alpha = 7/12, beta = 1/12, gamma = 1/48
//     (cubic cells), which extends the stability limit to c*dt <= dx —
//     exactly why the paper can run at CFL 1.0. The smoothing lives in
//     Faraday's law, not Ampère's: the leapfrog dispersion relation only sees
//     the product of the two curl symbols (so stability is unchanged), while
//     Ampère keeps the plain Yee curl, whose divergence vanishes identically
//     under the standard backward-difference divergence. That makes the
//     solver charge-conserving: with a continuity-exact J (the Esirkepov
//     scheme) div E - rho/eps0 is a constant of the discrete evolution.
//
// Layout convention: all component arrays are allocated node-shaped (see
// FieldSet); the half-cell staggering is carried by the index arithmetic.
// Array entry (i,j,k) of Ex holds Ex(i+1/2, j, k), of Bx holds
// Bx(i, j+1/2, k+1/2), etc. Direct-deposition J is node-centered and averaged
// onto the E-staggering inside the E update; the Esirkepov scheme deposits J
// already face-centered and the caller passes staggered_j = true to consume
// it in place (averaging would smear the telescoped continuity sums).

#ifndef MPIC_SRC_SOLVER_MAXWELL_SOLVER_H_
#define MPIC_SRC_SOLVER_MAXWELL_SOLVER_H_

#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"

namespace mpic {

enum class SolverKind {
  kYee,
  kCkc,
};

class MaxwellSolver {
 public:
  MaxwellSolver(SolverKind kind, const GridGeometry& geom);

  // Advances B by dt_half using the (CKC-smoothed) curl of E (call twice per
  // step around the E update, leapfrog style). Fills periodic guards
  // internally. Both updates are pointwise, so the interior sweep fans out
  // as one contiguous k-slab per worker (ParallelForChunks), each billing its
  // own cells; the guard fills stay serial between the regions.
  void UpdateB(HwContext& hw, FieldSet& fields, double dt_half) const;

  // Advances E by dt using the plain Yee curl of B and the current density J.
  // With staggered_j = false (direct deposition) J is node-centered and
  // averaged to the staggered E locations; with true (Esirkepov) each J entry
  // is already at its Yee face and consumed in place.
  void UpdateE(HwContext& hw, FieldSet& fields, double dt,
               bool staggered_j = false) const;

  SolverKind kind() const { return kind_; }

  // Largest stable c*dt/dx for cubic cells under this solver.
  double StableCourant() const;

 private:
  SolverKind kind_;
  GridGeometry geom_;
};

}  // namespace mpic

#endif  // MPIC_SRC_SOLVER_MAXWELL_SOLVER_H_
