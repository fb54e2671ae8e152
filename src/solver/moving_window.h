// Moving window support for laser-wakefield simulations (warpx.do_moving_window
// along z in the paper's Table 4).
//
// When the window advances by one cell, every field array shifts down one
// z-plane (the trailing plane leaves the domain, a fresh zeroed plane enters at
// the head) and the domain origin moves by dz. The simulation driver is
// responsible for dropping particles that fall behind the new origin and for
// injecting plasma into the freshly exposed slab.

#ifndef MPIC_SRC_SOLVER_MOVING_WINDOW_H_
#define MPIC_SRC_SOLVER_MOVING_WINDOW_H_

#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"

namespace mpic {

// Shifts E, B and J one cell towards -z in index space (window moves +z) and
// advances fields.geom.z0 by dz. Charged to Phase::kSolver, one (i, j)
// column block per worker (ParallelForChunks). rho is left alone: nothing
// writes it.
void ShiftWindowZ(HwContext& hw, FieldSet& fields);

// Tracks when the window should advance given the window velocity (usually c).
class MovingWindow {
 public:
  MovingWindow(double velocity, double dz) : velocity_(velocity), dz_(dz) {}

  // Advances the window clock by dt; returns the number of whole cells the
  // window front crossed (0 almost always, occasionally 1).
  int StepsToShift(double dt) {
    accumulated_ += velocity_ * dt;
    int shifts = 0;
    while (accumulated_ >= dz_) {
      accumulated_ -= dz_;
      ++shifts;
    }
    return shifts;
  }

  // Sub-cell window-front progress [m] — checkpoint/restart state: the next
  // shift step depends on it, so a restored run must carry it over exactly.
  double accumulated() const { return accumulated_; }
  void set_accumulated(double a) { accumulated_ = a; }

 private:
  double velocity_;
  double dz_;
  double accumulated_ = 0.0;
};

}  // namespace mpic

#endif  // MPIC_SRC_SOLVER_MOVING_WINDOW_H_
