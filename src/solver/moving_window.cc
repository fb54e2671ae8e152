#include "src/solver/moving_window.h"

#include <algorithm>

#include "src/hw/parallel_for.h"

namespace mpic {
namespace {

// Shifts the (i, j) columns [begin, end) of `f` one node towards -z through
// every k, zeroing the fresh head node. Column c is node c of each z-plane
// (i fastest), so a column block touches disjoint memory at every k.
void ShiftColumnsZ(FieldArray& f, int begin, int end) {
  const int64_t plane = static_cast<int64_t>(f.sx()) * f.sy();
  double* const data = f.data();
  for (int k = 0; k + 1 < f.sz(); ++k) {
    double* dst = data + k * plane;
    std::copy(dst + plane + begin, dst + plane + end, dst + begin);
  }
  double* head = data + (f.sz() - 1) * plane;
  std::fill(head + begin, head + end, 0.0);
}

}  // namespace

void ShiftWindowZ(HwContext& hw, FieldSet& fields) {
  PhaseScope phase(hw.ledger(), Phase::kSolver);
  // rho is not shifted: no stage writes it (FieldSet::rho).
  FieldArray* arrays[] = {&fields.ex, &fields.ey, &fields.ez,
                          &fields.bx, &fields.by, &fields.bz,
                          &fields.jx, &fields.jy, &fields.jz};
  // Workers shift disjoint column blocks through all k. A split along k would
  // race: plane k reads plane k + 1 in place.
  const int plane = fields.ex.sx() * fields.ex.sy();
  ParallelForChunks(hw, plane, [&](HwContext& ctx, int, int begin, int end) {
    for (FieldArray* f : arrays) {
      ShiftColumnsZ(*f, begin, end);
    }
    // Streaming copy of nine arrays.
    const double nodes =
        static_cast<double>(static_cast<size_t>(end - begin) * fields.ex.sz());
    ctx.ChargeBulk(0.0, nodes * sizeof(double) * 2.0 * 9.0);
  });
  fields.geom.z0 += fields.geom.dz;
}

}  // namespace mpic
