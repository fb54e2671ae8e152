// A 3D node-centered field array with guard cells.
//
// Layout: x fastest, then y, then z (Fortran-like in x). Interior node indices
// run over [0, nx] x [0, ny] x [0, nz]; guard nodes extend `ng` further on each
// side so that order-3 deposition from boundary cells and stencil solves never
// branch. Periodic folding of guard contributions is provided for deposition,
// and guard filling for gather/stencils.

#ifndef MPIC_SRC_GRID_FIELD_ARRAY_H_
#define MPIC_SRC_GRID_FIELD_ARRAY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"

namespace mpic {

// Half-open range [begin, end) of global z node planes (k indices, guard
// planes included). The default range holds every plane.
struct ZPlanes {
  int begin = std::numeric_limits<int>::min();
  int end = std::numeric_limits<int>::max();
  bool Contains(int k) const { return k >= begin && k < end; }
};

class FieldArray {
 public:
  FieldArray() = default;
  // nx/ny/nz are *cell* counts; the array holds (n+1) interior nodes per axis
  // plus ng guard nodes on each side.
  FieldArray(int nx, int ny, int nz, int ng);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int ng() const { return ng_; }
  // Allocated nodes per axis.
  int sx() const { return sx_; }
  int sy() const { return sy_; }
  int sz() const { return sz_; }

  // Linear index of node (i,j,k); i in [-ng, nx+ng].
  int64_t Index(int i, int j, int k) const {
    MPIC_DCHECK(i >= -ng_ && i <= nx_ + ng_);
    MPIC_DCHECK(j >= -ng_ && j <= ny_ + ng_);
    MPIC_DCHECK(k >= -ng_ && k <= nz_ + ng_);
    return (i + ng_) +
           static_cast<int64_t>(sx_) * ((j + ng_) + static_cast<int64_t>(sy_) * (k + ng_));
  }

  double& At(int i, int j, int k) { return data_[static_cast<size_t>(Index(i, j, k))]; }
  double At(int i, int j, int k) const {
    return data_[static_cast<size_t>(Index(i, j, k))];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  std::vector<double>& vec() { return data_; }
  const std::vector<double>& vec() const { return data_; }

  void Fill(double v);

  // Adds guard-node contributions into their periodic images and zeroes the
  // guards (post-deposition step). Node n and node n % N are identified, where
  // N = cells along the axis.
  void FoldGuardsPeriodic();

  // Copies interior values into guard nodes assuming periodicity (pre-gather /
  // pre-stencil step).
  void FillGuardsPeriodic();

  // Sum over interior nodes counting each periodic image once (i in [0, nx-1]).
  double InteriorSumUnique() const;

 private:
  int WrapInterior(int i, int n) const;

  int nx_ = 0, ny_ = 0, nz_ = 0;
  int ng_ = 0;
  int sx_ = 0, sy_ = 0, sz_ = 0;
  std::vector<double> data_;
};

}  // namespace mpic

#endif  // MPIC_SRC_GRID_FIELD_ARRAY_H_
