// Counting sort of particles by cell id (the paper's GlobalSortParticlesByCell).
//
// Produces the stable permutation that orders particles by cell, plus helpers to
// apply a permutation to Structure-of-Arrays particle storage. O(n + num_cells).

#ifndef MPIC_SRC_SORT_COUNTING_SORT_H_
#define MPIC_SRC_SORT_COUNTING_SORT_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace mpic {

// Stable counting sort of the indices [0, n) by cell: returns the indices in
// cell order (ascending within a cell), skipping those whose cell_of(i) is
// negative, and fills *offsets with the num_cells + 1 bin starts. cell_of is
// called twice per index, so callers need not store the cells.
template <typename CellOf>
std::vector<int32_t> CountingSortByCell(int32_t n, int num_cells,
                                        const CellOf& cell_of,
                                        std::vector<int64_t>* offsets) {
  MPIC_CHECK(num_cells > 0);
  offsets->assign(static_cast<size_t>(num_cells) + 1, 0);
  for (int32_t i = 0; i < n; ++i) {
    const int c = cell_of(i);
    MPIC_DCHECK(c < num_cells);
    if (c >= 0) {
      ++(*offsets)[static_cast<size_t>(c) + 1];
    }
  }
  for (size_t c = 1; c <= static_cast<size_t>(num_cells); ++c) {
    (*offsets)[c] += (*offsets)[c - 1];
  }
  std::vector<int32_t> sorted(static_cast<size_t>(offsets->back()));
  std::vector<int64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (int32_t i = 0; i < n; ++i) {
    const int c = cell_of(i);
    if (c >= 0) {
      sorted[static_cast<size_t>(cursor[static_cast<size_t>(c)]++)] = i;
    }
  }
  return sorted;
}

// perm[i] = index (into the old order) of the particle that lands at slot i of
// the new order. Stable within a cell.
std::vector<int32_t> CountingSortPermutation(const std::vector<int32_t>& cell_of_particle,
                                             int num_cells);

// out[i] = in[perm[i]] for one SoA component.
void ApplyPermutation(const std::vector<int32_t>& perm, std::vector<double>& inout,
                      std::vector<double>& scratch);
void ApplyPermutation(const std::vector<int32_t>& perm, std::vector<int64_t>& inout,
                      std::vector<int64_t>& scratch);
void ApplyPermutation(const std::vector<int32_t>& perm, std::vector<int32_t>& inout,
                      std::vector<int32_t>& scratch);

}  // namespace mpic

#endif  // MPIC_SRC_SORT_COUNTING_SORT_H_
