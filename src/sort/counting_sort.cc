#include "src/sort/counting_sort.h"

#include "src/common/check.h"

namespace mpic {

std::vector<int32_t> CountingSortPermutation(const std::vector<int32_t>& cell_of_particle,
                                             int num_cells) {
  std::vector<int64_t> offsets;
  return CountingSortByCell(
      static_cast<int32_t>(cell_of_particle.size()), num_cells,
      [&](int32_t i) {
        const int32_t c = cell_of_particle[static_cast<size_t>(i)];
        MPIC_DCHECK(c >= 0);
        return c;
      },
      &offsets);
}

namespace {
template <typename T>
void ApplyPermutationImpl(const std::vector<int32_t>& perm, std::vector<T>& inout,
                          std::vector<T>& scratch) {
  MPIC_CHECK(perm.size() == inout.size());
  scratch.resize(inout.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    scratch[i] = inout[static_cast<size_t>(perm[i])];
  }
  inout.swap(scratch);
}
}  // namespace

void ApplyPermutation(const std::vector<int32_t>& perm, std::vector<double>& inout,
                      std::vector<double>& scratch) {
  ApplyPermutationImpl(perm, inout, scratch);
}
void ApplyPermutation(const std::vector<int32_t>& perm, std::vector<int64_t>& inout,
                      std::vector<int64_t>& scratch) {
  ApplyPermutationImpl(perm, inout, scratch);
}
void ApplyPermutation(const std::vector<int32_t>& perm, std::vector<int32_t>& inout,
                      std::vector<int32_t>& scratch) {
  ApplyPermutationImpl(perm, inout, scratch);
}

}  // namespace mpic
