#include "src/core/deposit_variant.h"

namespace mpic {

VariantTraits TraitsOf(DepositVariant v) {
  VariantTraits t;
  switch (v) {
    case DepositVariant::kScalar:
      t.kernel = KernelKind::kScalarReference;
      break;
    case DepositVariant::kBaseline:
      t.kernel = KernelKind::kBaselineScatter;
      break;
    case DepositVariant::kBaselineIncrSort:
      t.sort_mode = SortMode::kIncremental;
      t.kernel = KernelKind::kBaselineScatter;
      t.sorted_iteration = true;
      break;
    case DepositVariant::kRhocell:
      t.kernel = KernelKind::kRhocellAutoVec;
      t.uses_rhocell = true;
      break;
    case DepositVariant::kRhocellIncrSort:
      t.sort_mode = SortMode::kIncremental;
      t.kernel = KernelKind::kRhocellAutoVec;
      t.sorted_iteration = true;
      t.uses_rhocell = true;
      break;
    case DepositVariant::kRhocellIncrSortVpu:
      t.sort_mode = SortMode::kIncremental;
      t.vpu_staging = true;
      t.kernel = KernelKind::kRhocellVpu;
      t.sorted_iteration = true;
      t.uses_rhocell = true;
      break;
    case DepositVariant::kMatrixOnly:
      t.sort_mode = SortMode::kIncremental;
      t.kernel = KernelKind::kMpu;
      t.sorted_iteration = true;
      t.uses_rhocell = true;
      t.uses_mpu = true;
      break;
    case DepositVariant::kHybridNoSort:
      t.vpu_staging = true;
      t.kernel = KernelKind::kMpu;
      t.uses_rhocell = true;
      t.uses_mpu = true;
      break;
    case DepositVariant::kHybridGlobalSort:
      t.sort_mode = SortMode::kGlobalEachStep;
      t.vpu_staging = true;
      t.kernel = KernelKind::kMpu;
      t.sorted_iteration = true;
      t.uses_rhocell = true;
      t.uses_mpu = true;
      break;
    case DepositVariant::kFullOpt:
      t.sort_mode = SortMode::kIncremental;
      t.vpu_staging = true;
      t.kernel = KernelKind::kMpu;
      t.sorted_iteration = true;
      t.uses_rhocell = true;
      t.uses_mpu = true;
      break;
  }
  return t;
}

const char* VariantName(DepositVariant v) {
  switch (v) {
    case DepositVariant::kScalar:
      return "Scalar";
    case DepositVariant::kBaseline:
      return "Baseline (WarpX)";
    case DepositVariant::kBaselineIncrSort:
      return "Baseline+IncrSort";
    case DepositVariant::kRhocell:
      return "Rhocell (auto-vec)";
    case DepositVariant::kRhocellIncrSort:
      return "Rhocell+IncrSort";
    case DepositVariant::kRhocellIncrSortVpu:
      return "Rhocell+IncrSort (VPU)";
    case DepositVariant::kMatrixOnly:
      return "Matrix-only";
    case DepositVariant::kHybridNoSort:
      return "Hybrid-noSort";
    case DepositVariant::kHybridGlobalSort:
      return "Hybrid-GlobalSort";
    case DepositVariant::kFullOpt:
      return "MatrixPIC (FullOpt)";
  }
  return "?";
}

const char* CurrentSchemeName(CurrentScheme s) {
  switch (s) {
    case CurrentScheme::kDirect:
      return "Direct";
    case CurrentScheme::kEsirkepov:
      return "Esirkepov";
  }
  return "?";
}

}  // namespace mpic
