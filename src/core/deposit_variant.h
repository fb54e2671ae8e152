// The deposition configurations evaluated in the paper (Sec. 5.2.1), expressed
// as a variant enum plus derived execution traits.
//
// Ablation set (Fig. 10):   kBaseline, kMatrixOnly, kHybridNoSort,
//                           kHybridGlobalSort, kFullOpt.
// VPU comparison set (T1/2): kBaseline, kBaselineIncrSort, kRhocell,
//                           kRhocellIncrSort, kRhocellIncrSortVpu, kFullOpt.

#ifndef MPIC_SRC_CORE_DEPOSIT_VARIANT_H_
#define MPIC_SRC_CORE_DEPOSIT_VARIANT_H_

namespace mpic {

enum class DepositVariant {
  kScalar,              // plain scalar loop (reference)
  kBaseline,            // WarpX auto-vectorized kernel, unsorted
  kBaselineIncrSort,    // baseline kernel + incremental sorting
  kRhocell,             // compiler-vectorized rhocell, unsorted
  kRhocellIncrSort,     // compiler-vectorized rhocell + incremental sorting
  kRhocellIncrSortVpu,  // hand-tuned VPU rhocell + incremental sorting
  kMatrixOnly,          // MPU kernel with scalar staging + incremental sorting
  kHybridNoSort,        // hybrid VPU-MPU kernel, no sorting (pairwise tiles)
  kHybridGlobalSort,    // hybrid kernel + full global sort every step
  kFullOpt,             // MatrixPIC: hybrid kernel + incremental sort + policy
};

// Which current deposition the engine runs — orthogonal to DepositVariant.
// The variant picks the execution machinery (sorting, staging cost profile,
// kernel); the scheme picks the physics of how J is formed from the particles:
//
//   kDirect    — J from the instantaneous velocity, q*v*S(x). Fast and the
//                paper's configuration, but it does not satisfy the discrete
//                continuity equation, so div E - rho/eps0 drifts over time.
//   kEsirkepov — charge-conserving density decomposition (Esirkepov, CPC 135,
//                2001): J from each particle's *motion* between its pre-push
//                and post-push position, so (rho_new - rho_old)/dt + div J = 0
//                holds to rounding for any shape order. Requires the pipeline
//                to capture pre-push positions (ParticleSoA old-position
//                lanes) and replaces the variant's J kernel with the staged
//                tile-local Esirkepov kernel; the variant's sort machinery,
//                staging cost profile, and re-sort policy still apply.
enum class CurrentScheme {
  kDirect,
  kEsirkepov,
};

enum class SortMode {
  kNone,
  kIncremental,     // GPMA maintenance + adaptive global resort policy
  kGlobalEachStep,  // counting sort of every tile every step
};

enum class KernelKind {
  kScalarReference,
  kBaselineScatter,
  kRhocellAutoVec,
  kRhocellVpu,
  kMpu,
};

struct VariantTraits {
  SortMode sort_mode = SortMode::kNone;
  // Cost profile of the staging: hand-vectorized when set, otherwise the
  // scalar loop that models compiler-emitted staging (the scalar reference
  // kernel stages nothing; the Esirkepov scheme stages with this profile).
  bool vpu_staging = false;
  KernelKind kernel = KernelKind::kBaselineScatter;
  // Kernel iterates cell-by-cell through the GPMA (requires a sort mode that
  // keeps the GPMA valid).
  bool sorted_iteration = false;
  bool uses_rhocell = false;
  bool uses_mpu = false;
};

VariantTraits TraitsOf(DepositVariant v);
const char* VariantName(DepositVariant v);
const char* CurrentSchemeName(CurrentScheme s);

}  // namespace mpic

#endif  // MPIC_SRC_CORE_DEPOSIT_VARIANT_H_
