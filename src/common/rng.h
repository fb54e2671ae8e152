// Deterministic pseudo-random number generation for particle initialization and
// property tests.
//
// We use xoshiro256++ (Blackman & Vigna) rather than std::mt19937 because it is
// faster, has a tiny state, and — critically for reproducible experiments — its
// output is fully specified here, independent of the standard library build.

#ifndef MPIC_SRC_COMMON_RNG_H_
#define MPIC_SRC_COMMON_RNG_H_

#include <cstdint>

namespace mpic {

// Mixes a 64-bit value through the SplitMix64 finalizer (a strong bijective
// hash). Exposed for the digest helpers.
uint64_t Mix64(uint64_t x);

// xoshiro256++ generator with SplitMix64 seeding.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  // Returns true with probability p.
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace mpic

#endif  // MPIC_SRC_COMMON_RNG_H_
