#include "src/hw/fma.h"

#include <cmath>

namespace mpic {
namespace {

void OuterPortable(MpuTileReg& tile, const Vec8& a, const Vec8& b) {
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      tile.At(r, c) = std::fma(a[r], b[c], tile.At(r, c));
    }
  }
}

void LanesPortable(Vec8& out, const Vec8& a, const Vec8& b, const Vec8& c) {
  for (int i = 0; i < kVpuLanes; ++i) {
    out[i] = std::fma(a[i], b[i], c[i]);
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MPIC_FMA_NATIVE 1

// The operands are copied to locals so the compiler knows they cannot alias
// the output and vectorizes the loops (one fused op per lane either way).
__attribute__((target("fma"))) void OuterNative(MpuTileReg& tile, const Vec8& a,
                                                const Vec8& b) {
  const Vec8 ra = a;
  const Vec8 rb = b;
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      tile.At(r, c) = std::fma(ra[r], rb[c], tile.At(r, c));
    }
  }
}

__attribute__((target("fma"))) void LanesNative(Vec8& out, const Vec8& a,
                                                const Vec8& b, const Vec8& c) {
  const Vec8 ra = a;
  const Vec8 rb = b;
  const Vec8 rc = c;
  for (int i = 0; i < kVpuLanes; ++i) {
    out[i] = std::fma(ra[i], rb[i], rc[i]);
  }
}

bool HostHasFma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma");
}
#endif

}  // namespace

const FmaKernels& PortableFmaKernels() {
  static const FmaKernels kernels{OuterPortable, LanesPortable};
  return kernels;
}

const FmaKernels* NativeFmaKernels() {
#ifdef MPIC_FMA_NATIVE
  static const FmaKernels kernels{OuterNative, LanesNative};
  static const bool available = HostHasFma();
  return available ? &kernels : nullptr;
#else
  return nullptr;
#endif
}

const FmaKernels& HostFmaKernels() {
  static const FmaKernels& kernels =
      NativeFmaKernels() != nullptr ? *NativeFmaKernels() : PortableFmaKernels();
  return kernels;
}

}  // namespace mpic
