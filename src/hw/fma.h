// Fused multiply-add kernels behind HwContext::Mopa and HwContext::VFma.
//
// Every element is one std::fma: a*b + c rounded once. The build keeps the
// baseline ISA, where std::fma is a library call per element, so on x86-64
// with GCC or Clang the kernels are also compiled for the FMA instruction set
// and used when the host CPU has it. The only arithmetic in the FMA copies is
// std::fma: the compiler would contract any other a*b + c in them into an FMA
// and change its rounding. Both paths give identical bits; hosts without the
// instruction path run the portable loops.

#ifndef MPIC_SRC_HW_FMA_H_
#define MPIC_SRC_HW_FMA_H_

#include "src/hw/vec.h"

namespace mpic {

struct FmaKernels {
  // tile(r, c) = fma(a[r], b[c], tile(r, c)) for every slot.
  void (*outer)(MpuTileReg& tile, const Vec8& a, const Vec8& b);
  // out[i] = fma(a[i], b[i], c[i]) for every lane.
  void (*lanes)(Vec8& out, const Vec8& a, const Vec8& b, const Vec8& c);
};

// Plain loops over std::fma; run on every host.
const FmaKernels& PortableFmaKernels();

// The FMA-instruction kernels, or null when the build has none or the host
// CPU lacks the instruction.
const FmaKernels* NativeFmaKernels();

// The kernels this host runs: native when available, else portable.
const FmaKernels& HostFmaKernels();

}  // namespace mpic

#endif  // MPIC_SRC_HW_FMA_H_
