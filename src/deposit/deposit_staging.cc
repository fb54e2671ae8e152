#include "src/deposit/deposit_staging.h"

#include <algorithm>
#include <cmath>

#include "src/particles/species.h"
#include "src/shape/shape_function.h"

namespace mpic {
namespace {

// Scalar ALU op estimate for one particle's staging at a given order: index
// math (3 axes), shape terms, gamma/velocity, and current factors.
template <int Order>
constexpr int ScalarStagingOps() {
  constexpr int kIndexOps = 9;                        // gx, floor, d per axis
  constexpr int kShapeOps = Order == 1 ? 3 : (Order == 2 ? 15 : 27);
  constexpr int kVelocityOps = 12;                    // u^2, gamma, 1/gamma, v
  constexpr int kCurrentOps = 6;                      // q*v*w*inv_vol
  return kIndexOps + kShapeOps + kVelocityOps + kCurrentOps;
}

// VPU instruction estimate for an 8-particle staging batch.
template <int Order>
constexpr int VpuStagingOps() {
  constexpr int kIndexOps = 12;  // fused gx/floor/d per axis
  constexpr int kShapeOps = Order == 1 ? 3 : (Order == 2 ? 12 : 21);
  constexpr int kVelocityOps = 9;  // 3 fma + sqrt (2) + recip (2) + 2 mul
  constexpr int kCurrentOps = 6;
  return kIndexOps + kShapeOps + kVelocityOps + kCurrentOps;
}

// Stages SoA particle `i` into chunk slot `slot`. Pure arithmetic.
template <int Order>
void StageOneParticle(const ParticleSoA& soa, size_t i, size_t slot,
                      const DepositParams& params, DepositScratch& scratch) {
  constexpr int kSupport = Order + 1;
  const GridGeometry& g = params.geom;
  const double gx = (soa.x[i] - g.x0) / g.dx;
  const double gy = (soa.y[i] - g.y0) / g.dy;
  const double gz = (soa.z[i] - g.z0) / g.dz;

  int start_x, start_y, start_z;
  double wx[4], wy[4], wz[4];
  ShapeFunction<Order>::Weights(gx, &start_x, wx);
  ShapeFunction<Order>::Weights(gy, &start_y, wy);
  ShapeFunction<Order>::Weights(gz, &start_z, wz);

  scratch.ix[slot] = static_cast<int32_t>(start_x);
  scratch.iy[slot] = static_cast<int32_t>(start_y);
  scratch.iz[slot] = static_cast<int32_t>(start_z);
  for (int t = 0; t < kSupport; ++t) {
    scratch.sx[t][slot] = wx[t];
    scratch.sy[t][slot] = wy[t];
    scratch.sz_[t][slot] = wz[t];
  }

  const double ux = soa.ux[i];
  const double uy = soa.uy[i];
  const double uz = soa.uz[i];
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  const double gamma = std::sqrt(1.0 + (ux * ux + uy * uy + uz * uz) * inv_c2);
  const double inv_gamma = 1.0 / gamma;
  const double qw = params.charge * soa.w[i] * params.InvCellVolume();
  scratch.wqx[slot] = qw * ux * inv_gamma;
  scratch.wqy[slot] = qw * uy * inv_gamma;
  scratch.wqz[slot] = qw * uz * inv_gamma;
}

// The scalar profile for one particle: scalar loads of the seven SoA streams,
// scalar staging math, scalar stores of the staged values into `slot`.
template <int Order>
void StageOneScalar(HwContext& hw, const ParticleSoA& soa, size_t i, size_t slot,
                    const DepositParams& params, DepositScratch& scratch) {
  constexpr int kSupport = Order + 1;
  // Loads: x, y, z, ux, uy, uz, w.
  hw.TouchRead(&soa.x[i], sizeof(double));
  hw.TouchRead(&soa.y[i], sizeof(double));
  hw.TouchRead(&soa.z[i], sizeof(double));
  hw.TouchRead(&soa.ux[i], sizeof(double));
  hw.TouchRead(&soa.uy[i], sizeof(double));
  hw.TouchRead(&soa.uz[i], sizeof(double));
  hw.TouchRead(&soa.w[i], sizeof(double));
  hw.ScalarOps(ScalarStagingOps<Order>());
  StageOneParticle<Order>(soa, i, slot, params, scratch);
  // Stores: 3 int indices, 3*kSupport shape terms, 3 current factors.
  hw.TouchWrite(&scratch.ix[slot], sizeof(int32_t));
  hw.TouchWrite(&scratch.iy[slot], sizeof(int32_t));
  hw.TouchWrite(&scratch.iz[slot], sizeof(int32_t));
  for (int t = 0; t < kSupport; ++t) {
    hw.TouchWrite(&scratch.sx[t][slot], sizeof(double));
    hw.TouchWrite(&scratch.sy[t][slot], sizeof(double));
    hw.TouchWrite(&scratch.sz_[t][slot], sizeof(double));
  }
  hw.TouchWrite(&scratch.wqx[slot], sizeof(double));
  hw.TouchWrite(&scratch.wqy[slot], sizeof(double));
  hw.TouchWrite(&scratch.wqz[slot], sizeof(double));
}

}  // namespace

template <int Order>
void StageChunk(HwContext& hw, const ParticleSoA& soa, const DepositParams& params,
                bool vpu_staging, const int32_t* pids, int32_t count,
                DepositScratch& scratch) {
  PhaseScope phase(hw.ledger(), Phase::kPreproc);
  if (!vpu_staging) {
    for (int32_t k = 0; k < count; ++k) {
      StageOneScalar<Order>(hw, soa, static_cast<size_t>(pids[k]),
                            static_cast<size_t>(k), params, scratch);
    }
    return;
  }
  constexpr int kSupport = Order + 1;
  for (int32_t base = 0; base < count; base += kVpuLanes) {
    const int batch = std::min<int32_t>(kVpuLanes, count - base);
    int64_t idx[kVpuLanes];
    for (int j = 0; j < batch; ++j) {
      idx[j] = pids[base + j];
    }
    // Indexed loads of the seven SoA streams.
    const Mask8 m = Mask8::FirstN(batch);
    for (const auto* stream : {&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz,
                               &soa.w}) {
      hw.VGatherAuto(stream->data(), idx, m);
    }
    // Vectorized staging arithmetic for the batch (charged in one go; the real
    // per-lane arithmetic runs below).
    hw.ledger().counters().vpu_ops += static_cast<uint64_t>(VpuStagingOps<Order>());
    hw.ChargeCycles(VpuStagingOps<Order>() /
                    static_cast<double>(hw.cfg().vpu_pipes));
    for (int j = 0; j < batch; ++j) {
      StageOneParticle<Order>(soa, static_cast<size_t>(idx[j]),
                              static_cast<size_t>(base + j), params, scratch);
    }
    // Vector stores of the staged streams.
    const auto b = static_cast<size_t>(base);
    const auto n = static_cast<size_t>(batch);
    hw.TouchWrite(&scratch.ix[b], sizeof(int32_t) * n);
    hw.TouchWrite(&scratch.iy[b], sizeof(int32_t) * n);
    hw.TouchWrite(&scratch.iz[b], sizeof(int32_t) * n);
    for (int t = 0; t < kSupport; ++t) {
      hw.TouchWrite(&scratch.sx[t][b], sizeof(double) * n);
      hw.TouchWrite(&scratch.sy[t][b], sizeof(double) * n);
      hw.TouchWrite(&scratch.sz_[t][b], sizeof(double) * n);
    }
    hw.TouchWrite(&scratch.wqx[b], sizeof(double) * n);
    hw.TouchWrite(&scratch.wqy[b], sizeof(double) * n);
    hw.TouchWrite(&scratch.wqz[b], sizeof(double) * n);
    hw.ledger().counters().vpu_mem += static_cast<uint64_t>(6 + 3 * kSupport);
  }
}

template <int Order>
void LoadStagedBatch(HwContext& hw, const DepositScratch& scratch, int32_t first,
                     int count) {
  constexpr int kSupport = Order + 1;
  int64_t slots[kVpuLanes];
  for (int j = 0; j < count; ++j) {
    slots[j] = first + j;
  }
  const Mask8 m = Mask8::FirstN(count);
  for (int t = 0; t < kSupport; ++t) {
    hw.VGatherAuto(scratch.sx[t].data(), slots, m);
    hw.VGatherAuto(scratch.sy[t].data(), slots, m);
    hw.VGatherAuto(scratch.sz_[t].data(), slots, m);
  }
  hw.VGatherAuto(scratch.wqx.data(), slots, m);
  hw.VGatherAuto(scratch.wqy.data(), slots, m);
  hw.VGatherAuto(scratch.wqz.data(), slots, m);
}

void RegisterStagingRegions(HwContext& hw, uint64_t tile_key_base,
                            const ParticleTile& tile, const DepositScratch& scratch) {
  const ParticleSoA& soa = tile.soa();
  if (soa.size() == 0) {
    return;
  }
  uint64_t key = tile_key_base;
  auto reg = [&hw, &key](const auto& v) {
    const uint64_t k = key++;
    if (!v.empty()) {
      hw.RegisterRegionKeyed(k, v.data(), v.size() * sizeof(v[0]));
    }
  };
  reg(soa.x);
  reg(soa.y);
  reg(soa.z);
  reg(soa.ux);
  reg(soa.uy);
  reg(soa.uz);
  reg(soa.w);
  reg(soa.xo);
  reg(soa.yo);
  reg(soa.zo);
  reg(scratch.ix);
  reg(scratch.iy);
  reg(scratch.iz);
  for (int t = 0; t < 4; ++t) {
    reg(scratch.sx[t]);
    reg(scratch.sy[t]);
    reg(scratch.sz_[t]);
  }
  reg(scratch.wqx);
  reg(scratch.wqy);
  reg(scratch.wqz);
  reg(tile.gpma().local_index());
  reg(scratch.w3);
}

template void LoadStagedBatch<1>(HwContext&, const DepositScratch&, int32_t, int);
template void LoadStagedBatch<3>(HwContext&, const DepositScratch&, int32_t, int);
template void StageChunk<1>(HwContext&, const ParticleSoA&, const DepositParams&,
                            bool, const int32_t*, int32_t, DepositScratch&);
template void StageChunk<2>(HwContext&, const ParticleSoA&, const DepositParams&,
                            bool, const int32_t*, int32_t, DepositScratch&);
template void StageChunk<3>(HwContext&, const ParticleSoA&, const DepositParams&,
                            bool, const int32_t*, int32_t, DepositScratch&);

}  // namespace mpic
