#include "src/deposit/esirkepov.h"

#include <algorithm>
#include <cmath>

#include "src/deposit/deposit_staging.h"
#include "src/shape/shape_function.h"

namespace mpic {
namespace {

// Evaluates old/new 1D shape weights on a common index window wide enough for
// both supports (Order+2 points suffices under the CFL bound of one cell).
template <int Order>
struct AxisPair {
  static constexpr int kWindow = Order + 2;
  int base = 0;               // lowest node index of the window
  bool wide = false;          // true iff the supports are offset (cell crossing)
  bool backward = false;      // wide with the new support below the old one
  double s0[Order + 2] = {};  // weights at the old position
  double s1[Order + 2] = {};  // weights at the new position
  double ds[Order + 2] = {};  // s1 - s0

  void Eval(double g_old, double g_new) {
    int start0, start1;
    double w0[4], w1[4];
    ShapeFunction<Order>::Weights(g_old, &start0, w0);
    ShapeFunction<Order>::Weights(g_new, &start1, w1);
    MPIC_DCHECK(std::abs(start1 - start0) <= 1);
    base = std::min(start0, start1);
    wide = start0 != start1;
    backward = start1 < start0;
    for (int t = 0; t < kWindow; ++t) {
      s0[t] = 0.0;
      s1[t] = 0.0;
    }
    for (int t = 0; t <= Order; ++t) {
      s0[start0 - base + t] = w0[t];
      s1[start1 - base + t] = w1[t];
    }
    for (int t = 0; t < kWindow; ++t) {
      ds[t] = s1[t] - s0[t];
    }
  }
};

// The staged form of the same window: midpoint weights m = (s0+s1)/2 and
// difference weights d = s1-s0. The transverse factor of the Esirkepov
// decomposition (Eq. 38) then becomes the rank-2 outer-product sum
//   T[b][c] = m_b * m_c + (1/12) * d_b * d_c,
// algebraically identical to the s0/ds mixing the reference kernel uses.
template <int Order>
struct AxisWindow {
  static constexpr int kWindow = Order + 2;
  int base = 0;
  bool wide = false;
  bool backward = false;
  double m[Order + 2];
  double d[Order + 2];

  void Eval(double g_old, double g_new) {
    AxisPair<Order> pair;
    pair.Eval(g_old, g_new);
    base = pair.base;
    wide = pair.wide;
    backward = pair.backward;
    for (int t = 0; t < kWindow; ++t) {
      m[t] = 0.5 * (pair.s0[t] + pair.s1[t]);
      d[t] = pair.ds[t];
    }
  }
};

// ALU estimates for one particle's Esirkepov staging: two position->grid
// conversions, two shape evaluations, and the m/d combine per axis.
template <int Order>
constexpr int ScalarEsirkepovStagingOps() {
  constexpr int kIndexOps = 18;  // gx and floor per axis, old + new
  constexpr int kShapeOps = 2 * (Order == 1 ? 3 : (Order == 2 ? 15 : 27));
  // m and d per window lane, minus the three never-staged last m lanes
  // (reconstructed at combine from d and the direction bit).
  constexpr int kCombineOps = 6 * (Order + 2) - 3;
  return kIndexOps + kShapeOps + kCombineOps + 2;  // + charge factor
}

template <int Order>
constexpr int VpuEsirkepovStagingOps() {
  constexpr int kIndexOps = 24;
  constexpr int kShapeOps = 2 * (Order == 1 ? 3 : (Order == 2 ? 12 : 21));
  constexpr int kCombineOps = 3 * (Order + 2);  // fused m/d vector combine
  return kIndexOps + kShapeOps + kCombineOps + 2;
}

// Stages SoA particle `i` into chunk slot `slot`. Pure arithmetic.
template <int Order>
void StageOneEsirkepov(const ParticleSoA& soa, size_t i, size_t slot,
                       const DepositParams& params, EsirkepovScratch& scratch) {
  constexpr int kW = Order + 2;
  const GridGeometry& g = params.geom;
  AxisWindow<Order> ax, ay, az;
  ax.Eval(g.GridX(soa.xo[i]), g.GridX(soa.x[i]));
  ay.Eval(g.GridY(soa.yo[i]), g.GridY(soa.y[i]));
  az.Eval(g.GridZ(soa.zo[i]), g.GridZ(soa.z[i]));
  scratch.bx[slot] = static_cast<int32_t>(ax.base);
  scratch.by[slot] = static_cast<int32_t>(ay.base);
  scratch.bz[slot] = static_cast<int32_t>(az.base);
  double* w = scratch.Win(slot);
  const AxisWindow<Order>* axes[3] = {&ax, &ay, &az};
  for (int axis = 0; axis < 3; ++axis) {
    double* m = w + scratch.OffM(axis);
    double* d = w + scratch.OffD(axis);
    for (int t = 0; t < kW - 1; ++t) {
      m[t] = axes[axis]->m[t];
    }
    for (int t = 0; t < kW; ++t) {
      d[t] = axes[axis]->d[t];
    }
    // The dropped lane really is what EsirkepovWideLastM will reconstruct.
    MPIC_DCHECK(axes[axis]->m[kW - 1] ==
                (axes[axis]->wide
                     ? (axes[axis]->backward ? -0.5 : 0.5) * axes[axis]->d[kW - 1]
                     : 0.0));
  }
  scratch.qf[slot] = params.charge * soa.w[i] * params.InvCellVolume();
  scratch.wide[slot] = static_cast<uint8_t>(
      (ax.wide ? 1 : 0) | (ay.wide ? 2 : 0) | (az.wide ? 4 : 0) |
      (ax.backward ? 8 : 0) | (ay.backward ? 16 : 0) | (az.backward ? 32 : 0));
}

// The scalar profile for one particle: scalar loads of the seven consumed SoA
// streams, scalar staging math, one contiguous block store plus the small
// side streams into `slot`.
template <int Order>
void StageOneEsirkepovScalar(HwContext& hw, const ParticleSoA& soa, size_t i,
                             size_t slot, const DepositParams& params,
                             EsirkepovScratch& scratch) {
  // Loads: x, y, z and the old-position lanes, plus the weight.
  hw.TouchRead(&soa.x[i], sizeof(double));
  hw.TouchRead(&soa.y[i], sizeof(double));
  hw.TouchRead(&soa.z[i], sizeof(double));
  hw.TouchRead(&soa.xo[i], sizeof(double));
  hw.TouchRead(&soa.yo[i], sizeof(double));
  hw.TouchRead(&soa.zo[i], sizeof(double));
  hw.TouchRead(&soa.w[i], sizeof(double));
  hw.ScalarOps(ScalarEsirkepovStagingOps<Order>());
  StageOneEsirkepov<Order>(soa, i, slot, params, scratch);
  hw.TouchWrite(&scratch.bx[slot], sizeof(int32_t));
  hw.TouchWrite(&scratch.by[slot], sizeof(int32_t));
  hw.TouchWrite(&scratch.bz[slot], sizeof(int32_t));
  hw.TouchWrite(scratch.Win(slot),
                sizeof(double) * static_cast<size_t>(scratch.stride()));
  hw.TouchWrite(&scratch.qf[slot], sizeof(double));
  hw.TouchWrite(&scratch.wide[slot], sizeof(uint8_t));
}

// The VPU profile's arithmetic and stores for a batch of `batch` particles
// staged into slots [base, base + batch): the staged streams go out as vector
// stores, the packed window blocks as one contiguous run of them.
template <int Order>
void ChargeVpuEsirkepovBatch(HwContext& hw, const EsirkepovScratch& scratch,
                             size_t base, size_t batch) {
  hw.ledger().counters().vpu_ops +=
      static_cast<uint64_t>(VpuEsirkepovStagingOps<Order>());
  hw.ChargeCycles(VpuEsirkepovStagingOps<Order>() /
                  static_cast<double>(hw.cfg().vpu_pipes));
  hw.TouchWrite(&scratch.bx[base], sizeof(int32_t) * batch);
  hw.TouchWrite(&scratch.by[base], sizeof(int32_t) * batch);
  hw.TouchWrite(&scratch.bz[base], sizeof(int32_t) * batch);
  hw.TouchWrite(scratch.Win(base),
                sizeof(double) * static_cast<size_t>(scratch.stride()) * batch);
  hw.TouchWrite(&scratch.qf[base], sizeof(double) * batch);
  hw.TouchWrite(&scratch.wide[base], sizeof(uint8_t) * batch);
  const auto block_stores = static_cast<uint64_t>(
      (static_cast<size_t>(scratch.stride()) * batch + kVpuLanes - 1) / kVpuLanes);
  hw.ledger().counters().vpu_mem += block_stores + 5;
}

}  // namespace

template <int Order>
void StageChunk(HwContext& hw, const ParticleSoA& soa, const DepositParams& params,
                bool vpu_staging, const int32_t* pids, int32_t count,
                EsirkepovScratch& scratch) {
  PhaseScope phase(hw.ledger(), Phase::kPreproc);
  if (!vpu_staging) {
    for (int32_t k = 0; k < count; ++k) {
      StageOneEsirkepovScalar<Order>(hw, soa, static_cast<size_t>(pids[k]),
                                     static_cast<size_t>(k), params, scratch);
    }
    return;
  }
  for (int32_t base = 0; base < count; base += kVpuLanes) {
    const int batch = std::min<int32_t>(kVpuLanes, count - base);
    int64_t idx[kVpuLanes];
    for (int j = 0; j < batch; ++j) {
      idx[j] = pids[base + j];
    }
    // Indexed loads of the seven consumed SoA streams.
    const Mask8 m = Mask8::FirstN(batch);
    for (const auto* stream :
         {&soa.x, &soa.y, &soa.z, &soa.xo, &soa.yo, &soa.zo, &soa.w}) {
      hw.VGatherAuto(stream->data(), idx, m);
    }
    for (int j = 0; j < batch; ++j) {
      StageOneEsirkepov<Order>(soa, static_cast<size_t>(idx[j]),
                               static_cast<size_t>(base + j), params, scratch);
    }
    ChargeVpuEsirkepovBatch<Order>(hw, scratch, static_cast<size_t>(base),
                                   static_cast<size_t>(batch));
  }
}

template <int Order>
void DepositEsirkepovTile(HwContext& hw, const ParticleTile& tile,
                          const DepositParams& params, bool sorted,
                          bool vpu_staging, EsirkepovScratch& scratch,
                          TileCurrent& tile_j) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MPIC_CHECK_MSG(params.dt > 0.0, "Esirkepov deposition needs the step dt");
  constexpr int kW = Order + 2;
  constexpr double k12 = 1.0 / 12.0;
  const GridGeometry& g = params.geom;
  const double fx = g.dx / params.dt;
  const double fy = g.dy / params.dt;
  const double fz = g.dz / params.dt;
  double* jx = tile_j.jx().data();
  double* jy = tile_j.jy().data();
  double* jz = tile_j.jz().data();

  ForEachStagedChunk<Order>(hw, tile, params, vpu_staging, sorted, scratch,
                            [&](const DepositChunk& chunk) {
    for (int32_t k = 0; k < chunk.count; ++k) {
      const auto i = static_cast<size_t>(k);
      hw.TouchRead(&scratch.bx[i], sizeof(int32_t));
      hw.TouchRead(&scratch.by[i], sizeof(int32_t));
      hw.TouchRead(&scratch.bz[i], sizeof(int32_t));
      hw.TouchRead(scratch.Win(i),
                   sizeof(double) * static_cast<size_t>(scratch.stride()));
      hw.TouchRead(&scratch.qf[i], sizeof(double));
      hw.TouchRead(&scratch.wide[i], sizeof(uint8_t));

      const double* w = scratch.Win(i);
      const double* dX = w + scratch.OffD(0);
      const double* dY = w + scratch.OffD(1);
      const double* dZ = w + scratch.OffD(2);
      // Rebuild the full m windows: the stored kW - 1 lanes plus the
      // reconstructed last lane (zero / +-d_last/2, see EsirkepovWideLastM).
      const uint8_t wb = scratch.wide[i];
      double mX[kW], mY[kW], mZ[kW];
      double* ms[3] = {mX, mY, mZ};
      for (int axis = 0; axis < 3; ++axis) {
        const double* stored = w + scratch.OffM(axis);
        for (int t = 0; t < kW - 1; ++t) {
          ms[axis][t] = stored[t];
        }
        ms[axis][kW - 1] =
            EsirkepovWideLastM(wb, axis, (w + scratch.OffD(axis))[kW - 1]);
      }

      const double cfx = scratch.qf[i] * fx;
      const double cfy = scratch.qf[i] * fy;
      const double cfz = scratch.qf[i] * fz;
      const int bx = scratch.bx[i];
      const int by = scratch.by[i];
      const int bz = scratch.bz[i];
      hw.ScalarOps(9);  // cf scales + the three m-lane reconstructions

      // Jx: transverse plane T_yz = outer(my, mz) + (1/12) outer(dy, dz), then
      // the cumulative sum of -dx[a] * T along x lands at the Yee face a+1/2.
      for (int c = 0; c < kW; ++c) {
        for (int b = 0; b < kW; ++b) {
          const double ty = mY[b] * mZ[c] + k12 * dY[b] * dZ[c];
          hw.ScalarOps(3);
          double acc = 0.0;
          const int64_t row = tile_j.Index(bx, by + b, bz + c);
          for (int a = 0; a < kW - 1; ++a) {
            acc -= dX[a] * ty;
            hw.ScalarOps(2);
            hw.AccumScalar(&jx[row + a], cfx * acc);
          }
        }
      }
      // Jy and Jz mirror the Jx structure with permuted axes.
      for (int c = 0; c < kW; ++c) {
        for (int a = 0; a < kW; ++a) {
          const double tx = mX[a] * mZ[c] + k12 * dX[a] * dZ[c];
          hw.ScalarOps(3);
          double acc = 0.0;
          for (int b = 0; b < kW - 1; ++b) {
            acc -= dY[b] * tx;
            hw.ScalarOps(2);
            hw.AccumScalar(&jy[tile_j.Index(bx + a, by + b, bz + c)], cfy * acc);
          }
        }
      }
      for (int b = 0; b < kW; ++b) {
        for (int a = 0; a < kW; ++a) {
          const double txy = mX[a] * mY[b] + k12 * dX[a] * dY[b];
          hw.ScalarOps(3);
          double acc = 0.0;
          for (int c = 0; c < kW - 1; ++c) {
            acc -= dZ[c] * txy;
            hw.ScalarOps(2);
            hw.AccumScalar(&jz[tile_j.Index(bx + a, by + b, bz + c)], cfz * acc);
          }
        }
      }
    }
  });
}

void ReduceEsirkepovToGrid(HwContext& hw, TileCurrent& tile_j, FieldSet& fields,
                           ZPlanes planes) {
  if (tile_j.empty()) {
    return;
  }
  PhaseScope phase(hw.ledger(), Phase::kReduce);
  FieldArray* comps[3] = {&fields.jx, &fields.jy, &fields.jz};
  std::vector<double>* scratch[3] = {&tile_j.jx(), &tile_j.jy(), &tile_j.jz()};
  const int nx = tile_j.nx();
  const int ny = tile_j.ny();
  // Box planes [k0, k1) of `planes`.
  int k0 = 0;
  int k1 = tile_j.nz();
  while (k0 < k1 && !planes.Contains(tile_j.oz() + k0)) ++k0;
  while (k1 > k0 && !planes.Contains(tile_j.oz() + k1 - 1)) --k1;
  const size_t plane_nodes = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const int rows8 = (nx + kVpuLanes - 1) / kVpuLanes;
  for (int comp = 0; comp < 3; ++comp) {
    FieldArray& f = *comps[comp];
    std::vector<double>& src = *scratch[comp];
    for (int k = k0; k < k1; ++k) {
      for (int j = 0; j < ny; ++j) {
        // Both rows are x-contiguous: a clean vector load + add + store.
        double* srow =
            src.data() + static_cast<size_t>(nx) *
                             (static_cast<size_t>(j) + static_cast<size_t>(ny) * k);
        double* drow =
            &f.data()[f.Index(tile_j.ox(), tile_j.oy() + j, tile_j.oz() + k)];
        hw.TouchRead(srow, sizeof(double) * static_cast<size_t>(nx));
        hw.TouchRead(drow, sizeof(double) * static_cast<size_t>(nx));
        for (int i = 0; i < nx; ++i) {
          drow[i] += srow[i];
        }
        hw.TouchWrite(drow, sizeof(double) * static_cast<size_t>(nx));
        hw.ledger().counters().vpu_ops += static_cast<uint64_t>(2 * rows8);
        hw.ChargeCycles(2.0 * rows8 / static_cast<double>(hw.cfg().vpu_pipes));
      }
    }
    std::fill(src.begin() + static_cast<ptrdiff_t>(plane_nodes * k0),
              src.begin() + static_cast<ptrdiff_t>(plane_nodes * k1), 0.0);
    // Streaming re-zero of the component's planes.
    hw.ChargeBulk(0.0, static_cast<double>(plane_nodes * (k1 - k0)) * 8.0);
  }
}

void RegisterEsirkepovRegions(HwContext& hw, uint64_t key_base,
                              const EsirkepovScratch& scratch,
                              const TileCurrent& tile_j) {
  uint64_t key = key_base;
  auto reg = [&hw, &key](const auto& v) {
    const uint64_t k = key++;
    if (!v.empty()) {
      hw.RegisterRegionKeyed(k, v.data(), v.size() * sizeof(v[0]));
    }
  };
  reg(scratch.bx);
  reg(scratch.by);
  reg(scratch.bz);
  reg(scratch.win);
  reg(scratch.qf);
  reg(scratch.wide);
  reg(tile_j.jx());
  reg(tile_j.jy());
  reg(tile_j.jz());
}

template <int Order>
void DepositEsirkepov(HwContext& hw, const ParticleTile& tile,
                      const std::vector<double>& x_old,
                      const std::vector<double>& y_old,
                      const std::vector<double>& z_old,
                      const DepositParams& params, FieldSet& fields) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MPIC_CHECK_MSG(params.dt > 0.0, "Esirkepov deposition needs the step dt");
  constexpr int kW = Order + 2;
  const GridGeometry& g = params.geom;
  const double inv_vol = params.InvCellVolume();
  const ParticleSoA& soa = tile.soa();

  for (size_t i = 0; i < soa.size(); ++i) {
    if (!tile.IsLive(static_cast<int32_t>(i))) {
      hw.ScalarOps(1);
      continue;
    }
    hw.TouchRead(&soa.x[i], sizeof(double) * 1);
    hw.TouchRead(&soa.y[i], sizeof(double) * 1);
    hw.TouchRead(&soa.z[i], sizeof(double) * 1);
    hw.TouchRead(&x_old[i], sizeof(double) * 1);
    hw.TouchRead(&y_old[i], sizeof(double) * 1);
    hw.TouchRead(&z_old[i], sizeof(double) * 1);
    hw.TouchRead(&soa.w[i], sizeof(double) * 1);

    AxisPair<Order> ax, ay, az;
    ax.Eval(g.GridX(x_old[i]), g.GridX(soa.x[i]));
    ay.Eval(g.GridY(y_old[i]), g.GridY(soa.y[i]));
    az.Eval(g.GridZ(z_old[i]), g.GridZ(soa.z[i]));
    hw.ScalarOps(6 * (Order == 1 ? 4 : (Order == 2 ? 8 : 12)) + 3 * kW);

    const double qw = params.charge * soa.w[i] * inv_vol;
    const double fx = qw * g.dx / params.dt;
    const double fy = qw * g.dy / params.dt;
    const double fz = qw * g.dz / params.dt;
    hw.ScalarOps(6);

    // Esirkepov decomposition weights (Esirkepov 2001, Eq. 38): per axis the
    // transverse factor mixes old shapes and shape differences.
    for (int c = 0; c < kW; ++c) {
      for (int b = 0; b < kW; ++b) {
        // Jx: cumulative sum of Wx over the x window.
        const double ty = ay.s0[b] * az.s0[c] + 0.5 * ay.ds[b] * az.s0[c] +
                          0.5 * ay.s0[b] * az.ds[c] +
                          (1.0 / 3.0) * ay.ds[b] * az.ds[c];
        double accx = 0.0;
        for (int a = 0; a < kW - 1; ++a) {
          accx -= ax.ds[a] * ty;
          const int64_t node =
              fields.jx.Index(ax.base + a, ay.base + b, az.base + c);
          hw.ScalarOps(4);
          hw.AccumScalar(&fields.jx.data()[node], fx * accx);
        }
      }
    }
    // Jy and Jz mirror the Jx structure with permuted axes.
    for (int c = 0; c < kW; ++c) {
      for (int a = 0; a < kW; ++a) {
        const double tx = ax.s0[a] * az.s0[c] + 0.5 * ax.ds[a] * az.s0[c] +
                          0.5 * ax.s0[a] * az.ds[c] +
                          (1.0 / 3.0) * ax.ds[a] * az.ds[c];
        double accy = 0.0;
        for (int b = 0; b < kW - 1; ++b) {
          accy -= ay.ds[b] * tx;
          const int64_t node =
              fields.jy.Index(ax.base + a, ay.base + b, az.base + c);
          hw.ScalarOps(4);
          hw.AccumScalar(&fields.jy.data()[node], fy * accy);
        }
      }
    }
    for (int b = 0; b < kW; ++b) {
      for (int a = 0; a < kW; ++a) {
        const double txy = ax.s0[a] * ay.s0[b] + 0.5 * ax.ds[a] * ay.s0[b] +
                           0.5 * ax.s0[a] * ay.ds[b] +
                           (1.0 / 3.0) * ax.ds[a] * ay.ds[b];
        double accz = 0.0;
        for (int c = 0; c < kW - 1; ++c) {
          accz -= az.ds[c] * txy;
          const int64_t node =
              fields.jz.Index(ax.base + a, ay.base + b, az.base + c);
          hw.ScalarOps(4);
          hw.AccumScalar(&fields.jz.data()[node], fz * accz);
        }
      }
    }
  }
}

template <int Order>
void DepositCharge(HwContext& hw, const ParticleTile& tile,
                   const DepositParams& params, FieldArray& rho) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  constexpr int kSupport = Order + 1;
  const GridGeometry& g = params.geom;
  const double inv_vol = params.InvCellVolume();
  const ParticleSoA& soa = tile.soa();
  for (size_t i = 0; i < soa.size(); ++i) {
    if (!tile.IsLive(static_cast<int32_t>(i))) {
      hw.ScalarOps(1);
      continue;
    }
    hw.TouchRead(&soa.x[i], sizeof(double));
    hw.TouchRead(&soa.y[i], sizeof(double));
    hw.TouchRead(&soa.z[i], sizeof(double));
    hw.TouchRead(&soa.w[i], sizeof(double));
    int sx0, sy0, sz0;
    double wx[4], wy[4], wz[4];
    ShapeFunction<Order>::Weights(g.GridX(soa.x[i]), &sx0, wx);
    ShapeFunction<Order>::Weights(g.GridY(soa.y[i]), &sy0, wy);
    ShapeFunction<Order>::Weights(g.GridZ(soa.z[i]), &sz0, wz);
    const double qw = params.charge * soa.w[i] * inv_vol;
    hw.ScalarOps(20);
    for (int c = 0; c < kSupport; ++c) {
      for (int b = 0; b < kSupport; ++b) {
        const double wyz = wy[b] * wz[c];
        for (int a = 0; a < kSupport; ++a) {
          const int64_t node = rho.Index(sx0 + a, sy0 + b, sz0 + c);
          hw.ScalarOps(2);
          hw.AccumScalar(&rho.data()[node], qw * wx[a] * wyz);
        }
      }
    }
  }
}

template void StageChunk<1>(HwContext&, const ParticleSoA&, const DepositParams&,
                            bool, const int32_t*, int32_t, EsirkepovScratch&);
template void StageChunk<2>(HwContext&, const ParticleSoA&, const DepositParams&,
                            bool, const int32_t*, int32_t, EsirkepovScratch&);
template void StageChunk<3>(HwContext&, const ParticleSoA&, const DepositParams&,
                            bool, const int32_t*, int32_t, EsirkepovScratch&);
template void DepositEsirkepovTile<1>(HwContext&, const ParticleTile&,
                                      const DepositParams&, bool, bool,
                                      EsirkepovScratch&, TileCurrent&);
template void DepositEsirkepovTile<2>(HwContext&, const ParticleTile&,
                                      const DepositParams&, bool, bool,
                                      EsirkepovScratch&, TileCurrent&);
template void DepositEsirkepovTile<3>(HwContext&, const ParticleTile&,
                                      const DepositParams&, bool, bool,
                                      EsirkepovScratch&, TileCurrent&);
template void DepositEsirkepov<1>(HwContext&, const ParticleTile&,
                                  const std::vector<double>&,
                                  const std::vector<double>&,
                                  const std::vector<double>&,
                                  const DepositParams&, FieldSet&);
template void DepositEsirkepov<2>(HwContext&, const ParticleTile&,
                                  const std::vector<double>&,
                                  const std::vector<double>&,
                                  const std::vector<double>&,
                                  const DepositParams&, FieldSet&);
template void DepositEsirkepov<3>(HwContext&, const ParticleTile&,
                                  const std::vector<double>&,
                                  const std::vector<double>&,
                                  const std::vector<double>&,
                                  const DepositParams&, FieldSet&);
template void DepositCharge<1>(HwContext&, const ParticleTile&, const DepositParams&,
                               FieldArray&);
template void DepositCharge<2>(HwContext&, const ParticleTile&, const DepositParams&,
                               FieldArray&);
template void DepositCharge<3>(HwContext&, const ParticleTile&, const DepositParams&,
                               FieldArray&);

}  // namespace mpic
