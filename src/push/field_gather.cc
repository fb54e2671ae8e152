#include "src/push/field_gather.h"

#include "src/common/check.h"
#include "src/shape/shape_function.h"

namespace mpic {
namespace {

// Per-axis shape evaluation with optional half-cell stagger shift.
template <int Order>
struct AxisShape {
  int start;
  double w[4];
  void Eval(double grid_coord, bool staggered) {
    ShapeFunction<Order>::Weights(staggered ? grid_coord - 0.5 : grid_coord, &start,
                                  w);
  }
};

// Interpolates one staggered component for one particle; charges line-granular
// reads per (b, c) row of the support region.
template <int Order>
double GatherComponent(HwContext& hw, const FieldArray& f, const AxisShape<Order>& sx,
                       const AxisShape<Order>& sy, const AxisShape<Order>& sz) {
  constexpr int kSupport = Order + 1;
  const int64_t row_stride = static_cast<int64_t>(f.sx()) * sizeof(double);
  hw.TouchReadRows(f.data() + f.Index(sx.start, sy.start, sz.start),
                   sizeof(double) * kSupport, kSupport, row_stride, kSupport,
                   row_stride * f.sy());
  double acc = 0.0;
  for (int c = 0; c < kSupport; ++c) {
    for (int b = 0; b < kSupport; ++b) {
      const double wyz = sy.w[b] * sz.w[c];
      const int64_t row = f.Index(sx.start, sy.start + b, sz.start + c);
      double row_acc = 0.0;
      for (int a = 0; a < kSupport; ++a) {
        row_acc += sx.w[a] * f.data()[row + a];
      }
      acc += wyz * row_acc;
    }
  }
  // Arithmetic: per row, kSupport FMAs + 2 ops; vectorizes across rows.
  hw.ledger().counters().vpu_ops +=
      static_cast<uint64_t>(kSupport * kSupport);
  hw.ChargeCycles(kSupport * kSupport /
                  static_cast<double>(hw.cfg().vpu_pipes));
  return acc;
}

}  // namespace

template <int Order>
void GatherFieldsRange(HwContext& hw, const ParticleTile& tile,
                       const FieldSet& fields, int32_t begin, int32_t end,
                       GatherScratch& scratch) {
  MPIC_DCHECK(begin >= 0 && begin <= end && end <= tile.num_slots() &&
              scratch.ex.size() >= static_cast<size_t>(end - begin));
  PhaseScope phase(hw.ledger(), Phase::kGather);
  const ParticleSoA& soa = tile.soa();
  const GridGeometry& g = fields.geom;

  for (int32_t pid = begin; pid < end; ++pid) {
    if (!tile.IsLive(pid)) {
      hw.ScalarOps(1);
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const auto k = static_cast<size_t>(pid - begin);
    hw.TouchRead(&soa.x[i], sizeof(double));
    hw.TouchRead(&soa.y[i], sizeof(double));
    hw.TouchRead(&soa.z[i], sizeof(double));
    const double gx = g.GridX(soa.x[i]);
    const double gy = g.GridY(soa.y[i]);
    const double gz = g.GridZ(soa.z[i]);

    AxisShape<Order> nx, ny, nz;  // node-aligned shapes
    AxisShape<Order> hx, hy, hz;  // half-cell staggered shapes
    nx.Eval(gx, false);
    ny.Eval(gy, false);
    nz.Eval(gz, false);
    hx.Eval(gx, true);
    hy.Eval(gy, true);
    hz.Eval(gz, true);
    hw.ScalarOps(6 * (Order == 1 ? 4 : (Order == 2 ? 8 : 12)));

    // Yee staggering: Ex(i+1/2,j,k), Ey(i,j+1/2,k), Ez(i,j,k+1/2);
    // Bx(i,j+1/2,k+1/2), By(i+1/2,j,k+1/2), Bz(i+1/2,j+1/2,k).
    scratch.ex[k] = GatherComponent<Order>(hw, fields.ex, hx, ny, nz);
    scratch.ey[k] = GatherComponent<Order>(hw, fields.ey, nx, hy, nz);
    scratch.ez[k] = GatherComponent<Order>(hw, fields.ez, nx, ny, hz);
    scratch.bx[k] = GatherComponent<Order>(hw, fields.bx, nx, hy, hz);
    scratch.by[k] = GatherComponent<Order>(hw, fields.by, hx, ny, hz);
    scratch.bz[k] = GatherComponent<Order>(hw, fields.bz, hx, hy, nz);

    hw.TouchWrite(&scratch.ex[k], sizeof(double));
    hw.TouchWrite(&scratch.ey[k], sizeof(double));
    hw.TouchWrite(&scratch.ez[k], sizeof(double));
    hw.TouchWrite(&scratch.bx[k], sizeof(double));
    hw.TouchWrite(&scratch.by[k], sizeof(double));
    hw.TouchWrite(&scratch.bz[k], sizeof(double));
  }
}

void RegisterGatherRegions(HwContext& hw, uint64_t tile_key_base,
                           const GatherScratch& scratch) {
  uint64_t key = tile_key_base;
  for (const std::vector<double>* v :
       {&scratch.ex, &scratch.ey, &scratch.ez, &scratch.bx, &scratch.by,
        &scratch.bz}) {
    const uint64_t k = key++;
    if (!v->empty()) {
      hw.RegisterRegionKeyed(k, v->data(), v->size() * sizeof(double));
    }
  }
}

template void GatherFieldsRange<1>(HwContext&, const ParticleTile&,
                                   const FieldSet&, int32_t, int32_t,
                                   GatherScratch&);
template void GatherFieldsRange<2>(HwContext&, const ParticleTile&,
                                   const FieldSet&, int32_t, int32_t,
                                   GatherScratch&);
template void GatherFieldsRange<3>(HwContext&, const ParticleTile&,
                                   const FieldSet&, int32_t, int32_t,
                                   GatherScratch&);

}  // namespace mpic
