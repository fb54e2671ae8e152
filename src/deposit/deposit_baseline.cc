#include "src/deposit/deposit_baseline.h"

#include "src/deposit/deposit_staging.h"

namespace mpic {

namespace {

template <int Order>
void DepositOneParticle(HwContext& hw, const DepositScratch& scratch, size_t i,
                        FieldSet& fields) {
  constexpr int kSupport = Order + 1;
  const int ix = scratch.ix[i];
  const int iy = scratch.iy[i];
  const int iz = scratch.iz[i];
  const double wqx = scratch.wqx[i];
  const double wqy = scratch.wqy[i];
  const double wqz = scratch.wqz[i];
  for (int c = 0; c < kSupport; ++c) {
    for (int b = 0; b < kSupport; ++b) {
      const double wyz = scratch.sy[b][i] * scratch.sz_[c][i];
      hw.ScalarOps(1);
      for (int a = 0; a < kSupport; ++a) {
        const double s3 = scratch.sx[a][i] * wyz;
        const int64_t node = fields.jx.Index(ix + a, iy + b, iz + c);
        hw.ScalarOps(3);  // xyz product + index math (arithmetic vectorizes)
        hw.AccumScalar(&fields.jx.data()[node], wqx * s3);
        hw.AccumScalar(&fields.jy.data()[node], wqy * s3);
        hw.AccumScalar(&fields.jz.data()[node], wqz * s3);
      }
    }
  }
}

}  // namespace

template <int Order>
void DepositBaselineTile(HwContext& hw, const ParticleTile& tile,
                         const DepositParams& params, DepositScratch& scratch,
                         FieldSet& fields, bool sorted) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  constexpr int kSupport = Order + 1;
  ForEachStagedChunk<Order>(hw, tile, params, /*vpu_staging=*/false, sorted, scratch,
                            [&](const DepositChunk& chunk) {
    for (int32_t k = 0; k < chunk.count; ++k) {
      // Staged loads for this particle (shape terms + factors).
      const auto i = static_cast<size_t>(k);
      hw.TouchRead(&scratch.ix[i], sizeof(int32_t));
      hw.TouchRead(&scratch.iy[i], sizeof(int32_t));
      hw.TouchRead(&scratch.iz[i], sizeof(int32_t));
      for (int t = 0; t < kSupport; ++t) {
        hw.TouchRead(&scratch.sx[t][i], sizeof(double));
        hw.TouchRead(&scratch.sy[t][i], sizeof(double));
        hw.TouchRead(&scratch.sz_[t][i], sizeof(double));
      }
      hw.TouchRead(&scratch.wqx[i], sizeof(double));
      hw.TouchRead(&scratch.wqy[i], sizeof(double));
      hw.TouchRead(&scratch.wqz[i], sizeof(double));
      DepositOneParticle<Order>(hw, scratch, i, fields);
    }
  });
}

template void DepositBaselineTile<1>(HwContext&, const ParticleTile&,
                                     const DepositParams&, DepositScratch&,
                                     FieldSet&, bool);
template void DepositBaselineTile<2>(HwContext&, const ParticleTile&,
                                     const DepositParams&, DepositScratch&,
                                     FieldSet&, bool);
template void DepositBaselineTile<3>(HwContext&, const ParticleTile&,
                                     const DepositParams&, DepositScratch&,
                                     FieldSet&, bool);

}  // namespace mpic
