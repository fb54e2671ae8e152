#include "src/deposit/deposit_rhocell.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/deposit/deposit_staging.h"

namespace mpic {
namespace {

// Computes the full 3D weight array (Support3D entries, x fastest) for one
// staged particle. Pure arithmetic; the caller charges the modeled cost.
template <int Order>
void NodeWeights(const DepositScratch& scratch, size_t i, double* w3) {
  constexpr int kSupport = Order + 1;
  int k = 0;
  for (int c = 0; c < kSupport; ++c) {
    for (int b = 0; b < kSupport; ++b) {
      const double wyz = scratch.sy[b][i] * scratch.sz_[c][i];
      for (int a = 0; a < kSupport; ++a) {
        w3[k++] = scratch.sx[a][i] * wyz;
      }
    }
  }
}

// Accumulates w3 scaled by `factor` into one component block. Real arithmetic
// only; cost is charged by the caller at the chosen granularity.
template <int Order>
void AccumulateBlock(double* block, const double* w3, double factor) {
  constexpr int kNodes = Support3D(Order);
  for (int k = 0; k < kNodes; ++k) {
    block[k] += factor * w3[k];
  }
}

}  // namespace

template <int Order>
void DepositRhocellAutoVec(HwContext& hw, const ParticleTile& tile,
                           const DepositParams& params, DepositScratch& scratch,
                           RhocellBuffer& rhocell, bool sorted) {
  static_assert(Order == 1 || Order == 3, "rhocell requires odd order");
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  constexpr int kSupport = Order + 1;
  constexpr int kNodes = Support3D(Order);
  constexpr int kRows = kNodes / kVpuLanes == 0 ? 1 : kNodes / kVpuLanes;
  if (scratch.w3.size() < static_cast<size_t>(kNodes)) {
    scratch.w3.resize(kNodes);
  }
  double* w3 = scratch.w3.data();

  ForEachStagedChunk<Order>(hw, tile, params, /*vpu_staging=*/false, sorted, scratch,
                            [&](const DepositChunk& chunk) {
    for (int32_t k = 0; k < chunk.count; ++k) {
      const auto i = static_cast<size_t>(k);
      // Scalar staged loads (the compiler does not batch these across particles).
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

      NodeWeights<Order>(scratch, i, w3);
      // The weight products go through a temporary (auto-vec emits the
      // store-reload): yz products scalar, xyz products vectorized.
      hw.ScalarOps(kSupport * kSupport + 3);
      hw.ledger().counters().vpu_ops += kRows;
      hw.ChargeCycles(kRows / static_cast<double>(hw.cfg().vpu_pipes));
      hw.TouchWrite(w3, sizeof(double) * kNodes);

      const int cell = StagedCellOf<Order>(tile, scratch, i);
      hw.ScalarOps(4);  // cell id + block address arithmetic

      const double factors[3] = {scratch.wqx[i], scratch.wqy[i], scratch.wqz[i]};
      double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                           rhocell.CellJz(cell)};
      for (int comp = 0; comp < 3; ++comp) {
        AccumulateBlock<Order>(blocks[comp], w3, factors[comp]);
        // Vectorized block update: load + fma + store per row of the block.
        for (int r = 0; r < kRows; ++r) {
          hw.TouchRead(blocks[comp] + r * kVpuLanes,
                       sizeof(double) * std::min(kNodes, kVpuLanes));
          hw.TouchWrite(blocks[comp] + r * kVpuLanes,
                        sizeof(double) * std::min(kNodes, kVpuLanes));
        }
        hw.ledger().counters().vpu_ops += static_cast<uint64_t>(2 * kRows);
        hw.ChargeCycles(2.0 * kRows / static_cast<double>(hw.cfg().vpu_pipes));
      }
    }
  });
}

template <int Order>
void DepositRhocellVpu(HwContext& hw, const ParticleTile& tile,
                       const DepositParams& params, DepositScratch& scratch,
                       RhocellBuffer& rhocell, bool sorted) {
  static_assert(Order == 1 || Order == 3, "rhocell requires odd order");
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  constexpr int kNodes = Support3D(Order);
  constexpr int kRows = kNodes / kVpuLanes == 0 ? 1 : kNodes / kVpuLanes;

  ForEachStagedChunk<Order>(hw, tile, params, /*vpu_staging=*/true, sorted, scratch,
                            [&](const DepositChunk& chunk) {
    // Batches of kVpuLanes over the chunk's slots; a chunk of whole bins may
    // end in a partial batch. Each particle accumulates in deposit order.
    for (int32_t first = 0; first < chunk.count; first += kVpuLanes) {
      const int batch = std::min<int32_t>(kVpuLanes, chunk.count - first);
      LoadStagedBatch<Order>(hw, scratch, first, batch);
      for (int bi = 0; bi < batch; ++bi) {
        const auto i = static_cast<size_t>(first + bi);
        double w3[Support3D(Order)];
        NodeWeights<Order>(scratch, i, w3);
        // Register-resident weight construction: permutes + multiplies.
        const int build_ops = Order == 1 ? 7 : 24;
        hw.ledger().counters().vpu_ops += static_cast<uint64_t>(build_ops);
        hw.ChargeCycles(build_ops / static_cast<double>(hw.cfg().vpu_pipes));

        const int cell = StagedCellOf<Order>(tile, scratch, i);
        hw.ScalarOps(4);
        const double factors[3] = {scratch.wqx[i], scratch.wqy[i], scratch.wqz[i]};
        double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                             rhocell.CellJz(cell)};
        for (int comp = 0; comp < 3; ++comp) {
          AccumulateBlock<Order>(blocks[comp], w3, factors[comp]);
          for (int r = 0; r < kRows; ++r) {
            hw.TouchRead(blocks[comp] + r * kVpuLanes,
                         sizeof(double) * std::min(kNodes, kVpuLanes));
            hw.TouchWrite(blocks[comp] + r * kVpuLanes,
                          sizeof(double) * std::min(kNodes, kVpuLanes));
          }
          hw.ledger().counters().vpu_ops += static_cast<uint64_t>(2 * kRows);
          hw.ChargeCycles(2.0 * kRows / static_cast<double>(hw.cfg().vpu_pipes));
        }
      }
    }
  });
}

template <int Order>
void ReduceRhocellToGrid(HwContext& hw, const ParticleTile& tile,
                         RhocellBuffer& rhocell, FieldSet& fields,
                         ZPlanes planes) {
  static_assert(Order == 1 || Order == 3, "rhocell requires odd order");
  PhaseScope phase(hw.ledger(), Phase::kReduce);
  constexpr int kSupport = Order + 1;
  constexpr int kNodes = Support3D(Order);
  constexpr int kOff = Order == 3 ? 1 : 0;

  FieldArray* comps[3] = {&fields.jx, &fields.jy, &fields.jz};
  double* blocks[3];
  int64_t node_idx[Support3D(Order)];

  for (int cell = 0; cell < rhocell.num_cells(); ++cell) {
    int gx, gy, gz;
    tile.LocalCellToGlobal(cell, &gx, &gy, &gz);
    const int sx0 = gx - kOff;
    const int sy0 = gy - kOff;
    const int sz0 = gz - kOff;
    // Block node k sits on plane sz0 + k / kSupport^2; only the planes inside
    // `planes` are this call's (a CIC row spans two planes).
    int owned = 0;
    for (int c = 0; c < kSupport; ++c) {
      owned += planes.Contains(sz0 + c) ? 1 : 0;
    }
    if (owned == 0) {
      continue;
    }
    Mask8 row_mask[(kNodes + kVpuLanes - 1) / kVpuLanes];
    for (int base = 0; base < kNodes; base += kVpuLanes) {
      Mask8& m = row_mask[base / kVpuLanes];
      for (int i = 0; i < kVpuLanes && base + i < kNodes; ++i) {
        m.lane[static_cast<size_t>(i)] =
            planes.Contains(sz0 + (base + i) / (kSupport * kSupport));
      }
    }
    blocks[0] = rhocell.CellJx(cell);
    blocks[1] = rhocell.CellJy(cell);
    blocks[2] = rhocell.CellJz(cell);
    int k = 0;
    for (int c = 0; c < kSupport; ++c) {
      for (int b = 0; b < kSupport; ++b) {
        for (int a = 0; a < kSupport; ++a) {
          node_idx[k++] = fields.jx.Index(sx0 + a, sy0 + b, sz0 + c);
        }
      }
    }
    // Node index arithmetic (strength-reduced), 8 ops over the block's
    // planes: a call that owns some of them computes only theirs.
    hw.ScalarOps(8 * owned / kSupport);

    for (int comp = 0; comp < 3; ++comp) {
      double* grid = comps[comp]->data();
      for (int base = 0; base < kNodes; base += kVpuLanes) {
        const Mask8& m = row_mask[base / kVpuLanes];
        if (m.PopCount() == 0) {
          continue;
        }
        // Load the block row, scatter-accumulate onto the grid (lanes hit
        // distinct nodes by construction: no conflict handling needed), and
        // zero it for the next deposition pass. A full mask bills and does
        // what the plain load and store do; a row the plane range cuts
        // touches only its own lanes, the other side's call the rest.
        Vec8 v = hw.VLoadMasked(blocks[comp] + base, m);
        hw.VScatterAccum(grid, node_idx + base, v, m);
        hw.VStoreMasked(blocks[comp] + base, Vec8::Zero(), m);
      }
    }
  }
}

template void DepositRhocellAutoVec<1>(HwContext&, const ParticleTile&,
                                       const DepositParams&, DepositScratch&,
                                       RhocellBuffer&, bool);
template void DepositRhocellAutoVec<3>(HwContext&, const ParticleTile&,
                                       const DepositParams&, DepositScratch&,
                                       RhocellBuffer&, bool);
template void DepositRhocellVpu<1>(HwContext&, const ParticleTile&,
                                   const DepositParams&, DepositScratch&,
                                   RhocellBuffer&, bool);
template void DepositRhocellVpu<3>(HwContext&, const ParticleTile&,
                                   const DepositParams&, DepositScratch&,
                                   RhocellBuffer&, bool);
template void ReduceRhocellToGrid<1>(HwContext&, const ParticleTile&, RhocellBuffer&,
                                     FieldSet&, ZPlanes);
template void ReduceRhocellToGrid<3>(HwContext&, const ParticleTile&, RhocellBuffer&,
                                     FieldSet&, ZPlanes);

}  // namespace mpic
