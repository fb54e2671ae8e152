#include "src/deposit/deposit_mpu.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/deposit_staging.h"

namespace mpic {
namespace {

// Charges `n` VPU register operations (operand shuffles/multiplies) without
// materializing per-op temporaries.
void ChargeVpuOps(HwContext& hw, int n) {
  hw.ledger().counters().vpu_ops += static_cast<uint64_t>(n);
  hw.ChargeCycles(n / static_cast<double>(hw.cfg().vpu_pipes));
}

// Lightweight VPU deposition for sparse bins (the adaptive fallback of
// Sec. 6.1): per particle, build the node-weight vector and accumulate into
// the cell's rhocell blocks directly — no tile setup or extraction to
// amortize. Semantically identical to the MPU path. The bin's particles sit
// in chunk slots [first, first + len).
template <int Order>
void DepositSparseBinVpu(HwContext& hw, const DepositScratch& scratch,
                         RhocellBuffer& rhocell, int cell, int32_t first,
                         int32_t len) {
  constexpr int kSupport = Order + 1;
  constexpr int kNodes = Support3D(Order);
  constexpr int kRows = kNodes / kVpuLanes == 0 ? 1 : kNodes / kVpuLanes;
  double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                       rhocell.CellJz(cell)};
  for (int32_t s = first; s < first + len; ++s) {
    const auto i = static_cast<size_t>(s);
    // Scalar staged loads (too few particles to batch).
    hw.TouchRead(&scratch.wqx[i], sizeof(double));
    hw.TouchRead(&scratch.wqy[i], sizeof(double));
    hw.TouchRead(&scratch.wqz[i], sizeof(double));
    for (int t = 0; t < kSupport; ++t) {
      hw.TouchRead(&scratch.sx[t][i], sizeof(double));
      hw.TouchRead(&scratch.sy[t][i], sizeof(double));
      hw.TouchRead(&scratch.sz_[t][i], sizeof(double));
    }
    ChargeVpuOps(hw, Order == 1 ? 7 : 24);  // weight-vector build
    const double factors[3] = {scratch.wqx[i], scratch.wqy[i], scratch.wqz[i]};
    double w3[Support3D(Order)];
    int k = 0;
    for (int c = 0; c < kSupport; ++c) {
      for (int b = 0; b < kSupport; ++b) {
        const double wyz = scratch.sy[b][i] * scratch.sz_[c][i];
        for (int a = 0; a < kSupport; ++a) {
          w3[k++] = scratch.sx[a][i] * wyz;
        }
      }
    }
    for (int comp = 0; comp < 3; ++comp) {
      for (int kk = 0; kk < kNodes; ++kk) {
        blocks[comp][kk] += factors[comp] * w3[kk];
      }
      hw.TouchRead(blocks[comp], sizeof(double) * kNodes);
      hw.TouchWrite(blocks[comp], sizeof(double) * kNodes);
      ChargeVpuOps(hw, 2 * kRows);
    }
  }
}

// ---------------------------------------------------------------------------
// Order 1 (CIC): A = [wq*sx (p1,2 lanes) | wq*sx (p2,2 lanes) | 0...],
// B = [syz (p1,4 lanes) | syz (p2,4 lanes)]; one MOPA per component per pair.
// ---------------------------------------------------------------------------

void CicMopaPair(HwContext& hw, const DepositScratch& scratch, int64_t p1, int64_t p2,
                 MpuTileReg tiles[3]) {
  const auto i1 = static_cast<size_t>(p1);
  Vec8 b = Vec8::Zero();
  b[0] = scratch.sy[0][i1] * scratch.sz_[0][i1];
  b[1] = scratch.sy[1][i1] * scratch.sz_[0][i1];
  b[2] = scratch.sy[0][i1] * scratch.sz_[1][i1];
  b[3] = scratch.sy[1][i1] * scratch.sz_[1][i1];
  if (p2 >= 0) {
    const auto i2 = static_cast<size_t>(p2);
    b[4] = scratch.sy[0][i2] * scratch.sz_[0][i2];
    b[5] = scratch.sy[1][i2] * scratch.sz_[0][i2];
    b[6] = scratch.sy[0][i2] * scratch.sz_[1][i2];
    b[7] = scratch.sy[1][i2] * scratch.sz_[1][i2];
  }
  ChargeVpuOps(hw, 3);  // B assembly: two permutes + one multiply

  const std::vector<double>* wq_streams[3] = {&scratch.wqx, &scratch.wqy,
                                              &scratch.wqz};
  for (int comp = 0; comp < 3; ++comp) {
    const double wq1 = (*wq_streams[comp])[i1];
    Vec8 a = Vec8::Zero();
    a[0] = wq1 * scratch.sx[0][i1];
    a[1] = wq1 * scratch.sx[1][i1];
    if (p2 >= 0) {
      const auto i2 = static_cast<size_t>(p2);
      const double wq2 = (*wq_streams[comp])[i2];
      a[2] = wq2 * scratch.sx[0][i2];
      a[3] = wq2 * scratch.sx[1][i2];
    }
    ChargeVpuOps(hw, 1);  // A assembly: fused multiply on the pre-permuted
                          // batch registers (one op per component)
    hw.Mopa(tiles[comp], a, b, p2 >= 0 ? 16 : 8);
  }
}

// Reads the pair blocks out of the tiles. node k = a + 2*m with a the x-term
// and m the yz-term: p1's value is C[a][m], p2's is C[2+a][4+m].
void CicReadTiles(HwContext& hw, const MpuTileReg tiles[3], double p1_nodes[3][8],
                  double p2_nodes[3][8]) {
  for (int comp = 0; comp < 3; ++comp) {
    Vec8 rows[4];
    for (int r = 0; r < 4; ++r) {
      rows[r] = hw.TileReadRow(tiles[comp], r);
    }
    ChargeVpuOps(hw, 4);  // interleave/shift network
    for (int m = 0; m < 4; ++m) {
      for (int a = 0; a < 2; ++a) {
        p1_nodes[comp][a + 2 * m] = rows[a][m];
        p2_nodes[comp][a + 2 * m] = rows[2 + a][4 + m];
      }
    }
  }
}

// Accumulates an 8-node contribution set into one cell's rhocell blocks.
void CicAccumulateBlocks(HwContext& hw, RhocellBuffer& rhocell, int cell,
                         const double nodes[3][8]) {
  double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                       rhocell.CellJz(cell)};
  for (int comp = 0; comp < 3; ++comp) {
    hw.TouchRead(blocks[comp], sizeof(double) * 8);
    ChargeVpuOps(hw, 1);  // vector add
    for (int k = 0; k < 8; ++k) {
      blocks[comp][k] += nodes[comp][k];
    }
    hw.TouchWrite(blocks[comp], sizeof(double) * 8);
  }
}

void DepositMpuCic(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                   bool vpu_staging, DepositScratch& scratch, RhocellBuffer& rhocell,
                   MpuScheduling scheduling, int sparse_fallback_ppc) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MpuTileReg tiles[3];
  for (auto& t : tiles) {
    hw.TileZero(t);
  }
  const bool sorted = scheduling == MpuScheduling::kCellResident;
  ForEachStagedChunk<1>(hw, tile, params, vpu_staging, sorted, scratch,
                        [&](const DepositChunk& chunk) {
    if (sorted) {
      // Tiles accumulate across every particle of the cell; one extraction
      // per cell merges the p1-class and p2-class blocks (same cell by
      // sorting).
      ForEachChunkBin(tile, chunk, [&](int cell, int32_t first, int32_t len) {
        if (len < sparse_fallback_ppc) {
          DepositSparseBinVpu<1>(hw, scratch, rhocell, cell, first, len);
          return;
        }
        for (int32_t s = first; s < first + len; s += kVpuLanes) {
          const int count = std::min<int32_t>(kVpuLanes, first + len - s);
          LoadStagedBatch<1>(hw, scratch, s, count);
          for (int j = 0; j < count; j += 2) {
            CicMopaPair(hw, scratch, s + j, j + 1 < count ? s + j + 1 : -1, tiles);
          }
        }
        double p1_nodes[3][8], p2_nodes[3][8], merged[3][8];
        CicReadTiles(hw, tiles, p1_nodes, p2_nodes);
        ChargeVpuOps(hw, 3);  // merge adds (one per component)
        for (int comp = 0; comp < 3; ++comp) {
          for (int k = 0; k < 8; ++k) {
            merged[comp][k] = p1_nodes[comp][k] + p2_nodes[comp][k];
          }
        }
        CicAccumulateBlocks(hw, rhocell, cell, merged);
        for (auto& t : tiles) {
          hw.TileZero(t);
        }
      });
      return;
    }
    // Pairwise: slot order; tiles are drained after every pair, and each
    // particle's block goes to its own cell (the pair may straddle cells).
    for (int32_t s = 0; s < chunk.count; s += kVpuLanes) {
      const int count = std::min<int32_t>(kVpuLanes, chunk.count - s);
      LoadStagedBatch<1>(hw, scratch, s, count);
      for (int j = 0; j < count; j += 2) {
        const int64_t p1 = s + j;
        const int64_t p2 = j + 1 < count ? s + j + 1 : -1;
        CicMopaPair(hw, scratch, p1, p2, tiles);
        double p1_nodes[3][8], p2_nodes[3][8];
        CicReadTiles(hw, tiles, p1_nodes, p2_nodes);
        CicAccumulateBlocks(hw, rhocell,
                            StagedCellOf<1>(tile, scratch, static_cast<size_t>(p1)),
                            p1_nodes);
        if (p2 >= 0) {
          CicAccumulateBlocks(hw, rhocell,
                              StagedCellOf<1>(tile, scratch, static_cast<size_t>(p2)),
                              p2_nodes);
        }
        for (auto& t : tiles) {
          hw.TileZero(t);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Order 3 (QSP): per component pass, four tiles T_c (one per z-term) stay
// resident; A_c = [wq*sz_c*sx0..3 (p1) | (p2)], B = [sy0..3 (p1) | (p2)].
// ---------------------------------------------------------------------------

void QspMopaPair(HwContext& hw, const DepositScratch& scratch, int64_t p1, int64_t p2,
                 const std::vector<double>& wq_stream, MpuTileReg tiles[4]) {
  const auto i1 = static_cast<size_t>(p1);
  Vec8 b = Vec8::Zero();
  for (int t = 0; t < 4; ++t) {
    b[t] = scratch.sy[t][i1];
  }
  if (p2 >= 0) {
    const auto i2 = static_cast<size_t>(p2);
    for (int t = 0; t < 4; ++t) {
      b[4 + t] = scratch.sy[t][i2];
    }
  }
  ChargeVpuOps(hw, 1);  // B assembly: one permute of the gathered sy registers

  const double wq1 = wq_stream[i1];
  const double wq2 = p2 >= 0 ? wq_stream[static_cast<size_t>(p2)] : 0.0;
  for (int c = 0; c < 4; ++c) {
    Vec8 a = Vec8::Zero();
    const double f1 = wq1 * scratch.sz_[c][i1];
    for (int t = 0; t < 4; ++t) {
      a[t] = f1 * scratch.sx[t][i1];
    }
    if (p2 >= 0) {
      const auto i2 = static_cast<size_t>(p2);
      const double f2 = wq2 * scratch.sz_[c][i2];
      for (int t = 0; t < 4; ++t) {
        a[4 + t] = f2 * scratch.sx[t][i2];
      }
    }
    ChargeVpuOps(hw, 2);  // A_c assembly: broadcast-multiply + permute
    hw.Mopa(tiles[c], a, b, p2 >= 0 ? 32 : 16);
  }
}

// Reads the four tiles of one component pass into per-particle-class node
// arrays in the rhocell block layout k = a + 4*b + 16*c (x fastest, matching
// ReduceRhocellToGrid). Tile row a carries sx_a, columns carry sy_b, so the
// extraction transposes each 4x4 block (a register shuffle network).
void QspReadTiles(HwContext& hw, const MpuTileReg tiles[4], double p1_nodes[64],
                  double p2_nodes[64]) {
  for (int c = 0; c < 4; ++c) {
    for (int a = 0; a < 4; ++a) {
      const Vec8 row1 = hw.TileReadRow(tiles[c], a);
      const Vec8 row2 = hw.TileReadRow(tiles[c], 4 + a);
      for (int bb = 0; bb < 4; ++bb) {
        p1_nodes[a + 4 * bb + 16 * c] = row1[bb];
        p2_nodes[a + 4 * bb + 16 * c] = row2[4 + bb];
      }
    }
    ChargeVpuOps(hw, 8);  // 4x4 block transpose + repack shifts per tile
  }
}

void QspAccumulateBlock(HwContext& hw, double* block, const double nodes[64]) {
  for (int base = 0; base < 64; base += kVpuLanes) {
    hw.TouchRead(block + base, sizeof(double) * kVpuLanes);
    ChargeVpuOps(hw, 1);
    for (int k = 0; k < kVpuLanes; ++k) {
      block[base + k] += nodes[base + k];
    }
    hw.TouchWrite(block + base, sizeof(double) * kVpuLanes);
  }
}

void DepositMpuQsp(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                   bool vpu_staging, DepositScratch& scratch, RhocellBuffer& rhocell,
                   MpuScheduling scheduling, int sparse_fallback_ppc) {
  PhaseScope phase(hw.ledger(), Phase::kCompute);
  MpuTileReg tiles[4];
  for (auto& t : tiles) {
    hw.TileZero(t);
  }
  const std::vector<double>* wq_streams[3] = {&scratch.wqx, &scratch.wqy,
                                              &scratch.wqz};
  const bool sorted = scheduling == MpuScheduling::kCellResident;
  ForEachStagedChunk<3>(hw, tile, params, vpu_staging, sorted, scratch,
                        [&](const DepositChunk& chunk) {
    if (sorted) {
      ForEachChunkBin(tile, chunk, [&](int cell, int32_t first, int32_t len) {
        if (len < sparse_fallback_ppc) {
          DepositSparseBinVpu<3>(hw, scratch, rhocell, cell, first, len);
          return;
        }
        double* blocks[3] = {rhocell.CellJx(cell), rhocell.CellJy(cell),
                             rhocell.CellJz(cell)};
        // One pass per component keeps the live tile count at four (the
        // z-terms), trading three passes over the bin for register-file
        // residency.
        for (int comp = 0; comp < 3; ++comp) {
          for (int32_t s = first; s < first + len; s += kVpuLanes) {
            const int count = std::min<int32_t>(kVpuLanes, first + len - s);
            LoadStagedBatch<3>(hw, scratch, s, count);
            for (int j = 0; j < count; j += 2) {
              QspMopaPair(hw, scratch, s + j, j + 1 < count ? s + j + 1 : -1,
                          *wq_streams[comp], tiles);
            }
          }
          double p1_nodes[64], p2_nodes[64];
          QspReadTiles(hw, tiles, p1_nodes, p2_nodes);
          ChargeVpuOps(hw, 8);  // merge adds (8 vectors)
          double merged[64];
          for (int k = 0; k < 64; ++k) {
            merged[k] = p1_nodes[k] + p2_nodes[k];
          }
          QspAccumulateBlock(hw, blocks[comp], merged);
          for (auto& t : tiles) {
            hw.TileZero(t);
          }
        }
      });
      return;
    }
    // Pairwise: per pair, per component, four MOPAs then immediate extraction.
    for (int32_t s = 0; s < chunk.count; s += kVpuLanes) {
      const int count = std::min<int32_t>(kVpuLanes, chunk.count - s);
      LoadStagedBatch<3>(hw, scratch, s, count);
      for (int j = 0; j < count; j += 2) {
        const int64_t p1 = s + j;
        const int64_t p2 = j + 1 < count ? s + j + 1 : -1;
        const int cell1 = StagedCellOf<3>(tile, scratch, static_cast<size_t>(p1));
        const int cell2 =
            p2 >= 0 ? StagedCellOf<3>(tile, scratch, static_cast<size_t>(p2)) : -1;
        for (int comp = 0; comp < 3; ++comp) {
          QspMopaPair(hw, scratch, p1, p2, *wq_streams[comp], tiles);
          double p1_nodes[64], p2_nodes[64];
          QspReadTiles(hw, tiles, p1_nodes, p2_nodes);
          double* block1 = comp == 0   ? rhocell.CellJx(cell1)
                           : comp == 1 ? rhocell.CellJy(cell1)
                                       : rhocell.CellJz(cell1);
          QspAccumulateBlock(hw, block1, p1_nodes);
          if (p2 >= 0) {
            double* block2 = comp == 0   ? rhocell.CellJx(cell2)
                             : comp == 1 ? rhocell.CellJy(cell2)
                                         : rhocell.CellJz(cell2);
            QspAccumulateBlock(hw, block2, p2_nodes);
          }
          for (auto& t : tiles) {
            hw.TileZero(t);
          }
        }
      }
    }
  });
}

}  // namespace

template <int Order>
void DepositMpu(HwContext& hw, const ParticleTile& tile, const DepositParams& params,
                bool vpu_staging, DepositScratch& scratch, RhocellBuffer& rhocell,
                MpuScheduling scheduling, int sparse_fallback_ppc) {
  static_assert(Order == 1 || Order == 3,
                "the MPU mapping is defined for CIC (1) and QSP (3)");
  if constexpr (Order == 1) {
    DepositMpuCic(hw, tile, params, vpu_staging, scratch, rhocell, scheduling,
                  sparse_fallback_ppc);
  } else {
    DepositMpuQsp(hw, tile, params, vpu_staging, scratch, rhocell, scheduling,
                  sparse_fallback_ppc);
  }
}

template void DepositMpu<1>(HwContext&, const ParticleTile&, const DepositParams&,
                            bool, DepositScratch&, RhocellBuffer&, MpuScheduling,
                            int);
template void DepositMpu<3>(HwContext&, const ParticleTile&, const DepositParams&,
                            bool, DepositScratch&, RhocellBuffer&, MpuScheduling,
                            int);

}  // namespace mpic
