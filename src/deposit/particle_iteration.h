// Iteration helpers shared by the deposition kernels.
//
// ForEachDepositChunk visits every live particle of a tile either in SoA slot
// order (the unsorted kernels) or cell-by-cell through the GPMA bins (the
// sorted kernels), grouped into the chunks the staged kernels stage and
// deposit together (see deposit_staging.h), and charges the modeled cost of
// the traversal itself (live-flag tests resp. GPMA index loads).

#ifndef MPIC_SRC_DEPOSIT_PARTICLE_ITERATION_H_
#define MPIC_SRC_DEPOSIT_PARTICLE_ITERATION_H_

#include <algorithm>
#include <cstdint>

#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Particles per staging chunk: 8 batches of kVpuLanes. At QSP's 132 staged
// bytes per particle a chunk is 8.4 KB, a quarter of the modeled 32 KB L1, so
// it stays resident from its staging to its deposit. Pass 1 gathers and
// pushes in chunks of as many SoA slots; their gathered fields take 3 KB.
inline constexpr int32_t kStageChunk = 8 * kVpuLanes;

// A chunk of a tile's live particles in deposit order: chunk slot k holds tile
// pid pids[k]. On sorted tiles the chunk is the whole GPMA bins
// [first_cell, end_cell); unsorted chunks leave the cell range empty.
struct DepositChunk {
  const int32_t* pids = nullptr;
  int32_t count = 0;
  int first_cell = 0;
  int end_cell = 0;
};

// Entries a chunk can hold: kStageChunk, or on sorted tiles the largest bin
// when one alone holds more.
inline int32_t DepositChunkSlots(const ParticleTile& tile, bool sorted) {
  int32_t slots = kStageChunk;
  if (sorted) {
    const Gpma& gpma = tile.gpma();
    for (int cell = 0; cell < gpma.num_cells(); ++cell) {
      slots = std::max(slots, gpma.BinLen(cell));
    }
  }
  return slots;
}

// fn(chunk) is invoked for each chunk in deposit order. Sorted tiles: a run of
// whole GPMA bins holding at most kStageChunk particles, or one bin that alone
// holds more. Unsorted tiles: the next kStageChunk live slots, so chunk
// boundaries fall on kVpuLanes batch boundaries. The traversal charges one
// scalar live-flag test per slot (unsorted) or one contiguous read of each
// non-empty bin's index words (sorted).
template <typename Fn>
void ForEachDepositChunk(HwContext& hw, const ParticleTile& tile, bool sorted,
                         Fn&& fn) {
  int32_t pids[kStageChunk];
  DepositChunk chunk;
  chunk.pids = pids;
  if (!sorted) {
    const int32_t n = tile.num_slots();
    for (int32_t pid = 0; pid < n; ++pid) {
      hw.ScalarOps(1);  // live-flag test
      if (!tile.IsLive(pid)) {
        continue;
      }
      pids[chunk.count++] = pid;
      if (chunk.count == kStageChunk) {
        fn(chunk);
        chunk.count = 0;
      }
    }
    if (chunk.count > 0) {
      fn(chunk);
    }
    return;
  }
  const Gpma& gpma = tile.gpma();
  const auto& index = gpma.local_index();
  for (int cell = 0; cell < gpma.num_cells(); ++cell) {
    const int32_t len = gpma.BinLen(cell);
    if (len == 0) {
      continue;
    }
    if (chunk.count > 0 && chunk.count + len > kStageChunk) {
      chunk.end_cell = cell;
      fn(chunk);
      chunk.count = 0;
    }
    const int32_t* bin = &index[static_cast<size_t>(gpma.BinOffset(cell))];
    // The bin's index words stream in contiguously.
    hw.TouchRead(bin, sizeof(int32_t) * len);
    if (len > kStageChunk) {
      // An oversized bin is a chunk of its own, read in place.
      fn(DepositChunk{bin, len, cell, cell + 1});
      continue;
    }
    if (chunk.count == 0) {
      chunk.first_cell = cell;
    }
    std::copy(bin, bin + len, pids + chunk.count);
    chunk.count += len;
  }
  if (chunk.count > 0) {
    chunk.end_cell = gpma.num_cells();
    fn(chunk);
  }
}

// fn(cell, first_slot, len) is invoked for each non-empty bin of a sorted
// chunk, in order; the bin's particles sit in chunk slots
// [first_slot, first_slot + len).
template <typename Fn>
void ForEachChunkBin(const ParticleTile& tile, const DepositChunk& chunk, Fn&& fn) {
  const Gpma& gpma = tile.gpma();
  int32_t slot = 0;
  for (int cell = chunk.first_cell; cell < chunk.end_cell; ++cell) {
    const int32_t len = gpma.BinLen(cell);
    if (len > 0) {
      fn(cell, slot, len);
      slot += len;
    }
  }
}

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_PARTICLE_ITERATION_H_
