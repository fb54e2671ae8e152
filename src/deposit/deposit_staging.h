// Stage 1 of the deposition pipeline (Algorithm 2): compute per-particle cell
// indices, 1D shape terms and effective current factors into DepositScratch.
//
// Every staged kernel stages one chunk of particles at a time in the order it
// deposits (ForEachDepositChunk) and consumes the chunk at once, indexed by
// chunk slot, so the staged operands are read back while L1-resident.
// StageChunk stages a chunk with one of two cost profiles over the same
// arithmetic (StageOneParticle):
//   * VPU — 8 particles per batch: indexed loads of the seven SoA streams,
//     vector stores of the staged streams (the hand-written DepositMpu and
//     DepositRhocellVpu kernels);
//   * scalar — scalar loads, scalar math and scalar stores per particle, what
//     compilers emit for the irregular staging loop (the baseline and
//     auto-vectorized rhocell kernels, and kMatrixOnly's MPU kernel).
//
// The Esirkepov scheme's EsirkepovScratch (esirkepov.h) is staged the same
// way, by a StageChunk overload that both of its combines run through
// ForEachStagedChunk.
//
// Both profiles produce numerically identical staged values; tests assert
// this.

#ifndef MPIC_SRC_DEPOSIT_DEPOSIT_STAGING_H_
#define MPIC_SRC_DEPOSIT_DEPOSIT_STAGING_H_

#include "src/deposit/deposit_params.h"
#include "src/deposit/particle_iteration.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// Stages particles pids[0..count) of `soa` into chunk slots [0, count);
// `scratch` must hold `count` entries. With `vpu_staging` each batch of
// kVpuLanes loads its seven SoA streams through HwContext::VGatherAuto (one
// vector load when the batch's pids are consecutive, one gather otherwise) and
// writes the staged streams with vector stores; without it each particle takes
// the scalar profile. Charged to Phase::kPreproc.
template <int Order>
void StageChunk(HwContext& hw, const ParticleSoA& soa, const DepositParams& params,
                bool vpu_staging, const int32_t* pids, int32_t count,
                DepositScratch& scratch);

// Loads the staged streams a kernel reads at a given order (3 * (Order + 1)
// shape terms, 3 current factors) for the batch in chunk slots
// [first, first + count), count <= kVpuLanes: consecutive slots, so each
// stream is one vector load (VGatherAuto's contiguous case).
template <int Order>
void LoadStagedBatch(HwContext& hw, const DepositScratch& scratch, int32_t first,
                     int count);

// The staged kernels' shared loop: for each chunk of ForEachDepositChunk,
// stages it into `scratch` (the StageChunk overload for the scratch type:
// DepositScratch here, EsirkepovScratch in esirkepov.h) and hands it to
// deposit(chunk) while it is L1-resident. The caller sizes `scratch` to
// DepositChunkSlots before registering it; a smaller scratch grows to the
// chunk. The traversal is charged in the caller's phase.
template <int Order, typename Scratch, typename Fn>
void ForEachStagedChunk(HwContext& hw, const ParticleTile& tile,
                        const DepositParams& params, bool vpu_staging, bool sorted,
                        Scratch& scratch, Fn&& deposit) {
  ForEachDepositChunk(hw, tile, sorted, [&](const DepositChunk& chunk) {
    if (scratch.slots(Order) < static_cast<size_t>(chunk.count)) {
      scratch.Resize(static_cast<size_t>(chunk.count), Order);
    }
    StageChunk<Order>(hw, tile.soa(), params, vpu_staging, chunk.pids, chunk.count,
                      scratch);
    deposit(chunk);
  });
}

// Registers the tile's SoA arrays (including the old-position lanes) and the
// scratch arrays with the hardware model's address space under stable keys
// (`tile_key_base` from MemRegionKey with stream 0; streams 0..31 are
// reserved for these arrays, 32..68 for the Esirkepov scheme's scratch — see
// RegisterEsirkepovRegions), so the logical layout stays deterministic across
// reallocations. Call whenever the arrays may have moved since the last
// registration (cheap no-op otherwise).
void RegisterStagingRegions(HwContext& hw, uint64_t tile_key_base,
                            const ParticleTile& tile, const DepositScratch& scratch);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_DEPOSIT_STAGING_H_
