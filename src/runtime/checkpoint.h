// Bit-exact checkpoint/restart of a full Simulation.
//
// Format (little-endian, version 7):
//
//   [8B magic "MPICCKP\1"] [u32 version] [u32 section_count]
//   section*: [u32 id] [u32 index] [u64 payload_bytes] [u64 payload_fnv]
//             [payload]
//
// Sections: META (step/time/dt, geometry, tile dims, per-species identity +
// engine scheme, moving-window offset, injection RNG seed), FIELDS (the ten
// raw FP64 arrays, guards included), one SPECIES section per block (per tile:
// all ten SoA lanes, the live bitmap, whose dead slots are the free slots
// the next arrivals fill lowest first, and the GPMA's full internal state —
// serialized, never rebuilt, because the slot layout feeding deposition
// order depends on the insertion history; then the complete re-sort
// policy state including the adaptive throughput baselines, the three
// per-tile cost-feedback estimate vectors the kCostSteal scheduler plans
// from, and the committed pass-1 owners its sticky placement and the tiles'
// home domains follow), and an optional LEDGER snapshot (exactly
// kNumPhases per-phase modeled cycle buckets, then the counters, including
// the steal and NUMA counters; a restore_ledger restore rejects any other
// bucket count and any byte after the counters).
//
// Version 1 and 2 images (which omit state a bit-exact restart needs: the
// policy baselines, cost estimates and steal counters in v1; the committed
// owners and NUMA counters in v2), v3 images (which also carry the deposit's
// and reduction's owners), v4 images (which carry a free-slot stack per
// tile), v5 images (whose LEDGER carries eleven buckets, one for the
// deleted cluster model's communication) and v6 images (whose LEDGER carries
// ten, one for the deleted collision module) are rejected, not silently
// half-restored.
//
// Every payload carries its length and FNV-1a checksum; RestoreCheckpoint
// verifies every checksum and validates META compatibility BEFORE mutating
// anything, so a truncated or corrupted checkpoint is rejected with the
// target simulation untouched — never silently loaded. Errors are returned
// as CheckpointStatus (no aborts on bad input).
//
// Determinism contract (enforced by tests/checkpoint_test.cc): save at step
// k, restore into a freshly built twin, run both to step n — field and
// particle digests match bit-for-bit, for all DepositVariants, both
// CurrentSchemes and both tile-schedule policies. On the saving machine that
// holds with the re-sort policy's adaptive performance trigger enabled; a
// twin on another modeled core count matches with the trigger off, because
// the trigger reads modeled cycles, which depend on the machine. With
// `model_sync` requested on both sides (see the options below), the modeled
// cycle ledgers ALSO match a never-interrupted run exactly: both runs pass
// through Simulation::ModelSyncPoint() at the save step, which rebuilds the
// cache/address model into the same deterministic state on each side.

#ifndef MPIC_SRC_RUNTIME_CHECKPOINT_H_
#define MPIC_SRC_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mpic {

class HwContext;
class Simulation;

struct CheckpointStatus {
  bool ok = true;
  std::string error;

  explicit operator bool() const { return ok; }
  static CheckpointStatus Ok() { return {}; }
  static CheckpointStatus Error(std::string msg) {
    return {false, std::move(msg)};
  }
};

struct CheckpointWriteOptions {
  // Include the cost-ledger snapshot (modeled-time continuity across restart).
  bool include_ledger = true;
  // Pass through Simulation::ModelSyncPoint() after serializing, so the
  // saving run's cache/address model continues from the same deterministic
  // state a restored twin rebuilds — the handshake that makes post-restore
  // modeled cycles bit-identical to an uninterrupted run. Default off: the
  // sync flushes the modeled caches, which perturbs this run's subsequent
  // cycle charges (tests/health_test.cc's overhead gate measures the
  // serialization cost alone).
  bool model_sync = false;
  // When set, the serialization traffic is billed to this context under
  // Phase::kHealth (the overhead tests/health_test.cc gates at <= 2%).
  HwContext* charge = nullptr;
};

struct CheckpointReadOptions {
  // Restore the ledger snapshot (when present) on top of the target context,
  // resuming the modeled clock where the checkpointed run left it. Default
  // off: the target keeps its own cycles.
  bool restore_ledger = false;
  // Pass through Simulation::ModelSyncPoint() after applying the state —
  // the restore side of the cycle-exact handshake described above. Must
  // match the save-side flag for the ledgers to track.
  bool model_sync = false;
};

// Serializes `sim` (must be Initialize()d) into `out`. Non-const because
// `model_sync` rebuilds the simulation's modeled-memory bookkeeping; the
// physics state is never touched.
CheckpointStatus SaveCheckpoint(Simulation& sim,
                                std::vector<uint8_t>* out,
                                const CheckpointWriteOptions& opts = {});

// Restores `sim` from `buf`. `sim` must be an Initialize()d simulation whose
// configuration (geometry shape, species registry, engine schemes, tile dims)
// matches the checkpoint; on any mismatch, truncation, or checksum failure
// the simulation is left exactly as it was.
CheckpointStatus RestoreCheckpoint(Simulation* sim,
                                   const std::vector<uint8_t>& buf,
                                   const CheckpointReadOptions& opts = {});

// File-backed convenience wrappers.
CheckpointStatus SaveCheckpointFile(Simulation& sim,
                                    const std::string& path,
                                    const CheckpointWriteOptions& opts = {});
CheckpointStatus RestoreCheckpointFile(Simulation* sim,
                                       const std::string& path,
                                       const CheckpointReadOptions& opts = {});

}  // namespace mpic

#endif  // MPIC_SRC_RUNTIME_CHECKPOINT_H_
