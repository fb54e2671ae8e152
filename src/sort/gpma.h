// Gapped Packed-Memory Array (GPMA) for per-tile particle index management
// (paper Sec. 3.5 / 4.3).
//
// The GPMA keeps one slot array (`local_index`) partitioned into per-cell bins.
// Valid particle ids are packed at the front of each bin; the remaining slots
// of the bin are gaps. This preserves cell-sorted iteration order while making
// the per-timestep maintenance cheap:
//
//   * Remove(pid)        — O(1): swap-pop within the bin.
//   * Insert(pid, cell)  — O(1) when the bin has a gap; otherwise a PMA-style
//                          shift borrows a slot from the nearest bin with spare
//                          capacity (cost ~ distance in bins); if no gap exists
//                          within the shift limit the caller must Rebuild().
//   * Rebuild()          — O(n): redistributes particles with fresh, uniformly
//                          spread gaps (optionally growing capacity).
//
// The structure is pure (no hardware-model dependency): every mutator returns
// the number of slot words it touched so the caller can charge the modeled
// cost ledger, and tests can assert amortized-O(1) behavior directly.

#ifndef MPIC_SRC_SORT_GPMA_H_
#define MPIC_SRC_SORT_GPMA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpic {

inline constexpr int32_t kInvalidParticleId = -1;

struct GpmaConfig {
  // Fraction of slack capacity added per bin at (re)build time.
  double gap_fraction = 0.3;
  // Minimum gap slots per bin at (re)build time.
  int min_gap_per_bin = 2;
  // Insert() gives up (returns NeedsRebuild) when the nearest spare slot is
  // farther than this many bins away.
  int max_shift_bins = 64;
};

class Gpma {
 public:
  Gpma() = default;

  // Builds bins for `num_cells` cells from `cell_of_particle` (size = particle
  // count; every value must be in [0, num_cells)). Particle ids are their
  // indices in the input array.
  void Build(const std::vector<int32_t>& cell_of_particle, int num_cells,
             const GpmaConfig& config);

  // Rebuilds in place from the current contents, preserving the particle->cell
  // assignment, with fresh uniform gaps. Returns slot words touched.
  int64_t Rebuild();

  struct OpResult {
    bool ok = false;
    // Slot words read+written by the operation (cost charged by the caller).
    int64_t words_touched = 0;
  };

  // Removes a particle from its bin. The particle must be present.
  OpResult Remove(int32_t pid);

  // Inserts a particle into `cell`'s bin. On failure (no reachable gap) the
  // structure is unchanged and the caller is expected to Rebuild().
  OpResult Insert(int32_t pid, int cell);

  // ---- Accessors used by the deposition kernels ----
  int num_cells() const { return num_cells_; }
  int32_t num_particles() const { return num_particles_; }
  int64_t capacity() const { return static_cast<int64_t>(local_index_.size()); }
  int64_t num_empty_slots() const { return capacity() - num_particles_; }
  double EmptySlotRatio() const {
    return capacity() == 0 ? 0.0
                           : static_cast<double>(num_empty_slots()) /
                                 static_cast<double>(capacity());
  }

  int64_t BinOffset(int cell) const { return bin_offsets_[static_cast<size_t>(cell)]; }
  int32_t BinLen(int cell) const { return bin_lengths_[static_cast<size_t>(cell)]; }
  int64_t BinCap(int cell) const {
    return bin_offsets_[static_cast<size_t>(cell) + 1] -
           bin_offsets_[static_cast<size_t>(cell)];
  }
  // Slot array (pid or kInvalidParticleId). Bin `c`'s valid entries are
  // local_index()[BinOffset(c) .. BinOffset(c)+BinLen(c)).
  const std::vector<int32_t>& local_index() const { return local_index_; }

  // Cell currently holding `pid`, or -1 if absent.
  int CellOf(int32_t pid) const;

  // Exhaustive internal consistency check (tests; O(capacity)).
  void CheckInvariants() const;

  // ---- Checkpoint support (src/runtime/checkpoint.h) ----
  //
  // The full internal state as plain vectors. Checkpoints serialize it exactly
  // instead of rebuilding on restore: an incrementally maintained GPMA's slot
  // layout (and with it the bin iteration order feeding deposition) depends
  // on the insertion history, so a fresh Build() would not replay the
  // uninterrupted run bit-for-bit.
  struct State {
    GpmaConfig config;
    int num_cells = 0;
    int32_t num_particles = 0;
    std::vector<int32_t> local_index;
    std::vector<int64_t> bin_offsets;
    std::vector<int32_t> bin_lengths;
    std::vector<int64_t> slot_of_pid;
    std::vector<int32_t> cell_of_pid;
  };
  State ExportState() const;
  // Replaces the structure wholesale. The caller (checkpoint restore) is
  // responsible for cross-field consistency; CheckInvariants() verifies it.
  void ImportState(State state);

 private:
  void BuildFromPairs(const std::vector<int32_t>& cell_of_particle);
  int64_t FindSpareRight(int from_cell) const;
  int64_t FindSpareLeft(int from_cell) const;

  GpmaConfig config_;
  int num_cells_ = 0;
  int32_t num_particles_ = 0;
  std::vector<int32_t> local_index_;   // slot -> pid / kInvalidParticleId
  std::vector<int64_t> bin_offsets_;   // size num_cells_+1
  std::vector<int32_t> bin_lengths_;   // valid entries per bin
  // pid -> slot (dense reverse map; pids are tile-local and dense).
  std::vector<int64_t> slot_of_pid_;
  // pid -> cell (kept so Rebuild() does not need particle positions).
  std::vector<int32_t> cell_of_pid_;
};

}  // namespace mpic

#endif  // MPIC_SRC_SORT_GPMA_H_
