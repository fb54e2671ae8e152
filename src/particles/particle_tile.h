// ParticleTile: the unit of particle decomposition (paper: particles.tile_size,
// e.g. 8x8x8 cells). Each tile owns
//   * a ParticleSoA whose slot indices are the tile-local particle ids (pids),
//   * a live bitmap (for the unsorted baselines that iterate in slot order);
//     its dead slots are the free slots, and a new particle takes the lowest,
//   * a Gpma binning live pids by tile-local cell (for the sorted kernels).
//
// Slots are stable between global sorts; the GPMA manipulates indices only,
// deferring data movement to GlobalSortTile() — exactly the paper's strategy.
// Reusing the lowest dead slot keeps a batch of arrivals (one step's movers
// from a neighbour tile, one moving-window slab) in ascending slots in the
// order they arrive, so their SoA streams stay ascending in memory.

#ifndef MPIC_SRC_PARTICLES_PARTICLE_TILE_H_
#define MPIC_SRC_PARTICLES_PARTICLE_TILE_H_

#include <cstdint>
#include <vector>

#include "src/grid/grid_geometry.h"
#include "src/particles/particle_soa.h"
#include "src/sort/gpma.h"

namespace mpic {

class ParticleTile {
 public:
  // Cell box [lo, lo+n) per axis, in global cell indices.
  ParticleTile(int lo_x, int lo_y, int lo_z, int nx, int ny, int nz);

  int lo_x() const { return lo_x_; }
  int lo_y() const { return lo_y_; }
  int lo_z() const { return lo_z_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int num_cells() const { return nx_ * ny_ * nz_; }

  bool ContainsCell(int ix, int iy, int iz) const {
    return ix >= lo_x_ && ix < lo_x_ + nx_ && iy >= lo_y_ && iy < lo_y_ + ny_ &&
           iz >= lo_z_ && iz < lo_z_ + nz_;
  }
  // Tile-local linear cell id (x fastest).
  int LocalCellId(int ix, int iy, int iz) const {
    return (ix - lo_x_) + nx_ * ((iy - lo_y_) + ny_ * (iz - lo_z_));
  }
  void LocalCellToGlobal(int local, int* ix, int* iy, int* iz) const {
    *ix = lo_x_ + local % nx_;
    *iy = lo_y_ + (local / nx_) % ny_;
    *iz = lo_z_ + local / (nx_ * ny_);
  }

  // Adds a particle in the lowest dead slot (appending when every slot is
  // live); returns its pid. The caller must separately insert the pid into the
  // GPMA when the tile is operating in sorted mode (the core engine owns that
  // decision).
  int32_t AddParticle(const Particle& p);
  // Releases the slot. The pid must not be referenced by the GPMA anymore.
  void RemoveParticle(int32_t pid);

  bool IsLive(int32_t pid) const { return live_[static_cast<size_t>(pid)] != 0; }
  int32_t num_live() const { return num_live_; }
  // Total slots (live + free) in the SoA.
  int32_t num_slots() const { return static_cast<int32_t>(soa_.size()); }

  ParticleSoA& soa() { return soa_; }
  const ParticleSoA& soa() const { return soa_; }
  Gpma& gpma() { return gpma_; }
  const Gpma& gpma() const { return gpma_; }

  // (Re)builds the GPMA from current live particles' cells. O(n).
  void BuildGpma(const GridGeometry& geom, const GpmaConfig& config);

  // Compacts the SoA in cell-sorted order and rebuilds the GPMA — the per-tile
  // piece of GlobalSortParticlesByCell. Returns the number of particles moved.
  // The lanes are compacted in their own storage (capacity unchanged);
  // DepositionEngine's global sort then moves them to exact-size storage.
  int64_t GlobalSortTile(const GridGeometry& geom, const GpmaConfig& config);

  // Computes the tile-local cell of a live particle from its position.
  int CellOfParticle(const GridGeometry& geom, int32_t pid) const;

  // ---- Checkpoint support (src/runtime/checkpoint.h) ----
  //
  // The live bitmap is the whole free-slot state: slot assignment after a
  // restore replays the uninterrupted run bit-for-bit from it alone.
  const std::vector<uint8_t>& live_bits() const { return live_; }
  // Replaces the tile's particle storage wholesale (checkpoint restore).
  // `live` must be one byte per SoA slot; `num_live_` is recomputed from it.
  // The GPMA is restored separately through gpma().ImportState().
  void RestoreStorage(ParticleSoA soa, std::vector<uint8_t> live);

  bool was_rebuilt_this_step = false;

 private:
  int lo_x_, lo_y_, lo_z_;
  int nx_, ny_, nz_;
  ParticleSoA soa_;
  Gpma gpma_;
  std::vector<uint8_t> live_;
  int32_t num_live_ = 0;
  // Every slot below it is live: AddParticle's search for the lowest dead
  // slot starts here.
  size_t first_dead_ = 0;
};

}  // namespace mpic

#endif  // MPIC_SRC_PARTICLES_PARTICLE_TILE_H_
