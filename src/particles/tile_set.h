// TileSet: partitions the simulation grid into particle tiles (ragged edge
// tiles allowed) and routes particles to the tile owning their cell.

#ifndef MPIC_SRC_PARTICLES_TILE_SET_H_
#define MPIC_SRC_PARTICLES_TILE_SET_H_

#include <vector>

#include "src/grid/grid_geometry.h"
#include "src/particles/particle_tile.h"

namespace mpic {

class TileSet {
 public:
  TileSet(const GridGeometry& geom, int tile_x, int tile_y, int tile_z);

  int num_tiles() const { return static_cast<int>(tiles_.size()); }
  // Tiles linearize as t = tx + ntx*(ty + nty*tz), z slowest.
  ParticleTile& tile(int t) { return tiles_[static_cast<size_t>(t)]; }
  const ParticleTile& tile(int t) const { return tiles_[static_cast<size_t>(t)]; }

  // Index of the tile owning global cell (ix, iy, iz).
  int TileOfCell(int ix, int iy, int iz) const;
  // Index of the tile owning a position (which must be inside the domain).
  int TileOfPosition(double x, double y, double z) const;

  // Adds a particle to the owning tile; returns {tile, pid}.
  struct Handle {
    int tile = -1;
    int32_t pid = -1;
  };
  Handle AddParticle(const Particle& p);

  int64_t TotalLive() const;

  // Partitions the tiles into color classes whose members' *node footprints*
  // are pairwise disjoint, where a tile's footprint extends `halo_nodes` nodes
  // beyond its cell box on every side (the reach of the deposition shape:
  // 0 for CIC, 1 for QSP). Tiles within one class may therefore scatter onto
  // shared grid arrays concurrently; classes must run as sequential barriers.
  //
  // Per axis the schedule is the classic 2-coloring by tile-coordinate parity
  // (checkerboard); an axis whose interior tiles are too thin for parity to
  // separate same-color footprints (extent <= 2 * halo_nodes) degrades to one
  // color per coordinate on that axis, which is always safe. Classes are
  // ordered by color id and each class lists tiles in ascending index, so a
  // serial color-major sweep visits every shared node's contributors in the
  // same order as the parallel schedule.
  std::vector<std::vector<int>> HaloDisjointColoring(int halo_nodes) const;

  const GridGeometry& geom() const { return geom_; }
  // Moving-window support: the cell boxes stay fixed in index space while the
  // origin advances.
  void SetGeometry(const GridGeometry& g) { geom_ = g; }

 private:
  GridGeometry geom_;
  int tile_x_, tile_y_, tile_z_;  // nominal tile extent in cells
  int ntx_, nty_, ntz_;           // tiles per axis
  std::vector<ParticleTile> tiles_;
};

}  // namespace mpic

#endif  // MPIC_SRC_PARTICLES_TILE_SET_H_
