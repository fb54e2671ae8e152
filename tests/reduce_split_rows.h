// Shared by the multi-core counter tests: the rhocell block rows that one
// step's split reduction divides between two z-plane chunks.

#ifndef MPIC_TESTS_REDUCE_SPLIT_ROWS_H_
#define MPIC_TESTS_REDUCE_SPLIT_ROWS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/simulation.h"

namespace mpic {

// Block rows of one step's rhocell reduction that z-plane cuts divide when
// `sim` runs on `cores` cores with every tile populated, in closed form: a
// tile of a color class of s tiles splits into
// k = max(1, cores / s) chunks, and each of its k - 1 cuts divides the block
// rows of one layer of nx * ny cells, three components each (k does not
// exceed the tile's cell layers here). A CIC block row spans two planes, so
// both chunks of a cut load, scatter-add and zero their own lanes of it: one
// scatter and two vector memory operations more than the serial reduction.
// QSP rows and the Esirkepov box rows each lie in one plane, so only CIC
// rhocell species count.
inline int64_t CutRowsPerStep(const Simulation& sim, int cores) {
  int64_t rows = 0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const SpeciesBlock& b = sim.block(sid);
    const DepositionEngine& engine = b.engine;
    if (cores < 2 || engine.esirkepov() || !engine.traits().uses_rhocell ||
        engine.config().order != 1) {
      continue;
    }
    for (const std::vector<int>& color_class : engine.reduce_coloring()) {
      const int k = std::max(1, cores / static_cast<int>(color_class.size()));
      for (int t : color_class) {
        const ParticleTile& tile = b.tiles.tile(t);
        rows += 3 * static_cast<int64_t>(k - 1) * tile.nx() * tile.ny();
      }
    }
  }
  return rows;
}

}  // namespace mpic

#endif  // MPIC_TESTS_REDUCE_SPLIT_ROWS_H_
