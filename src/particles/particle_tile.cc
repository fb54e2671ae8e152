#include "src/particles/particle_tile.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/sort/counting_sort.h"

namespace mpic {

ParticleTile::ParticleTile(int lo_x, int lo_y, int lo_z, int nx, int ny, int nz)
    : lo_x_(lo_x), lo_y_(lo_y), lo_z_(lo_z), nx_(nx), ny_(ny), nz_(nz) {
  MPIC_CHECK(nx > 0 && ny > 0 && nz > 0);
}

int32_t ParticleTile::AddParticle(const Particle& p) {
  const size_t n = live_.size();
  const void* dead =
      first_dead_ < n ? std::memchr(live_.data() + first_dead_, 0, n - first_dead_)
                      : nullptr;
  int32_t pid;
  if (dead != nullptr) {
    pid = static_cast<int32_t>(static_cast<const uint8_t*>(dead) - live_.data());
    soa_.Set(pid, p);
    live_[static_cast<size_t>(pid)] = 1;
  } else {
    pid = soa_.Append(p);
    live_.push_back(1);
  }
  first_dead_ = static_cast<size_t>(pid) + 1;
  ++num_live_;
  return pid;
}

void ParticleTile::RemoveParticle(int32_t pid) {
  MPIC_DCHECK(pid >= 0 && static_cast<size_t>(pid) < live_.size());
  MPIC_CHECK_MSG(live_[static_cast<size_t>(pid)] != 0, "double remove");
  live_[static_cast<size_t>(pid)] = 0;
  first_dead_ = std::min(first_dead_, static_cast<size_t>(pid));
  --num_live_;
}

void ParticleTile::RestoreStorage(ParticleSoA soa, std::vector<uint8_t> live) {
  MPIC_CHECK(live.size() == soa.size());
  soa_ = std::move(soa);
  live_ = std::move(live);
  first_dead_ = 0;
  num_live_ = 0;
  for (const uint8_t b : live_) {
    num_live_ += b != 0 ? 1 : 0;
  }
  was_rebuilt_this_step = false;
}

int ParticleTile::CellOfParticle(const GridGeometry& geom, int32_t pid) const {
  const auto i = static_cast<size_t>(pid);
  const int ix = geom.CellX(soa_.x[i]);
  const int iy = geom.CellY(soa_.y[i]);
  const int iz = geom.CellZ(soa_.z[i]);
  MPIC_DCHECK(ContainsCell(ix, iy, iz));
  return LocalCellId(ix, iy, iz);
}

void ParticleTile::BuildGpma(const GridGeometry& geom, const GpmaConfig& config) {
  // The GPMA requires dense pids: build over all slots, assigning dead slots to
  // cell 0 then removing them, so pid == SoA slot stays true.
  std::vector<int32_t> cells(soa_.size(), 0);
  for (size_t pid = 0; pid < soa_.size(); ++pid) {
    if (live_[pid] != 0) {
      cells[pid] = static_cast<int32_t>(CellOfParticle(geom, static_cast<int32_t>(pid)));
    }
  }
  gpma_.Build(cells, std::max(1, num_cells()), config);
  for (size_t pid = 0; pid < soa_.size(); ++pid) {
    if (live_[pid] == 0) {
      gpma_.Remove(static_cast<int32_t>(pid));
    }
  }
}

int64_t ParticleTile::GlobalSortTile(const GridGeometry& geom,
                                     const GpmaConfig& config) {
  // Compact live particles in cell order, dropping dead slots entirely.
  // Cells are recomputed rather than stored, so the only per-particle index
  // array is `src`: tiles sort concurrently, and their temporaries add up.
  const int n_cells = std::max(1, num_cells());
  std::vector<int64_t> offsets;
  size_t n = 0;
  {
    // src[i]: the slot the i-th sorted particle comes from.
    const std::vector<int32_t> src = CountingSortByCell(
        static_cast<int32_t>(soa_.size()), n_cells,
        [&](int32_t pid) { return IsLive(pid) ? CellOfParticle(geom, pid) : -1; },
        &offsets);
    n = src.size();
    // One lane at a time through one buffer, back into the lane's own
    // storage: the extra memory is one lane, not a second SoA.
    std::vector<double> buffer(n);
    for (std::vector<double>* lane : soa_.Lanes()) {
      for (size_t i = 0; i < n; ++i) {
        buffer[i] = (*lane)[static_cast<size_t>(src[i])];
      }
      std::copy(buffer.begin(), buffer.end(), lane->begin());
      lane->resize(n);
    }
  }
  std::vector<int32_t> sorted_cells(n);
  for (int c = 0; c < n_cells; ++c) {
    std::fill(sorted_cells.begin() + offsets[static_cast<size_t>(c)],
              sorted_cells.begin() + offsets[static_cast<size_t>(c) + 1], c);
  }
  live_.assign(n, 1);
  first_dead_ = n;
  num_live_ = static_cast<int32_t>(n);
  gpma_.Build(sorted_cells, n_cells, config);
  was_rebuilt_this_step = false;
  return static_cast<int64_t>(n);
}

}  // namespace mpic
