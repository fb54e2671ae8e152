// Structure-of-Arrays particle storage for one tile.
//
// Components use the common PIC convention: position in meters, momentum as
// proper velocity u = gamma*v in m/s, and a macro-particle weight w (number of
// physical particles represented). Slots are stable: a particle's index (its
// tile-local pid) never changes between global sorts; the owning tile reuses
// removed slots, lowest first.

#ifndef MPIC_SRC_PARTICLES_PARTICLE_SOA_H_
#define MPIC_SRC_PARTICLES_PARTICLE_SOA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpic {

struct Particle {
  double x = 0.0, y = 0.0, z = 0.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
  double w = 1.0;
  // Pre-push position (old-position lanes), consumed by the charge-conserving
  // Esirkepov current scheme. Carried through Get/Set/Append so a particle's
  // displacement stays well-defined across tile hops (mover delivery) and
  // counting sorts. Valid only between the capture stage and the deposit of
  // the same step; freshly created particles may leave it at 0.
  double xo = 0.0, yo = 0.0, zo = 0.0;
};

class ParticleSoA {
 public:
  size_t size() const { return x.size(); }

  // Appends a slot and returns its index.
  int32_t Append(const Particle& p);

  // Overwrites an existing slot.
  void Set(int32_t i, const Particle& p);
  Particle Get(int32_t i) const;

  // The ten lanes, in declaration order.
  std::array<std::vector<double>*, 10> Lanes() {
    return {&x, &y, &z, &ux, &uy, &uz, &w, &xo, &yo, &zo};
  }
  // Moves every lane to fresh storage of exactly size() elements.
  void MoveToExactStorage();

  std::vector<double> x, y, z;
  std::vector<double> ux, uy, uz;
  std::vector<double> w;
  // Old-position lanes (see Particle::xo): written by the pipeline's capture
  // stage each step when the engine runs CurrentScheme::kEsirkepov, shifted
  // alongside the position on periodic wrap, and permuted with the other
  // lanes by the counting sort.
  std::vector<double> xo, yo, zo;
};

}  // namespace mpic

#endif  // MPIC_SRC_PARTICLES_PARTICLE_SOA_H_
