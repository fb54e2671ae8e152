#include "src/particles/particle_soa.h"

#include "src/common/check.h"

namespace mpic {

int32_t ParticleSoA::Append(const Particle& p) {
  x.push_back(p.x);
  y.push_back(p.y);
  z.push_back(p.z);
  ux.push_back(p.ux);
  uy.push_back(p.uy);
  uz.push_back(p.uz);
  w.push_back(p.w);
  xo.push_back(p.xo);
  yo.push_back(p.yo);
  zo.push_back(p.zo);
  return static_cast<int32_t>(x.size() - 1);
}

void ParticleSoA::Set(int32_t i, const Particle& p) {
  MPIC_DCHECK(i >= 0 && static_cast<size_t>(i) < size());
  const auto idx = static_cast<size_t>(i);
  x[idx] = p.x;
  y[idx] = p.y;
  z[idx] = p.z;
  ux[idx] = p.ux;
  uy[idx] = p.uy;
  uz[idx] = p.uz;
  w[idx] = p.w;
  xo[idx] = p.xo;
  yo[idx] = p.yo;
  zo[idx] = p.zo;
}

Particle ParticleSoA::Get(int32_t i) const {
  MPIC_DCHECK(i >= 0 && static_cast<size_t>(i) < size());
  const auto idx = static_cast<size_t>(i);
  return Particle{x[idx],  y[idx],  z[idx],  ux[idx], uy[idx], uz[idx],
                  w[idx],  xo[idx], yo[idx], zo[idx]};
}

void ParticleSoA::MoveToExactStorage() {
  for (std::vector<double>* lane : Lanes()) {
    std::vector<double>(*lane).swap(*lane);
  }
}

}  // namespace mpic
