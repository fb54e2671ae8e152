#include "src/core/diagnostics.h"

#include <chrono>
#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/deposit/deposit_scalar.h"
#include "src/deposit/esirkepov.h"
#include "src/hw/mem_map.h"
#include "src/particles/species.h"
#include "src/runtime/digest.h"

namespace mpic {

double FieldEnergy(const FieldSet& fields) {
  const GridGeometry& g = fields.geom;
  const double dv = g.dx * g.dy * g.dz;
  double e_energy = 0.0;
  double b_energy = 0.0;
  for (int k = 0; k < g.nz; ++k) {
    for (int j = 0; j < g.ny; ++j) {
      for (int i = 0; i < g.nx; ++i) {
        const double ex = fields.ex.At(i, j, k);
        const double ey = fields.ey.At(i, j, k);
        const double ez = fields.ez.At(i, j, k);
        const double bx = fields.bx.At(i, j, k);
        const double by = fields.by.At(i, j, k);
        const double bz = fields.bz.At(i, j, k);
        e_energy += ex * ex + ey * ey + ez * ez;
        b_energy += bx * bx + by * by + bz * bz;
      }
    }
  }
  return 0.5 * kEpsilon0 * e_energy * dv + 0.5 / kMu0 * b_energy * dv;
}

double KineticEnergy(const TileSet& tiles, const Species& species) {
  const double mc2 = species.mass * kSpeedOfLight * kSpeedOfLight;
  const double inv_c2 = 1.0 / (kSpeedOfLight * kSpeedOfLight);
  double energy = 0.0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    const ParticleTile& tile = tiles.tile(t);
    const ParticleSoA& soa = tile.soa();
    for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
      if (!tile.IsLive(pid)) {
        continue;
      }
      const auto i = static_cast<size_t>(pid);
      const double u2 =
          soa.ux[i] * soa.ux[i] + soa.uy[i] * soa.uy[i] + soa.uz[i] * soa.uz[i];
      const double gamma = std::sqrt(1.0 + u2 * inv_c2);
      energy += soa.w[i] * (gamma - 1.0) * mc2;
    }
  }
  return energy;
}

double SpeciesTemperature(const TileSet& tiles, const Species& species) {
  double sw = 0.0;
  double mean[3] = {0.0, 0.0, 0.0};
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    const ParticleTile& tile = tiles.tile(t);
    const ParticleSoA& soa = tile.soa();
    for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
      if (!tile.IsLive(pid)) {
        continue;
      }
      const auto i = static_cast<size_t>(pid);
      sw += soa.w[i];
      mean[0] += soa.w[i] * soa.ux[i];
      mean[1] += soa.w[i] * soa.uy[i];
      mean[2] += soa.w[i] * soa.uz[i];
    }
  }
  if (sw <= 0.0) {
    return 0.0;
  }
  for (double& m : mean) {
    m /= sw;
  }
  double var = 0.0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    const ParticleTile& tile = tiles.tile(t);
    const ParticleSoA& soa = tile.soa();
    for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
      if (!tile.IsLive(pid)) {
        continue;
      }
      const auto i = static_cast<size_t>(pid);
      const double dx = soa.ux[i] - mean[0];
      const double dy = soa.uy[i] - mean[1];
      const double dz = soa.uz[i] - mean[2];
      var += soa.w[i] * (dx * dx + dy * dy + dz * dz);
    }
  }
  return species.mass * var / (3.0 * sw);
}

FieldArray DepositChargeDensity(Simulation& sim) {
  const GridGeometry& g = sim.fields().geom;
  FieldArray rho(g.nx, g.ny, g.nz, 2);
  // rho is a fresh allocation on every call. Registered under its own key and
  // forgotten on return, it takes exactly one new logical region per call, so
  // its modeled accesses — and every later region's logical address — depend
  // on the call sequence alone, never on where the allocator put it.
  static const uint64_t kRhoKey = MemRegionKey(NextMemOwnerId(), 0, 0);
  sim.hw().RegisterRegionKeyed(kRhoKey, rho.data(),
                               rho.vec().size() * sizeof(double));
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    SpeciesBlock& b = sim.block(sid);
    DepositParams dp;
    dp.geom = b.tiles.geom();
    dp.charge = b.species.charge;
    for (int t = 0; t < b.tiles.num_tiles(); ++t) {
      switch (b.engine.config().order) {
        case 1:
          DepositCharge<1>(sim.hw(), b.tiles.tile(t), dp, rho);
          break;
        case 2:
          DepositCharge<2>(sim.hw(), b.tiles.tile(t), dp, rho);
          break;
        case 3:
          DepositCharge<3>(sim.hw(), b.tiles.tile(t), dp, rho);
          break;
        default:
          MPIC_CHECK_MSG(false, "unsupported shape order");
      }
    }
  }
  sim.hw().mem().ForgetKeyed(kRhoKey);
  rho.FoldGuardsPeriodic();
  return rho;
}

void GaussResidualField(const FieldSet& fields, const FieldArray& rho,
                        FieldArray* out) {
  const GridGeometry& g = fields.geom;
  for (int k = 1; k < g.nz - 1; ++k) {
    for (int j = 1; j < g.ny - 1; ++j) {
      for (int i = 1; i < g.nx - 1; ++i) {
        const double div_e =
            (fields.ex.At(i, j, k) - fields.ex.At(i - 1, j, k)) / g.dx +
            (fields.ey.At(i, j, k) - fields.ey.At(i, j - 1, k)) / g.dy +
            (fields.ez.At(i, j, k) - fields.ez.At(i, j, k - 1)) / g.dz;
        out->At(i, j, k) = div_e - rho.At(i, j, k) / kEpsilon0;
      }
    }
  }
}

double MaxResidualChange(const FieldArray& a, const FieldArray& b, double scale) {
  MPIC_CHECK(a.vec().size() == b.vec().size());
  MPIC_CHECK(scale > 0.0);
  double max_change = 0.0;
  for (size_t i = 0; i < a.vec().size(); ++i) {
    max_change = std::max(max_change, std::fabs(a.vec()[i] - b.vec()[i]));
  }
  return max_change / scale;
}

double GaussResidualScale(const FieldArray& rho) {
  double scale = 0.0;
  for (int k = 1; k < rho.nz() - 1; ++k) {
    for (int j = 1; j < rho.ny() - 1; ++j) {
      for (int i = 1; i < rho.nx() - 1; ++i) {
        scale = std::max(scale, std::fabs(rho.At(i, j, k) / kEpsilon0));
      }
    }
  }
  return scale;
}

double TotalKineticEnergy(const Simulation& sim) {
  double energy = 0.0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const SpeciesBlock& b = sim.block(sid);
    energy += KineticEnergy(b.tiles, b.species);
  }
  return energy;
}

PhaseCycles SnapshotCycles(const CostLedger& ledger) {
  PhaseCycles c{};
  for (int p = 0; p < kNumPhases; ++p) {
    c[static_cast<size_t>(p)] = ledger.PhaseCycles(static_cast<Phase>(p));
  }
  return c;
}

RunReport MakeRunReport(const HwContext& hw, const PhaseCycles& before,
                        int64_t particle_steps, int order) {
  RunReport r;
  const PhaseCycles now = SnapshotCycles(hw.ledger());
  double total_cycles = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    const double delta = now[static_cast<size_t>(p)] - before[static_cast<size_t>(p)];
    r.phase_seconds[static_cast<size_t>(p)] = hw.cfg().CyclesToSeconds(delta);
    total_cycles += delta;
  }
  r.wall_seconds = hw.cfg().CyclesToSeconds(total_cycles);
  r.deposition_seconds = r.phase_seconds[static_cast<size_t>(Phase::kPreproc)] +
                         r.phase_seconds[static_cast<size_t>(Phase::kCompute)] +
                         r.phase_seconds[static_cast<size_t>(Phase::kSort)] +
                         r.phase_seconds[static_cast<size_t>(Phase::kReduce)];
  r.particle_steps = particle_steps;
  if (r.deposition_seconds > 0.0) {
    r.particles_per_second =
        static_cast<double>(particle_steps) / r.deposition_seconds;
  }
  const double dep_cycles = r.deposition_seconds * hw.cfg().freq_ghz * 1e9;
  if (dep_cycles > 0.0) {
    const double useful_flops =
        CanonicalFlopsPerParticle(order) * static_cast<double>(particle_steps);
    r.peak_efficiency = useful_flops / (dep_cycles * hw.cfg().PeakFlopsPerCycle());
  }
  return r;
}

WindowRecord MeasureWindow(Simulation& sim, int warmup, int steps) {
  const CostLedger& ledger = sim.hw().ledger();
  sim.Run(warmup);
  const PhaseCycles before = SnapshotCycles(ledger);
  const double total_before = ledger.TotalCycles();
  const LedgerCounters counters_before = ledger.counters();
  const int64_t pushed_before = sim.particles_pushed();
  const uint64_t unmapped_before = UnmappedTranslations();
  const auto start = std::chrono::steady_clock::now();
  sim.Run(steps);
  const auto end = std::chrono::steady_clock::now();
  MPIC_CHECK_MSG(UnmappedTranslations() == unmapped_before,
                 "the measured window touched unregistered memory");

  WindowRecord r;
  r.host_seconds = std::chrono::duration<double>(end - start).count();
  const PhaseCycles after = SnapshotCycles(ledger);
  for (size_t p = 0; p < after.size(); ++p) {
    r.phase_cycles[p] = after[p] - before[p];
    MPIC_CHECK_MSG(std::isfinite(r.phase_cycles[p]),
                   "a phase charged non-finite cycles in the measured window");
  }
  r.cycles = ledger.TotalCycles() - total_before;
  r.counters = ledger.counters() - counters_before;
  r.particles = sim.particles_pushed() - pushed_before;
  r.report = MakeRunReport(sim.hw(), before, r.particles,
                           sim.block(0).engine.config().order);
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    r.global_sorts += sim.block(sid).engine.total_global_sorts();
  }
  if (r.counters.mopas != 0) {
    r.mpu_occupancy = static_cast<double>(r.counters.mopa_valid_slots) /
                      (64.0 * static_cast<double>(r.counters.mopas));
  }
  r.sim_digest = SimulationDigest(sim);
  r.ledger_digest = LedgerDigest(ledger);
  return r;
}

std::string RunReport::ToString() const {
  std::ostringstream out;
  out << "wall=" << wall_seconds << "s dep=" << deposition_seconds << "s";
  for (int p = 0; p < kNumPhases; ++p) {
    out << " " << PhaseName(static_cast<Phase>(p)) << "="
        << phase_seconds[static_cast<size_t>(p)];
  }
  out << " pps=" << particles_per_second << " eff=" << peak_efficiency;
  return out.str();
}

}  // namespace mpic
