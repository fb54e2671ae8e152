// Diagnostics: energies, per-phase timing reports, throughput and
// peak-efficiency accounting (paper Sec. 5.2.2).

#ifndef MPIC_SRC_CORE_DIAGNOSTICS_H_
#define MPIC_SRC_CORE_DIAGNOSTICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/core/simulation.h"
#include "src/grid/field_set.h"
#include "src/hw/cost_ledger.h"
#include "src/hw/hw_context.h"
#include "src/particles/tile_set.h"

namespace mpic {

// Total electromagnetic field energy over the unique interior nodes [J].
double FieldEnergy(const FieldSet& fields);

// Total particle kinetic energy sum(w * (gamma-1) m c^2) [J].
double KineticEnergy(const TileSet& tiles, const Species& species);

// Same, summed across every species block of a simulation.
double TotalKineticEnergy(const Simulation& sim);

// Kinetic temperature proxy of one species [J]: m <|u - <u>|^2> / 3 with
// weighted means (non-relativistic, so meaningful only at u << c).
double SpeciesTemperature(const TileSet& tiles, const Species& species);

// Nodal charge density of every species, each deposited at its own engine's
// shape order, with periodic guard folding. `rho` is created with the
// simulation's geometry and two guard nodes.
FieldArray DepositChargeDensity(Simulation& sim);

// Fills `out` (same geometry/guards as rho) with the Gauss-law residual
// div E - rho/eps0 over the interior nodes [1, n-1) of each axis (the
// backward difference needs the node below; guard nodes are left at zero).
// Charge conservation diagnostics compare this field at two times: the
// Esirkepov scheme keeps it frozen to rounding, direct deposition lets it
// drift (tests/physics_test.cc, bench_abl_esirkepov).
void GaussResidualField(const FieldSet& fields, const FieldArray& rho,
                        FieldArray* out);

// Max |a - b| over the interior nodes both residual fields cover, divided by
// `scale` (pass e.g. max |rho0|/eps0). The headline charge-conservation
// metric.
double MaxResidualChange(const FieldArray& a, const FieldArray& b, double scale);

// Max |rho|/eps0 over interior nodes — the natural scale for residual drift.
double GaussResidualScale(const FieldArray& rho);

// Snapshot of per-phase ledger cycles, used to diff across a run.
using PhaseCycles = std::array<double, kNumPhases>;
PhaseCycles SnapshotCycles(const CostLedger& ledger);

// Timing report for a run segment, in modeled seconds at the machine clock.
struct RunReport {
  double wall_seconds = 0.0;
  PhaseCycles phase_seconds{};
  // preproc + compute + sort + reduce: the paper's "complete deposition
  // kernel time".
  double deposition_seconds = 0.0;
  int64_t particle_steps = 0;
  // Kernel throughput N_particles / T_deposition (paper Sec. 5.2.2).
  double particles_per_second = 0.0;
  // Fraction of the modeled machine's theoretical peak achieved on the
  // canonical effective work.
  double peak_efficiency = 0.0;

  std::string ToString() const;
};

// Builds a report from ledger deltas. `before` is the snapshot taken at the
// segment start; particle_steps the number of particle-push events in the
// segment; order the deposition order (for the canonical FLOP count).
RunReport MakeRunReport(const HwContext& hw, const PhaseCycles& before,
                        int64_t particle_steps, int order);

// What one measured window of a run charged and produced. Everything but
// `global_sorts` and the digests covers the measured steps only.
struct WindowRecord {
  // MakeRunReport over the window, at block 0's shape order.
  RunReport report;
  // Modeled cycles per phase, and the window's total: the ledger's
  // TotalCycles() at the end minus at the start.
  PhaseCycles phase_cycles{};
  double cycles = 0.0;
  LedgerCounters counters;
  int64_t particles = 0;  // particle pushes
  // Lifetime global sorts, summed over species.
  int64_t global_sorts = 0;
  // Mean fraction of the 64 MPU tile slots carrying useful work per MOPA
  // issue; 0 when the window issued none.
  double mpu_occupancy = 0.0;
  // SimulationDigest and LedgerDigest at the end of the window.
  uint64_t sim_digest = 0;
  uint64_t ledger_digest = 0;
  // Host wall time of the measured steps.
  double host_seconds = 0.0;
};

// Runs `warmup` unmeasured steps, then `steps` measured ones, and returns the
// measured window's record. Aborts if any phase's cycles over the window are
// not finite, or if the window touched memory outside every registered region
// (UnmappedTranslations, mem_map.h), whose modeled cycles vary from run to
// run.
WindowRecord MeasureWindow(Simulation& sim, int warmup, int steps);

}  // namespace mpic

#endif  // MPIC_SRC_CORE_DIAGNOSTICS_H_
