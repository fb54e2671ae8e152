// Per-step health sentinels: value-based checks that a step's particles,
// fields, census and energy are still sane.
//
// Detection is split to match where each fault class becomes visible:
//
//   GuardTileFull      — pass-1 prologue, before the gather indexes the grid
//                        with the tile's positions: full-lane scan (x/y/z/
//                        ux/uy/uz/w) for non-finite values and out-of-domain
//                        positions, plus the kinetic-energy partial the
//                        energy sentinel consumes. A corrupted particle
//                        lane is caught here, before the poisoned position
//                        can index out of bounds.
//   GuardTilePositions — post-push, before the periodic boundary wrap:
//                        position-only recheck. A non-finite field gathered
//                        this step turns into a non-finite push result within
//                        the same pass; the wrap (fmod-based) would silently
//                        launder any finite excursion and CellX(NaN) is
//                        undefined, so this is the last point the evidence
//                        still exists.
//   FinishStep         — step epilogue: E/B/J non-finite + magnitude scan,
//                        particle-census conservation (prev + injected -
//                        dropped == live), total-energy drift, and (optional,
//                        Esirkepov only) Gauss-residual drift.
//
// A tile either guard trips is *quarantined* for the rest of the step: the
// pipeline skips its gather/push/boundary/scan/deposit so poisoned lanes are
// never consumed, and its J contribution is zero. Quarantine is per
// (species, tile) and resets each step.
//
// All checks are value-based and deterministic, so a run with sentinels
// enabled stays bit-identical across core and thread counts; their modeled
// cost is charged under Phase::kHealth, which is excluded from
// DepositionCycles() so the re-sort policy's throughput trigger never sees it.

#ifndef MPIC_SRC_RUNTIME_HEALTH_H_
#define MPIC_SRC_RUNTIME_HEALTH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/grid/field_array.h"
#include "src/grid/grid_geometry.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

class Simulation;
struct SimStepStats;

struct HealthConfig {
  // Per-particle lane guards (GuardTileFull / GuardTilePositions).
  bool check_particles = true;
  // E/B/J non-finite + magnitude scan at the step epilogue.
  bool check_fields = true;
  // Particle-census conservation: prev_live + injected - dropped == live.
  bool check_census = true;
  // Total (field + kinetic) energy step-drift bound.
  bool check_energy = true;
  // Gauss-residual drift check every N-th monitored step; 0 disables. Only
  // meaningful under the Esirkepov scheme, and expensive (a full charge
  // deposit), so it defaults off.
  int gauss_interval = 0;
  // Cycle-ledger regression sentinel: trip when a step's modeled cycles
  // exceed the rolling baseline by max_cycle_step_factor. This catches
  // performance faults the physics sentinels never see — a poisoned cost
  // estimate, a scheduler regression, a tile that suddenly re-sorts every
  // step — while staying deterministic (modeled cycles, not wall clock).
  // Remote-memory (NUMA) surcharges are ordinary modeled cycles and feed the
  // same EMA baseline, so a placement regression — a schedule that suddenly
  // sends tiles across domains — trips this sentinel like any other cost
  // fault. Defaults off: workloads with legitimate step-cost cliffs
  // (moving-window shifts, periodic global sorts) should either widen the
  // factor or leave it disabled.
  bool check_cycles = false;

  // Any field node with |value| above this trips the field sentinel. Flipping
  // a high exponent bit of a physical field value lands ~300 decades out, so
  // a generous bound adds no false positives.
  double max_field_magnitude = 1e30;
  // Energy sentinel: relative step-over-step change of total energy. Loose by
  // default — a u-lane exponent flip inflates the kinetic energy by hundreds
  // of decades, far past any physical growth rate. Workloads with external
  // energy injection (laser drive) should widen or disable it.
  double max_energy_step_rel_change = 0.5;
  // Gauss sentinel: max residual change between consecutive monitored steps,
  // relative to max |rho|/eps0 at the baseline.
  double max_gauss_residual_drift = 1e-6;
  // Cycle sentinel: a step trips when its modeled cycles exceed
  // factor * baseline, where the baseline is an exponential moving average of
  // prior (untripped) step costs. Steady-state PIC steps vary by a few
  // percent, so 3x is far outside normal jitter yet catches an
  // order-of-magnitude fault immediately.
  double max_cycle_step_factor = 3.0;
  // Steps whose cycle deltas feed the baseline before the trip arms. The
  // first steps of a run legitimately cost more (cold modeled caches, the
  // initial global sort), and at least one full delta is needed before a
  // ratio means anything.
  int cycle_warmup_steps = 3;
};

enum class SentinelStatus : int8_t { kDisabled = 0, kOk, kTripped };
const char* SentinelStatusName(SentinelStatus s);

struct SentinelReport {
  SentinelStatus status = SentinelStatus::kDisabled;
  // Offending element count (lanes / nodes / missing particles).
  int64_t count = 0;
  // Measured metric (max |field|, relative energy change, residual drift).
  double value = 0.0;

  bool tripped() const { return status == SentinelStatus::kTripped; }
};

// The structured per-step health block carried in SimStepStats.
struct HealthStepReport {
  bool checked = false;  // the monitor ran this step
  SentinelReport particles;
  SentinelReport fields;
  SentinelReport census;
  SentinelReport energy;
  SentinelReport gauss;
  // value = step cycles / baseline once armed; count carries the baseline.
  SentinelReport cycles;
  int64_t quarantined_tiles = 0;

  bool tripped() const {
    return particles.tripped() || fields.tripped() || census.tripped() ||
           energy.tripped() || gauss.tripped() || cycles.tripped();
  }
  // One-line summary for per-step example prints.
  std::string Summary() const;
};

// Per-worker guard partial. The pipeline keeps one slot per worker and folds
// them in worker order (AccumulateTilePartial), so the kinetic-energy sum is
// deterministic for a given core count.
struct HealthTilePartial {
  int64_t nonfinite = 0;
  int64_t out_of_bounds = 0;
  int64_t quarantined = 0;
  double kinetic = 0.0;  // sum w (gamma-1) m c^2 over clean live particles
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthConfig& cfg) : cfg_(cfg) {}

  const HealthConfig& config() const { return cfg_; }

  // Resets the quarantine map and the step's guard partial. Called by the
  // step pipeline before the first particle stage.
  void BeginStep(int num_species, int num_tiles);

  // Full-lane guard (see file comment). Returns false — and quarantines
  // (sid, t) — when the tile holds a non-finite lane or an out-of-domain
  // position (|excursion| > margin). Charges `hw` under Phase::kHealth; safe
  // to call tile-parallel (each (sid, t) is written by exactly one worker).
  bool GuardTileFull(HwContext& hw, const ParticleTile& tile,
                     const GridGeometry& geom, double margin, double mass,
                     int sid, int t, HealthTilePartial* part);

  // Position-only guard (post-push, pre-wrap). `margin` must admit one step
  // of legitimate motion (> c*dt).
  bool GuardTilePositions(HwContext& hw, const ParticleTile& tile,
                          const GridGeometry& geom, double margin, int sid,
                          int t, HealthTilePartial* part);

  bool IsQuarantined(int sid, int t) const {
    return !quarantined_.empty() &&
           quarantined_[static_cast<size_t>(sid) *
                            static_cast<size_t>(num_tiles_) +
                        static_cast<size_t>(t)] != 0;
  }
  bool AnyQuarantined() const;

  // Folds one worker's guard partial; call in worker order after each region.
  void AccumulateTilePartial(const HealthTilePartial& part);

  // Step epilogue: runs the field/census/energy/Gauss sentinels against the
  // post-solve state and fills stats->health. Expects stats->species to carry
  // this step's live/dropped/injected census.
  void FinishStep(Simulation& sim, SimStepStats* stats);

 private:
  void Quarantine(int sid, int t) {
    quarantined_[static_cast<size_t>(sid) * static_cast<size_t>(num_tiles_) +
                 static_cast<size_t>(t)] = 1;
  }
  double CurrentTotalEnergy(Simulation& sim, double kinetic_from_guards,
                            bool use_guard_kinetic) const;

  HealthConfig cfg_;
  int num_tiles_ = 0;
  std::vector<uint8_t> quarantined_;  // [sid * num_tiles_ + t]
  HealthTilePartial step_partial_;

  // Sentinel baselines (armed on the first monitored step).
  bool have_census_ = false;
  int64_t prev_live_ = 0;
  bool have_energy_ = false;
  double prev_energy_ = 0.0;
  std::optional<FieldArray> prev_gauss_residual_;
  double gauss_scale_ = 0.0;
  int64_t steps_checked_ = 0;

  // Cycle sentinel state: ledger total at the previous step's epilogue, the
  // EMA baseline of per-step cycles, and how many deltas have fed it.
  bool have_cycle_mark_ = false;
  double prev_total_cycles_ = 0.0;
  double cycle_baseline_ = 0.0;
  int cycle_samples_ = 0;
};

}  // namespace mpic

#endif  // MPIC_SRC_RUNTIME_HEALTH_H_
