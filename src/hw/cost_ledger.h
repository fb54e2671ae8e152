// Cycle and event accounting for the modeled machine.
//
// Every modeled operation charges cycles to the ledger under the currently
// active Phase. The bench harness reads phases back to print the paper's
// Total / Preproc / Compute / Sort breakdown (Tables 1-2) and the wall-time
// stacks (Figures 8-10).

#ifndef MPIC_SRC_HW_COST_LEDGER_H_
#define MPIC_SRC_HW_COST_LEDGER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mpic {

// Phases mirror the paper's kernel decomposition plus the rest of the PIC loop.
enum class Phase : int {
  kPreproc = 0,  // VPU data staging: shape factors, weights, indices
  kCompute,      // deposition arithmetic (VPU or MPU)
  kSort,         // incremental sort + GPMA maintenance + global sorts
  kReduce,       // rhocell -> global J reduction
  kGather,       // field gather (grid -> particle)
  kPush,         // particle push
  kSolver,       // Maxwell field solve
  kCollide,      // binary Monte-Carlo collisions (cell pairing + scattering)
  kHealth,       // resilience sentinels + checkpoint serialization traffic
  kComm,         // modeled inter-rank communication: halo exchange + migration
  kOther,
};
inline constexpr int kNumPhases = 11;

const char* PhaseName(Phase p);

struct LedgerCounters {
  // Instruction/event counts.
  uint64_t scalar_ops = 0;
  uint64_t scalar_mem = 0;
  uint64_t vpu_ops = 0;
  uint64_t vpu_mem = 0;
  uint64_t gathers = 0;
  uint64_t scatters = 0;
  uint64_t mopas = 0;
  // Tile slots carrying useful work, summed over all MOPA issues (each MOPA
  // has kMpuTile^2 = 64 slots). mopa_valid_slots / (64 * mopas) is the mean
  // MPU occupancy — the measured form of the per-kernel utilization figures
  // (25% CIC / 50% QSP direct; window-width dependent for Esirkepov).
  uint64_t mopa_valid_slots = 0;
  // No modeled operation charges atomics; the field stays 0, kept while
  // perfbench's CounterFields pins the struct's size.
  uint64_t atomics = 0;
  // Work-stealing events (TileSchedulePolicy::kCostSteal): number of tile
  // tasks a core pulled from another core's queue, and the modeled cycles
  // spent doing so (steal_cost_cycles + one remote line each).
  // tasks_stolen_remote counts the subset pulled across a NUMA domain
  // boundary (charged steal_cost * remote_mem_latency_factor +
  // remote_line_transfer_cycles instead).
  uint64_t tasks_stolen = 0;
  uint64_t tasks_stolen_remote = 0;
  double steal_cycles = 0.0;
  // Cache events.
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  // NUMA events: DRAM-level misses whose line is homed in another domain (a
  // subset of l2_misses), and the extra cycles the remote factor charged for
  // them. remote_lines / (l2_misses - remote_lines) is the remote/local line
  // ratio the placement policy tries to push down.
  uint64_t remote_lines = 0;
  double remote_cycles = 0.0;
};

// Field-by-field a - b: the counters charged between snapshot b and a later
// snapshot a of one ledger.
LedgerCounters operator-(const LedgerCounters& a, const LedgerCounters& b);

class CostLedger {
 public:
  void Reset();

  void SetPhase(Phase p) { phase_ = p; }
  Phase phase() const { return phase_; }

  void AddCycles(double c) { cycles_[static_cast<int>(phase_)] += c; }

  double PhaseCycles(Phase p) const { return cycles_[static_cast<int>(p)]; }
  double TotalCycles() const;
  // Cycles across the deposition kernel phases only (Preproc+Compute+Sort+Reduce),
  // matching the paper's "complete deposition kernel time".
  double DepositionCycles() const;

  LedgerCounters& counters() { return counters_; }
  const LedgerCounters& counters() const { return counters_; }

  // Merges one parallel region's per-core ledgers into this one. Cycles are
  // charged as the region's critical path — per phase, the max over cores,
  // matching how cores overlap in time — while instruction and cache event
  // counters sum, so throughput/efficiency accounting still sees all the work.
  void MergeParallel(const std::vector<const CostLedger*>& workers);

  // Merge for a *fused* multi-stage region (several pipeline stages run
  // back-to-back on each core inside one fan-out). Per-phase max would bill
  // each stage at its own slowest core even though a core slow in one stage
  // overlaps another core's slow stage; here the region's wall time is the
  // slowest core's TOTAL cycles, attributed per phase according to that
  // critical core's own stage split — so the phase breakdown still sums
  // exactly to the region's charged cycles. Counters sum over all cores.
  void MergeParallelFused(const std::vector<const CostLedger*>& workers);

  // Human-readable multi-line summary (debugging aid).
  std::string Summary() const;

  // Snapshot of the per-phase cycle array, for ScaleCyclesDelta below.
  const std::array<double, kNumPhases>& phase_cycles() const { return cycles_; }

  // Rescales the cycles charged since `before` (a phase_cycles() snapshot) by
  // `factor`, leaving counters untouched. Used to model serial-but-
  // rank-decomposable work: R ranks each run 1/R of a loop concurrently, so
  // the wall-clock charge is the serial charge divided by R.
  void ScaleCyclesDelta(const std::array<double, kNumPhases>& before,
                        double factor);

 private:
  void SumWorkerCounters(const std::vector<const CostLedger*>& workers);

  Phase phase_ = Phase::kOther;
  std::array<double, kNumPhases> cycles_{};
  LedgerCounters counters_;
};

// RAII helper: sets a phase for a scope, restores the previous phase on exit.
class PhaseScope {
 public:
  PhaseScope(CostLedger& ledger, Phase p) : ledger_(ledger), prev_(ledger.phase()) {
    ledger_.SetPhase(p);
  }
  ~PhaseScope() { ledger_.SetPhase(prev_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  CostLedger& ledger_;
  Phase prev_;
};

// RAII helper modeling a serial code region whose work is evenly split across
// `ranks` modeled ranks running concurrently: on destruction the cycles
// charged inside the scope are divided by `ranks`. Counters are untouched (the
// work still happens, on some rank). A no-op for ranks <= 1, so call sites can
// wrap unconditionally. Must NOT enclose a parallel region (ParallelForTiles
// already merges rank-concurrent charges) — that would scale twice.
class ScopedRankScale {
 public:
  ScopedRankScale(CostLedger& ledger, int ranks)
      : ledger_(ledger), ranks_(ranks), before_(ledger.phase_cycles()) {}
  ~ScopedRankScale() {
    if (ranks_ > 1) {
      ledger_.ScaleCyclesDelta(before_, 1.0 / static_cast<double>(ranks_));
    }
  }
  ScopedRankScale(const ScopedRankScale&) = delete;
  ScopedRankScale& operator=(const ScopedRankScale&) = delete;

 private:
  CostLedger& ledger_;
  int ranks_;
  std::array<double, kNumPhases> before_;
};

}  // namespace mpic

#endif  // MPIC_SRC_HW_COST_LEDGER_H_
