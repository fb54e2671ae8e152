#include "src/hw/cost_ledger.h"

#include <sstream>

namespace mpic {

LedgerCounters operator-(const LedgerCounters& a, const LedgerCounters& b) {
  // A new LedgerCounters field must be subtracted below, which this assert
  // forces.
  static_assert(sizeof(LedgerCounters) == 18 * 8,
                "LedgerCounters changed: update operator-");
  LedgerCounters d;
  d.scalar_ops = a.scalar_ops - b.scalar_ops;
  d.scalar_mem = a.scalar_mem - b.scalar_mem;
  d.vpu_ops = a.vpu_ops - b.vpu_ops;
  d.vpu_mem = a.vpu_mem - b.vpu_mem;
  d.gathers = a.gathers - b.gathers;
  d.scatters = a.scatters - b.scatters;
  d.mopas = a.mopas - b.mopas;
  d.mopa_valid_slots = a.mopa_valid_slots - b.mopa_valid_slots;
  d.atomics = a.atomics - b.atomics;
  d.tasks_stolen = a.tasks_stolen - b.tasks_stolen;
  d.tasks_stolen_remote = a.tasks_stolen_remote - b.tasks_stolen_remote;
  d.steal_cycles = a.steal_cycles - b.steal_cycles;
  d.l1_hits = a.l1_hits - b.l1_hits;
  d.l1_misses = a.l1_misses - b.l1_misses;
  d.l2_hits = a.l2_hits - b.l2_hits;
  d.l2_misses = a.l2_misses - b.l2_misses;
  d.remote_lines = a.remote_lines - b.remote_lines;
  d.remote_cycles = a.remote_cycles - b.remote_cycles;
  return d;
}

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kPreproc:
      return "preproc";
    case Phase::kCompute:
      return "compute";
    case Phase::kSort:
      return "sort";
    case Phase::kReduce:
      return "reduce";
    case Phase::kGather:
      return "gather";
    case Phase::kPush:
      return "push";
    case Phase::kSolver:
      return "solver";
    case Phase::kCollide:
      return "collide";
    case Phase::kHealth:
      return "health";
    case Phase::kComm:
      return "comm";
    case Phase::kOther:
      return "other";
  }
  return "?";
}

void CostLedger::Reset() {
  cycles_.fill(0.0);
  counters_ = LedgerCounters{};
  phase_ = Phase::kOther;
}

void CostLedger::MergeParallel(const std::vector<const CostLedger*>& workers) {
  for (int p = 0; p < kNumPhases; ++p) {
    double critical = 0.0;
    for (const CostLedger* w : workers) {
      critical = w->cycles_[p] > critical ? w->cycles_[p] : critical;
    }
    cycles_[static_cast<size_t>(p)] += critical;
  }
  SumWorkerCounters(workers);
}

void CostLedger::MergeParallelFused(const std::vector<const CostLedger*>& workers) {
  // Critical core = max total cycles; ties resolve to the lowest worker index
  // so the attribution is deterministic for any thread schedule.
  const CostLedger* critical = nullptr;
  double best = -1.0;
  for (const CostLedger* w : workers) {
    const double total = w->TotalCycles();
    if (total > best) {
      best = total;
      critical = w;
    }
  }
  if (critical != nullptr) {
    for (int p = 0; p < kNumPhases; ++p) {
      cycles_[static_cast<size_t>(p)] += critical->cycles_[static_cast<size_t>(p)];
    }
  }
  SumWorkerCounters(workers);
}

void CostLedger::SumWorkerCounters(const std::vector<const CostLedger*>& workers) {
  for (const CostLedger* w : workers) {
    const LedgerCounters& c = w->counters_;
    counters_.scalar_ops += c.scalar_ops;
    counters_.scalar_mem += c.scalar_mem;
    counters_.vpu_ops += c.vpu_ops;
    counters_.vpu_mem += c.vpu_mem;
    counters_.gathers += c.gathers;
    counters_.scatters += c.scatters;
    counters_.mopas += c.mopas;
    counters_.mopa_valid_slots += c.mopa_valid_slots;
    counters_.atomics += c.atomics;
    counters_.tasks_stolen += c.tasks_stolen;
    counters_.tasks_stolen_remote += c.tasks_stolen_remote;
    counters_.steal_cycles += c.steal_cycles;
    counters_.l1_hits += c.l1_hits;
    counters_.l1_misses += c.l1_misses;
    counters_.l2_hits += c.l2_hits;
    counters_.l2_misses += c.l2_misses;
    counters_.remote_lines += c.remote_lines;
    counters_.remote_cycles += c.remote_cycles;
  }
}

void CostLedger::ScaleCyclesDelta(const std::array<double, kNumPhases>& before,
                                  double factor) {
  for (int p = 0; p < kNumPhases; ++p) {
    const double delta = cycles_[static_cast<size_t>(p)] - before[static_cast<size_t>(p)];
    cycles_[static_cast<size_t>(p)] = before[static_cast<size_t>(p)] + delta * factor;
  }
}

double CostLedger::TotalCycles() const {
  double total = 0.0;
  for (double c : cycles_) {
    total += c;
  }
  return total;
}

double CostLedger::DepositionCycles() const {
  return PhaseCycles(Phase::kPreproc) + PhaseCycles(Phase::kCompute) +
         PhaseCycles(Phase::kSort) + PhaseCycles(Phase::kReduce);
}

std::string CostLedger::Summary() const {
  std::ostringstream out;
  out << "cycles:";
  for (int i = 0; i < kNumPhases; ++i) {
    out << " " << PhaseName(static_cast<Phase>(i)) << "=" << cycles_[i];
  }
  out << "\nops: scalar=" << counters_.scalar_ops << " vpu=" << counters_.vpu_ops
      << " mopa=" << counters_.mopas << " mopa_valid=" << counters_.mopa_valid_slots
      << " gathers=" << counters_.gathers
      << " scatters=" << counters_.scatters << " atomics=" << counters_.atomics
      << " stolen=" << counters_.tasks_stolen
      << " (remote=" << counters_.tasks_stolen_remote << ")"
      << " steal_cyc=" << counters_.steal_cycles;
  out << "\ncache: l1h=" << counters_.l1_hits << " l1m=" << counters_.l1_misses
      << " l2h=" << counters_.l2_hits << " l2m=" << counters_.l2_misses;
  // Remote/local DRAM line split (remote_lines is a subset of l2_misses).
  const uint64_t local_lines = counters_.l2_misses - counters_.remote_lines;
  out << "\nnuma: remote_lines=" << counters_.remote_lines
      << " local_lines=" << local_lines
      << " rem/loc=" << (local_lines > 0
                             ? static_cast<double>(counters_.remote_lines) /
                                   static_cast<double>(local_lines)
                             : 0.0)
      << " remote_cyc=" << counters_.remote_cycles;
  return out.str();
}

}  // namespace mpic
