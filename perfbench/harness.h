// Workloads, model-neutral reads and layer probes of the two-clock benchmark.
//
// Everything here drives the simulator from outside, through its public
// headers: the benchmark measures the library as callers use it and adds no
// hooks to it. The two clocks are the modeled LX2 ledger (deterministic) and
// host wall time (what the simulator itself costs).

#ifndef MPIC_PERFBENCH_HARNESS_H_
#define MPIC_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/simulation.h"
#include "src/hw/hw_context.h"

namespace perfbench {

enum class Workload {
  kUniformQsp,        // periodic Maxwellian, QSP direct: the kernel workload
  kLwfa,              // laser wake, moving window, CIC: the application workload
  kBunchedEsirkepov,  // imbalanced bunch, Esirkepov, NUMA cost-steal scheduler
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::kUniformQsp, Workload::kLwfa, Workload::kBunchedEsirkepov};

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

// The fixed modeled machine each workload runs on.
mpic::MachineConfig WorkloadMachine(Workload w);

// Builds, seeds (from `seed`), scrambles and initializes the workload on `hw`.
std::unique_ptr<mpic::Simulation> BuildWorkload(Workload w, mpic::HwContext& hw,
                                                uint64_t seed);

// Every LedgerCounters field, by name. The integer counts convert to double
// exactly: they stay far below 2^53.
std::vector<std::pair<const char*, double>> CounterFields(
    const mpic::LedgerCounters& c);

// FNV-1a over all kNumPhases phase buckets and every LedgerCounters field:
// equal digests mean the modeled machine did bit-identical work.
uint64_t LedgerDigest(const mpic::CostLedger& ledger);

// CMAKE_BUILD_TYPE the benchmark was compiled with.
const char* BuildType();

// Restores the main context's ledger, cache and address map on destruction,
// so a diagnostic that charges the model (DepositChargeDensity does) leaves
// no trace in the modeled clock. Worker and rank contexts are not covered:
// only serial, main-context diagnostics may run inside the scope.
class ModelFreeze {
 public:
  explicit ModelFreeze(mpic::HwContext& hw)
      : hw_(hw), ledger_(hw.ledger()), cache_(hw.cache()), mem_(hw.mem()) {}
  ~ModelFreeze() {
    hw_.ledger() = ledger_;
    hw_.cache() = cache_;
    hw_.mem() = mem_;
  }
  ModelFreeze(const ModelFreeze&) = delete;
  ModelFreeze& operator=(const ModelFreeze&) = delete;

 private:
  mpic::HwContext& hw_;
  mpic::CostLedger ledger_;
  mpic::CacheModel cache_;
  mpic::MemMap mem_;
};

// Live particles whose cell lies outside their tile's box. The per-tile
// entry points (StageAndDepositTile, GlobalSort, GatherFieldsTile) assume
// zero; between moving-window steps it is not.
int64_t CountStrayParticles(const mpic::Simulation& sim);

// Wall-clock spans kept in memory and written out at exit: name, start, end,
// parent span, step index (-1 outside the step loop).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // seconds since the tracer was made
    double end_s = 0.0;
    int parent = -1;  // index into spans(), -1 at the top level
    int64_t step = -1;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  int Begin(const char* name, int64_t step = -1);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Cost of one serial layer probe: host seconds plus the modeled cycles and
// modeled memory accesses (L1 lookups) it charged to the main context.
struct ProbeResult {
  std::string name;
  double host_s = 0.0;
  double modeled_cycles = 0.0;
  uint64_t accesses = 0;
};

// Runs the layer probes serially on the main context, in pipeline order:
//   checkpoint_save, simulation_digest   (runtime)
//   sort_scan    BeginStep, ScanTile x all tiles, AccumulateScan,
//                DeliverMovers, PostScanGlobalSort                (sort)
//   deposit      StageAndDepositTile x all tiles, ReduceTile by color class
//   solver       UpdateB, UpdateE, UpdateB on a fresh MaxwellSolver
//   global_sort  DepositionEngine::GlobalSort                     (sort)
//   gather_push  GatherFieldsTile, PushTileBoris x all tiles     (push)
// sort_scan must precede every per-tile probe: it is what puts each particle
// back inside its tile after a moving-window shift. The run aborts if a
// per-tile probe would start with a particle outside its tile. gather_push
// runs last because it moves particles without boundary handling. The probes mutate
// the simulation; run them only after the measured window.
// Each probe gets a span when `tracer` is non-null. `after_each` (optional)
// sees every result as soon as its probe finishes.
std::vector<ProbeResult> RunLayerProbes(
    mpic::Simulation& sim, Tracer* tracer, size_t* checkpoint_bytes,
    uint64_t* digest,
    const std::function<void(const ProbeResult&)>& after_each = {});

}  // namespace perfbench

#endif  // MPIC_PERFBENCH_HARNESS_H_
