// One workload of the two-clock benchmark, in one process.
//
//   perfbench --workload NAME --seed N --steps N [--trace PATH]
//
// Builds the workload (timed) and warms it up through its first global sort,
// then times `steps` measured steps. Physics checks run between steps,
// outside the host timers, and with the modeled machine frozen
// (ModelFreeze), so the window's ledger is exactly what the steps charged.
// With --trace the run also keeps spans and per-step ledger deltas in
// memory, runs the layer probes after the window, and writes all of it to
// PATH at exit. With --steps 0 it only times kSetupBuilds builds, each on a
// fresh machine. Prints one JSON record on stdout; run.py turns it into
// metrics.

#include <omp.h>
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "harness.h"
#include "src/core/diagnostics.h"
#include "src/runtime/digest.h"

namespace {

using mpic::CostLedger;
using mpic::JsonWriter;
using mpic::LedgerCounters;
using mpic::Simulation;
using perfbench::Workload;

// Window-end limits. The measured values at the reference seed are 5.5e-15
// (Gauss residual change over 20 steps, Esirkepov) and -3.1e-4 (total energy
// drift over 20 steps, QSP direct); the limits sit far above rounding and
// far below a broken scheme.
constexpr double kGaussResidualLimit = 1e-9;
constexpr double kEnergyDriftLimit = 5e-3;

// The warm-up runs through the first global sort, so the window starts right
// after a sort on every workload and seed: with sorts every 10 steps, a
// window of whole 10-step periods then holds each step of the sort cycle
// once per period. The first sort comes at step 9 on uniform_qsp and lwfa and
// near step 25 on bunched_esirkepov; the cap only matters if a workload
// stops sorting.
constexpr int kMaxWarmupSteps = 50;

// Builds timed by a set-up-only run (--steps 0).
constexpr int kSetupBuilds = 3;

struct Options {
  Workload workload = Workload::kUniformQsp;
  uint64_t seed = 1;
  int steps = -1;
  std::string trace_path;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      have_workload = perfbench::ParseWorkload(val, &o->workload);
    } else if (key == "--seed") {
      o->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--steps") {
      o->steps = std::atoi(val);
    } else if (key == "--trace") {
      o->trace_path = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o->steps >= 0;
}

// Writes the per-phase cycle and per-counter deltas between two ledgers as
// the objects "phase_cycles" and "counters".
void WriteLedgerDelta(JsonWriter& j, const CostLedger& after, const CostLedger& before) {
  j.BeginObject("phase_cycles");
  for (int p = 0; p < mpic::kNumPhases; ++p) {
    const auto phase = static_cast<mpic::Phase>(p);
    j.Field(mpic::PhaseName(phase), after.PhaseCycles(phase) - before.PhaseCycles(phase));
  }
  j.EndObject();
  const auto a = perfbench::CounterFields(after.counters());
  const auto b = perfbench::CounterFields(before.counters());
  j.BeginObject("counters");
  for (size_t i = 0; i < a.size(); ++i) {
    j.Field(a[i].first, a[i].second - b[i].second);
  }
  j.EndObject();
}

// Sum of per-step ledger deltas, to prove the step-boundary reads saw every
// cycle the window charged (nothing charged the model between steps).
struct LedgerSum {
  std::vector<double> phases = std::vector<double>(mpic::kNumPhases, 0.0);
  uint64_t accesses = 0;
  void Add(const CostLedger& after, const CostLedger& before) {
    for (int p = 0; p < mpic::kNumPhases; ++p) {
      const auto phase = static_cast<mpic::Phase>(p);
      phases[static_cast<size_t>(p)] +=
          after.PhaseCycles(phase) - before.PhaseCycles(phase);
    }
    accesses += (after.counters().l1_hits + after.counters().l1_misses) -
                (before.counters().l1_hits + before.counters().l1_misses);
  }
  bool Matches(const CostLedger& after, const CostLedger& before) const {
    for (int p = 0; p < mpic::kNumPhases; ++p) {
      const auto phase = static_cast<mpic::Phase>(p);
      const double window = after.PhaseCycles(phase) - before.PhaseCycles(phase);
      if (std::fabs(phases[static_cast<size_t>(p)] - window) >
          1e-9 * std::max(1.0, std::fabs(window))) {
        return false;
      }
    }
    return accesses == (after.counters().l1_hits + after.counters().l1_misses) -
                           (before.counters().l1_hits + before.counters().l1_misses);
  }
};

// Scoped span that is a no-op when tracing is off.
class SpanScope {
 public:
  SpanScope(perfbench::Tracer* t, const char* name, int64_t step = -1)
      : t_(t), id_(t != nullptr ? t->Begin(name, step) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  perfbench::Tracer* t_;
  int id_;
};

// Window-end physics reference: the Gauss residual field (Esirkepov keeps it
// frozen to rounding) or the total energy (QSP direct drifts slowly). LWFA
// gets none: its laser pumps energy in by design.
struct WindowReference {
  std::string kind = "none";
  double limit = 0.0;
  double energy = 0.0;
  double scale = 0.0;
  mpic::FieldArray residual;
};

mpic::FieldArray GaussResidual(Simulation& sim, double* scale) {
  // DepositChargeDensity charges the main context; the freeze undoes it.
  perfbench::ModelFreeze freeze(sim.hw());
  const mpic::FieldArray rho = mpic::DepositChargeDensity(sim);
  mpic::FieldArray res(rho.nx(), rho.ny(), rho.nz(), rho.ng());
  mpic::GaussResidualField(sim.fields(), rho, &res);
  if (scale != nullptr) {
    *scale = mpic::GaussResidualScale(rho);
  }
  return res;
}

double TotalEnergy(const Simulation& sim) {
  return mpic::FieldEnergy(sim.fields()) + mpic::TotalKineticEnergy(sim);
}

WindowReference CaptureReference(Workload w, Simulation& sim) {
  WindowReference ref;
  if (w == Workload::kBunchedEsirkepov) {
    ref.kind = "gauss_residual_change";
    ref.limit = kGaussResidualLimit;
    ref.residual = GaussResidual(sim, &ref.scale);
  } else if (w == Workload::kUniformQsp) {
    ref.kind = "total_energy_drift";
    ref.limit = kEnergyDriftLimit;
    ref.energy = TotalEnergy(sim);
  }
  return ref;
}

// Signed drift for the energy check, residual change for the Gauss check.
double EvaluateReference(const WindowReference& ref, Simulation& sim) {
  if (ref.kind == "gauss_residual_change") {
    return mpic::MaxResidualChange(GaussResidual(sim, nullptr), ref.residual,
                                   ref.scale);
  }
  if (ref.kind == "total_energy_drift") {
    return (TotalEnergy(sim) - ref.energy) / ref.energy;
  }
  return 0.0;
}

std::vector<int64_t> LivePerSpecies(const Simulation& sim) {
  std::vector<int64_t> live;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    live.push_back(sim.block(sid).tiles.TotalLive());
  }
  return live;
}

int64_t GlobalSorts(const Simulation& sim) {
  int64_t sorts = 0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    sorts += sim.block(sid).engine.total_global_sorts();
  }
  return sorts;
}

// CPU seconds consumed by all threads of the process so far.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload uniform_qsp|lwfa|bunched_esirkepov --seed N "
                 "--steps N [--trace PATH]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Tracer tracer;
  perfbench::Tracer* tr = opt.trace_path.empty() ? nullptr : &tracer;
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto since = [&now](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(now() - t0).count();
  };

  JsonWriter out;
  out.Field("workload", perfbench::WorkloadName(opt.workload));
  out.Field("seed", opt.seed);
  out.Field("threads", omp_get_max_threads());
  out.Field("build_type", perfbench::BuildType());

  // Every build is a fresh machine and a fresh simulation.
  std::vector<double> setup_s;
  std::unique_ptr<mpic::HwContext> hw;
  std::unique_ptr<Simulation> sim;
  const auto timed_build = [&] {
    sim.reset();
    hw.reset();
    hw = std::make_unique<mpic::HwContext>(perfbench::WorkloadMachine(opt.workload));
    SpanScope build_span(tr, "build");
    const auto t0 = now();
    sim = perfbench::BuildWorkload(opt.workload, *hw, opt.seed);
    setup_s.push_back(since(t0));
  };
  do {
    timed_build();
  } while (opt.steps == 0 && static_cast<int>(setup_s.size()) < kSetupBuilds);
  out.BeginArray("builds");
  for (double s : setup_s) {
    out.BeginObject();
    out.Field("setup_s", s);
    out.EndObject();
  }
  out.EndArray();
  if (opt.steps == 0) {
    std::printf("%s\n", out.Finish().c_str());
    return 0;
  }

  int warmup_steps = 0;
  {
    SpanScope warmup_span(tr, "warmup");
    const int64_t sorts_built = GlobalSorts(*sim);
    while (warmup_steps < kMaxWarmupSteps && GlobalSorts(*sim) == sorts_built) {
      SpanScope step_span(tr, "step", sim->step_count());
      sim->Step();
      ++warmup_steps;
    }
  }

  const WindowReference ref = CaptureReference(opt.workload, *sim);
  std::vector<int64_t> live = LivePerSpecies(*sim);
  const int64_t sorts0 = GlobalSorts(*sim);
  const CostLedger l0 = hw->ledger();

  std::vector<double> step_host_s;
  std::vector<double> step_cpu_s;
  int64_t census_failures = 0, nonfinite_steps = 0, failed_steps = 0;
  int64_t pushed = 0, dropped = 0, injected = 0, moved = 0, crossed = 0, rebuilds = 0;
  LedgerSum step_sum;
  JsonWriter trace;
  trace.Field("workload", perfbench::WorkloadName(opt.workload));
  trace.Field("seed", opt.seed);
  trace.BeginArray("steps");
  {
    SpanScope window_span(tr, "window");
    for (int s = 0; s < opt.steps; ++s) {
      const int64_t step_index = sim->step_count();
      const CostLedger before = tr != nullptr ? hw->ledger() : CostLedger{};
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = now();
      {
        SpanScope step_span(tr, "step", step_index);
        sim->Step();
      }
      step_host_s.push_back(since(t0));
      step_cpu_s.push_back(ProcessCpuSeconds() - cpu0);

      // Everything below reads the simulation without charging the model.
      const mpic::SimStepStats& st = sim->last_sim_stats();
      bool ok = true;
      for (size_t i = 0; i < st.species.size(); ++i) {
        const mpic::SpeciesStepStats& sp = st.species[i];
        if (sp.live != live[i] - sp.dropped + sp.injected) {
          ++census_failures;
          ok = false;
        }
        live[i] = sp.live;
        pushed += sp.pushed;
        dropped += sp.dropped;
        injected += sp.injected;
      }
      const mpic::EngineStepStats agg = st.Aggregate();
      moved += agg.moved_particles;
      crossed += agg.crossed_tiles;
      rebuilds += agg.gpma_rebuilds;
      if (!std::isfinite(mpic::FieldEnergy(sim->fields())) ||
          !std::isfinite(mpic::TotalKineticEnergy(*sim))) {
        ++nonfinite_steps;
        ok = false;
      }
      failed_steps += ok ? 0 : 1;

      if (tr != nullptr) {
        const CostLedger& after = hw->ledger();
        step_sum.Add(after, before);
        trace.BeginObject();
        trace.Field("step", step_index);
        trace.Field("host_s", step_host_s.back());
        WriteLedgerDelta(trace, after, before);
        trace.Field("live", st.TotalLive());
        trace.Field("pushed", st.TotalPushed());
        trace.Field("moved", agg.moved_particles);
        trace.Field("crossed", agg.crossed_tiles);
        trace.Field("rebuilds", agg.gpma_rebuilds);
        trace.Field("global_sorted", agg.global_sorted);
        trace.EndObject();
      }
    }
  }
  trace.EndArray();
  const CostLedger l1 = hw->ledger();
  const uint64_t ledger_digest = perfbench::LedgerDigest(l1);
  const double check_value = EvaluateReference(ref, *sim);
  const bool window_ok =
      ref.kind == "none" ||
      (std::isfinite(check_value) && std::fabs(check_value) <= ref.limit);
  if (!window_ok) {
    failed_steps = opt.steps;  // the window-end check covers every step
  }
  const uint64_t sim_digest = mpic::SimulationDigest(*sim);

  out.Field("warmup_steps", warmup_steps);
  out.Field("steps", opt.steps);
  out.BeginArray("step_times");
  for (size_t i = 0; i < step_host_s.size(); ++i) {
    out.BeginObject();
    out.Field("host_s", step_host_s[i]);
    out.Field("cpu_s", step_cpu_s[i]);
    out.EndObject();
  }
  out.EndArray();
  out.Field("freq_hz", hw->cfg().freq_ghz * 1e9);
  out.Field("total_cycles", l1.TotalCycles() - l0.TotalCycles());
  out.Field("deposition_cycles", l1.DepositionCycles() - l0.DepositionCycles());
  WriteLedgerDelta(out, l1, l0);
  out.Field("ledger_digest", mpic::DigestHex(ledger_digest));
  out.Field("sim_digest", mpic::DigestHex(sim_digest));
  out.Field("failed_steps", failed_steps);
  out.Field("census_failures", census_failures);
  out.Field("nonfinite_steps", nonfinite_steps);
  out.Field("window_check", ref.kind);
  if (std::isfinite(check_value)) {  // a NaN has no JSON form: leave it out
    out.Field("window_check_value", check_value);
  }
  out.Field("window_check_limit", ref.limit);
  out.Field("window_check_ok", window_ok);
  out.Field("live_end", sim->last_sim_stats().TotalLive());
  out.Field("pushed", pushed);
  out.Field("dropped", dropped);
  out.Field("injected", injected);
  out.Field("moved", moved);
  out.Field("crossed", crossed);
  out.Field("rebuilds", rebuilds);
  out.Field("global_sorts", GlobalSorts(*sim) - sorts0);
  // Read before the probes, which allocate on their own.
  out.Field("peak_rss_mb", PeakRssMb());

  if (tr != nullptr) {
    out.Field("step_deltas_match_window", step_sum.Matches(l1, l0));
    size_t checkpoint_bytes = 0;
    uint64_t probe_digest = 0;
    std::vector<perfbench::ProbeResult> probes;
    {
      SpanScope probes_span(tr, "probes");
      probes = perfbench::RunLayerProbes(*sim, tr, &checkpoint_bytes, &probe_digest);
    }
    const auto write_probes = [&probes](JsonWriter& j) {
      j.BeginArray("probes");
      for (const perfbench::ProbeResult& p : probes) {
        j.BeginObject();
        j.Field("name", p.name);
        j.Field("host_s", p.host_s);
        j.Field("modeled_cycles", p.modeled_cycles);
        j.Field("accesses", p.accesses);
        j.EndObject();
      }
      j.EndArray();
    };
    write_probes(out);
    write_probes(trace);
    out.Field("checkpoint_bytes", checkpoint_bytes);
    out.Field("probe_digest_matches", probe_digest == sim_digest);

    trace.BeginArray("spans");
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      const perfbench::Tracer::Span& s = tracer.spans()[i];
      trace.BeginObject();
      trace.Field("id", static_cast<int64_t>(i));
      trace.Field("name", s.name);
      trace.Field("start_s", s.start_s);
      trace.Field("end_s", s.end_s);
      trace.Field("parent", s.parent);
      trace.Field("step", s.step);
      trace.EndObject();
    }
    trace.EndArray();
    std::ofstream f(opt.trace_path, std::ios::trunc);
    f << trace.Finish() << "\n";
    out.Field("trace_written", static_cast<bool>(f));
  }
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}
