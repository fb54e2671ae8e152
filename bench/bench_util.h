// What the paper and ablation bench mains share, so each main holds only its
// workloads, tables and gates.
//
// Each main builds its HwContext and simulation, measures one warm-up-then-
// measure window per configuration through MeasureWindow
// (src/core/diagnostics.h), and prints rows from the returned WindowRecord.
// Absolute values are modeled seconds on the 1.3 GHz LX2 model at simulator
// scale; the claims under test are the relative numbers (speedups,
// crossovers, efficiency ranking, gate ratios). This header adds the
// argument parser, the OpenMP thread setting and banner, the workloads
// several mains share, and the JSON sidecar writer and digest format, which
// perfbench also uses.

#ifndef MPIC_BENCH_BENCH_UTIL_H_
#define MPIC_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

// Fnv1a and the FieldsDigest/ParticlesDigest/SimulationDigest family the
// benches gate bit-identity with live in the library; benches and tests must
// hash state the same way or a digest mismatch means nothing.
#include "src/common/fnv.h"
#include "src/core/diagnostics.h"
#include "src/core/workloads.h"
#include "src/runtime/digest.h"

namespace mpic {

// Upper bounds of the bench arguments.
inline constexpr int kMaxBenchCores = 64;
inline constexpr int kMaxBenchSteps = 100000;

// Parses all of `s` as a base-10 integer in [lo, hi]. Returns false and
// leaves *out alone on anything else: no digits, trailing characters, or a
// value out of range.
inline bool ParseBenchInt(const char* s, int lo, int hi, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// One positional integer argument of a bench main.
struct BenchArg {
  const char* name;
  int fallback;  // taken when the argument is absent or bad
  int lo, hi;
};

// Parses argv[1..] against `args`, in order, and returns one value per arg.
// An absent argument takes its fallback. A bad one takes it too, and the
// usage line goes to stderr once. Extra arguments are ignored.
inline std::vector<int> ParseBenchArgs(int argc, char** argv,
                                       const std::vector<BenchArg>& args) {
  std::vector<int> values;
  bool bad = false;
  for (size_t i = 0; i < args.size(); ++i) {
    int v = args[i].fallback;
    if (static_cast<int>(i) + 1 < argc) {
      bad = !ParseBenchInt(argv[i + 1], args[i].lo, args[i].hi, &v) || bad;
    }
    values.push_back(v);
  }
  if (bad) {
    std::string usage = std::string("usage: ") + argv[0];
    for (const BenchArg& a : args) {
      usage += std::string(" [") + a.name + " >= " + std::to_string(a.lo) + "]";
    }
    std::fprintf(stderr, "%s; using default%s\n", usage.c_str(),
                 args.size() > 1 ? "s" : "");
  }
  return values;
}

// Sets the OpenMP team size of the next fan-outs; a no-op without OpenMP.
inline void SetThreads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

// The line each ablation opens with: the host threads OpenMP offers.
inline void PrintThreadBanner() {
#ifdef _OPENMP
  std::printf("OpenMP enabled, %d host thread(s) available.\n",
              omp_get_max_threads());
#else
  std::printf("Built without OpenMP: partitions run serially.\n");
#endif
}

inline double PhaseSec(const RunReport& r, Phase p) {
  return r.phase_seconds[static_cast<size_t>(p)];
}

// The paper's density sweep (Figs. 8-10): particles per cell per axis, for
// PPC 1, 8, 64 and 128.
struct PpcPoint {
  int px, py, pz;
};
inline constexpr PpcPoint kPaperPpcSweep[] = {
    {1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {8, 4, 4}};

// The uniform plasma of Figs. 8 and 10 at one sweep point: 16^3 cells in
// 8^3 tiles (paper Table 4: particles.tile_size = 8x8x8).
inline UniformWorkloadParams PaperUniformParams(const PpcPoint& ppc,
                                                DepositVariant v) {
  UniformWorkloadParams p;
  p.nx = p.ny = p.nz = 16;
  p.tile = 8;
  p.ppc_x = ppc.px;
  p.ppc_y = ppc.py;
  p.ppc_z = ppc.pz;
  p.variant = v;
  return p;
}

// A named workload, built on whatever machine the bench hands it.
struct BenchWorkload {
  const char* name;
  std::function<std::unique_ptr<Simulation>(HwContext&)> make;
};

// The workloads of both scheduler ablations (abl_stealing, abl_numa): a
// bunched beam far above 4:1 per-tile imbalance, and its uniform control.
inline std::vector<BenchWorkload> SchedulerWorkloads() {
  BunchedBeamParams bunched;
  bunched.nx = bunched.ny = bunched.nz = 16;
  bunched.tile = 4;
  bunched.ppc_x = bunched.ppc_y = bunched.ppc_z = 4;
  UniformWorkloadParams uniform;
  uniform.nx = uniform.ny = uniform.nz = 16;
  uniform.tile = 4;
  uniform.ppc_x = uniform.ppc_y = uniform.ppc_z = 3;
  return {{"bunched",
           [bunched](HwContext& hw) { return MakeBunchedBeamSimulation(hw, bunched); }},
          {"uniform",
           [uniform](HwContext& hw) { return MakeUniformSimulation(hw, uniform); }}};
}

// Tiny append-only JSON emitter for the BENCH_*.json sidecars the ablation
// benches write next to their console tables, so the perf trajectory is
// machine-diffable across PRs instead of living only in CI logs. Covers just
// the subset the benches need — objects, arrays, string/number/bool fields —
// and assumes keys and string values need no escaping (identifiers, hex
// digests, workload names).
class JsonWriter {
 public:
  JsonWriter() { Open('{'); }

  void BeginObject() { Sep(); Open('{'); }
  void BeginObject(const char* key) { KeyedSep(key); Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray(const char* key) { KeyedSep(key); Open('['); }
  void EndArray() { Close(']'); }

  void Field(const char* key, const std::string& v) {
    KeyedSep(key);
    out_ += '"';
    out_ += v;
    out_ += '"';
  }
  void Field(const char* key, const char* v) { Field(key, std::string(v)); }
  void Field(const char* key, bool v) {
    KeyedSep(key);
    out_ += v ? "true" : "false";
  }
  void Field(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    KeyedSep(key);
    out_ += buf;
  }
  void Field(const char* key, int v) { Field(key, static_cast<int64_t>(v)); }
  void Field(const char* key, int64_t v) {
    KeyedSep(key);
    out_ += std::to_string(v);
  }
  void Field(const char* key, uint64_t v) {
    KeyedSep(key);
    out_ += std::to_string(v);
  }

  // Closes any open scopes (including the root object) and returns the
  // document.
  std::string Finish() {
    while (!open_.empty()) {
      Close(open_.back() == '[' ? ']' : '}');
    }
    return out_;
  }

  // Finishes the document and writes it to `path`; prints a warning and
  // returns false on I/O failure (the bench gates stay console-driven).
  bool WriteFile(const std::string& path) {
    std::ofstream f(path, std::ios::trunc);
    if (f) {
      f << Finish() << "\n";
    }
    if (!f) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    std::printf("Wrote %s\n", path.c_str());
    return true;
  }

 private:
  void Open(char c) {
    out_ += c;
    open_.push_back(c);
    has_member_.push_back(false);
  }
  void Close(char c) {
    out_ += c;
    open_.pop_back();
    has_member_.pop_back();
  }
  void Sep() {
    if (has_member_.back()) {
      out_ += ',';
    }
    has_member_.back() = true;
  }
  void KeyedSep(const char* key) {
    Sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
  std::vector<char> open_;
  std::vector<bool> has_member_;
};

// 16-digit lowercase hex of an FNV digest, the form the benches print and gate.
inline std::string DigestHex(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

}  // namespace mpic

#endif  // MPIC_BENCH_BENCH_UTIL_H_
