// Probe-order test: runs the benchmark's whole layer-probe sequence on every
// workload. Build it Debug (see CMakeLists.txt): the per-tile entry points
// only assert their precondition — every particle inside its tile — with
// MPIC_DCHECK, which a release build compiles away, so only a Debug run
// proves the probe order keeps it. Also checks that a model-frozen
// diagnostic leaves no trace in the modeled clock, and that the ledger digest
// does not depend on the OpenMP thread count.
//
// Exits 0 when every check holds, 1 otherwise.

#include <omp.h>

#include <cstdio>
#include <string>

#include "harness.h"
#include "src/core/diagnostics.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

// Two warm-up steps: the moving window first shifts on the second step, so
// the LWFA run enters the probes with particles outside their tiles.
constexpr int kWarmup = 2;
constexpr uint64_t kSeed = 7;

void ProbeSequence(perfbench::Workload w) {
  const std::string name = perfbench::WorkloadName(w);
  mpic::HwContext hw(perfbench::WorkloadMachine(w));
  auto sim = perfbench::BuildWorkload(w, hw, kSeed);
  sim->Run(kWarmup);
  const int64_t stray_before = perfbench::CountStrayParticles(*sim);
  if (w == perfbench::Workload::kLwfa) {
    Expect(stray_before > 0, name + ": window shift leaves " +
                                 std::to_string(stray_before) +
                                 " particles outside their tiles");
  }
  size_t checkpoint_bytes = 0;
  uint64_t digest = 0;
  int64_t stray_after_scan = -1;
  const std::vector<perfbench::ProbeResult> probes = perfbench::RunLayerProbes(
      *sim, nullptr, &checkpoint_bytes, &digest,
      [&](const perfbench::ProbeResult& r) {
        if (r.name == "sort_scan") {
          stray_after_scan = perfbench::CountStrayParticles(*sim);
        }
      });
  Expect(stray_after_scan == 0, name + ": sort_scan puts every particle in its tile");
  Expect(probes.size() == 7, name + ": all probes ran");
  Expect(checkpoint_bytes > 0, name + ": checkpoint image written");
  for (const perfbench::ProbeResult& r : probes) {
    if (r.name != "simulation_digest") {
      Expect(r.modeled_cycles > 0.0, name + ": " + r.name + " charged modeled cycles");
    }
  }
}

// A Gauss-law diagnostic inside ModelFreeze must leave the modeled machine
// exactly as a run without it. Afterwards the main context re-reads the
// last tile's positions, the lines the diagnostic read last: a cache left
// warm by the diagnostic would turn those misses into hits.
void FrozenDiagnostic() {
  const perfbench::Workload w = perfbench::Workload::kLwfa;
  uint64_t digests[2] = {0, 0};
  for (int with_diagnostic = 0; with_diagnostic < 2; ++with_diagnostic) {
    mpic::HwContext hw(perfbench::WorkloadMachine(w));
    auto sim = perfbench::BuildWorkload(w, hw, kSeed);
    sim->Run(kWarmup);
    if (with_diagnostic == 1) {
      perfbench::ModelFreeze freeze(hw);
      const mpic::FieldArray rho = mpic::DepositChargeDensity(*sim);
      Expect(mpic::GaussResidualScale(rho) > 0.0, "diagnostic ran");
    }
    const mpic::ParticleTile& last = sim->tiles().tile(sim->tiles().num_tiles() - 1);
    for (int32_t pid = 0; pid < last.num_slots(); ++pid) {
      hw.TouchRead(&last.soa().x[static_cast<size_t>(pid)], sizeof(double));
    }
    sim->Step();
    digests[with_diagnostic] = perfbench::LedgerDigest(hw.ledger());
  }
  Expect(digests[0] == digests[1],
         "model-frozen diagnostic leaves the ledger digest unchanged");
}

// The modeled clock must not depend on how many host threads run the modeled
// cores: same ledger digest at 1 and at 4 OpenMP threads.
void LedgerDigestIgnoresThreads(perfbench::Workload w) {
  uint64_t digests[2] = {0, 0};
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    omp_set_num_threads(threads[i]);
    mpic::HwContext hw(perfbench::WorkloadMachine(w));
    auto sim = perfbench::BuildWorkload(w, hw, kSeed);
    sim->Run(kWarmup);
    digests[i] = perfbench::LedgerDigest(hw.ledger());
  }
  Expect(digests[0] == digests[1], std::string(perfbench::WorkloadName(w)) +
                                       ": ledger digest equal at 1 and 4 threads");
}

}  // namespace

int main() {
  std::printf("build type: %s\n", perfbench::BuildType());
  for (perfbench::Workload w : perfbench::kAllWorkloads) {
    ProbeSequence(w);
  }
  FrozenDiagnostic();
  LedgerDigestIgnoresThreads(perfbench::Workload::kLwfa);
  LedgerDigestIgnoresThreads(perfbench::Workload::kBunchedEsirkepov);
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
