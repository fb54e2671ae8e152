// OpenMP scaling ablation: the fig. 8 uniform-plasma workload run at 1..N
// modeled cores, for the rhocell-VPU and MPU (MatrixPIC) variants.
//
// Two numbers per point:
//   * Host wall — real elapsed seconds for the measured steps (the simulator
//     itself is tile-parallel, so this shows genuine OpenMP speedup when the
//     host has the cores; threads are capped by OMP_NUM_THREADS/host cores).
//   * Model wall — the multi-core ledger's modeled seconds (parallel regions
//     charged as max-over-cores, serial sections in full).
// A physics digest (FNV-1a over the raw J/E bytes) is printed per row and must
// be identical down the column: tile-parallel execution is bit-deterministic.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

namespace mpic {
namespace {

struct ScalingPoint {
  double host_wall = 0.0;
  double model_wall = 0.0;
  uint64_t digest = 0;
};

ScalingPoint RunPoint(DepositVariant variant, int cores, int warmup, int steps) {
  SetThreads(cores);
  HwContext hw(MachineConfig::Lx2MultiCore(cores));
  auto sim = MakeUniformSimulation(hw, PaperUniformParams({4, 4, 4}, variant));
  const WindowRecord w = MeasureWindow(*sim, warmup, steps);
  ScalingPoint r;
  r.host_wall = w.host_seconds;
  r.model_wall = hw.cfg().CyclesToSeconds(w.cycles);
  r.digest = FieldsDigest(sim->fields());
  return r;
}

bool Run(int steps, int max_cores) {
  const std::vector<DepositVariant> variants = {
      DepositVariant::kRhocellIncrSortVpu, DepositVariant::kFullOpt};
  std::vector<int> core_counts;
  for (int c = 1; c <= max_cores; c *= 2) {
    core_counts.push_back(c);
  }

  PrintThreadBanner();

  ConsoleTable t({"Config", "Cores", "Host wall (s)", "Host speedup",
                  "Model wall (s)", "Model speedup", "Physics digest"});
  bool all_identical = true;
  for (DepositVariant v : variants) {
    double host1 = 0.0, model1 = 0.0;
    uint64_t digest1 = 0;
    for (int cores : core_counts) {
      const ScalingPoint r = RunPoint(v, cores, /*warmup=*/1, steps);
      if (cores == 1) {
        host1 = r.host_wall;
        model1 = r.model_wall;
        digest1 = r.digest;
      }
      all_identical = all_identical && r.digest == digest1;
      t.AddRow({VariantName(v), std::to_string(cores), FormatDouble(r.host_wall, 3),
                FormatDouble(host1 / r.host_wall, 2), FormatSci(r.model_wall, 3),
                FormatDouble(model1 / r.model_wall, 2), DigestHex(r.digest)});
    }
  }
  t.Print("OpenMP scaling ablation: uniform plasma 16^3, PPC 64");
  std::printf("\nPhysics digests %s across core counts.\n",
              all_identical ? "IDENTICAL" : "DIFFER (BUG!)");
  std::printf(
      "Host speedup needs real cores (OMP_NUM_THREADS, hardware); model speedup\n"
      "is the ledger's critical-path accounting of the same partition.\n");
  return all_identical;
}

}  // namespace
}  // namespace mpic

int main(int argc, char** argv) {
  const std::vector<int> args = mpic::ParseBenchArgs(
      argc, argv,
      {{"steps", 5, 1, mpic::kMaxBenchSteps},
       {"max_cores", 8, 1, mpic::kMaxBenchCores}});
  return mpic::Run(args[0], args[1]) ? 0 : 1;
}
