// google-benchmark microbenchmarks for the hardware model itself: host-time
// throughput of the cache simulation and the modeled VPU/MPU operations. The
// model sits on every modeled memory access of every kernel, so its host cost
// bounds overall simulator speed. Items are modeled accesses (or operations),
// so 1e9 / items_per_second is host ns per modeled access.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/hw/cache_model.h"
#include "src/hw/hw_context.h"

namespace mpic {
namespace {

void BM_CacheTouchSequential(benchmark::State& state) {
  HwContext hw;
  std::vector<double> buf(1 << 16, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  size_t i = 0;
  for (auto _ : state) {
    hw.TouchRead(&buf[i], 8);
    i = (i + 1) & (buf.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheTouchSequential);

void BM_CacheTouchRandomish(benchmark::State& state) {
  HwContext hw;
  std::vector<double> buf(1 << 16, 0.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  size_t i = 0;
  for (auto _ : state) {
    hw.TouchRead(&buf[i], 8);
    i = (i + 97 * 8) & (buf.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheTouchRandomish);

// Unpredicted L1 misses that hit L2, straight on the cache model: a 256 KB
// working set (8x L1, a quarter of L2) walked 97 lines at a time, so no
// prefetch tracker expects the next line.
void BM_CacheMissHitsL2(benchmark::State& state) {
  CacheModel cache(MachineConfig::Lx2());
  CostLedger ledger;
  constexpr uint64_t kLines = 4096;
  for (uint64_t line = 0; line < kLines; ++line) {
    cache.Touch(line * kCacheLineBytes, ledger);
  }
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch(line * kCacheLineBytes, ledger));
    line = (line + 97) % kLines;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissHitsL2);

// One field component's QSP gather block: 4 x 4 rows of 4 doubles (16 rows of
// 32 B, one TouchReadRows call), cycling over six field-sized arrays (24^3
// doubles, a 16^3 grid with its guard cells) among 300 registered regions,
// as uniform_qsp's gather does. The support moves one cell after each round
// of six. Items are modeled accesses (rows).
void BM_QspGatherBlock(benchmark::State& state) {
  constexpr int kN = 24;
  constexpr int kSupport = 4;
  HwContext hw;
  std::vector<std::vector<double>> fields(6, std::vector<double>(kN * kN * kN, 1.0));
  std::vector<std::vector<double>> others(294, std::vector<double>(512, 1.0));
  for (const auto& f : fields) {
    hw.RegisterRegion(f.data(), f.size() * sizeof(double));
  }
  for (const auto& o : others) {
    hw.RegisterRegion(o.data(), o.size() * sizeof(double));
  }
  constexpr int64_t kRowBytes = kN * sizeof(double);
  int component = 0;
  int cell = 0;  // x + (kN - kSupport) * (y + (kN - kSupport) * z)
  constexpr int kSpan = kN - kSupport;
  for (auto _ : state) {
    const int x = cell % kSpan;
    const int y = cell / kSpan % kSpan;
    const int z = cell / (kSpan * kSpan);
    const double* first = fields[static_cast<size_t>(component)].data() +
                          x + kN * (y + kN * z);
    hw.TouchReadRows(first, kSupport * sizeof(double), kSupport, kRowBytes, kSupport,
                     kRowBytes * kN);
    if (++component == 6) {
      component = 0;
      cell = (cell + 1) % (kSpan * kSpan * kSpan);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSupport * kSupport);
}
BENCHMARK(BM_QspGatherBlock);

void BM_VpuFma(benchmark::State& state) {
  HwContext hw;
  Vec8 a = Vec8::Splat(1.0);
  Vec8 b = Vec8::Splat(2.0);
  Vec8 c = Vec8::Splat(3.0);
  for (auto _ : state) {
    c = hw.VFma(a, b, c);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VpuFma);

void BM_Mopa(benchmark::State& state) {
  HwContext hw;
  Vec8 a, b;
  for (int i = 0; i < kVpuLanes; ++i) {
    a[i] = i;
    b[i] = 2 * i;
  }
  MpuTileReg tile;
  for (auto _ : state) {
    hw.Mopa(tile, a, b);
    benchmark::DoNotOptimize(tile.c[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Mopa);

void BM_VGatherScattered(benchmark::State& state) {
  HwContext hw;
  std::vector<double> buf(1 << 14, 1.0);
  hw.RegisterRegion(buf.data(), buf.size() * sizeof(double));
  int64_t idx[8] = {0, 1111, 2222, 3333, 4444, 5555, 6666, 7777};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw.VGather(buf.data(), idx, Mask8::All()));
  }
  state.SetItemsProcessed(state.iterations() * kVpuLanes);
}
BENCHMARK(BM_VGatherScattered);

}  // namespace
}  // namespace mpic

BENCHMARK_MAIN();
