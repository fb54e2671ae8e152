// Differential tests of the hardware model's fast paths against the seed
// model they replaced, plus pinned ledger digests.
//
// The seed CacheLevel/CacheModel and MemMap below are the reference: their
// logic is kept verbatim (only the MemMap's binary search is a linear scan),
// so any change to the production model that alters a single penalty,
// counter or translation fails here. The pinned digests catch the same
// across whole workloads on every modeled machine shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/workloads.h"
#include "src/hw/cache_model.h"
#include "src/hw/fma.h"
#include "src/hw/hw_context.h"
#include "src/hw/mem_map.h"
#include "src/runtime/digest.h"

namespace mpic {
namespace {

// ---- Seed reference: CacheLevel / CacheModel --------------------------------

namespace seed {

class CacheLevel {
 public:
  CacheLevel(const CacheLevelConfig& cfg, int line_bytes)
      : ways_(cfg.ways),
        num_sets_(static_cast<int>(
            cfg.size_bytes /
            (static_cast<size_t>(cfg.ways) * static_cast<size_t>(line_bytes)))) {
    tags_.assign(static_cast<size_t>(num_sets_) * ways_, kInvalidTag);
    lru_.assign(tags_.size(), 0);
    clock_.assign(static_cast<size_t>(num_sets_), 0);
  }

  bool Access(uint64_t line_addr) {
    const int set = static_cast<int>(line_addr & static_cast<uint64_t>(num_sets_ - 1));
    uint64_t* tags = &tags_[static_cast<size_t>(set) * ways_];
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == line_addr) {
        lru_[static_cast<size_t>(set) * ways_ + w] = ++clock_[set];
        return true;
      }
    }
    return false;
  }

  void Fill(uint64_t line_addr) {
    const int set = static_cast<int>(line_addr & static_cast<uint64_t>(num_sets_ - 1));
    uint64_t* tags = &tags_[static_cast<size_t>(set) * ways_];
    uint32_t* lru = &lru_[static_cast<size_t>(set) * ways_];
    int victim = 0;
    uint32_t best = ~uint32_t{0};
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == kInvalidTag) {
        victim = w;
        break;
      }
      if (lru[w] < best) {
        best = lru[w];
        victim = w;
      }
    }
    tags[victim] = line_addr;
    lru[victim] = ++clock_[set];
  }

  void Reset() {
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lru_.begin(), lru_.end(), 0u);
    std::fill(clock_.begin(), clock_.end(), 0u);
  }

 private:
  int ways_;
  int num_sets_;
  std::vector<uint64_t> tags_;
  std::vector<uint32_t> lru_;
  std::vector<uint32_t> clock_;

  static constexpr uint64_t kInvalidTag = ~uint64_t{0};
};

class CacheModel {
 public:
  explicit CacheModel(const MachineConfig& cfg)
      : l1_(cfg.l1, kCacheLineBytes),
        l2_(cfg.l2, kCacheLineBytes),
        l2_penalty_(cfg.l2.hit_penalty_cycles),
        dram_penalty_(cfg.dram_penalty_cycles),
        prefetch_factor_(cfg.prefetch_factor),
        remote_factor_(cfg.remote_mem_latency_factor) {
    stream_next_.assign(static_cast<size_t>(cfg.prefetch_streams), ~uint64_t{0});
    stream_lru_.assign(static_cast<size_t>(cfg.prefetch_streams), 0);
  }

  double Touch(uint64_t addr, CostLedger& ledger, bool remote = false) {
    const uint64_t line = addr / kCacheLineBytes;
    auto& c = ledger.counters();
    if (l1_.Access(line)) {
      ++c.l1_hits;
      return 0.0;
    }
    ++c.l1_misses;
    const double discount = PrefetchHit(line) ? prefetch_factor_ : 1.0;
    if (l2_.Access(line)) {
      ++c.l2_hits;
      l1_.Fill(line);
      return l2_penalty_ * discount;
    }
    ++c.l2_misses;
    l2_.Fill(line);
    l1_.Fill(line);
    double penalty = dram_penalty_ * discount;
    if (remote) {
      const double surcharge = penalty * (remote_factor_ - 1.0);
      penalty += surcharge;
      ++c.remote_lines;
      c.remote_cycles += surcharge;
    }
    return penalty;
  }

  double TouchRange(uint64_t addr, uint64_t bytes, CostLedger& ledger,
                    bool remote = false) {
    if (bytes == 0) {
      return 0.0;
    }
    const uint64_t first = addr / kCacheLineBytes;
    const uint64_t last = (addr + bytes - 1) / kCacheLineBytes;
    double penalty = 0.0;
    for (uint64_t line = first; line <= last; ++line) {
      penalty += Touch(line * kCacheLineBytes, ledger, remote);
    }
    return penalty;
  }

  void Reset() {
    l1_.Reset();
    l2_.Reset();
    stream_next_.assign(stream_next_.size(), ~uint64_t{0});
    stream_lru_.assign(stream_lru_.size(), 0);
    stream_clock_ = 0;
  }

 private:
  bool PrefetchHit(uint64_t line) {
    ++stream_clock_;
    size_t victim = 0;
    uint64_t oldest = ~uint64_t{0};
    for (size_t i = 0; i < stream_next_.size(); ++i) {
      if (stream_next_[i] == line) {
        stream_next_[i] = line + 1;
        stream_lru_[i] = stream_clock_;
        return true;
      }
      if (stream_lru_[i] < oldest) {
        oldest = stream_lru_[i];
        victim = i;
      }
    }
    stream_next_[victim] = line + 1;
    stream_lru_[victim] = stream_clock_;
    return false;
  }

  CacheLevel l1_;
  CacheLevel l2_;
  double l2_penalty_;
  double dram_penalty_;
  double prefetch_factor_;
  double remote_factor_;
  std::vector<uint64_t> stream_next_;
  std::vector<uint64_t> stream_lru_;
  uint64_t stream_clock_ = 0;
};

// ---- Seed reference: MemMap, with a linear scan in place of the binary ------
// ---- search (the MRU entry and every registration rule are unchanged). ------

class MemMap {
 public:
  uint64_t Register(const void* base, size_t bytes, HomeDomain home = {}) {
    const auto host = reinterpret_cast<uintptr_t>(base);
    for (Region& r : regions_) {
      if (r.host_base == host) {
        if (host + bytes <= r.host_end) {
          if (home.authoritative && r.home_domain != home.domain) {
            r.home_domain = home.domain;
          }
          return r.logical_base;
        }
        r.host_end = host + bytes;
        r.logical_base = next_logical_;
        r.home_domain = home.domain;
        next_logical_ += RoundUpPage(bytes) + kPage;
        return r.logical_base;
      }
    }
    return InsertRegion(host, bytes, home.domain);
  }

  uint64_t RegisterKeyed(uint64_t key, const void* base, size_t bytes,
                         HomeDomain home = {}) {
    const auto host = reinterpret_cast<uintptr_t>(base);
    auto it = keyed_.find(key);
    if (it != keyed_.end()) {
      if (it->second.host_base == host && bytes <= it->second.bytes &&
          RegionExists(it->second.host_base, it->second.logical_base)) {
        if (home.authoritative) {
          SetHomeDomain(base, home.domain);
        }
        return it->second.logical_base;
      }
      EraseRegion(it->second.host_base, it->second.logical_base);
    }
    const uint64_t logical = InsertRegion(host, bytes, home.domain);
    keyed_[key] = KeyedRecord{host, bytes, logical};
    return logical;
  }

  bool SetHomeDomain(const void* p, int domain) {
    const auto host = reinterpret_cast<uintptr_t>(p);
    for (Region& r : regions_) {
      if (host >= r.host_base && host < r.host_end) {
        r.home_domain = domain;
        return true;
      }
    }
    return false;
  }

  MemLocation TranslateEx(const void* p) {
    const auto host = reinterpret_cast<uintptr_t>(p);
    if (mru_ < regions_.size()) {
      const Region& r = regions_[mru_];
      if (host >= r.host_base && host < r.host_end) {
        return MemLocation{r.logical_base + (host - r.host_base), r.home_domain};
      }
    }
    // The region with the largest host_base <= host, found by linear scan.
    size_t lo = 0;
    while (lo < regions_.size() && regions_[lo].host_base <= host) {
      ++lo;
    }
    if (lo > 0) {
      const Region& r = regions_[lo - 1];
      if (host >= r.host_base && host < r.host_end) {
        mru_ = lo - 1;
        return MemLocation{r.logical_base + (host - r.host_base), r.home_domain};
      }
    }
    return MemLocation{kUnmappedBase + (host & ((uint64_t{1} << 40) - 1)), -1};
  }

  void Clear() {
    regions_.clear();
    keyed_.clear();
    mru_ = 0;
    next_logical_ = 1 << 12;
    region_counter_ = 0;
  }

  size_t num_regions() const { return regions_.size(); }

 private:
  struct Region {
    uintptr_t host_base;
    uintptr_t host_end;
    uint64_t logical_base;
    int home_domain;
  };
  struct KeyedRecord {
    uintptr_t host_base;
    size_t bytes;
    uint64_t logical_base;
  };

  static uint64_t RoundUpPage(uint64_t v) { return (v + kPage - 1) & ~(kPage - 1); }

  uint64_t InsertRegion(uintptr_t host, size_t bytes, int home_domain) {
    Region r;
    r.host_base = host;
    r.host_end = host + bytes;
    r.home_domain = home_domain;
    const uint64_t stagger = (region_counter_++ * 7 % 61) * 64;
    r.logical_base = next_logical_ + stagger;
    next_logical_ += RoundUpPage(bytes + stagger) + kPage;
    regions_.erase(std::remove_if(regions_.begin(), regions_.end(),
                                  [&r](const Region& old) {
                                    return old.host_base < r.host_end &&
                                           r.host_base < old.host_end;
                                  }),
                   regions_.end());
    auto it = std::upper_bound(regions_.begin(), regions_.end(), r,
                               [](const Region& a, const Region& b) {
                                 return a.host_base < b.host_base;
                               });
    regions_.insert(it, r);
    mru_ = 0;
    return r.logical_base;
  }

  bool RegionExists(uintptr_t host_base, uint64_t logical_base) const {
    auto it = std::lower_bound(regions_.begin(), regions_.end(), host_base,
                               [](const Region& r, uintptr_t h) {
                                 return r.host_base < h;
                               });
    return it != regions_.end() && it->host_base == host_base &&
           it->logical_base == logical_base;
  }

  void EraseRegion(uintptr_t host_base, uint64_t logical_base) {
    auto it = std::find_if(regions_.begin(), regions_.end(), [&](const Region& r) {
      return r.host_base == host_base && r.logical_base == logical_base;
    });
    if (it != regions_.end()) {
      regions_.erase(it);
      mru_ = 0;
    }
  }

  std::vector<Region> regions_;
  std::unordered_map<uint64_t, KeyedRecord> keyed_;
  size_t mru_ = 0;
  uint64_t next_logical_ = 1 << 12;
  uint64_t region_counter_ = 0;

  static constexpr uint64_t kPage = 4096;
  static constexpr uint64_t kUnmappedBase = uint64_t{1} << 46;
};

}  // namespace seed

// ---- Cache model differential -----------------------------------------------

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

::testing::AssertionResult SameCounters(const LedgerCounters& got,
                                        const LedgerCounters& want) {
  if (got.l1_hits != want.l1_hits || got.l1_misses != want.l1_misses ||
      got.l2_hits != want.l2_hits || got.l2_misses != want.l2_misses ||
      got.remote_lines != want.remote_lines ||
      Bits(got.remote_cycles) != Bits(want.remote_cycles)) {
    return ::testing::AssertionFailure()
           << "counters (l1 hit/miss, l2 hit/miss, remote lines/cycles): got "
           << got.l1_hits << "/" << got.l1_misses << ", " << got.l2_hits << "/"
           << got.l2_misses << ", " << got.remote_lines << "/" << got.remote_cycles
           << " want " << want.l1_hits << "/" << want.l1_misses << ", "
           << want.l2_hits << "/" << want.l2_misses << ", " << want.remote_lines
           << "/" << want.remote_cycles;
  }
  return ::testing::AssertionSuccess();
}

// Drives the production model and the seed model with the same accesses and
// compares the penalty bits and every cache counter after each one.
class CachePair {
 public:
  explicit CachePair(const MachineConfig& cfg) : fast_(cfg), ref_(cfg) {}

  ::testing::AssertionResult Touch(uint64_t addr, bool remote) {
    return Same(fast_.Touch(addr, fast_ledger_, remote),
                ref_.Touch(addr, ref_ledger_, remote));
  }
  ::testing::AssertionResult TouchRange(uint64_t addr, uint64_t bytes, bool remote) {
    return Same(fast_.TouchRange(addr, bytes, fast_ledger_, remote),
                ref_.TouchRange(addr, bytes, ref_ledger_, remote));
  }
  void Reset() {
    fast_.Reset();
    ref_.Reset();
  }
  const LedgerCounters& counters() const { return ref_ledger_.counters(); }
  double last_penalty() const { return last_penalty_; }

 private:
  ::testing::AssertionResult Same(double got, double want) {
    ++accesses_;
    last_penalty_ = want;
    if (Bits(got) != Bits(want)) {
      return ::testing::AssertionFailure()
             << "access " << accesses_ << ": penalty " << got << " want " << want;
    }
    const auto c = SameCounters(fast_ledger_.counters(), ref_ledger_.counters());
    if (!c) {
      return ::testing::AssertionFailure() << "access " << accesses_ << ": "
                                           << c.message();
    }
    return ::testing::AssertionSuccess();
  }

  CacheModel fast_;
  seed::CacheModel ref_;
  CostLedger fast_ledger_;
  CostLedger ref_ledger_;
  int64_t accesses_ = 0;
  double last_penalty_ = 0.0;
};

// A small hierarchy that evicts and replaces streams constantly.
MachineConfig TinyCaches() {
  MachineConfig cfg;
  cfg.l1 = CacheLevelConfig{4 * 2 * kCacheLineBytes, 2, 0.0};    // 4 sets x 2
  cfg.l2 = CacheLevelConfig{16 * 4 * kCacheLineBytes, 4, 4.0};   // 16 sets x 4
  cfg.prefetch_streams = 3;
  cfg.remote_mem_latency_factor = 1.7;
  return cfg;
}

// The default hierarchy, the same with a NUMA remote factor, and a tiny one.
std::vector<MachineConfig> Configs() {
  return {MachineConfig::Lx2(), MachineConfig::Lx2MultiCoreNuma(4, 2), TinyCaches()};
}

// Mixed random traffic: scattered lines, sequential runs (prefetch streams),
// line-straddling ranges and remote flags over a footprint several times L2.
TEST(CacheDifferential, RandomMixedStreams) {
  for (const MachineConfig& cfg : Configs()) {
    CachePair pair(cfg);
    Rng rng(11);
    const uint64_t footprint = uint64_t{8} << 20;
    uint64_t seq = 0;
    for (int i = 0; i < 200000; ++i) {
      const bool remote = rng.NextBelow(4) == 0;
      const uint64_t kind = rng.NextBelow(8);
      if (kind < 3) {
        ASSERT_TRUE(pair.Touch(rng.NextBelow(footprint), remote));
      } else if (kind < 6) {
        seq = rng.NextBelow(16) == 0 ? rng.NextBelow(footprint) : seq + 64;
        ASSERT_TRUE(pair.Touch(seq, remote));
      } else {
        const uint64_t bytes = 1 + rng.NextBelow(300);
        ASSERT_TRUE(pair.TouchRange(rng.NextBelow(footprint), bytes, remote));
      }
    }
    EXPECT_GT(pair.counters().l1_hits, 0u);
    EXPECT_GT(pair.counters().l2_hits, 0u);
    EXPECT_GT(pair.counters().l2_misses, 0u);
    EXPECT_GT(pair.counters().remote_lines, 0u);
  }
}

// Strides that map every access to one L1 set (and to few L2 sets), cycling
// through one way more than the set holds, exactly as many, and fewer.
TEST(CacheDifferential, SetConflictStrides) {
  for (const MachineConfig& cfg : Configs()) {
    CachePair pair(cfg);
    const uint64_t l1_stride = cfg.l1.size_bytes / static_cast<uint64_t>(cfg.l1.ways);
    const uint64_t l2_stride = cfg.l2.size_bytes / static_cast<uint64_t>(cfg.l2.ways);
    for (uint64_t stride : {l1_stride, l2_stride, l2_stride + 64}) {
      for (int lines : {cfg.l1.ways - 1, cfg.l1.ways, cfg.l1.ways + 1,
                        cfg.l2.ways + 1, 3 * cfg.l2.ways}) {
        for (int pass = 0; pass < 40; ++pass) {
          for (int k = 0; k < lines; ++k) {
            ASSERT_TRUE(pair.Touch(static_cast<uint64_t>(k) * stride, pass % 3 == 0));
          }
        }
      }
    }
  }
}

// Re-touching the most recently used line (alone, within a line, and
// alternating with a set mate) must stay a hit that changes no LRU order.
TEST(CacheDifferential, MruRetouches) {
  for (const MachineConfig& cfg : Configs()) {
    CachePair pair(cfg);
    const uint64_t l1_stride = cfg.l1.size_bytes / static_cast<uint64_t>(cfg.l1.ways);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t base = rng.NextBelow(64) * l1_stride;
      const int repeats = 1 + static_cast<int>(rng.NextBelow(4));
      for (int r = 0; r < repeats; ++r) {
        ASSERT_TRUE(pair.Touch(base + rng.NextBelow(64), false));
      }
      ASSERT_TRUE(pair.Touch(base + l1_stride, false));
      ASSERT_TRUE(pair.Touch(base, false));
    }
  }
}

// Ranges whose first and last bytes fall in different lines, including
// ranges longer than L1, summed in line order.
TEST(CacheDifferential, TouchRangeStraddlesLines) {
  for (const MachineConfig& cfg : Configs()) {
    CachePair pair(cfg);
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t addr = rng.NextBelow(4096) * 8 + 64 - rng.NextBelow(16);
      const uint64_t bytes = rng.NextBelow(8) == 0 ? 64 * (1 + rng.NextBelow(1024))
                                                    : 1 + rng.NextBelow(200);
      ASSERT_TRUE(pair.TouchRange(addr, bytes, rng.NextBelow(2) == 0));
    }
    ASSERT_TRUE(pair.TouchRange(100, 0, false));
  }
}

// Reset in the middle of a stream colds both models identically, including
// the prefetcher's stream table and the same-line memo.
TEST(CacheDifferential, ResetMidStream) {
  for (const MachineConfig& cfg : Configs()) {
    CachePair pair(cfg);
    Rng rng(3);
    uint64_t seq = 0;
    for (int i = 0; i < 60000; ++i) {
      if (i % 4999 == 0) {
        pair.Reset();
        // The line touched just before the reset must miss after it.
        ASSERT_TRUE(pair.Touch(seq, false));
      }
      seq = rng.NextBelow(8) == 0 ? rng.NextBelow(uint64_t{1} << 22) : seq + 64;
      ASSERT_TRUE(pair.Touch(seq, rng.NextBelow(3) == 0));
    }
  }
}

// 300,000 touches of one set, mostly hits with an eviction now and then: the
// recency order (which keeps no counter) must match the seed's 32-bit clocks
// all the way.
TEST(CacheDifferential, LongRunOnOneSet) {
  const MachineConfig cfg = MachineConfig::Lx2();
  CachePair pair(cfg);
  const uint64_t l1_stride = cfg.l1.size_bytes / static_cast<uint64_t>(cfg.l1.ways);
  Rng rng(9);
  for (int i = 0; i < 300000; ++i) {
    // Mostly the 8 lines the set holds, now and then a ninth or tenth.
    const uint64_t k = rng.NextBelow(64) == 0 ? 8 + rng.NextBelow(2) : rng.NextBelow(8);
    ASSERT_TRUE(pair.Touch(k * l1_stride, false));
  }
}

// Two stream trackers can expect the same line; the lowest-index one must
// advance. Which one advanced decides which one the LRU replacement drops
// later, and so whether a later access is discounted: an implementation that
// advanced the most recently used tracker would charge the last access the
// full penalty.
TEST(CacheDifferential, DuplicatePrefetchStreams) {
  MachineConfig cfg;
  cfg.l1 = CacheLevelConfig{2 * kCacheLineBytes, 2, 0.0};  // one set, 2 ways
  cfg.l2 = CacheLevelConfig{64 * 4 * kCacheLineBytes, 4, 4.0};
  cfg.prefetch_streams = 3;
  CachePair pair(cfg);
  const auto touch = [&pair](uint64_t line) { return pair.Touch(line * 64, false); };
  const uint64_t a = 1000, x = a + 1, p = 5000, f = 9000;
  ASSERT_TRUE(touch(p));      // stream 0 expects p+1
  ASSERT_TRUE(touch(a));      // stream 1 expects x
  ASSERT_TRUE(touch(p + 1));  // predicted: stream 0 advances; L1 drops p
  ASSERT_TRUE(touch(p + 2));  // predicted: stream 0 advances; L1 drops a
  ASSERT_TRUE(touch(a));      // L1 miss: stream 2 also expects x
  ASSERT_TRUE(touch(x));      // stream 1 (lowest index) advances to x+1
  ASSERT_TRUE(touch(f));      // replaces the least recently used tracker
  ASSERT_TRUE(touch(f + 1));  // predicted; L1 drops x
  ASSERT_TRUE(touch(x));      // an L2 hit, still predicted by stream 2
  EXPECT_EQ(pair.last_penalty(), cfg.l2.hit_penalty_cycles * cfg.prefetch_factor);
}

// ---- MemMap differential ------------------------------------------------------

::testing::AssertionResult SameTranslations(MemMap& fast, seed::MemMap& ref,
                                            const char* arena, size_t arena_bytes,
                                            const char* outside, Rng& rng) {
  if (fast.num_regions() != ref.num_regions()) {
    return ::testing::AssertionFailure() << "regions " << fast.num_regions()
                                         << " want " << ref.num_regions();
  }
  for (int i = 0; i < 48; ++i) {
    // Mostly inside the arena (and a little past its registered part), some
    // in a buffer that is never registered.
    const size_t off = rng.NextBelow(arena_bytes + 256);
    const char* p = i % 8 == 0 ? outside + off % 64 : arena + off;
    const MemLocation got = fast.TranslateEx(p);
    const MemLocation want = ref.TranslateEx(p);
    if (got.addr != want.addr || got.home_domain != want.home_domain) {
      return ::testing::AssertionFailure()
             << "offset " << (p - arena) << ": addr " << got.addr << " home "
             << got.home_domain << " want " << want.addr << " home "
             << want.home_domain;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MemMapDifferential, RandomRegistrationSequences) {
  const size_t kArena = size_t{1} << 20;
  std::vector<char> arena(kArena + 256);
  std::vector<char> outside(64);
  const char* base = arena.data();
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    MemMap fast;
    seed::MemMap ref;
    std::vector<std::pair<size_t, size_t>> live;  // (offset, bytes) registered
    for (int op = 0; op < 3000; ++op) {
      const uint64_t kind = rng.NextBelow(100);
      const HomeDomain home{static_cast<int>(rng.NextBelow(3)),
                            rng.NextBelow(4) == 0};
      if (kind < 30 || live.empty()) {
        // Fresh region (may overlap stale ones, which it then evicts).
        const size_t off = rng.NextBelow(kArena / 8) * 8;
        const size_t bytes = 8 + rng.NextBelow(8192) * 8;
        fast.Register(base + off, std::min(bytes, kArena - off), home);
        ref.Register(base + off, std::min(bytes, kArena - off), home);
        live.emplace_back(off, std::min(bytes, kArena - off));
      } else if (kind < 45) {
        // Same base again: fits (no-op or re-home) or grew (moves logically).
        auto& r = live[rng.NextBelow(live.size())];
        const size_t bytes = rng.NextBelow(2) == 0
                                 ? 8 + rng.NextBelow(r.second)
                                 : std::min(r.second + 8 * (1 + rng.NextBelow(512)),
                                            kArena - r.first);
        fast.Register(base + r.first, bytes, home);
        ref.Register(base + r.first, bytes, home);
        r.second = std::max(r.second, bytes);
      } else if (kind < 75) {
        // Keyed: stays, grows, or moves to a new base.
        const uint64_t key = rng.NextBelow(24);
        const size_t off = rng.NextBelow(kArena / 64) * 64;
        const size_t bytes = 64 + rng.NextBelow(512) * 8;
        const size_t fit = std::min(bytes, kArena - off);
        fast.RegisterKeyed(key, base + off, fit, home);
        ref.RegisterKeyed(key, base + off, fit, home);
        if (rng.NextBelow(2) == 0) {
          // Re-register the same key at the same base: the keyed fast path.
          fast.RegisterKeyed(key, base + off, fit / 2 + 1, home);
          ref.RegisterKeyed(key, base + off, fit / 2 + 1, home);
        }
      } else if (kind < 92) {
        const char* p = base + rng.NextBelow(kArena);
        const int domain = static_cast<int>(rng.NextBelow(3));
        EXPECT_EQ(fast.SetHomeDomain(p, domain), ref.SetHomeDomain(p, domain));
      } else if (kind < 97) {
        // Copy-assign (a worker snapshot) and carry on with the copy.
        MemMap copy;
        copy = fast;
        fast = copy;
        seed::MemMap ref_copy;
        ref_copy = ref;
        ref = ref_copy;
      } else {
        fast.Clear();
        ref.Clear();
        live.clear();
      }
      ASSERT_TRUE(SameTranslations(fast, ref, base, kArena, outside.data(), rng))
          << "op " << op;
    }
  }
}

// ---- FMA kernels --------------------------------------------------------------

// Operands whose products are 1 + O(2^-30): the fused result keeps the
// O(2^-60) cross terms that an unfused multiply rounds away.
void NearOneOperands(Vec8& a, Vec8& b, MpuTileReg& tile) {
  for (int i = 0; i < kVpuLanes; ++i) {
    a[i] = 1.0 + std::ldexp(static_cast<double>(i + 1), -30);
    b[i] = 1.0 - std::ldexp(static_cast<double>(2 * i + 1), -31);
  }
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      tile.At(r, c) = -1.0 - std::ldexp(static_cast<double>(r - c), -40);
    }
  }
}

void RandomOperands(Rng& rng, Vec8& a, Vec8& b, MpuTileReg& tile) {
  const auto draw = [&rng]() {
    return std::ldexp(static_cast<double>(rng.NextU64() >> 11), -53) * 4.0 - 2.0;
  };
  for (int i = 0; i < kVpuLanes; ++i) {
    a[i] = draw();
    b[i] = draw();
  }
  for (double& v : tile.c) {
    v = draw();
  }
}

// The kernels' results, bit for bit, against std::fma computed here; an
// unfused a*b + c would differ on every slot of the near-one operands.
::testing::AssertionResult FusedBits(const FmaKernels& k, const Vec8& a,
                                     const Vec8& b, const MpuTileReg& tile) {
  MpuTileReg out = tile;
  k.outer(out, a, b);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      const double want = std::fma(a[r], b[c], tile.At(r, c));
      if (Bits(out.At(r, c)) != Bits(want)) {
        return ::testing::AssertionFailure()
               << "outer(" << r << "," << c << ") = " << out.At(r, c) << " want "
               << want;
      }
    }
  }
  Vec8 c = Vec8::Zero();
  for (int i = 0; i < kVpuLanes; ++i) {
    c[i] = tile.At(i, i);
  }
  Vec8 lanes;
  k.lanes(lanes, a, b, c);
  for (int i = 0; i < kVpuLanes; ++i) {
    if (Bits(lanes[i]) != Bits(std::fma(a[i], b[i], c[i]))) {
      return ::testing::AssertionFailure() << "lane " << i << " = " << lanes[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FmaKernels, NearOneOperandsSeparateFusedFromUnfused) {
  Vec8 a, b;
  MpuTileReg tile;
  NearOneOperands(a, b, tile);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int c = 0; c < kMpuTile; ++c) {
      volatile double product = a[r] * b[c];
      const double fused = std::fma(a[r], b[c], tile.At(r, c));
      EXPECT_NE(Bits(product + tile.At(r, c)), Bits(fused)) << r << "," << c;
    }
  }
}

TEST(FmaKernels, PortableAndNativePathsGiveFusedBits) {
  std::vector<const FmaKernels*> paths = {&PortableFmaKernels(), &HostFmaKernels()};
  if (NativeFmaKernels() != nullptr) {
    paths.push_back(NativeFmaKernels());
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("fma")) {
    // On an FMA host the instruction path must exist and be the one in use.
    ASSERT_NE(NativeFmaKernels(), nullptr);
    EXPECT_EQ(&HostFmaKernels(), NativeFmaKernels());
  }
#endif
  Vec8 a, b;
  MpuTileReg tile;
  NearOneOperands(a, b, tile);
  for (const FmaKernels* k : paths) {
    EXPECT_TRUE(FusedBits(*k, a, b, tile));
  }
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    RandomOperands(rng, a, b, tile);
    for (const FmaKernels* k : paths) {
      ASSERT_TRUE(FusedBits(*k, a, b, tile)) << "draw " << i;
    }
  }
}

TEST(FmaKernels, MopaAndVFmaAreFused) {
  HwContext hw;
  Vec8 a, b;
  MpuTileReg tile;
  NearOneOperands(a, b, tile);
  MpuTileReg out = tile;
  hw.Mopa(out, a, b);
  Vec8 c = Vec8::Splat(-1.0);
  const Vec8 v = hw.VFma(a, b, c);
  for (int r = 0; r < kMpuTile; ++r) {
    for (int col = 0; col < kMpuTile; ++col) {
      EXPECT_EQ(Bits(out.At(r, col)), Bits(std::fma(a[r], b[col], tile.At(r, col))));
    }
    EXPECT_EQ(Bits(v[r]), Bits(std::fma(a[r], b[r], -1.0)));
  }
}

// ---- Pinned ledger digests ------------------------------------------------------

// Ledger digests of small runs of four workloads on four machine shapes,
// recorded with the seed hardware model. A change to the hardware model's
// host implementation must leave every one unchanged; a change that moves
// modeled cycles on purpose re-pins them and says why. Only the ledger is
// pinned: its cycles depend on which cells the particles occupy, not on the
// last bits of the host's libm. The single-core Esirkepov value needs the
// serial path to register the SoA streams before staging reads them; without
// that the reads missed the address map and the digest varied with ASLR.
struct PinnedMachine {
  const char* name;
  MachineConfig cfg;
  uint64_t qsp, lwfa, bunched_esirkepov, collisions;
};

std::vector<PinnedMachine> PinnedMachines() {
  return {
      {"Lx2", MachineConfig::Lx2(), 0x1b2d4705254ddb88ull, 0x6280974988f26af9ull,
       0xdf3a8270be524379ull, 0x02a0146d8fa35be8ull},
      {"Lx2MultiCore4", MachineConfig::Lx2MultiCore(4), 0xb597a9ab6459fdcbull,
       0x52845178abd01192ull, 0xd030650f9e127c9bull, 0x24781ac8acb633deull},
      {"Lx2MultiCoreNuma4x2", MachineConfig::Lx2MultiCoreNuma(4, 2),
       0x793ddc6eb4d75e5cull, 0x736e55cac67c6d39ull, 0xe23d080dd6a82e4cull,
       0xc5084b645e90f76cull},
      {"Lx2Cluster2x2", MachineConfig::Lx2Cluster(2, 2), 0xbf578ec988fdc71eull,
       0xe3f4decd7d36dee0ull, 0x25f59e666ffe38c9ull, 0xe099145b34c55a0eull},
  };
}

uint64_t QspLedger(const MachineConfig& cfg) {
  HwContext hw(cfg);
  UniformWorkloadParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 2;
  p.order = 3;
  p.tile = 4;
  auto sim = MakeUniformSimulation(hw, p);
  sim->Run(4);
  return LedgerDigest(hw.ledger());
}

uint64_t LwfaLedger(const MachineConfig& cfg) {
  HwContext hw(cfg);
  LwfaWorkloadParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 32;
  p.ppc_x = p.ppc_y = 1;
  p.ppc_z = 2;
  p.tile = 4;
  p.tile_z = 8;
  auto sim = MakeLwfaSimulation(hw, p);
  sim->Run(12);
  EXPECT_GT(sim->fields().geom.z0, 0.0) << "the window never moved";
  return LedgerDigest(hw.ledger());
}

uint64_t BunchedEsirkepovLedger(const MachineConfig& cfg) {
  HwContext hw(cfg);
  BunchedBeamParams p;
  p.nx = p.ny = p.nz = 8;
  p.ppc_x = p.ppc_y = p.ppc_z = 4;
  p.scheme = CurrentScheme::kEsirkepov;
  auto sim = MakeBunchedBeamSimulation(hw, p);
  sim->Run(6);
  return LedgerDigest(hw.ledger());
}

uint64_t CollisionsLedger(const MachineConfig& cfg) {
  HwContext hw(cfg);
  CollisionalRelaxationParams p;
  auto sim = MakeCollisionalRelaxationSimulation(hw, p);
  sim->Run(4);
  return LedgerDigest(hw.ledger());
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

class PinnedLedger : public ::testing::TestWithParam<int> {};

TEST_P(PinnedLedger, DigestsMatchSeedModel) {
  const PinnedMachine m = PinnedMachines()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(m.name);
  const uint64_t qsp = QspLedger(m.cfg);
  const uint64_t lwfa = LwfaLedger(m.cfg);
  const uint64_t bunched = BunchedEsirkepovLedger(m.cfg);
  const uint64_t collisions = CollisionsLedger(m.cfg);
  EXPECT_EQ(qsp, m.qsp) << "qsp " << Hex(qsp);
  EXPECT_EQ(lwfa, m.lwfa) << "lwfa " << Hex(lwfa);
  EXPECT_EQ(bunched, m.bunched_esirkepov) << "bunched_esirkepov " << Hex(bunched);
  EXPECT_EQ(collisions, m.collisions) << "collisions " << Hex(collisions);
}

INSTANTIATE_TEST_SUITE_P(Machines, PinnedLedger, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               PinnedMachines()[static_cast<size_t>(info.param)].name);
                         });

}  // namespace
}  // namespace mpic
