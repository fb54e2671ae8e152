// Two-level set-associative cache model with LRU replacement.
//
// The model works on *logical* addresses supplied by the MemMap (stable across
// runs, independent of the host heap), at cache-line granularity. It returns the
// extra cycles an access costs and records hit/miss events in the ledger.
//
// Every modeled memory access runs through here, so the L1-hit path is inline
// and everything past an L1 miss is out of line. Host speed-ups must keep the
// charged cycles and counters bit-identical (README.md, "Hardware model").

#ifndef MPIC_SRC_HW_CACHE_MODEL_H_
#define MPIC_SRC_HW_CACHE_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/hw/cost_ledger.h"
#include "src/hw/machine_config.h"

namespace mpic {

// One inclusive cache level (at most 16 ways).
class CacheLevel {
 public:
  CacheLevel(const CacheLevelConfig& cfg, int line_bytes);

  // Looks up (and on hit, refreshes LRU for) the line containing addr.
  bool Access(uint64_t line_addr) {
    // The stored "tag" is the full line address; comparing it is equivalent
    // to a tag match within the indexed set. Only ways whose fingerprint
    // matches are compared, lowest way first.
    uint64_t* set = SetBlock(line_addr);
    const uint64_t key = Fingerprint(line_addr) * kByteOnes;
    for (int k = 0; k < print_words_; ++k) {
      for (uint64_t m = ZeroBytes(set[1 + k] ^ key); m != 0; m &= m - 1) {
        const int w = 8 * k + (__builtin_ctzll(m) >> 3);
        if (set[tag0_ + w] == line_addr) {
          set[0] = MostRecentFirst(set[0], static_cast<uint64_t>(w));
          return true;
        }
      }
    }
    return false;
  }
  // Installs a line that is not cached, in the set's first empty way or else
  // over its least recently used line.
  void Fill(uint64_t line_addr);
  void Reset();

 private:
  // Each set's recency order is a permutation of its ways, one 4-bit way
  // index per nibble: nibble 0 holds the most recently used way, nibble
  // ways-1 the next victim. Empty ways sit behind every filled one, the
  // lowest index last, so the victim is the first empty way while one is
  // left. The order has no counter that could wrap.
  static uint64_t MostRecentFirst(uint64_t order, uint64_t way) {
    // The nibble equal to `way` is the lowest zero nibble of x; the has-zero
    // trick flags it exactly (flags above it may be spurious, and are dropped).
    const uint64_t x = order ^ (way * kNibbleOnes);
    uint64_t flag = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
    flag &= ~flag + 1;  // bit 4p+3 for the way's position p
    const uint64_t through = (flag << 1) - 1;  // nibbles 0..p
    const uint64_t before = (flag >> 3) - 1;   // nibbles 0..p-1
    return (order & ~through) | ((order & before) << 4) | way;
  }
  uint64_t* SetBlock(uint64_t line_addr) {
    return &sets_[static_cast<size_t>(line_addr & set_mask_) * stride_];
  }

  // 7 low tag bits with the top bit set, so an empty way (fingerprint 0)
  // never matches.
  uint64_t Fingerprint(uint64_t line_addr) const {
    return 0x80 | ((line_addr >> set_bits_) & 0x7F);
  }
  // Bit 8i+7 set for each zero byte i of `word`, exactly (no carries).
  static uint64_t ZeroBytes(uint64_t word) {
    constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
    return ~(((word & kLow7) + kLow7) | word | kLow7);
  }

  static constexpr uint64_t kNibbleOnes = 0x1111111111111111ull;
  static constexpr uint64_t kByteOnes = 0x0101010101010101ull;

  int ways_;
  int set_bits_ = 0;
  uint64_t set_mask_ = 0;
  // One block of stride_ words per set: the recency order, print_words_
  // words of fingerprints (byte w % 8 of word w / 8 for way w, 0 when the
  // way is empty), then the tags from word tag0_ (kInvalidTag when empty).
  std::vector<uint64_t> sets_;
  size_t stride_ = 0;
  int print_words_ = 0;
  int tag0_ = 0;
  uint64_t empty_order_ = 0;  // ways-1, ..., 1, 0 from nibble 0 up
  uint64_t order_mask_ = 0;   // nibbles 0..ways-1

  static constexpr uint64_t kInvalidTag = ~uint64_t{0};
};

class CacheModel {
 public:
  explicit CacheModel(const MachineConfig& cfg);

  // Models one access to the line containing `addr`. Returns the extra penalty
  // cycles (0 for an L1 hit; discounted by the stride prefetcher when the line
  // continues a tracked sequential stream) and records events in `ledger`.
  // `remote` marks the line as homed in another NUMA domain: a miss that goes
  // all the way to DRAM then pays remote_mem_latency_factor on the (post-
  // discount) penalty, with the surcharge counted in remote_lines /
  // remote_cycles. Cache hits cost the same either way — only the memory
  // round-trip crosses the interconnect.
  double Touch(uint64_t addr, CostLedger& ledger, bool remote = false) {
    return TouchLine(addr / kCacheLineBytes, ledger, remote);
  }

  // Models an access spanning [addr, addr+bytes): touches every line in range
  // and returns the penalties summed in line order.
  double TouchRange(uint64_t addr, uint64_t bytes, CostLedger& ledger,
                    bool remote = false) {
    if (bytes == 0) {
      return 0.0;
    }
    const uint64_t first = addr / kCacheLineBytes;
    const uint64_t last = (addr + bytes - 1) / kCacheLineBytes;
    double penalty = 0.0;
    for (uint64_t line = first; line <= last; ++line) {
      penalty += TouchLine(line, ledger, remote);
    }
    return penalty;
  }

  void Reset();

 private:
  double TouchLine(uint64_t line, CostLedger& ledger, bool remote) {
    // The line the previous access left in L1 is its set's most recently
    // used line, so touching it again is a hit that changes no LRU order.
    if (line != last_line_) {
      if (!l1_.Access(line)) {
        return Miss(line, ledger, remote);
      }
      last_line_ = line;
    }
    ++ledger.counters().l1_hits;
    return 0.0;
  }
  // An L1 miss: prefetcher, L2, DRAM, and the fills on the way back.
  double Miss(uint64_t line, CostLedger& ledger, bool remote);
  bool PrefetchHit(uint64_t line);
  static size_t StreamBucket(uint64_t line) {
    return static_cast<size_t>(line & (kStreamBuckets - 1));
  }

  CacheLevel l1_;
  CacheLevel l2_;
  double l2_penalty_;
  double dram_penalty_;
  double prefetch_factor_;
  double remote_factor_;
  uint64_t last_line_ = kNoLine;
  // Next-line stride prefetcher state (LRU-replaced stream trackers).
  // stream_next_[s] is the line stream s expects (kNoLine while unused).
  std::vector<uint64_t> stream_next_;
  std::vector<uint64_t> stream_lru_;
  uint64_t stream_clock_ = 0;
  // Bit s of stream_bucket_[b] is set when StreamBucket(stream_next_[s]) == b,
  // so a lookup checks only the streams that can match, lowest index first.
  std::vector<uint64_t> stream_bucket_;

  static constexpr uint64_t kNoLine = ~uint64_t{0};
  static constexpr uint64_t kStreamBuckets = 256;
  static constexpr int kMaxStreams = 64;
};

}  // namespace mpic

#endif  // MPIC_SRC_HW_CACHE_MODEL_H_
