#include "src/hw/cache_model.h"

#include <algorithm>

#include "src/common/check.h"

namespace mpic {

CacheLevel::CacheLevel(const CacheLevelConfig& cfg, int line_bytes) : ways_(cfg.ways) {
  // The recency order packs one 4-bit way index per way into 64 bits.
  MPIC_CHECK(ways_ > 0 && ways_ <= 16);
  const size_t num_sets =
      cfg.size_bytes / (static_cast<size_t>(ways_) * static_cast<size_t>(line_bytes));
  MPIC_CHECK(num_sets > 0);
  // Power-of-two set count lets us mask instead of mod.
  MPIC_CHECK((num_sets & (num_sets - 1)) == 0);
  set_mask_ = static_cast<uint64_t>(num_sets - 1);
  while ((size_t{1} << set_bits_) < num_sets) {
    ++set_bits_;
  }
  print_words_ = (ways_ + 7) / 8;
  tag0_ = 1 + print_words_;
  stride_ = static_cast<size_t>(tag0_ + ways_);
  for (int i = 0; i < ways_; ++i) {
    empty_order_ |= static_cast<uint64_t>(ways_ - 1 - i) << (4 * i);
    order_mask_ |= uint64_t{0xF} << (4 * i);
  }
  sets_.resize(num_sets * stride_);
  Reset();
}

void CacheLevel::Fill(uint64_t line_addr) {
  uint64_t* set = SetBlock(line_addr);
  const uint64_t victim = (set[0] >> (4 * (ways_ - 1))) & 0xF;
  set[0] = ((set[0] << 4) & order_mask_) | victim;
  uint64_t& prints = set[1 + victim / 8];
  const uint64_t shift = 8 * (victim % 8);
  prints = (prints & ~(uint64_t{0xFF} << shift)) | (Fingerprint(line_addr) << shift);
  set[tag0_ + victim] = line_addr;
}

void CacheLevel::Reset() {
  for (size_t base = 0; base < sets_.size(); base += stride_) {
    uint64_t* set = &sets_[base];
    set[0] = empty_order_;
    std::fill(set + 1, set + tag0_, uint64_t{0});
    std::fill(set + tag0_, set + stride_, kInvalidTag);
  }
}

CacheModel::CacheModel(const MachineConfig& cfg)
    : l1_(cfg.l1, kCacheLineBytes),
      l2_(cfg.l2, kCacheLineBytes),
      l2_penalty_(cfg.l2.hit_penalty_cycles),
      dram_penalty_(cfg.dram_penalty_cycles),
      prefetch_factor_(cfg.prefetch_factor),
      remote_factor_(cfg.remote_mem_latency_factor) {
  // stream_bucket_ holds one bit per stream in a 64-bit mask.
  MPIC_CHECK(cfg.prefetch_streams > 0 && cfg.prefetch_streams <= kMaxStreams);
  stream_next_.assign(static_cast<size_t>(cfg.prefetch_streams), kNoLine);
  stream_lru_.assign(static_cast<size_t>(cfg.prefetch_streams), 0);
  stream_bucket_.assign(kStreamBuckets, 0);
}

bool CacheModel::PrefetchHit(uint64_t line) {
  ++stream_clock_;
  // Two streams can expect the same line (a new stream may start where an
  // existing one is headed); the lowest-index one advances.
  size_t s = 0;
  bool predicted = false;
  for (uint64_t candidates = stream_bucket_[StreamBucket(line)]; candidates != 0;
       candidates &= candidates - 1) {
    s = static_cast<size_t>(__builtin_ctzll(candidates));
    if (stream_next_[s] == line) {
      predicted = true;
      break;
    }
  }
  if (!predicted) {
    // New (or broken) stream: start tracking from here, replacing the least
    // recently used tracker (the lowest index among never-used ones).
    s = 0;
    uint64_t oldest = stream_lru_[0];
    for (size_t i = 1; i < stream_lru_.size(); ++i) {
      if (stream_lru_[i] < oldest) {
        oldest = stream_lru_[i];
        s = i;
      }
    }
  }
  const uint64_t bit = uint64_t{1} << s;
  if (stream_next_[s] != kNoLine) {
    stream_bucket_[StreamBucket(stream_next_[s])] &= ~bit;
  }
  stream_next_[s] = line + 1;
  stream_bucket_[StreamBucket(line + 1)] |= bit;
  stream_lru_[s] = stream_clock_;
  return predicted;
}

double CacheModel::Miss(uint64_t line, CostLedger& ledger, bool remote) {
  auto& c = ledger.counters();
  ++c.l1_misses;
  last_line_ = line;
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
    // The line crosses the interconnect: scale the (post-discount) miss
    // penalty by the remote factor and book the surcharge separately.
    const double surcharge = penalty * (remote_factor_ - 1.0);
    penalty += surcharge;
    ++c.remote_lines;
    c.remote_cycles += surcharge;
  }
  return penalty;
}

void CacheModel::Reset() {
  l1_.Reset();
  l2_.Reset();
  last_line_ = kNoLine;
  // The stride-prefetcher streams are cache state too: leaving them warm
  // across a reset lets a pre-reset access pattern discount post-reset
  // misses, which breaks the model-sync guarantee that two runs flushed at
  // the same execution point charge identical cycles from there on.
  stream_next_.assign(stream_next_.size(), kNoLine);
  stream_lru_.assign(stream_lru_.size(), 0);
  stream_clock_ = 0;
  stream_bucket_.assign(stream_bucket_.size(), 0);
}

}  // namespace mpic
