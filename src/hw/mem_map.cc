#include "src/hw/mem_map.h"

#include <algorithm>
#include <atomic>

#include "src/common/check.h"

namespace mpic {
namespace {
constexpr uint64_t kPage = 4096;
uint64_t RoundUpPage(uint64_t v) { return (v + kPage - 1) & ~(kPage - 1); }
// Process-global stamp source: every mutation of any MemMap gets a unique
// value, so version equality between two maps implies neither changed since
// one was copy-assigned from the other (worker snapshots in parallel regions).
std::atomic<uint64_t> g_mem_map_stamp{0};
std::atomic<uint64_t> g_mem_owner_id{0};
std::atomic<uint64_t> g_unmapped_translations{0};
}  // namespace

uint64_t NextMemOwnerId() {
  return g_mem_owner_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t UnmappedTranslations() {
  return g_unmapped_translations.load(std::memory_order_relaxed);
}

void MemMap::BumpVersion() {
  version_ = g_mem_map_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t MemMap::InsertRegion(uintptr_t host, size_t bytes, int home_domain) {
  Region r;
  r.host_base = host;
  r.host_end = host + bytes;
  r.home_domain = home_domain;
  // Stagger bases across cache sets: page-aligning every region would start
  // all streams in set 0 and make interleaved multi-stream loops thrash in a
  // way real (physically-colored) caches do not.
  const uint64_t stagger = (region_counter_++ * 7 % 61) * 64;
  r.logical_base = next_logical_ + stagger;
  next_logical_ += RoundUpPage(bytes + stagger) + kPage;  // guard page between
  // Drop stale regions that overlap the new range: they describe allocations
  // that have since been freed (the allocator handed their space to `host`).
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
  BumpVersion();
  return r.logical_base;
}

bool MemMap::RegionExists(uintptr_t host_base, uint64_t logical_base) const {
  auto it = std::lower_bound(regions_.begin(), regions_.end(), host_base,
                             [](const Region& r, uintptr_t h) {
                               return r.host_base < h;
                             });
  return it != regions_.end() && it->host_base == host_base &&
         it->logical_base == logical_base;
}

void MemMap::EraseRegion(uintptr_t host_base, uint64_t logical_base) {
  auto it = std::find_if(regions_.begin(), regions_.end(),
                         [&](const Region& r) {
                           return r.host_base == host_base &&
                                  r.logical_base == logical_base;
                         });
  if (it != regions_.end()) {
    regions_.erase(it);
    mru_ = 0;
    BumpVersion();
  }
}

uint64_t MemMap::Register(const void* base, size_t bytes, HomeDomain home) {
  const auto host = reinterpret_cast<uintptr_t>(base);
  // Existing region starting at the same base? If it grew (vector realloc that
  // landed on the same address), move it to a fresh logical range so logical
  // addresses never alias a neighbor. The home domain follows first-touch:
  // only a new/moved region (or an authoritative placement) re-homes it.
  auto it = std::lower_bound(regions_.begin(), regions_.end(), host,
                             [](const Region& r, uintptr_t h) {
                               return r.host_base < h;
                             });
  if (it == regions_.end() || it->host_base != host) {
    return InsertRegion(host, bytes, home.domain);
  }
  if (host + bytes <= it->host_end) {
    if (home.authoritative && it->home_domain != home.domain) {
      it->home_domain = home.domain;
      BumpVersion();
    }
    return it->logical_base;
  }
  // Evict the regions the grown range now overlaps, by InsertRegion's rule.
  // Only later regions can: the earlier ones end at or below `host`.
  const uintptr_t end = host + bytes;
  const auto index = static_cast<size_t>(it - regions_.begin());
  regions_.erase(std::remove_if(it + 1, regions_.end(),
                                [host, end](const Region& old) {
                                  return old.host_base < end && host < old.host_end;
                                }),
                 regions_.end());
  Region& r = regions_[index];
  r.host_end = end;
  r.logical_base = next_logical_;
  r.home_domain = home.domain;
  next_logical_ += RoundUpPage(bytes) + kPage;
  BumpVersion();
  return r.logical_base;
}

uint64_t MemMap::RegisterKeyed(uint64_t key, const void* base, size_t bytes,
                               HomeDomain home) {
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
    // The array moved or grew: retire its old region (the old host range is
    // dead memory now — leaving it mapped would let an unrelated later
    // allocation alias its logical address, which is exactly the run-to-run
    // nondeterminism keyed registration exists to rule out).
    EraseRegion(it->second.host_base, it->second.logical_base);
  }
  const uint64_t logical = InsertRegion(host, bytes, home.domain);
  keyed_[key] = KeyedRecord{host, bytes, logical};
  return logical;
}

void MemMap::ForgetKeyed(uint64_t key) {
  auto it = keyed_.find(key);
  if (it == keyed_.end()) {
    return;
  }
  EraseRegion(it->second.host_base, it->second.logical_base);
  keyed_.erase(it);
}

bool MemMap::SetHomeDomain(const void* p, int domain) {
  Region* r = Containing(reinterpret_cast<uintptr_t>(p));
  if (r == nullptr) {
    return false;
  }
  if (r->home_domain != domain) {
    r->home_domain = domain;
    BumpVersion();
  }
  return true;
}

MemMap::Region* MemMap::Containing(uintptr_t host) {
  // Regions are disjoint and a zero-byte region never lies inside another, so
  // only the last region starting at or below `host`, or a region it shares
  // its base with, can contain it.
  auto it = std::upper_bound(regions_.begin(), regions_.end(), host,
                             [](uintptr_t h, const Region& r) {
                               return h < r.host_base;
                             });
  if (it == regions_.begin()) {
    return nullptr;
  }
  const uintptr_t base = (it - 1)->host_base;
  while (it != regions_.begin() && (it - 1)->host_base == base) {
    --it;
    if (host < it->host_end) {
      return &*it;
    }
  }
  return nullptr;
}

MemLocation MemMap::TranslateSearch(uintptr_t host) {
  // Fibonacci hashing of the 256-byte granule: arrays a power of two apart
  // (a tile's SoA streams) and the small streams of one chunk scratch, which
  // share a page, land in different entries.
  MemoEntry& memo =
      memo_[((host >> kMemoGranuleBits) * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits)];
  if (memo.version != version_ || host < memo.host_base || host >= memo.host_end) {
    const Region* r = Containing(host);
    if (r == nullptr) {
      // Unregistered: identity-map into a far range (home domain unknown; the
      // cache model treats it as local).
      g_unmapped_translations.fetch_add(1, std::memory_order_relaxed);
      return MemLocation{kUnmappedBase + (host & ((uint64_t{1} << 40) - 1)), -1};
    }
    memo = MemoEntry{version_, r->host_base, r->host_end,
                     static_cast<size_t>(r - regions_.data())};
  }
  mru_ = memo.index;
  const Region& r = regions_[memo.index];
  return MemLocation{r.logical_base + (host - r.host_base), r.home_domain};
}

void MemMap::Clear() {
  regions_.clear();
  keyed_.clear();
  mru_ = 0;
  next_logical_ = 1 << 12;
  region_counter_ = 0;
  BumpVersion();
}

}  // namespace mpic
