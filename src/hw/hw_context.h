// HwContext: the modeled LX2 core that every MatrixPIC kernel programs against.
//
// It plays the role the real hardware's intrinsics play in the paper: kernels
// issue scalar, VPU (8-lane FP64 SIMD) and MPU (8x8 FP64 outer-product tile)
// operations. Each operation
//   (1) computes the real FP64 result, and
//   (2) charges modeled cycles to the CostLedger under the active Phase,
//       consulting the CacheModel for every modeled memory access.
//
// This is the substitution for the paper's LX2 CPU (README.md, "Hardware
// model"): results are numerically real and validated against scalar
// references, while "time" is the modeled cycle count.

#ifndef MPIC_SRC_HW_HW_CONTEXT_H_
#define MPIC_SRC_HW_HW_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/cache_model.h"
#include "src/hw/cost_ledger.h"
#include "src/hw/machine_config.h"
#include "src/hw/mem_map.h"
#include "src/hw/vec.h"

namespace mpic {

class HwContext {
 public:
  explicit HwContext(const MachineConfig& cfg = MachineConfig::Lx2());

  const MachineConfig& cfg() const { return cfg_; }
  CostLedger& ledger() { return ledger_; }
  const CostLedger& ledger() const { return ledger_; }
  CacheModel& cache() { return cache_; }
  MemMap& mem() { return mem_; }

  // Registers an array with the deterministic logical address space. Kernels
  // register every array they model accesses to (particles, J, rhocells, GPMA
  // index arrays) once per configuration. A region created here is homed in
  // this context's NUMA domain (model first-touch) — or in the scoped home
  // domain when a ScopedHomeDomain is active, which also re-homes regions
  // that already exist (an explicit placement decision, not a mere touch).
  void RegisterRegion(const void* p, size_t bytes) {
    mem_.Register(p, bytes, RegistrationHome());
  }
  // Keyed registration for arrays that may reallocate over the run (particle
  // SoA streams, staging scratch): see MemMap::RegisterKeyed.
  void RegisterRegionKeyed(uint64_t key, const void* p, size_t bytes) {
    mem_.RegisterKeyed(key, p, bytes, RegistrationHome());
  }
  // Re-homes the region containing `p` (see MemMap::SetHomeDomain).
  void SetHomeDomain(const void* p, int domain) { mem_.SetHomeDomain(p, domain); }

  // NUMA domain this context models (0 for the main context; workers get
  // theirs from NumaDomainOfWorker at creation).
  int numa_domain() const { return numa_domain_; }

  // Resets modeled state between bench configurations (cold caches, zero
  // cycles). Region registrations survive; call mem().Clear() to drop them.
  void ResetModel();

  // Empties every modeled cache (this context and its workers) without
  // touching ledgers or registrations. Checkpoint model-sync points call this
  // so a saving run and its restored twin resume from identical (cold) cache
  // state; see runtime/checkpoint.h.
  void FlushModelCaches();

  // ---- Scalar stream -------------------------------------------------------

  // n scalar ALU/FPU micro-ops.
  void ScalarOps(int n);
  // Scalar read-modify-write: *p += v (the canonical deposition update).
  void AccumScalar(double* p, double v);
  // Models a scalar-width access to non-double data (indices, flags).
  void TouchRead(const void* p, size_t bytes) {
    ChargeMem(p, bytes, cfg_.scalar_mem_issue_cycles, /*write=*/false, 0);
  }
  void TouchWrite(const void* p, size_t bytes) {
    ChargeMem(p, bytes, cfg_.scalar_mem_issue_cycles, /*write=*/true, 0);
  }
  // One TouchRead of `row_bytes` per row of a block, row (r, pl) at
  // p + r * row_stride + pl * plane_stride bytes, planes outer: the same
  // charges in the same order as the per-row calls. A block that lies inside
  // one registered region is translated once and charged in one cache-model
  // call (CacheModel::ChargeRows).
  void TouchReadRows(const void* p, size_t row_bytes, int rows,
                     int64_t row_stride, int planes, int64_t plane_stride);

  // ---- VPU stream ----------------------------------------------------------

  // Contiguous vector load/store of kVpuLanes doubles.
  Vec8 VLoad(const double* p);
  void VStore(double* p, const Vec8& v);
  // Predicated forms: charged like VLoad/VStore (one full-width access), but
  // only the active lanes are read or written; inactive result lanes are 0.
  Vec8 VLoadMasked(const double* p, const Mask8& m);
  void VStoreMasked(double* p, const Vec8& v, const Mask8& m);

  // Gather/scatter with 64-bit lane indices relative to `base` (elements).
  Vec8 VGather(const double* base, const int64_t* idx, const Mask8& m);
  // The cost of a gather of one `elem_bytes` element per active lane at
  // base + idx[i] * elem_bytes, with no data moved: one gather issue
  // (cfg.gather_issue_cycles), then each active lane's line penalty in lane
  // order. VGather charges through it, so every gather width pays one rule.
  void TouchGather(const void* base, size_t elem_bytes, const int64_t* idx,
                   const Mask8& m);
  // Indexed load that detects a contiguous ascending run over the active lanes
  // (the post-global-sort common case) and charges vector-load cost instead of
  // gather cost. Sorted kernels use this; the paper's point that "unordered
  // particle access leads to weaker compute" falls out of it.
  Vec8 VGatherAuto(const double* base, const int64_t* idx, const Mask8& m);
  // Scatter-accumulate base[idx[i]] += v[i] for kernels that guarantee
  // disjoint lanes (e.g. rhocell updates): no conflict detection cost, plain
  // scatter cost.
  void VScatterAccum(double* base, const int64_t* idx, const Vec8& v,
                     const Mask8& m);

  // One VPU FMA instruction, a*b + c. Kernels charge their other register
  // work as op counts instead.
  Vec8 VFma(const Vec8& a, const Vec8& b, const Vec8& c);

  // ---- MPU stream ----------------------------------------------------------

  // C += a (x) b over the full tile. One MOPA instruction. `valid_slots` is
  // the number of tile slots carrying useful work for this issue (<= 64); it
  // only feeds the occupancy counter, never the cycle charge — an MOPA costs
  // the same whether its operands are fully or partially packed.
  void Mopa(MpuTileReg& tile, const Vec8& a, const Vec8& b,
            int valid_slots = kMpuTile * kMpuTile);
  // C = a (x) b: MOPA with accumulator clear, as offered by real matrix ISAs
  // (AMX TILEZERO-fused issue, SME `fmopa` with the ZA slice zeroed). Same
  // issue cost as Mopa; saves the separate TileZero when a tile group starts
  // a fresh accumulation.
  void MopaZero(MpuTileReg& tile, const Vec8& a, const Vec8& b,
                int valid_slots = kMpuTile * kMpuTile);
  // Zeroes the tile accumulators.
  void TileZero(MpuTileReg& tile);
  // Moves one tile row into a VPU register (tile -> vector file transfer).
  Vec8 TileReadRow(const MpuTileReg& tile, int row);

  // ---- Bulk accounting -----------------------------------------------------

  // Roofline-style charge for regular streaming kernels (the Maxwell solver):
  // cycles = max(flops / vpu_peak, bytes / stream_bytes_per_cycle). Used where
  // per-access cache simulation adds cost without changing any conclusion.
  void ChargeBulk(double flops, double bytes);

  // Direct cycle charge (e.g. a modeled fixed-cost runtime call).
  void ChargeCycles(double cycles) { ledger_.AddCycles(cycles); }

  // Charges one successful work-steal on this (worker) context: the deque
  // CAS + coherence round-trip (cfg.steal_cost_cycles) plus one remote line
  // for the migrated queue entry (cfg.dram_penalty_cycles), under
  // Phase::kOther, and bumps the tasks_stolen / steal_cycles counters.
  // `remote` marks a steal across a NUMA domain boundary: the CAS round-trip
  // scales by cfg.remote_mem_latency_factor and the descriptor line pays
  // cfg.remote_line_transfer_cycles on top, counted in tasks_stolen_remote.
  void ChargeSteal(bool remote = false);

  // Seconds corresponding to the ledger's total cycles at the modeled clock.
  double TotalSeconds() const { return cfg_.CyclesToSeconds(ledger_.TotalCycles()); }

  // ---- Multi-core execution (see src/hw/parallel_for.h) -------------------

  // Modeled core count (>= 1).
  int num_cores() const { return cfg_.num_cores < 1 ? 1 : cfg_.num_cores; }

  // Per-core context used by ParallelForTiles when num_cores() > 1. Lazily
  // created; workers share the machine parameters but own a private ledger
  // (per-region scratch, merged by MergeParallel) and a private cache that
  // persists across regions, modeling that core's cache hierarchy. Workers
  // receive a snapshot of this context's memory map at each region start.
  HwContext& worker(int w);

 private:
  friend class ScopedHomeDomain;

  // One modeled memory instruction: issue cost plus the cache penalty of
  // [p, p+bytes), charged as one AddCycles. The model charges reads and
  // writes identically.
  void ChargeMem(const void* p, size_t bytes, double issue_cycles, bool write,
                 uint64_t count_as_vpu_mem) {
    (void)write;
    ledger_.AddCycles(issue_cycles + MemPenalty(mem_.TranslateEx(p), bytes));
    if (count_as_vpu_mem != 0) {
      ledger_.counters().vpu_mem += count_as_vpu_mem;
    } else {
      ++ledger_.counters().scalar_mem;
    }
  }
  // Models the access to [loc.addr, loc.addr + bytes) in this context's
  // caches; returns the penalty cycles. The whole L1-hit path is inlined
  // here, so a single access makes one out-of-line call.
  double MemPenalty(const MemLocation& loc, size_t bytes);
  // Charges each active lane's `elem_bytes` element at base + idx[i] *
  // elem_bytes, in lane order, as one CacheModel::ChargeEach call with no
  // issue cost: each lane does its own AddCycles(penalty).
  void ChargeLanes(const void* base, size_t elem_bytes, const int64_t* idx,
                   const Mask8& m);
  // Home-domain intent for registrations issued by this context: the scoped
  // placement domain when one is active (authoritative), this context's own
  // domain otherwise (first-touch).
  HomeDomain RegistrationHome() const {
    if (scoped_home_domain_ >= 0) {
      return HomeDomain{scoped_home_domain_, /*authoritative=*/true};
    }
    return HomeDomain{numa_domain_, /*authoritative=*/false};
  }
  // True when an access to `loc` crosses a domain boundary on a DRAM miss.
  bool IsRemote(const MemLocation& loc) const {
    return cfg_.num_numa_domains > 1 && loc.home_domain >= 0 &&
           loc.home_domain != numa_domain_;
  }

  MachineConfig cfg_;
  CostLedger ledger_;
  CacheModel cache_;
  MemMap mem_;
  double vpu_op_cycles_;
  double scalar_op_cycles_;
  int numa_domain_ = 0;
  int scoped_home_domain_ = -1;
  std::vector<std::unique_ptr<HwContext>> workers_;
};

// RAII placement scope: registrations issued through `ctx` while the scope is
// live home their regions in `domain` — authoritatively, i.e. regions that
// already exist are re-homed too. Used by the per-step region refresh to make
// a tile's SoA/scratch pages follow the tile's scheduled owner. A negative
// domain is a no-op scope (registrations keep first-touch semantics).
class ScopedHomeDomain {
 public:
  ScopedHomeDomain(HwContext& ctx, int domain)
      : ctx_(ctx), prev_(ctx.scoped_home_domain_) {
    ctx_.scoped_home_domain_ = domain;
  }
  ~ScopedHomeDomain() { ctx_.scoped_home_domain_ = prev_; }
  ScopedHomeDomain(const ScopedHomeDomain&) = delete;
  ScopedHomeDomain& operator=(const ScopedHomeDomain&) = delete;

 private:
  HwContext& ctx_;
  int prev_;
};

}  // namespace mpic

#endif  // MPIC_SRC_HW_HW_CONTEXT_H_
