// Charge-conserving current deposition after Esirkepov (CPC 135, 2001),
// integrated as CurrentScheme::kEsirkepov of the DepositionEngine.
//
// Direct deposition (the kernels in deposit_*.cc) does not satisfy the
// discrete continuity equation, so PIC codes using it must periodically clean
// divergence errors. Esirkepov's scheme computes J from the *motion* of each
// particle between two positions such that
//
//     (rho_new - rho_old)/dt + div J = 0
//
// holds exactly on the staggered (Yee) mesh, for any shape order. The J
// components land at their Yee locations (Jx at i+1/2 etc.); rho is nodal.
//
// The engine path is *staged*, in the spirit of the rhocell pipeline
// (Algorithm 2): a staging pass evaluates, once per particle, the per-axis
// weight windows over the union of the old and new shape supports — the
// midpoint weights m = (S_old + S_new)/2 and difference weights
// d = S_new - S_old — into an EsirkepovScratch (keyed MemMap registration,
// Phase::kPreproc, scalar or VPU cost profile matching the variant's
// staging). As in the direct scheme (deposit_staging.h), every combine stages
// one chunk at a time in deposit order through StageChunk and consumes the
// chunk from L1. A combine kernel then forms each transverse plane as the
// rank-2 sum outer(m_b, m_c) + (1/12) outer(d_b, d_c) and accumulates the running
// density-decomposition sums into a per-tile Yee-staggered TileCurrent
// scratch (Phase::kCompute). The writes are tile-private, so tiles fan out in
// parallel like the rhocell kernels; ReduceEsirkepovToGrid performs the
// O(tile nodes) scatter-add onto the global J arrays on the engine's
// halo-disjoint colored schedule (Phase::kReduce), each tile cut into z-plane
// chunks of its whole box when its color class has fewer tiles than the
// machine has cores (one-tile classes used to reduce serially).
//
// Three combine cost profiles serve the scheme:
//
//  * DepositEsirkepov — the scalar canonical form, scattering straight into
//    the global J arrays. Kept as the reference every staged path is
//    validated against (tests/esirkepov_test.cc).
//  * DepositEsirkepovTile (this header) — the staged scalar/VPU combine used
//    by non-MPU variants, and the value-level reference for the MPU kernel.
//  * DepositEsirkepovMpuTile (esirkepov_mpu.h) — maps each plane's rank-2
//    update onto the 8x8 MPU as two MOPAs per particle-pair per plane, with
//    width-adaptive operand packing and a measured occupancy counter. This is
//    what MPU variants dispatch to, and what makes the charge-conserving
//    scheme cost-competitive with direct deposition (see README for the
//    measured cycle ratios).
//
// Old positions arrive through the ParticleSoA old-position lanes (xo/yo/zo),
// captured by the step pipeline before the push and maintained across
// periodic wrap and cross-tile migration; the displacement must satisfy the
// CFL bound (|delta| < one cell per axis), which the union window of
// Order + 2 nodes per axis encodes.

#ifndef MPIC_SRC_DEPOSIT_ESIRKEPOV_H_
#define MPIC_SRC_DEPOSIT_ESIRKEPOV_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/deposit/deposit_params.h"
#include "src/grid/field_set.h"
#include "src/hw/hw_context.h"
#include "src/particles/particle_tile.h"

namespace mpic {

// How many nodes beyond the tile's cell box the staged Esirkepov deposit can
// write on each side: the window is the union of the old and new supports,
// and after the sort barriers the *new* cell is inside the tile while the old
// position may be up to one cell outside (CFL). Used both to size the
// TileCurrent scratch and to build the halo-disjoint reduction coloring.
inline constexpr int EsirkepovHaloNodes(int order) { return order == 1 ? 1 : 2; }

// Per-tile Yee-staggered J accumulation scratch: the tile's node box extended
// by EsirkepovHaloNodes on every side, one array per component, indexed by
// global node index. Zeroed after every reduction (like the rhocell blocks).
class TileCurrent {
 public:
  void Resize(const ParticleTile& tile, int order) {
    const int halo = EsirkepovHaloNodes(order);
    ox_ = tile.lo_x() - halo;
    oy_ = tile.lo_y() - halo;
    oz_ = tile.lo_z() - halo;
    nx_ = tile.nx() + 1 + 2 * halo;
    ny_ = tile.ny() + 1 + 2 * halo;
    nz_ = tile.nz() + 1 + 2 * halo;
    const size_t n =
        static_cast<size_t>(nx_) * static_cast<size_t>(ny_) * static_cast<size_t>(nz_);
    jx_.assign(n, 0.0);
    jy_.assign(n, 0.0);
    jz_.assign(n, 0.0);
  }

  bool empty() const { return jx_.empty(); }
  // Node extents / low corner, in global node indices.
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int ox() const { return ox_; }
  int oy() const { return oy_; }
  int oz() const { return oz_; }

  // Linear index of global node (gx, gy, gz); x fastest, like FieldArray.
  int64_t Index(int gx, int gy, int gz) const {
    MPIC_DCHECK(gx >= ox_ && gx < ox_ + nx_);
    MPIC_DCHECK(gy >= oy_ && gy < oy_ + ny_);
    MPIC_DCHECK(gz >= oz_ && gz < oz_ + nz_);
    return (gx - ox_) +
           static_cast<int64_t>(nx_) *
               ((gy - oy_) + static_cast<int64_t>(ny_) * (gz - oz_));
  }

  std::vector<double>& jx() { return jx_; }
  std::vector<double>& jy() { return jy_; }
  std::vector<double>& jz() { return jz_; }
  const std::vector<double>& jx() const { return jx_; }
  const std::vector<double>& jy() const { return jy_; }
  const std::vector<double>& jz() const { return jz_; }

 private:
  int ox_ = 0, oy_ = 0, oz_ = 0;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<double> jx_, jy_, jz_;
};

// Staged per-particle quantities of the Esirkepov decomposition for one chunk
// of particles in deposit order, indexed by chunk slot (the StageChunk
// overload below, which both combines run through ForEachStagedChunk). Per
// axis the window holds the midpoint weights m[t] = (S_old[t] + S_new[t]) / 2
// and the difference weights d[t] = S_new[t] - S_old[t] over the union
// support of Order + 2 nodes.
//
// The last m lane is never stored: on a narrow axis it is zero, and on a wide
// axis exactly one of the two supports covers the last union node, so
// m[W-1] = 0.5 * s1[W-1] = +d[W-1]/2 when the particle crossed forward and
// m[W-1] = 0.5 * s0[W-1] = -d[W-1]/2 when it crossed backward. Combine
// kernels reconstruct it from d and the direction bit via
// EsirkepovWideLastM — bit-exactly, since the staged value was the same
// product (0.5 * the single live support weight) and IEEE negation is exact.
//
// Layout: one packed block of 3 * (2 * (Order + 2) - 1) doubles per particle
// — [mx | dx | my | dy | mz | dz] with each m window one lane short — plus
// window bases, charge factor, and width/direction flags in side arrays. The
// packed block keeps staging stores and combine loads down to a handful of
// sequential streams (inside the stride prefetcher's stream budget, which the
// previous one-array-per-lane layout blew past at order 3), and doubles as
// the Vec8 operand layout for the MPU kernel: each axis window is one
// unaligned vector load.
struct EsirkepovScratch {
  static constexpr int kMaxWindow = 5;  // Order + 2 at order 3

  // Union-window width (Order + 2) the blocks are strided for.
  int window = 0;
  int stride() const { return 3 * (2 * window - 1); }

  double* Win(size_t slot) {
    return win.data() + static_cast<size_t>(stride()) * slot;
  }
  const double* Win(size_t slot) const {
    return win.data() + static_cast<size_t>(stride()) * slot;
  }
  // Offsets of the m/d windows of `axis` (0=x, 1=y, 2=z) inside a block. The
  // m window carries window - 1 stored lanes, d the full width.
  int OffM(int axis) const { return axis * (2 * window - 1); }
  int OffD(int axis) const { return OffM(axis) + window - 1; }

  // Entries an order-`order` staging can write (none when the blocks are
  // strided for another order).
  size_t slots(int order) const { return window == order + 2 ? qf.size() : 0; }

  void Resize(size_t n_slots, int order) {
    window = order + 2;
    win.resize(n_slots * static_cast<size_t>(stride()));
    bx.resize(n_slots);
    by.resize(n_slots);
    bz.resize(n_slots);
    qf.resize(n_slots);
    wide.resize(n_slots);
  }

  // Lowest node index of the union window per axis (global nodes).
  std::vector<int32_t> bx, by, bz;
  // Packed m/d blocks; Win(slot)[OffM(0) + t] pairs with node bx[slot] + t.
  std::vector<double> win;
  // Per-particle charge factor q * w / cell_volume.
  std::vector<double> qf;
  // Bit `axis` (0..2) set when the particle crossed a cell boundary on that
  // axis, i.e. its union window really is Order + 2 nodes wide. Unset means
  // the effective width is Order + 1 and the last lane of m and d is exactly
  // zero — the width-adaptive MPU kernel packs and extracts only live lanes
  // (at thermal drift almost all particles are narrow on every axis). Bit
  // 3 + axis is the crossing *direction*: set when the particle crossed
  // backward (new support below the old one), clear for forward. Direction
  // bits are only ever set alongside their width bit, so `wide == 0` still
  // reads as "narrow on every axis".
  std::vector<uint8_t> wide;
};

// Reconstructs the unstored last m lane of `axis` from the last d lane and
// the width/direction bits (see EsirkepovScratch): zero when narrow,
// +d_last/2 on a forward crossing, -d_last/2 on a backward one. Every
// combine kernel (staged scalar, sparse VPU fallback, MPU packing) must use
// this one helper so the reconstructed values stay mutually bit-identical.
inline double EsirkepovWideLastM(uint8_t wide_bits, int axis, double d_last) {
  if (((wide_bits >> axis) & 1) == 0) return 0.0;
  return ((wide_bits >> (3 + axis)) & 1) != 0 ? -0.5 * d_last : 0.5 * d_last;
}

// Stage 1: per-axis weight windows + charge factor of particles
// pids[0..count) of `soa`, from its old-position lanes and current positions,
// into chunk slots [0, count); `scratch` must hold `count` slots. The cost
// profiles are those of the direct scheme's StageChunk (deposit_staging.h):
// with `vpu_staging` each batch of kVpuLanes loads its seven SoA streams
// through HwContext::VGatherAuto (one vector load when the batch's pids are
// consecutive, one gather otherwise) and writes the staged streams with
// vector stores; without it, scalar loads, math and stores per particle.
// Values are identical either way. Charged to Phase::kPreproc.
template <int Order>
void StageChunk(HwContext& hw, const ParticleSoA& soa, const DepositParams& params,
                bool vpu_staging, const int32_t* pids, int32_t count,
                EsirkepovScratch& scratch);

// Stages the tile chunk by chunk into `scratch` (StageChunk with the
// `vpu_staging` profile, Phase::kPreproc), then per chunk combines the staged
// axis windows by outer product into the density-decomposition stencil and
// accumulates the running sums into the tile-private TileCurrent at
// Yee-staggered locations (Phase::kCompute). `sorted` iterates cell-by-cell
// through the GPMA bins (sorting variants); otherwise slot order. params.dt
// must be the step dt.
template <int Order>
void DepositEsirkepovTile(HwContext& hw, const ParticleTile& tile,
                          const DepositParams& params, bool sorted,
                          bool vpu_staging, EsirkepovScratch& scratch,
                          TileCurrent& tile_j);

// Scatter-adds the tile scratch onto fields.jx/jy/jz (row-contiguous vector
// adds) and zeroes it. Tiles of one reduce-coloring class have disjoint node
// footprints and may run concurrently. With a narrower `planes` only the
// scratch planes inside it are added and zeroed, so calls over disjoint
// plane ranges of one tile may run concurrently too; their ranges must
// together cover the whole box, whose planes any particle's window can have
// written. Charged to Phase::kReduce.
void ReduceEsirkepovToGrid(HwContext& hw, TileCurrent& tile_j, FieldSet& fields,
                           ZPlanes planes = {});

// Registers the scratch arrays and the tile scratch with the hardware model's
// address space under stable keys (streams key_base..key_base+8; the engine
// passes MemRegionKey(owner, tile, 32) so these follow the 0..31 block of
// RegisterStagingRegions). Call whenever the arrays may have moved.
void RegisterEsirkepovRegions(HwContext& hw, uint64_t key_base,
                              const EsirkepovScratch& scratch,
                              const TileCurrent& tile_j);

// Reference implementation: deposits the current of every live particle
// moving from its old position (x_old/y_old/z_old, indexed by pid) to its
// current SoA position, scattering straight into fields.jx/jy/jz. The staged
// engine path above is validated against it. Charged to Phase::kCompute.
template <int Order>
void DepositEsirkepov(HwContext& hw, const ParticleTile& tile,
                      const std::vector<double>& x_old,
                      const std::vector<double>& y_old,
                      const std::vector<double>& z_old,
                      const DepositParams& params, FieldSet& fields);

// Nodal charge density deposition (rho += q*w*S/dV), used by the continuity
// tests and by diagnostics.
template <int Order>
void DepositCharge(HwContext& hw, const ParticleTile& tile,
                   const DepositParams& params, FieldArray& rho);

}  // namespace mpic

#endif  // MPIC_SRC_DEPOSIT_ESIRKEPOV_H_
