#include "src/core/deposition_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/deposit/deposit_baseline.h"
#include "src/deposit/deposit_mpu.h"
#include "src/deposit/deposit_rhocell.h"
#include "src/deposit/esirkepov_mpu.h"
#include "src/deposit/deposit_scalar.h"
#include "src/deposit/deposit_staging.h"
#include "src/hw/parallel_for.h"
#include "src/shape/shape_function.h"

namespace mpic {

void TouchPositionStreams(HwContext& hw, const ParticleSoA& soa, int32_t n_slots) {
  for (int32_t base = 0; base < n_slots; base += kVpuLanes) {
    const size_t batch = static_cast<size_t>(
        std::min<int32_t>(kVpuLanes, n_slots - base));
    hw.TouchRead(soa.x.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.y.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.z.data() + base, sizeof(double) * batch);
  }
}

void TouchOldPositionStreams(HwContext& hw, ParticleSoA& soa, int32_t n_slots) {
  for (int32_t base = 0; base < n_slots; base += kVpuLanes) {
    const size_t batch = static_cast<size_t>(
        std::min<int32_t>(kVpuLanes, n_slots - base));
    hw.TouchRead(soa.xo.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.yo.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.zo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.xo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.yo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.zo.data() + base, sizeof(double) * batch);
    hw.ledger().counters().vpu_mem += 6;
  }
}

uint64_t DepositionEngine::TileKey(int t) const {
  return MemRegionKey(mem_owner_id_, t, 0);
}

uint64_t DepositionEngine::EsirkepovKey(int t) const {
  return MemRegionKey(mem_owner_id_, t, 32);
}

size_t DepositionEngine::StagingSlots(const ParticleTile& tile) const {
  if (!esirkepov() && traits_.kernel == KernelKind::kScalarReference) {
    return 0;
  }
  return static_cast<size_t>(DepositChunkSlots(tile, traits_.sorted_iteration));
}

void DepositionEngine::ResizeStaging(const ParticleTile& tile, int order,
                                     DepositScratch& scratch) const {
  scratch.Resize(StagingSlots(tile), order);
  if (traits_.kernel == KernelKind::kRhocellAutoVec) {
    scratch.w3.resize(static_cast<size_t>(Support3D(order)));
  }
}

DepositionEngine::DepositionEngine(HwContext& hw, const EngineConfig& config)
    : hw_(hw), config_(config), traits_(TraitsOf(config.variant)),
      mem_owner_id_(NextMemOwnerId()), policy_(config.policy) {
  // The Esirkepov scheme replaces the variant's J kernel with its own staged
  // tile kernel, which supports every order — the odd-order restriction binds
  // only when the rhocell/MPU kernels actually run.
  if ((traits_.uses_rhocell || traits_.uses_mpu) &&
      config_.current_scheme == CurrentScheme::kDirect) {
    MPIC_CHECK_MSG(config_.order == 1 || config_.order == 3,
                   "rhocell/MPU kernels support CIC (1) and QSP (3) only");
  }
  MPIC_CHECK_MSG(config_.order >= 1 && config_.order <= 3,
                 "shape order must be 1, 2, or 3");
}

void DepositionEngine::Initialize(TileSet& tiles, FieldSet& fields) {
  scratch_.assign(static_cast<size_t>(tiles.num_tiles()), DepositScratch{});
  rhocells_.assign(static_cast<size_t>(tiles.num_tiles()), RhocellBuffer{});
  esirk_scratch_.assign(static_cast<size_t>(tiles.num_tiles()), EsirkepovScratch{});
  tile_currents_.assign(static_cast<size_t>(tiles.num_tiles()), TileCurrent{});
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    if (esirkepov()) {
      // Per-tile Yee-staggered J scratch: fixed dimensions for the whole run
      // (the moving window keeps tile boxes fixed in index space).
      tile_currents_[static_cast<size_t>(t)].Resize(tile, config_.order);
    } else if (traits_.uses_rhocell) {
      rhocells_[static_cast<size_t>(t)].Resize(std::max(1, tile.num_cells()),
                                               config_.order);
    }
  }
  reduce_coloring_.clear();
  if (esirkepov()) {
    reduce_coloring_ = tiles.HaloDisjointColoring(EsirkepovHaloNodes(config_.order));
  } else if (traits_.uses_rhocell) {
    reduce_coloring_ = tiles.HaloDisjointColoring(RhocellHaloNodes(config_.order));
  }
  // The paper's baselines never sort; only sorting variants pay for (and
  // benefit from) the initial GlobalSortParticlesByCell.
  if (traits_.sort_mode != SortMode::kNone) {
    GlobalSort(tiles);
  }
  rank_stats_ = RankSortStats{};
  RegisterRegions(tiles, fields);
}

void DepositionEngine::SortTiles(TileSet& tiles) {
  // Counting sort: streaming writes of the ten SoA components (positions,
  // momenta, weight, and the old-position lanes all permute together) plus
  // two index passes, and — the expensive part — the permutation gather,
  // whose reads are random per particle.
  constexpr double kBytesPerParticle = 10.0 * 8.0 * 2.0 + 4.0 * 2.0;
  constexpr double kGatherCyclesPerParticle = 8.0;
  // A tile sorts exactly its live particles, so its bill is known up front
  // and is its cost-steal estimate: dense tiles spread over the cores.
  const double cycles_per_particle =
      kBytesPerParticle / hw_.cfg().stream_bytes_per_cycle +
      kGatherCyclesPerParticle;
  std::vector<double> bills(static_cast<size_t>(tiles.num_tiles()));
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    bills[static_cast<size_t>(t)] =
        static_cast<double>(tiles.tile(t).num_live()) * cycles_per_particle;
  }
  RegionCosts costs;
  costs.estimates = &bills;
  ParallelForTiles(
      hw_, tiles.num_tiles(),
      [&](HwContext& hw, int, int t) {
        PhaseScope phase(hw.ledger(), Phase::kSort);
        const auto moved = static_cast<double>(
            tiles.tile(t).GlobalSortTile(tiles.geom(), config_.gpma));
        hw.ChargeBulk(0.0, moved * kBytesPerParticle);
        hw.ChargeCycles(moved * kGatherCyclesPerParticle);
      },
      RegionMerge::kPhaseMax, costs);
  // Each sorted lane then gets storage of exactly its size, so the keyed
  // registrations re-map it and the tile's next append reallocates: both
  // shape the modeled address layout. The copies run here, on the calling
  // thread, so lane storage does not accumulate in the workers' heaps.
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    tiles.tile(t).soa().MoveToExactStorage();
  }
}

void DepositionEngine::GlobalSort(TileSet& tiles) {
  SortTiles(tiles);
  ++total_global_sorts_;
  rank_stats_.steps_since_sort = 0;
  rank_stats_.local_rebuilds = 0;
  rank_stats_.baseline_throughput = 0.0;  // re-baselined on the next step
}

void DepositionEngine::NotifyParticleAdded(TileSet& tiles, int tile_index,
                                           int32_t pid) {
  NotifyParticleAdded(hw_, tiles, tile_index, pid, nullptr);
}

void DepositionEngine::NotifyParticleAdded(HwContext& hw, TileSet& tiles,
                                           int tile_index, int32_t pid,
                                           int64_t* rebuilds) {
  if (traits_.sort_mode == SortMode::kNone) {
    return;
  }
  PhaseScope phase(hw.ledger(), Phase::kSort);
  ParticleTile& tile = tiles.tile(tile_index);
  const int cell = tile.CellOfParticle(tiles.geom(), pid);
  auto res = tile.gpma().Insert(pid, cell);
  hw.ChargeCycles(static_cast<double>(res.words_touched));
  if (!res.ok) {
    const int64_t words = tile.gpma().Rebuild();
    auto retry = tile.gpma().Insert(pid, cell);
    MPIC_CHECK(retry.ok);
    hw.ChargeCycles(static_cast<double>(words) * 0.25 +
                    static_cast<double>(retry.words_touched));
    tile.was_rebuilt_this_step = true;
    // Tile-parallel callers count into their worker slot (rank stats are
    // engine-shared); the serial path updates the rank stats directly.
    if (rebuilds != nullptr) {
      ++*rebuilds;
    } else {
      ++rank_stats_.local_rebuilds;
    }
  }
}

void DepositionEngine::AccumulateInjectionRebuilds(int64_t rebuilds) {
  rank_stats_.local_rebuilds += rebuilds;
}

void DepositionEngine::RemoveParticle(TileSet& tiles, int tile_index, int32_t pid) {
  RemoveParticle(hw_, tiles, tile_index, pid);
}

void DepositionEngine::RemoveParticle(HwContext& hw, TileSet& tiles, int tile_index,
                                      int32_t pid) {
  ParticleTile& tile = tiles.tile(tile_index);
  if (traits_.sort_mode != SortMode::kNone && tile.gpma().CellOf(pid) >= 0) {
    PhaseScope phase(hw.ledger(), Phase::kSort);
    auto res = tile.gpma().Remove(pid);
    hw.ChargeCycles(static_cast<double>(res.words_touched));
  }
  tile.RemoveParticle(pid);
}

// ---- Pass-1 scan -----------------------------------------------------------

void DepositionEngine::BeginStep(TileSet& tiles, double dt) {
  tile_movers_.resize(static_cast<size_t>(tiles.num_tiles()));
  step_dt_ = dt;
}

void DepositionEngine::ScanTile(HwContext& hw, TileSet& tiles, int t,
                                TileScanPartial* partial) {
  if (traits_.sort_mode == SortMode::kIncremental) {
    ScanTileIncremental(hw, tiles, t, partial);
  } else {
    // Unsorted variants still need particles in their owning tiles (WarpX's
    // Redistribute); kGlobalEachStep re-establishes ownership before its full
    // sort. Charged outside the deposition kernel phases, mirroring the
    // paper's accounting where the baseline has no "Sort" column.
    ScanTileRedistribute(hw, tiles, t, partial);
  }
}

void DepositionEngine::ScanTileIncremental(HwContext& hw, TileSet& tiles, int t,
                                           TileScanPartial* partial) {
  const GridGeometry& geom = tiles.geom();
  PhaseScope phase(hw.ledger(), Phase::kSort);
  ParticleTile& tile = tiles.tile(t);
  std::vector<Mover>& movers = tile_movers_[static_cast<size_t>(t)];
  movers.clear();
  tile.was_rebuilt_this_step = false;
  Gpma& gpma = tile.gpma();
  const int32_t n_slots = tile.num_slots();
  // VPU scan: recompute the cell of each live particle and compare with its
  // GPMA bin (Algorithm 1, Phase 1). ~3 vector ops per 8 slots plus the
  // position loads.
  hw.ChargeCycles(static_cast<double>((n_slots + kVpuLanes - 1) / kVpuLanes) *
                  3.0 / hw.cfg().vpu_pipes);
  TouchPositionStreams(hw, tile.soa(), n_slots);

  struct PendingMove {
    int32_t pid;
    int32_t new_cell;
  };
  std::vector<PendingMove> pending;
  for (int32_t pid = 0; pid < n_slots; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const ParticleSoA& soa = tile.soa();
    const int ix = geom.CellX(soa.x[i]);
    const int iy = geom.CellY(soa.y[i]);
    const int iz = geom.CellZ(soa.z[i]);
    if (!tile.ContainsCell(ix, iy, iz)) {
      // Leaves the tile: remove here, queue for its destination tile.
      auto res = gpma.Remove(pid);
      hw.ChargeCycles(static_cast<double>(res.words_touched));
      movers.push_back({tile.soa().Get(pid), tiles.TileOfCell(ix, iy, iz)});
      tile.RemoveParticle(pid);
      ++partial->crossed;
      continue;
    }
    const int cell = tile.LocalCellId(ix, iy, iz);
    if (gpma.CellOf(pid) != cell) {
      pending.push_back({pid, static_cast<int32_t>(cell)});
    }
  }
  // ApplyPendingMoves: deletions first, then insertions (gaps freed by the
  // leavers become available to the arrivers).
  for (const PendingMove& m : pending) {
    auto res = gpma.Remove(m.pid);
    hw.ChargeCycles(static_cast<double>(res.words_touched));
  }
  for (const PendingMove& m : pending) {
    auto res = gpma.Insert(m.pid, m.new_cell);
    hw.ChargeCycles(static_cast<double>(res.words_touched));
    if (!res.ok) {
      const int64_t words = gpma.Rebuild();
      hw.ChargeCycles(static_cast<double>(words) * 0.25);
      tile.was_rebuilt_this_step = true;
      ++partial->rebuilds;
      auto retry = gpma.Insert(m.pid, m.new_cell);
      MPIC_CHECK(retry.ok);
      hw.ChargeCycles(static_cast<double>(retry.words_touched));
    }
    ++partial->moved;
  }
}

void DepositionEngine::ScanTileRedistribute(HwContext& hw, TileSet& tiles, int t,
                                            TileScanPartial* partial) {
  const GridGeometry& geom = tiles.geom();
  PhaseScope phase(hw.ledger(), Phase::kOther);
  ParticleTile& tile = tiles.tile(t);
  std::vector<Mover>& movers = tile_movers_[static_cast<size_t>(t)];
  movers.clear();
  const int32_t n_slots = tile.num_slots();
  hw.ChargeCycles(static_cast<double>((n_slots + kVpuLanes - 1) / kVpuLanes) *
                  3.0 / hw.cfg().vpu_pipes);
  TouchPositionStreams(hw, tile.soa(), n_slots);
  for (int32_t pid = 0; pid < n_slots; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const ParticleSoA& soa = tile.soa();
    const int ix = geom.CellX(soa.x[i]);
    const int iy = geom.CellY(soa.y[i]);
    const int iz = geom.CellZ(soa.z[i]);
    if (!tile.ContainsCell(ix, iy, iz)) {
      movers.push_back({tile.soa().Get(pid), tiles.TileOfCell(ix, iy, iz)});
      tile.RemoveParticle(pid);
      hw.ChargeCycles(8.0);
      ++partial->crossed;
    }
  }
}

void DepositionEngine::AccumulateScan(const TileScanPartial& partial,
                                      EngineStepStats* stats) {
  stats->crossed_tiles += partial.crossed;
  stats->moved_particles += partial.moved;
  stats->gpma_rebuilds += partial.rebuilds;
  rank_stats_.local_rebuilds += partial.rebuilds;
}

void DepositionEngine::DeliverMovers(TileSet& tiles, EngineStepStats* stats) {
  const GridGeometry& geom = tiles.geom();
  if (traits_.sort_mode == SortMode::kIncremental) {
    // Deliver cross-tile movers serially, in source-tile order: destination
    // slot assignment (AddParticle fills the lowest dead slot, so arrivals
    // land in ascending slots in delivery order) must not depend on the
    // parallel schedule for results to stay bit-identical to serial.
    PhaseScope phase(hw_.ledger(), Phase::kSort);
    for (size_t src = 0; src < tile_movers_.size(); ++src) {
      std::vector<Mover>& movers = tile_movers_[src];
      for (const Mover& m : movers) {
        ParticleTile& dest = tiles.tile(m.dest_tile);
        const int32_t pid = dest.AddParticle(m.p);
        const int cell = dest.CellOfParticle(geom, pid);
        auto res = dest.gpma().Insert(pid, cell);
        hw_.ChargeCycles(static_cast<double>(res.words_touched) + 4.0);
        if (!res.ok) {
          const int64_t words = dest.gpma().Rebuild();
          hw_.ChargeCycles(static_cast<double>(words) * 0.25);
          dest.was_rebuilt_this_step = true;
          ++rank_stats_.local_rebuilds;
          ++stats->gpma_rebuilds;
          auto retry = dest.gpma().Insert(pid, cell);
          MPIC_CHECK(retry.ok);
          hw_.ChargeCycles(static_cast<double>(retry.words_touched));
        }
      }
      movers.clear();
    }
    return;
  }
  // Unsorted delivery: plain slot insertion, same ordering contract.
  PhaseScope phase(hw_.ledger(), Phase::kOther);
  for (size_t src = 0; src < tile_movers_.size(); ++src) {
    std::vector<Mover>& movers = tile_movers_[src];
    for (const Mover& m : movers) {
      tiles.tile(m.dest_tile).AddParticle(m.p);
      hw_.ChargeCycles(8.0);
    }
    movers.clear();
  }
}

void DepositionEngine::PostScanGlobalSort(TileSet& tiles, FieldSet& fields,
                                          EngineStepStats* stats) {
  if (traits_.sort_mode != SortMode::kGlobalEachStep) {
    return;
  }
  SortTiles(tiles);
  RegisterRegions(tiles, fields);
  stats->global_sorted = true;
}

// ---- Pass-2 staging + kernel + reduction -----------------------------------

void DepositionEngine::RefreshTileRegistrations(
    TileSet& tiles, const std::vector<int>* home_domains) {
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    if (tile.num_live() == 0) {
      continue;
    }
    // Placement pass: registrations below run under the tile's home domain
    // (the NUMA domain of its last scheduled owner), re-homing the tile's
    // SoA/scratch pages so they follow the tile between domains.
    ScopedHomeDomain home_scope(
        hw_, home_domains != nullptr ? (*home_domains)[static_cast<size_t>(t)]
                                     : -1);
    DepositScratch& scratch = scratch_[static_cast<size_t>(t)];
    // Size the staging ahead of the region so the kernels' writes land in
    // registered (deterministically mapped) memory from the first touch. The
    // Esirkepov scheme stages into its own scratch; the variant's staging
    // arrays stay empty then.
    if (esirkepov()) {
      EsirkepovScratch& es = esirk_scratch_[static_cast<size_t>(t)];
      es.Resize(StagingSlots(tile), config_.order);
      RegisterEsirkepovRegions(hw_, EsirkepovKey(t), es,
                               tile_currents_[static_cast<size_t>(t)]);
    } else {
      ResizeStaging(tile, config_.order, scratch);
    }
    RegisterStagingRegions(hw_, TileKey(t), tile, scratch);
  }
}

void DepositionEngine::StageAndDepositTile(HwContext& hw, TileSet& tiles,
                                           FieldSet& fields, double charge, int t) {
  ParticleTile& tile = tiles.tile(t);
  if (tile.num_live() == 0) {
    return;
  }
  DepositParams params;
  params.geom = tiles.geom();
  params.charge = charge;
  params.dt = step_dt_;
  if (esirkepov()) {
    // The SoA streams may have reallocated since the last registration (the
    // serial deposit runs no refresh first), and the staging reads them:
    // bring their regions current, as the direct path does.
    RegisterStagingRegions(hw, TileKey(t), tile, scratch_[static_cast<size_t>(t)]);
    EsirkepovScratch& es = esirk_scratch_[static_cast<size_t>(t)];
    TileCurrent& tj = tile_currents_[static_cast<size_t>(t)];
    switch (config_.order) {
      case 1:
        EsirkepovDepositTileImpl<1>(hw, EsirkepovKey(t), tile, params, es, tj);
        break;
      case 2:
        EsirkepovDepositTileImpl<2>(hw, EsirkepovKey(t), tile, params, es, tj);
        break;
      case 3:
        EsirkepovDepositTileImpl<3>(hw, EsirkepovKey(t), tile, params, es, tj);
        break;
      default:
        MPIC_CHECK_MSG(false, "unsupported shape order");
    }
    return;
  }
  DepositScratch& scratch = scratch_[static_cast<size_t>(t)];
  RhocellBuffer& rhocell = rhocells_[static_cast<size_t>(t)];
  switch (config_.order) {
    case 1:
      StageAndDepositTileImpl<1>(hw, TileKey(t), tile, fields, params, scratch,
                                 rhocell);
      break;
    case 2:
      StageAndDepositTileImpl<2>(hw, TileKey(t), tile, fields, params, scratch,
                                 rhocell);
      break;
    case 3:
      StageAndDepositTileImpl<3>(hw, TileKey(t), tile, fields, params, scratch,
                                 rhocell);
      break;
    default:
      MPIC_CHECK_MSG(false, "unsupported shape order");
  }
}

template <int Order>
void DepositionEngine::EsirkepovDepositTileImpl(HwContext& hw, uint64_t key_base,
                                                ParticleTile& tile,
                                                const DepositParams& params,
                                                EsirkepovScratch& scratch,
                                                TileCurrent& tile_j) {
  // Size and register the staging before anything touches it (same contract
  // as the direct path: writes must land in deterministically mapped memory).
  scratch.Resize(StagingSlots(tile), Order);
  RegisterEsirkepovRegions(hw, key_base, scratch, tile_j);
  // The variant's staging cost profile carries over: VPU-staged variants
  // charge batched staging, the others the scalar loop. Both combines stage
  // chunk by chunk.
  if (traits_.uses_mpu) {
    // MPU variants route the combine through the MOPA kernel, which rides the
    // GPMA sort cell-resident where the variant maintains it, pairwise
    // otherwise — the same scheduling split as the direct DepositMpu
    // dispatch.
    DepositEsirkepovMpuTile<Order>(hw, tile, params,
                                   traits_.sorted_iteration
                                       ? MpuScheduling::kCellResident
                                       : MpuScheduling::kPairwise,
                                   config_.sparse_fallback_ppc,
                                   traits_.vpu_staging, scratch, tile_j);
  } else {
    DepositEsirkepovTile<Order>(hw, tile, params, traits_.sorted_iteration,
                                traits_.vpu_staging, scratch, tile_j);
  }
}

template <int Order>
void DepositionEngine::StageAndDepositTileImpl(HwContext& hw, uint64_t tile_key,
                                               ParticleTile& tile, FieldSet& fields,
                                               const DepositParams& params,
                                               DepositScratch& scratch,
                                               RhocellBuffer& rhocell) {
  // Size the staging and bring the model's address space current BEFORE the
  // kernels touch anything: scratch/SoA vectors may have (re)allocated since
  // the last registration (cheap no-op otherwise), and the staging writes
  // must land in registered memory to keep the modeled cache deterministic.
  ResizeStaging(tile, Order, scratch);
  RegisterStagingRegions(hw, tile_key, tile, scratch);

  // Every kernel but the scalar reference stages chunk by chunk inside.
  switch (traits_.kernel) {
    case KernelKind::kScalarReference:
      DepositScalarTile<Order>(hw, tile, params, fields);
      break;
    case KernelKind::kBaselineScatter:
      DepositBaselineTile<Order>(hw, tile, params, scratch, fields,
                                 traits_.sorted_iteration);
      break;
    case KernelKind::kRhocellAutoVec:
      if constexpr (Order == 1 || Order == 3) {
        DepositRhocellAutoVec<Order>(hw, tile, params, scratch, rhocell,
                                     traits_.sorted_iteration);
      }
      break;
    case KernelKind::kRhocellVpu:
      if constexpr (Order == 1 || Order == 3) {
        DepositRhocellVpu<Order>(hw, tile, params, scratch, rhocell,
                                 traits_.sorted_iteration);
      }
      break;
    case KernelKind::kMpu:
      if constexpr (Order == 1 || Order == 3) {
        DepositMpu<Order>(hw, tile, params, traits_.vpu_staging,
                          scratch, rhocell,
                          traits_.sorted_iteration ? MpuScheduling::kCellResident
                                                   : MpuScheduling::kPairwise,
                          config_.sparse_fallback_ppc);
      }
      break;
  }
}

void DepositionEngine::ReduceTile(HwContext& hw, TileSet& tiles, FieldSet& fields,
                                  int t, ZPlanes planes) {
  ParticleTile& tile = tiles.tile(t);
  if (tile.num_live() == 0) {
    return;
  }
  if (esirkepov()) {
    ReduceEsirkepovToGrid(hw, tile_currents_[static_cast<size_t>(t)], fields,
                          planes);
    return;
  }
  if (!traits_.uses_rhocell) {
    return;
  }
  RhocellBuffer& rhocell = rhocells_[static_cast<size_t>(t)];
  switch (config_.order) {
    case 1:
      ReduceRhocellToGrid<1>(hw, tile, rhocell, fields, planes);
      break;
    case 3:
      ReduceRhocellToGrid<3>(hw, tile, rhocell, fields, planes);
      break;
    default:
      MPIC_CHECK_MSG(false, "rhocell reduction requires order 1 or 3");
  }
}

std::vector<ZPlanes> DepositionEngine::ReduceChunks(const TileSet& tiles, int t,
                                                    int parts) const {
  MPIC_CHECK(parts >= 1);
  // Planes [lo, lo + rows.size()), each weighted by the rows it receives.
  int lo = 0;
  std::vector<int64_t> rows;
  if (esirkepov()) {
    const TileCurrent& tile_j = tile_currents_[static_cast<size_t>(t)];
    lo = tile_j.oz();
    rows.assign(static_cast<size_t>(tile_j.nz()), 1);
  } else {
    // Cell layer z of the tile covers planes z - halo .. z - halo + order.
    const ParticleTile& tile = tiles.tile(t);
    const int support = config_.order + 1;
    lo = tile.lo_z() - RhocellHaloNodes(config_.order);
    rows.assign(static_cast<size_t>(tile.nz() + support - 1), 0);
    for (int layer = 0; layer < tile.nz(); ++layer) {
      for (int c = 0; c < support; ++c) {
        ++rows[static_cast<size_t>(layer + c)];
      }
    }
  }
  int64_t total = 0;
  for (int64_t r : rows) {
    total += r;
  }
  // Chunk j ends at the first plane whose preceding rows reach (j + 1) / parts
  // of the total.
  std::vector<ZPlanes> chunks(static_cast<size_t>(parts));
  const int n = static_cast<int>(rows.size());
  int p = 0;
  int64_t before = 0;
  for (int j = 0; j < parts; ++j) {
    chunks[static_cast<size_t>(j)].begin = lo + p;
    while (p < n && before * parts < (j + 1) * total) {
      before += rows[static_cast<size_t>(p++)];
    }
    chunks[static_cast<size_t>(j)].end = j + 1 == parts ? lo + n : lo + p;
  }
  return chunks;
}

// ---- Step finalization -----------------------------------------------------

void DepositionEngine::RegisterRegions(TileSet& tiles, FieldSet& fields) {
  auto reg_field = [this](const FieldArray& f) {
    hw_.RegisterRegion(f.data(), f.size() * sizeof(double));
  };
  reg_field(fields.ex);
  reg_field(fields.ey);
  reg_field(fields.ez);
  reg_field(fields.bx);
  reg_field(fields.by);
  reg_field(fields.bz);
  reg_field(fields.jx);
  reg_field(fields.jy);
  reg_field(fields.jz);
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    RegisterStagingRegions(hw_, TileKey(t), tiles.tile(t),
                           scratch_[static_cast<size_t>(t)]);
    RhocellBuffer& rc = rhocells_[static_cast<size_t>(t)];
    if (rc.num_cells() > 0) {
      hw_.RegisterRegion(rc.jx().data(), rc.jx().size() * sizeof(double));
      hw_.RegisterRegion(rc.jy().data(), rc.jy().size() * sizeof(double));
      hw_.RegisterRegion(rc.jz().data(), rc.jz().size() * sizeof(double));
    }
    if (esirkepov()) {
      RegisterEsirkepovRegions(hw_, EsirkepovKey(t),
                               esirk_scratch_[static_cast<size_t>(t)],
                               tile_currents_[static_cast<size_t>(t)]);
    }
  }
}

void DepositionEngine::ReregisterModelRegions(TileSet& tiles, FieldSet& fields) {
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    ParticleTile& tile = tiles.tile(t);
    const size_t slots = StagingSlots(tile);
    if (esirkepov()) {
      esirk_scratch_[static_cast<size_t>(t)].Resize(slots, config_.order);
    } else {
      scratch_[static_cast<size_t>(t)].Resize(slots, config_.order);
    }
  }
  RegisterRegions(tiles, fields);
}

void DepositionEngine::UpdateRankStats(TileSet& tiles, double step_cycles,
                                       int64_t live) {
  ++rank_stats_.steps_since_sort;
  int64_t capacity = 0;
  int64_t empty = 0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    capacity += tiles.tile(t).gpma().capacity();
    empty += tiles.tile(t).gpma().num_empty_slots();
  }
  rank_stats_.empty_slot_ratio =
      capacity == 0 ? 0.0 : static_cast<double>(empty) / static_cast<double>(capacity);
  const double secs = hw_.cfg().CyclesToSeconds(step_cycles);
  rank_stats_.step_throughput = secs > 0.0 ? static_cast<double>(live) / secs : 0.0;
  if (rank_stats_.baseline_throughput == 0.0) {
    rank_stats_.baseline_throughput = rank_stats_.step_throughput;
  }
}

void DepositionEngine::FinishStep(TileSet& tiles, FieldSet& fields,
                                  double step_cycles, EngineStepStats* stats) {
  UpdateRankStats(tiles, step_cycles, tiles.TotalLive());

  // Global re-sorting policy (Sec. 4.4).
  if (traits_.sort_mode == SortMode::kIncremental) {
    stats->decision = policy_.Evaluate(rank_stats_);
    if (ResortPolicy::ShouldSort(stats->decision)) {
      GlobalSort(tiles);
      RegisterRegions(tiles, fields);
      stats->global_sorted = true;
    }
  }
}

void DepositionEngine::RestoreSortState(const RankSortStats& stats,
                                        int64_t total_global_sorts) {
  rank_stats_ = stats;
  total_global_sorts_ = total_global_sorts;
}

void DepositionEngine::FoldCurrentGuards(HwContext& hw, FieldSet& fields) {
  PhaseScope phase(hw.ledger(), Phase::kReduce);
  fields.jx.FoldGuardsPeriodic();
  fields.jy.FoldGuardsPeriodic();
  fields.jz.FoldGuardsPeriodic();
  const double guard_nodes =
      static_cast<double>(fields.jx.size()) - static_cast<double>(fields.geom.NumCells());
  hw.ChargeBulk(guard_nodes * 3.0, guard_nodes * 8.0 * 3.0 * 2.0);
}

}  // namespace mpic
