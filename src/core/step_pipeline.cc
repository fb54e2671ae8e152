#include "src/core/step_pipeline.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/particles/species.h"
#include "src/push/boris_pusher.h"

namespace mpic {

int64_t SimStepStats::TotalLive() const {
  int64_t sum = 0;
  for (const SpeciesStepStats& s : species) {
    sum += s.live;
  }
  return sum;
}

int64_t SimStepStats::TotalPushed() const {
  int64_t sum = 0;
  for (const SpeciesStepStats& s : species) {
    sum += s.pushed;
  }
  return sum;
}

EngineStepStats SimStepStats::Aggregate() const {
  EngineStepStats agg;
  for (const SpeciesStepStats& s : species) {
    agg.moved_particles += s.engine.moved_particles;
    agg.crossed_tiles += s.engine.crossed_tiles;
    agg.gpma_rebuilds += s.engine.gpma_rebuilds;
    agg.global_sorted = agg.global_sorted || s.engine.global_sorted;
    if (static_cast<int>(s.engine.decision) > static_cast<int>(agg.decision)) {
      agg.decision = s.engine.decision;
    }
  }
  return agg;
}

namespace {

// Per-tile NUMA home domains for one species, derived from the last committed
// pass1 owners (last step's before pass 1, this step's after it) — the
// canonical placement anchor: every stage of the species touches the same
// SoA/scratch, so all of a tile's pages home where its pass1 ran. Empty when
// the model has nothing to re-home (flat memory, static schedule, or no owner
// feedback yet); -1 entries leave a tile's current homes untouched.
std::vector<int> TileHomeDomains(const HwContext& hw,
                                 const SpeciesBlock& block) {
  std::vector<int> domains;
  const MachineConfig& cfg = hw.cfg();
  if (cfg.num_numa_domains <= 1 ||
      cfg.tile_schedule != TileSchedulePolicy::kCostSteal) {
    return domains;
  }
  const std::vector<int32_t>& owner = block.pass1_costs.owner;
  if (owner.size() != static_cast<size_t>(block.tiles.num_tiles())) {
    return domains;
  }
  const int cores = hw.num_cores();
  domains.resize(owner.size());
  for (size_t t = 0; t < owner.size(); ++t) {
    const int w = owner[t];
    // An owner outside [0, cores) comes from an image saved on a machine
    // with more cores: unknown, as PlanTileSchedule counts it.
    domains[t] = (w < 0 || w >= cores)
                     ? -1
                     : NumaDomainOfWorker(w, cores, cfg.num_numa_domains);
  }
  return domains;
}

}  // namespace

// ---- Shared per-tile stages -------------------------------------------------

void StepPipeline::ZeroCurrentsStage(FieldSet& fields) {
  // Each core zeroes a contiguous chunk of jx/jy/jz (disjoint writes), so
  // the charge overlaps across cores like every other tile-parallel stage
  // instead of serializing at the top of the step.
  PhaseScope phase(hw_.ledger(), Phase::kOther);
  ParallelForChunks(
      hw_, static_cast<int>(fields.jx.size()),
      [&](HwContext& hw, int, int begin, int end) {
        for (FieldArray* f : {&fields.jx, &fields.jy, &fields.jz}) {
          std::fill(f->vec().begin() + begin, f->vec().begin() + end, 0.0);
        }
        hw.ChargeBulk(0.0, static_cast<double>(end - begin) * 8.0 * 3.0);
      });
}

void StepPipeline::PrepareTileRegions(SpeciesBlock& block) {
  // On a NUMA machine the serial refresh doubles as the placement pass: each
  // tile's registrations run under its owner's home domain, migrating the
  // tile's SoA/scratch pages to wherever pass 1 ran it last step — which is
  // also where the sticky scheduler will prefer to run pass 1 this step.
  const std::vector<int> home = TileHomeDomains(hw_, block);
  block.engine.RefreshTileRegistrations(block.tiles,
                                        home.empty() ? nullptr : &home);
  for (int t = 0; t < block.tiles.num_tiles(); ++t) {
    ScopedHomeDomain scope(hw_,
                           home.empty() ? -1 : home[static_cast<size_t>(t)]);
    block.PrepareGatherScratch(hw_, t);
  }
}

void StepPipeline::CaptureOldPositionsTile(HwContext& hw, ParticleTile& tile) {
  // Pre-push position capture for the Esirkepov scheme: a streaming copy of
  // the three position streams into the old-position lanes, so the deposit
  // stage can form each particle's displacement after push, wrap, and
  // cross-tile migration. Charged with the push it prefixes.
  PhaseScope phase(hw.ledger(), Phase::kPush);
  ParticleSoA& soa = tile.soa();
  const int32_t n = tile.num_slots();
  std::copy(soa.x.begin(), soa.x.end(), soa.xo.begin());
  std::copy(soa.y.begin(), soa.y.end(), soa.yo.begin());
  std::copy(soa.z.begin(), soa.z.end(), soa.zo.begin());
  for (int32_t base = 0; base < n; base += kVpuLanes) {
    const size_t batch =
        static_cast<size_t>(std::min<int32_t>(kVpuLanes, n - base));
    hw.TouchRead(soa.x.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.y.data() + base, sizeof(double) * batch);
    hw.TouchRead(soa.z.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.xo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.yo.data() + base, sizeof(double) * batch);
    hw.TouchWrite(soa.zo.data() + base, sizeof(double) * batch);
    hw.ledger().counters().vpu_mem += 6;
  }
}

void StepPipeline::BoundaryTile(HwContext& hw, SpeciesBlock& block,
                                bool drop_behind_window, int t,
                                int64_t* dropped) {
  PhaseScope phase(hw.ledger(), Phase::kOther);
  const GridGeometry& g = block.tiles.geom();
  ParticleTile& tile = block.tiles.tile(t);
  ParticleSoA& soa = tile.soa();
  // Under the Esirkepov scheme a periodic wrap must shift the old position by
  // the same offset, so the displacement — the physical quantity the scheme
  // deposits — is unchanged by the coordinate jump.
  const bool track_old = block.engine.esirkepov();
  const int32_t n = tile.num_slots();
  hw.ChargeCycles(static_cast<double>((n + kVpuLanes - 1) / kVpuLanes) *
                  (track_old ? 9.0 : 6.0) / hw.cfg().vpu_pipes);
  TouchPositionStreams(hw, soa, n);
  if (track_old) {
    // The old-position lanes stream through alongside (read-modify-write).
    TouchOldPositionStreams(hw, soa, n);
  }
  for (int32_t pid = 0; pid < n; ++pid) {
    if (!tile.IsLive(pid)) {
      continue;
    }
    const auto i = static_cast<size_t>(pid);
    const double wx = g.WrapX(soa.x[i]);
    const double wy = g.WrapY(soa.y[i]);
    if (track_old) {
      soa.xo[i] += wx - soa.x[i];
      soa.yo[i] += wy - soa.y[i];
    }
    soa.x[i] = wx;
    soa.y[i] = wy;
    if (drop_behind_window) {
      if (soa.z[i] < g.z0 || soa.z[i] >= g.z0 + g.LengthZ()) {
        block.engine.RemoveParticle(hw, block.tiles, t, pid);
        if (dropped != nullptr) {
          ++*dropped;
        }
      }
    } else {
      const double wz = g.WrapZ(soa.z[i]);
      if (track_old) {
        soa.zo[i] += wz - soa.z[i];
      }
      soa.z[i] = wz;
    }
  }
}

// ---- Fused two-pass schedule ------------------------------------------------

void StepPipeline::FusedPass1(const StepPipelineInputs& in, SpeciesBlock& block,
                              int sid, const FieldSet& fields,
                              SpeciesStepStats* ss) {
  switch (block.engine.config().order) {
    case 1:
      FusedPass1Impl<1>(in, block, sid, fields, ss);
      break;
    case 2:
      FusedPass1Impl<2>(in, block, sid, fields, ss);
      break;
    case 3:
      FusedPass1Impl<3>(in, block, sid, fields, ss);
      break;
    default:
      MPIC_CHECK_MSG(false, "unsupported shape order");
  }
}

template <int Order>
void StepPipeline::FusedPass1Impl(const StepPipelineInputs& in, SpeciesBlock& block,
                                  int sid, const FieldSet& fields,
                                  SpeciesStepStats* ss) {
  PushParams pp;
  pp.dt = in.dt;
  pp.charge = block.species.charge;
  pp.mass = block.species.mass;
  HealthMonitor* monitor = in.health;
  const bool guards_on = monitor != nullptr && monitor->config().check_particles;
  const GridGeometry& g = block.tiles.geom();
  const double min_d = std::min(g.dx, std::min(g.dy, g.dz));
  // Pre-gather: no particle belongs outside its tile's domain image by more
  // than rounding. Post-push: one step of legitimate motion (< c*dt) plus the
  // same slack, checked before the wrap launders the excursion.
  const double pre_margin = 0.5 * min_d;
  const double post_margin = kSpeedOfLight * in.dt + 0.5 * min_d;
  // One region fuses four stages per tile. Everything is tile-private (the
  // fields are read-only, boundary drops and GPMA mutations touch only the
  // tile's own structures, leavers stage into the tile's mover list), so the
  // fusion changes nothing about which operations run — only their order, and
  // with it the modeled cache residency of the tile's SoA streams. The health
  // guards keep that property: quarantine bytes are per (species, tile), each
  // written by exactly one worker.
  std::vector<PaddedSlot<Pass1Partial>> partials(
      static_cast<size_t>(hw_.num_cores()));
  // Under the cost-guided scheduler, feed last step's per-tile cycles in as
  // estimates and capture this step's for the next (kStatic leaves the
  // feedback loop untouched so static runs match the seed model exactly).
  const bool cost_sched =
      hw_.cfg().tile_schedule == TileSchedulePolicy::kCostSteal;
  RegionCosts costs;
  if (cost_sched) {
    costs.estimates = &block.pass1_costs.estimate;
    costs.measured = &block.pass1_costs.measured;
    costs.prev_owners = &block.pass1_costs.owner;
    costs.owners = &block.pass1_costs.owner_measured;
  }
  ParallelForTiles(
      hw_, block.tiles.num_tiles(),
      [&](HwContext& hw, int worker, int t) {
        ParticleTile& tile = block.tiles.tile(t);
        Pass1Partial& part = partials[static_cast<size_t>(worker)].value;
        if (guards_on &&
            !monitor->GuardTileFull(hw, tile, g, pre_margin,
                                    block.species.mass, sid, t, &part.health)) {
          // Quarantined: the poisoned lanes must not reach the gather (a
          // non-finite position indexes the grid) or the sort scan (CellX of
          // NaN is undefined). The tile sits out the whole step.
          return;
        }
        if (tile.num_live() > 0) {
          if (block.engine.esirkepov()) {
            CaptureOldPositionsTile(hw, tile);
          }
          // One chunk (kStageChunk slots) at a time: the scratch's size.
          GatherAndPushTile<Order>(
              hw, tile, fields, block.gather_scratch[static_cast<size_t>(t)],
              pp);
          part.pushed += tile.num_live();
          if (guards_on &&
              !monitor->GuardTilePositions(hw, tile, g, post_margin, sid, t,
                                           &part.health)) {
            // Poisoned by this step's push (a bad gathered field): stop
            // before the fmod wrap destroys the evidence.
            return;
          }
        }
        BoundaryTile(hw, block, in.drop_behind_window, t, &part.dropped);
        block.engine.ScanTile(hw, block.tiles, t, &part.scan);
      },
      RegionMerge::kFusedStages, costs);
  if (cost_sched) {
    block.pass1_costs.Commit();
  }

  block.pushed_last_step = 0;
  for (const PaddedSlot<Pass1Partial>& slot : partials) {
    block.pushed_last_step += slot.value.pushed;
    ss->dropped += slot.value.dropped;
    block.engine.AccumulateScan(slot.value.scan, &ss->engine);
    if (monitor != nullptr) {
      monitor->AccumulateTilePartial(slot.value.health);
    }
  }
  block.particles_pushed += block.pushed_last_step;
  ss->pushed = block.pushed_last_step;
}

void StepPipeline::DepositTiles(const StepPipelineInputs& in,
                                SpeciesBlock& block, int sid,
                                FieldSet& fields) {
  DepositionEngine& engine = block.engine;
  TileSet& tiles = block.tiles;
  const double charge = block.species.charge;
  // Quarantined tiles sit out staging, kernel, AND reduction: their scratch
  // (rhocell blocks, Esirkepov buffers) still holds the previous step's
  // accumulation, which a reduce would re-deposit as phantom current.
  const HealthMonitor* monitor = in.health;
  const bool any_q = monitor != nullptr && monitor->AnyQuarantined();
  const auto skip = [&](int t) {
    return any_q && monitor->IsQuarantined(sid, t);
  };

  const bool cost_sched =
      hw_.cfg().tile_schedule == TileSchedulePolicy::kCostSteal;

  // Pass 2: staging + kernel. Rhocell-backed kernels accumulate into
  // tile-private blocks and fan out; the baseline/scalar kernels scatter
  // straight into shared J and stay serial.
  const bool fan_out =
      hw_.num_cores() > 1 && engine.deposit_is_tile_parallel();
  if (fan_out) {
    const std::vector<int> home = TileHomeDomains(hw_, block);
    engine.RefreshTileRegistrations(tiles, home.empty() ? nullptr : &home);
    // The deposit follows this step's pass-1 owners, whose domains hold the
    // pages the refresh just re-homed.
    RegionCosts costs;
    if (cost_sched) {
      costs.estimates = &block.deposit_costs.estimate;
      costs.measured = &block.deposit_costs.measured;
      costs.prev_owners = &block.pass1_costs.owner;
      costs.owners = &block.deposit_costs.owner_measured;
    }
    ParallelForTiles(
        hw_, tiles.num_tiles(),
        [&](HwContext& hw, int, int t) {
          if (skip(t)) {
            return;
          }
          engine.StageAndDepositTile(hw, tiles, fields, charge, t);
        },
        RegionMerge::kFusedStages, costs);
    if (cost_sched) {
      block.deposit_costs.Commit();
    }
  } else {
    // Serial deposit (shared-J scatter kernels, or one core).
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      if (skip(t)) {
        continue;
      }
      engine.StageAndDepositTile(hw_, tiles, fields, charge, t);
    }
  }

  // Rhocell -> J reduction on the halo-disjoint colored schedule: tiles of
  // one class write disjoint node sets and fan out; the classes run as
  // sequential barriers in a fixed order, so shared halo nodes accumulate
  // identically on any core count. When a class has fewer tiles than the
  // machine has cores (one-tile classes used to run inline on the main
  // context), each tile's reduction splits into k = cores / tiles z-plane
  // chunks (DepositionEngine::ReduceChunks), and the class runs its chunks,
  // tile by tile in class order, in one region. Each node belongs to one
  // chunk, which visits its tile's cells in serial order, so J stays
  // bit-identical too. The cost feedback is tile-indexed across all classes:
  // each class gathers its tiles' estimates (split evenly over a tile's
  // chunks) into a positional list for the scheduler, and scatters the
  // positional measurements back by tile id, a split tile's summed over its
  // chunks. Each tile's first chunk follows the tile's deposit owner,
  // committed above for every tile.
  const bool have_reduce_est =
      cost_sched && block.reduce_costs.estimate.size() ==
                        static_cast<size_t>(tiles.num_tiles());
  if (cost_sched) {
    block.reduce_costs.measured.assign(
        static_cast<size_t>(tiles.num_tiles()), 0.0);
  }
  struct ReduceChunk {
    int tile;
    ZPlanes planes;
    int part;   // index among its tile's chunks
    int parts;  // chunks of its tile
  };
  std::vector<ReduceChunk> chunks;
  std::vector<double> chunk_est;
  std::vector<double> chunk_meas;
  std::vector<int32_t> chunk_own;
  for (const std::vector<int>& color_class : engine.reduce_coloring()) {
    if (!fan_out) {
      for (int t : color_class) {
        if (skip(t)) {
          continue;
        }
        engine.ReduceTile(hw_, tiles, fields, t);
      }
      continue;
    }
    chunks.clear();
    const int k = std::max(
        1, hw_.num_cores() / static_cast<int>(color_class.size()));
    for (int t : color_class) {
      const std::vector<ZPlanes> planes = engine.ReduceChunks(tiles, t, k);
      for (int j = 0; j < k; ++j) {
        chunks.push_back({t, planes[static_cast<size_t>(j)], j, k});
      }
    }
    RegionCosts costs;
    if (cost_sched) {
      chunk_est.clear();
      chunk_own.clear();
      for (const ReduceChunk& c : chunks) {
        const auto t = static_cast<size_t>(c.tile);
        if (have_reduce_est) {
          chunk_est.push_back(block.reduce_costs.estimate[t] / c.parts);
        }
        chunk_own.push_back(c.part == 0 ? block.deposit_costs.owner[t] : -1);
      }
      if (have_reduce_est) {
        costs.estimates = &chunk_est;
      }
      costs.prev_owners = &chunk_own;
      costs.measured = &chunk_meas;
    }
    ParallelForTiles(
        hw_, static_cast<int>(chunks.size()),
        [&](HwContext& hw, int, int i) {
          const ReduceChunk& c = chunks[static_cast<size_t>(i)];
          if (skip(c.tile)) {
            return;
          }
          engine.ReduceTile(hw, tiles, fields, c.tile, c.planes);
        },
        RegionMerge::kPhaseMax, costs);
    if (cost_sched) {
      for (size_t i = 0; i < chunks.size(); ++i) {
        block.reduce_costs.measured[static_cast<size_t>(chunks[i].tile)] +=
            chunk_meas[i];
      }
    }
  }
  if (cost_sched) {
    block.reduce_costs.Commit();
  }
}

// ---- Step orchestration -----------------------------------------------------

void StepPipeline::RunParticleStages(const StepPipelineInputs& in,
                                     std::vector<std::unique_ptr<SpeciesBlock>>& blocks,
                                     FieldSet& fields, SimStepStats* stats) {
  // Zero current accumulators (once; species accumulate into the shared J).
  ZeroCurrentsStage(fields);

  // Arm the health monitor's quarantine map before the first particle stage.
  if (in.health != nullptr && !blocks.empty()) {
    in.health->BeginStep(static_cast<int>(blocks.size()),
                         blocks[0]->tiles.num_tiles());
  }

  // Every species accumulates into the shared J. With one species the guard
  // fold happens right after its deposit (the seed behavior); with several,
  // folding must wait until all species have accumulated, because a fold
  // refills the guards with interior images that a later fold would count
  // again.
  const bool shared_fold = blocks.size() > 1;
  stats->species.clear();

  for (size_t sidx = 0; sidx < blocks.size(); ++sidx) {
    SpeciesBlock* b = blocks[sidx].get();
    const int sid = static_cast<int>(sidx);
    SpeciesStepStats ss;
    ss.name = b->species.name;
    PrepareTileRegions(*b);
    b->engine.BeginStep(b->tiles, in.dt);
    const double dep_before = hw_.ledger().DepositionCycles();
    FusedPass1(in, *b, sid, fields, &ss);
    b->engine.DeliverMovers(b->tiles, &ss.engine);
    b->engine.PostScanGlobalSort(b->tiles, fields, &ss.engine);
    DepositTiles(in, *b, sid, fields);
    if (!shared_fold) {
      DepositionEngine::FoldCurrentGuards(hw_, fields);
    }
    // The policy's throughput trigger sees this species' deposition-phase
    // cycles (Preproc+Compute+Sort+Reduce).
    b->engine.FinishStep(b->tiles, fields,
                         hw_.ledger().DepositionCycles() - dep_before,
                         &ss.engine);
    stats->species.push_back(std::move(ss));
  }

  if (shared_fold) {
    DepositionEngine::FoldCurrentGuards(hw_, fields);
  }
}

}  // namespace mpic
