#include "harness.h"

#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/core/workloads.h"
#include "src/push/boris_pusher.h"
#include "src/push/field_gather.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/digest.h"
#include "src/solver/maxwell_solver.h"

namespace perfbench {

using mpic::CostLedger;
using mpic::HwContext;
using mpic::LedgerCounters;
using mpic::Simulation;
using mpic::SpeciesBlock;
using mpic::TileSet;

namespace {

constexpr const char* kWorkloadNames[] = {"uniform_qsp", "lwfa",
                                          "bunched_esirkepov"};

uint64_t HashF64(double v, uint64_t h) { return mpic::Fnv1a(&v, sizeof(v), h); }

uint64_t Accesses(const CostLedger& ledger) {
  return ledger.counters().l1_hits + ledger.counters().l1_misses;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Times `body` on the host and diffs the main ledger around it.
ProbeResult Probe(const char* name, HwContext& hw, Tracer* tracer,
                  const std::function<void()>& body) {
  ProbeResult r;
  r.name = name;
  const int span = tracer != nullptr ? tracer->Begin(name) : -1;
  const double cycles0 = hw.ledger().TotalCycles();
  const uint64_t accesses0 = Accesses(hw.ledger());
  const auto t0 = std::chrono::steady_clock::now();
  body();
  r.host_s = SecondsSince(t0);
  if (tracer != nullptr) {
    tracer->End(span);
  }
  r.modeled_cycles = hw.ledger().TotalCycles() - cycles0;
  r.accesses = Accesses(hw.ledger()) - accesses0;
  return r;
}

template <int Order>
void GatherPushBlock(HwContext& hw, SpeciesBlock& b, const mpic::FieldSet& fields,
                     double dt) {
  mpic::PushParams pp;
  pp.dt = dt;
  pp.charge = b.species.charge;
  pp.mass = b.species.mass;
  // GlobalSort may have reallocated the SoA streams; re-register them, as the
  // step pipeline does before every pass, so accesses map deterministically.
  b.engine.RefreshTileRegistrations(b.tiles);
  for (int t = 0; t < b.tiles.num_tiles(); ++t) {
    mpic::ParticleTile& tile = b.tiles.tile(t);
    if (tile.num_live() == 0) {
      continue;
    }
    mpic::GatherScratch& gs = b.gather_scratch[static_cast<size_t>(t)];
    gs.Resize(tile.soa().size());
    mpic::RegisterGatherRegions(hw, mpic::MemRegionKey(b.mem_owner_id, t, 0), gs);
    mpic::GatherFieldsTile<Order>(hw, tile, fields, gs);
    mpic::PushTileBoris(hw, tile, gs, pp);
  }
}

}  // namespace

const char* WorkloadName(Workload w) { return kWorkloadNames[static_cast<int>(w)]; }

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

mpic::MachineConfig WorkloadMachine(Workload w) {
  if (w == Workload::kBunchedEsirkepov) {
    return mpic::MachineConfig::Lx2MultiCoreNuma(4, 2);
  }
  return mpic::MachineConfig::Lx2MultiCore(4);
}

std::unique_ptr<Simulation> BuildWorkload(Workload w, HwContext& hw, uint64_t seed) {
  switch (w) {
    case Workload::kUniformQsp: {
      mpic::UniformWorkloadParams p;
      p.nx = p.ny = p.nz = 16;
      p.tile = 8;
      p.ppc_x = p.ppc_y = p.ppc_z = 4;
      p.order = 3;
      p.variant = mpic::DepositVariant::kFullOpt;
      p.scheme = mpic::CurrentScheme::kDirect;
      p.seed = seed;
      return mpic::MakeUniformSimulation(hw, p);
    }
    case Workload::kLwfa: {
      mpic::LwfaWorkloadParams p;
      p.seed = seed;
      return mpic::MakeLwfaSimulation(hw, p);
    }
    case Workload::kBunchedEsirkepov: {
      mpic::BunchedBeamParams p;
      p.scheme = mpic::CurrentScheme::kEsirkepov;
      p.seed = seed;
      return mpic::MakeBunchedBeamSimulation(hw, p);
    }
  }
  return nullptr;
}

std::vector<std::pair<const char*, double>> CounterFields(const LedgerCounters& c) {
  // A new LedgerCounters field must be listed here, which this assert forces.
  static_assert(sizeof(LedgerCounters) == 18 * 8,
                "LedgerCounters changed: update CounterFields");
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {{"scalar_ops", d(c.scalar_ops)},
          {"scalar_mem", d(c.scalar_mem)},
          {"vpu_ops", d(c.vpu_ops)},
          {"vpu_mem", d(c.vpu_mem)},
          {"gathers", d(c.gathers)},
          {"scatters", d(c.scatters)},
          {"mopas", d(c.mopas)},
          {"mopa_valid_slots", d(c.mopa_valid_slots)},
          {"atomics", d(c.atomics)},
          {"tasks_stolen", d(c.tasks_stolen)},
          {"tasks_stolen_remote", d(c.tasks_stolen_remote)},
          {"steal_cycles", c.steal_cycles},
          {"l1_hits", d(c.l1_hits)},
          {"l1_misses", d(c.l1_misses)},
          {"l2_hits", d(c.l2_hits)},
          {"l2_misses", d(c.l2_misses)},
          {"remote_lines", d(c.remote_lines)},
          {"remote_cycles", c.remote_cycles}};
}

uint64_t LedgerDigest(const CostLedger& ledger) {
  uint64_t h = mpic::kFnvOffsetBasis;
  for (double c : ledger.phase_cycles()) {
    h = HashF64(c, h);
  }
  for (const auto& field : CounterFields(ledger.counters())) {
    h = HashF64(field.second, h);
  }
  return h;
}

const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

int64_t CountStrayParticles(const Simulation& sim) {
  int64_t stray = 0;
  for (int sid = 0; sid < sim.num_species(); ++sid) {
    const TileSet& tiles = sim.block(sid).tiles;
    const mpic::GridGeometry& g = tiles.geom();
    for (int t = 0; t < tiles.num_tiles(); ++t) {
      const mpic::ParticleTile& tile = tiles.tile(t);
      const mpic::ParticleSoA& soa = tile.soa();
      for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
        const auto i = static_cast<size_t>(pid);
        if (tile.IsLive(pid) &&
            !tile.ContainsCell(g.CellX(soa.x[i]), g.CellY(soa.y[i]),
                               g.CellZ(soa.z[i]))) {
          ++stray;
        }
      }
    }
  }
  return stray;
}

// ---- Tracer ------------------------------------------------------------------

double Tracer::Now() const { return SecondsSince(origin_); }

int Tracer::Begin(const char* name, int64_t step) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.step = step;
  s.start_s = Now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

// ---- Layer probes --------------------------------------------------------------

std::vector<ProbeResult> RunLayerProbes(
    Simulation& sim, Tracer* tracer, size_t* checkpoint_bytes, uint64_t* digest,
    const std::function<void(const ProbeResult&)>& after_each) {
  HwContext& hw = sim.hw();
  std::vector<ProbeResult> out;
  const auto record = [&](ProbeResult r) {
    if (after_each) {
      after_each(r);
    }
    out.push_back(std::move(r));
  };

  // The per-tile entry points only DCHECK that every particle sits inside
  // its tile; a release build would silently stage or sort out of bounds.
  const auto require_tile_resident = [&sim](const char* probe) {
    MPIC_CHECK_MSG(CountStrayParticles(sim) == 0, probe);
  };

  std::vector<uint8_t> image;
  record(Probe("checkpoint_save", hw, tracer, [&] {
    mpic::CheckpointWriteOptions opts;
    opts.charge = &hw;
    const mpic::CheckpointStatus st = mpic::SaveCheckpoint(sim, &image, opts);
    MPIC_CHECK_MSG(st.ok, st.error.c_str());
  }));
  *checkpoint_bytes = image.size();
  record(Probe("simulation_digest", hw, tracer,
               [&] { *digest = mpic::SimulationDigest(sim); }));

  record(Probe("sort_scan", hw, tracer, [&] {
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      SpeciesBlock& b = sim.block(sid);
      mpic::EngineStepStats stats;
      mpic::TileScanPartial partial;
      b.engine.BeginStep(b.tiles, sim.dt());
      for (int t = 0; t < b.tiles.num_tiles(); ++t) {
        b.engine.ScanTile(hw, b.tiles, t, &partial);
      }
      b.engine.AccumulateScan(partial, &stats);
      b.engine.DeliverMovers(b.tiles, &stats);
      b.engine.PostScanGlobalSort(b.tiles, sim.fields(), &stats);
    }
  }));

  require_tile_resident("deposit");
  record(Probe("deposit", hw, tracer, [&] {
    sim.fields().ZeroCurrents();
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      SpeciesBlock& b = sim.block(sid);
      b.engine.RefreshTileRegistrations(b.tiles);
      for (int t = 0; t < b.tiles.num_tiles(); ++t) {
        b.engine.StageAndDepositTile(hw, b.tiles, sim.fields(), b.species.charge, t);
      }
      for (const std::vector<int>& color_class : b.engine.reduce_coloring()) {
        for (int t : color_class) {
          b.engine.ReduceTile(hw, b.tiles, sim.fields(), t);
        }
      }
    }
  }));

  record(Probe("solver", hw, tracer, [&] {
    const mpic::MaxwellSolver solver(sim.config().solver, sim.fields().geom);
    solver.UpdateB(hw, sim.fields(), 0.5 * sim.dt());
    solver.UpdateE(hw, sim.fields(), sim.dt(), sim.staggered_j());
    solver.UpdateB(hw, sim.fields(), 0.5 * sim.dt());
  }));

  require_tile_resident("global_sort");
  record(Probe("global_sort", hw, tracer, [&] {
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      sim.block(sid).engine.GlobalSort(sim.block(sid).tiles);
    }
  }));

  require_tile_resident("gather_push");
  record(Probe("gather_push", hw, tracer, [&] {
    for (int sid = 0; sid < sim.num_species(); ++sid) {
      SpeciesBlock& b = sim.block(sid);
      switch (b.engine.config().order) {
        case 1:
          GatherPushBlock<1>(hw, b, sim.fields(), sim.dt());
          break;
        case 2:
          GatherPushBlock<2>(hw, b, sim.fields(), sim.dt());
          break;
        default:
          GatherPushBlock<3>(hw, b, sim.fields(), sim.dt());
          break;
      }
    }
  }));
  return out;
}

}  // namespace perfbench
