#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/rng.h"
#include "src/particles/injector.h"
#include "src/particles/particle_tile.h"
#include "src/particles/species.h"
#include "src/particles/tile_set.h"

namespace mpic {
namespace {

GridGeometry SmallGeom() {
  GridGeometry g;
  g.nx = g.ny = g.nz = 8;
  g.dx = g.dy = g.dz = 1.0;
  return g;
}

TEST(ParticleSoA, AppendSetGet) {
  ParticleSoA soa;
  Particle p;
  p.x = 1.0;
  p.uy = -2.0;
  p.w = 3.0;
  const int32_t id = soa.Append(p);
  EXPECT_EQ(id, 0);
  const Particle q = soa.Get(0);
  EXPECT_DOUBLE_EQ(q.x, 1.0);
  EXPECT_DOUBLE_EQ(q.uy, -2.0);
  EXPECT_DOUBLE_EQ(q.w, 3.0);
  p.x = 9.0;
  soa.Set(0, p);
  EXPECT_DOUBLE_EQ(soa.x[0], 9.0);
}

TEST(ParticleTile, CellBoxQueries) {
  ParticleTile tile(2, 2, 2, 4, 4, 4);
  EXPECT_TRUE(tile.ContainsCell(2, 2, 2));
  EXPECT_TRUE(tile.ContainsCell(5, 5, 5));
  EXPECT_FALSE(tile.ContainsCell(6, 5, 5));
  EXPECT_FALSE(tile.ContainsCell(1, 2, 2));
  EXPECT_EQ(tile.LocalCellId(2, 2, 2), 0);
  EXPECT_EQ(tile.LocalCellId(3, 2, 2), 1);
  EXPECT_EQ(tile.LocalCellId(2, 3, 2), 4);
  int ix, iy, iz;
  tile.LocalCellToGlobal(tile.LocalCellId(4, 3, 5), &ix, &iy, &iz);
  EXPECT_EQ(ix, 4);
  EXPECT_EQ(iy, 3);
  EXPECT_EQ(iz, 5);
}

TEST(ParticleTile, FreeListRecyclesSlots) {
  ParticleTile tile(0, 0, 0, 2, 2, 2);
  Particle p;
  const int32_t a = tile.AddParticle(p);
  const int32_t b = tile.AddParticle(p);
  EXPECT_EQ(tile.num_live(), 2);
  tile.RemoveParticle(a);
  EXPECT_EQ(tile.num_live(), 1);
  EXPECT_FALSE(tile.IsLive(a));
  const int32_t c = tile.AddParticle(p);
  EXPECT_EQ(c, a);  // recycled
  EXPECT_EQ(tile.num_slots(), 2);
  EXPECT_TRUE(tile.IsLive(c));
  (void)b;

  // Out-of-order removals: the next adds take the lowest dead slot first (a
  // LIFO stack would hand out 9, 2, 5), then append.
  for (int i = 0; i < 10; ++i) {
    tile.AddParticle(p);
  }
  ASSERT_EQ(tile.num_slots(), 12);
  for (const int32_t pid : {5, 2, 9}) {
    tile.RemoveParticle(pid);
  }
  EXPECT_EQ(tile.AddParticle(p), 2);
  EXPECT_EQ(tile.AddParticle(p), 5);
  EXPECT_EQ(tile.AddParticle(p), 9);
  EXPECT_EQ(tile.AddParticle(p), 12);
  EXPECT_EQ(tile.num_live(), 13);
}

TEST(ParticleTile, DoubleRemoveAborts) {
  ParticleTile tile(0, 0, 0, 1, 1, 1);
  const int32_t a = tile.AddParticle(Particle{});
  tile.RemoveParticle(a);
  EXPECT_DEATH(tile.RemoveParticle(a), "double remove");
}

TEST(ParticleTile, BuildGpmaBinsLiveParticles) {
  const GridGeometry g = SmallGeom();
  ParticleTile tile(0, 0, 0, 4, 4, 4);
  Particle p;
  p.x = p.y = p.z = 0.5;
  tile.AddParticle(p);
  p.x = 1.5;
  const int32_t b = tile.AddParticle(p);
  p.x = 0.6;
  tile.AddParticle(p);
  tile.RemoveParticle(b);
  tile.BuildGpma(g, GpmaConfig{});
  tile.gpma().CheckInvariants();
  EXPECT_EQ(tile.gpma().num_particles(), 2);
  EXPECT_EQ(tile.gpma().BinLen(tile.LocalCellId(0, 0, 0)), 2);
  EXPECT_EQ(tile.gpma().BinLen(tile.LocalCellId(1, 0, 0)), 0);
}

TEST(ParticleTile, GlobalSortCompactsInCellOrder) {
  const GridGeometry g = SmallGeom();
  ParticleTile tile(0, 0, 0, 4, 4, 4);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    Particle p;
    p.x = rng.Uniform(0.0, 4.0);
    p.y = rng.Uniform(0.0, 4.0);
    p.z = rng.Uniform(0.0, 4.0);
    p.w = i;  // track identity through the sort
    tile.AddParticle(p);
  }
  // Punch holes.
  tile.RemoveParticle(10);
  tile.RemoveParticle(50);
  tile.GlobalSortTile(g, GpmaConfig{});
  tile.gpma().CheckInvariants();
  EXPECT_EQ(tile.num_live(), 98);
  EXPECT_EQ(tile.num_slots(), 98);  // holes gone
  // Slots are now in nondecreasing cell order.
  int prev = -1;
  for (int32_t pid = 0; pid < tile.num_slots(); ++pid) {
    const int cell = tile.CellOfParticle(g, pid);
    EXPECT_GE(cell, prev);
    prev = cell;
    EXPECT_EQ(tile.gpma().CellOf(pid), cell);
  }
}

TEST(TileSet, DecomposesWithRaggedEdge) {
  GridGeometry g = SmallGeom();
  g.nx = 10;  // not divisible by tile size 4
  TileSet tiles(g, 4, 4, 4);
  EXPECT_EQ(tiles.num_tiles(), 3 * 2 * 2);
  // The last x tile is 2 cells wide.
  const ParticleTile& edge = tiles.tile(2);
  EXPECT_EQ(edge.lo_x(), 8);
  EXPECT_EQ(edge.nx(), 2);
}

TEST(TileSet, RoutesParticlesToOwningTile) {
  const GridGeometry g = SmallGeom();
  TileSet tiles(g, 4, 4, 4);
  Particle p;
  p.x = 5.5;
  p.y = 1.0;
  p.z = 7.2;
  const auto h = tiles.AddParticle(p);
  EXPECT_EQ(h.tile, tiles.TileOfCell(5, 1, 7));
  EXPECT_TRUE(tiles.tile(h.tile).ContainsCell(5, 1, 7));
  EXPECT_EQ(tiles.TotalLive(), 1);
}

TEST(TileSet, TileOfPositionMatchesTileOfCell) {
  const GridGeometry g = SmallGeom();
  TileSet tiles(g, 2, 4, 8);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(0.0, 8.0);
    const double y = rng.Uniform(0.0, 8.0);
    const double z = rng.Uniform(0.0, 8.0);
    EXPECT_EQ(tiles.TileOfPosition(x, y, z),
              tiles.TileOfCell(g.CellX(x), g.CellY(y), g.CellZ(z)));
  }
}

TEST(Injector, UniformPlasmaCountAndWeights) {
  const GridGeometry g = SmallGeom();
  TileSet tiles(g, 4, 4, 4);
  UniformPlasmaConfig cfg;
  cfg.ppc_x = 2;
  cfg.ppc_y = 2;
  cfg.ppc_z = 1;
  cfg.density = 1e20;
  cfg.u_th = 0.0;
  const int64_t added = InjectUniformPlasma(tiles, cfg);
  EXPECT_EQ(added, g.NumCells() * 4);
  EXPECT_EQ(tiles.TotalLive(), added);
  // Total physical particles = density * volume.
  double total_weight = 0.0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    const auto& soa = tiles.tile(t).soa();
    for (double w : soa.w) {
      total_weight += w;
    }
  }
  const double volume = g.LengthX() * g.LengthY() * g.LengthZ();
  EXPECT_NEAR(total_weight, 1e20 * volume, 1e20 * volume * 1e-12);
}

TEST(Injector, UniformPlasmaLatticePositionsInsideCells) {
  const GridGeometry g = SmallGeom();
  TileSet tiles(g, 8, 8, 8);
  UniformPlasmaConfig cfg;
  cfg.ppc_x = cfg.ppc_y = cfg.ppc_z = 2;
  cfg.u_th = 0.0;
  InjectUniformPlasma(tiles, cfg);
  const auto& soa = tiles.tile(0).soa();
  for (size_t i = 0; i < soa.size(); ++i) {
    EXPECT_TRUE(g.InDomain(soa.x[i], soa.y[i], soa.z[i]));
  }
}

TEST(Injector, ThermalSpreadMatchesUth) {
  const GridGeometry g = SmallGeom();
  TileSet tiles(g, 8, 8, 8);
  UniformPlasmaConfig cfg;
  cfg.ppc_x = cfg.ppc_y = cfg.ppc_z = 4;
  cfg.u_th = 0.01;
  InjectUniformPlasma(tiles, cfg);
  double sum = 0.0, sum2 = 0.0;
  int64_t n = 0;
  for (int t = 0; t < tiles.num_tiles(); ++t) {
    const auto& soa = tiles.tile(t).soa();
    for (double ux : soa.ux) {
      sum += ux;
      sum2 += ux * ux;
      ++n;
    }
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum2 / static_cast<double>(n) - mean * mean;
  const double expected = 0.01 * kSpeedOfLight;
  EXPECT_NEAR(std::sqrt(var), expected, expected * 0.05);
}

TEST(Injector, ProfiledPlasmaRespectsProfileAndSlab) {
  const GridGeometry g = SmallGeom();
  TileSet tiles(g, 4, 4, 4);
  ProfiledPlasmaConfig cfg;
  cfg.ppc_x = cfg.ppc_y = cfg.ppc_z = 1;
  cfg.profile = [](double z) { return z < 4.0 ? 0.0 : 1e20; };
  cfg.z_cell_lo = 2;
  cfg.z_cell_hi = 6;
  std::vector<TileSet::Handle> handles;
  const int64_t added = InjectProfiledPlasma(tiles, cfg, &handles);
  // Cells with z-center >= 4 within [2,6) are iz = 4, 5 -> 2 planes.
  EXPECT_EQ(added, 2 * g.nx * g.ny);
  EXPECT_EQ(static_cast<int64_t>(handles.size()), added);
  for (const auto& h : handles) {
    const auto& soa = tiles.tile(h.tile).soa();
    EXPECT_GE(soa.z[static_cast<size_t>(h.pid)], 4.0);
    EXPECT_LT(soa.z[static_cast<size_t>(h.pid)], 6.0);
  }
}

TEST(Species, Presets) {
  const Species e = Species::Electron();
  EXPECT_LT(e.charge, 0.0);
  const Species p = Species::Proton();
  EXPECT_GT(p.charge, 0.0);
  EXPECT_GT(p.mass, e.mass);
}

}  // namespace
}  // namespace mpic
