// The full set of electromagnetic grid quantities for one PIC domain: E, B on
// the Yee-staggered mesh, current density J, and charge density rho.
//
// All components share one node-centered allocation shape; the *staggering* of
// each component (which half-cell offsets it lives at) is carried by the
// solver's and gather's index arithmetic, following the same convention WarpX
// uses for its nodal-allocated MultiFabs.

#ifndef MPIC_SRC_GRID_FIELD_SET_H_
#define MPIC_SRC_GRID_FIELD_SET_H_

#include "src/grid/field_array.h"
#include "src/grid/grid_geometry.h"

namespace mpic {

struct FieldSet {
  FieldSet(const GridGeometry& geometry, int guard_cells)
      : geom(geometry),
        ex(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        ey(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        ez(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        bx(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        by(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        bz(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        jx(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        jy(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        jz(geometry.nx, geometry.ny, geometry.nz, guard_cells),
        rho(geometry.nx, geometry.ny, geometry.nz, guard_cells) {}

  void ZeroCurrents() {
    jx.Fill(0.0);
    jy.Fill(0.0);
    jz.Fill(0.0);
  }

  GridGeometry geom;
  FieldArray ex, ey, ez;
  FieldArray bx, by, bz;
  FieldArray jx, jy, jz;
  // Never written: DepositChargeDensity returns its own array, and the
  // moving window does not shift it. It stays only because the v3
  // checkpoint FIELDS section carries it; drop both at the next format
  // change.
  FieldArray rho;
};

}  // namespace mpic

#endif  // MPIC_SRC_GRID_FIELD_SET_H_
