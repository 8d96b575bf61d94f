"""Orthogonal 2-D spatial mesh with cell/face bookkeeping.

Cells are indexed (iy, ix) with ix fastest when flattened.  Vertical faces
(normal along x) form an (ny, nx+1) grid, horizontal faces (normal along y)
an (ny+1, nx) grid.  Face-normal fluxes are stored in the fixed +x / +y
orientation everywhere; outward signs per cell are provided by this module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpatialMesh:
    """Orthogonal grid of nx*ny rectangular cells."""

    nx: int
    ny: int
    dx: np.ndarray  # (nx,) cell widths, cm
    dy: np.ndarray  # (ny,) cell heights, cm

    def __post_init__(self):
        dx = np.asarray(self.dx, dtype=float)
        dy = np.asarray(self.dy, dtype=float)
        if self.nx < 1 or self.ny < 1:
            raise ValueError("mesh must have at least one cell per axis")
        if dx.shape != (self.nx,) or dy.shape != (self.ny,):
            raise ValueError("dx/dy lengths must match nx/ny")
        if not (np.all((0.0 < dx) & (dx < np.inf)) and np.all((0.0 < dy) & (dy < np.inf))):
            raise ValueError("cell widths must be positive and finite")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

    @classmethod
    def uniform(cls, nx: int, ny: int, dx: float, dy: float) -> "SpatialMesh":
        return cls(nx, ny, np.full(nx, float(dx)), np.full(ny, float(dy)))

    # counts ---------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_vfaces(self) -> int:
        return (self.nx + 1) * self.ny

    @property
    def n_hfaces(self) -> int:
        return self.nx * (self.ny + 1)

    # geometry -------------------------------------------------------------
    @property
    def cell_area(self) -> np.ndarray:
        """(ny, nx) cell areas dx*dy, cm^2."""
        return self.dy[:, None] * self.dx[None, :]


@dataclass(frozen=True)
class FaceAdjacency:
    """Half-cell momentum-row bookkeeping.

    One entry per (cell, face) pairing: interior faces appear twice (once
    per adjacent cell), boundary faces once.  Face ids are global, the
    vertical faces first, then the horizontal ones.  `sign` is +1 when the
    face is the downwind (+x or +y) face of the cell, -1 otherwise.
    `cross_plus` / `cross_minus` are the ids of the two perpendicular faces
    of the owning cell (top/bottom for a vertical face, right/left for a
    horizontal one).
    """

    face: np.ndarray        # global face id, vertical faces first
    cell: np.ndarray        # flat cell id
    sign: np.ndarray        # +-1, e_alpha . n_f
    cross_plus: np.ndarray  # perpendicular-face id, + side of the cell
    cross_minus: np.ndarray
    face_len: np.ndarray    # ell_f, cm
    cross_len: np.ndarray   # ell of the perpendicular faces, cm
    half_area: np.ndarray   # A_f = A_i / 2, cm^2


def build_adjacency(mesh: SpatialMesh) -> FaceAdjacency:
    """Every cell's west, east, south and north half cells, in that order.

    Each block lists the cells in flat order.  A west or east half cell's
    cross faces are the cell's bottom and top, a south or north one's the
    cell's west and east.
    """
    nx, nc = mesh.nx, mesh.n_cells
    cells = np.arange(nc)
    iy, ix = np.divmod(cells, nx)
    west = cells + iy                # vface id: each mesh row has one more
    south = mesh.n_vfaces + cells    # hface id: after the vfaces, by cell
    lx, ly = mesh.dx[ix], mesh.dy[iy]

    def pair(vertical, horizontal):  # one value per orientation's two half cells
        return np.concatenate([vertical, vertical, horizontal, horizontal])
    return FaceAdjacency(np.concatenate([west, west + 1, south, south + nx]), np.tile(cells, 4),
                         np.tile(np.repeat([-1.0, 1.0], nc), 2), pair(south + nx, west + 1),
                         pair(south, west), pair(ly, lx), pair(lx, ly),
                         np.tile(0.5 * mesh.cell_area.ravel(), 4))


#: boundary side order used everywhere a flattened side vector appears
SIDES = ("left", "bottom", "right", "top")


def grid_shape(kind: str, nx: int, ny: int) -> tuple:
    """Shape of one group's values on grid `kind` of an nx x ny mesh."""
    return {"cell": (ny, nx), "vface": (ny, nx + 1), "hface": (ny + 1, nx),
            "boundary": (2 * (nx + ny),)}[kind]
