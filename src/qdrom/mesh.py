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
        if np.any(dx <= 0.0) or np.any(dy <= 0.0):
            raise ValueError("cell widths must be positive")
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

    # index maps -----------------------------------------------------------
    def cell_ids(self) -> np.ndarray:
        return np.arange(self.n_cells).reshape(self.ny, self.nx)

    def vface_ids(self) -> np.ndarray:
        return np.arange(self.n_vfaces).reshape(self.ny, self.nx + 1)

    def hface_ids(self) -> np.ndarray:
        return np.arange(self.n_hfaces).reshape(self.ny + 1, self.nx)


@dataclass(frozen=True)
class FaceAdjacency:
    """Half-cell momentum-row bookkeeping for one face orientation.

    One entry per (cell, face) pairing: interior faces appear twice (once
    per adjacent cell), boundary faces once.  `sign` is +1 when the face is
    the downwind (+x or +y) face of the cell, -1 otherwise.  `cross_plus` /
    `cross_minus` are the global ids of the two perpendicular faces of the
    owning cell (top/bottom for vertical faces, right/left for horizontal).
    """

    face: np.ndarray        # global face id within its orientation grid
    cell: np.ndarray        # flat cell id
    sign: np.ndarray        # +-1, e_alpha . n_f
    cross_plus: np.ndarray  # perpendicular-face id, + side of the cell
    cross_minus: np.ndarray
    face_len: np.ndarray    # ell_f, cm
    cross_len: np.ndarray   # ell of the perpendicular faces, cm
    half_area: np.ndarray   # A_f = A_i / 2, cm^2


def build_adjacency(mesh: SpatialMesh) -> tuple[FaceAdjacency, FaceAdjacency]:
    """Assemble (vertical, horizontal) half-cell adjacency tables."""
    nx, ny = mesh.nx, mesh.ny
    cells = mesh.cell_ids()
    vids = mesh.vface_ids()
    hids = mesh.hface_ids()
    area = mesh.cell_area

    # vertical faces: each cell (iy, ix) owns its west face (sign -1) and
    # east face (sign +1); cross faces are the cell's bottom/top.
    iy, ix = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    iy, ix = iy.ravel(), ix.ravel()
    v_face = np.concatenate([vids[iy, ix], vids[iy, ix + 1]])
    v_cell = np.concatenate([cells[iy, ix]] * 2)
    v_sign = np.concatenate([-np.ones(nx * ny), np.ones(nx * ny)])
    v_top = np.concatenate([hids[iy + 1, ix]] * 2)
    v_bot = np.concatenate([hids[iy, ix]] * 2)
    v_lf = np.concatenate([mesh.dy[iy]] * 2)
    v_lp = np.concatenate([mesh.dx[ix]] * 2)
    v_af = np.concatenate([0.5 * area[iy, ix]] * 2)
    vadj = FaceAdjacency(v_face, v_cell, v_sign, v_top, v_bot, v_lf, v_lp, v_af)

    # horizontal faces: south face sign -1, north face sign +1; cross faces
    # are the cell's west/east vertical faces.
    h_face = np.concatenate([hids[iy, ix], hids[iy + 1, ix]])
    h_cell = np.concatenate([cells[iy, ix]] * 2)
    h_sign = np.concatenate([-np.ones(nx * ny), np.ones(nx * ny)])
    h_right = np.concatenate([vids[iy, ix + 1]] * 2)
    h_left = np.concatenate([vids[iy, ix]] * 2)
    h_lf = np.concatenate([mesh.dx[ix]] * 2)
    h_lp = np.concatenate([mesh.dy[iy]] * 2)
    h_af = np.concatenate([0.5 * area[iy, ix]] * 2)
    hadj = FaceAdjacency(h_face, h_cell, h_sign, h_right, h_left, h_lf, h_lp, h_af)
    return vadj, hadj


#: boundary side order used everywhere a flattened side vector appears
SIDES = ("left", "bottom", "right", "top")


@dataclass(frozen=True)
class BoundaryFaces:
    """Boundary-face table in the fixed side order left, bottom, right, top."""

    side: np.ndarray          # 0..3 index into SIDES
    orient: np.ndarray        # 0 = vertical face, 1 = horizontal face
    face: np.ndarray          # face id within its orientation grid
    cell: np.ndarray          # owning (interior) flat cell id
    outward_sign: np.ndarray  # n . e_axis for the outward domain normal
    face_len: np.ndarray

    @property
    def count(self) -> int:
        return self.face.shape[0]

    def side_slice(self, side: str) -> slice:
        idx = SIDES.index(side)
        start = int(np.searchsorted(self.side, idx, side="left"))
        stop = int(np.searchsorted(self.side, idx, side="right"))
        return slice(start, stop)


def build_boundary(mesh: SpatialMesh) -> BoundaryFaces:
    nx, ny = mesh.nx, mesh.ny
    cells = mesh.cell_ids()
    vids = mesh.vface_ids()
    hids = mesh.hface_ids()
    ys = np.arange(ny)
    xs = np.arange(nx)

    side = np.concatenate([np.zeros(ny), np.ones(nx), 2 * np.ones(ny), 3 * np.ones(nx)]).astype(int)
    orient = np.concatenate([np.zeros(ny), np.ones(nx), np.zeros(ny), np.ones(nx)]).astype(int)
    face = np.concatenate([vids[ys, 0], hids[0, xs], vids[ys, nx], hids[ny, xs]])
    cell = np.concatenate([cells[ys, 0], cells[0, xs], cells[ys, nx - 1], cells[ny - 1, xs]])
    outward = np.concatenate([-np.ones(ny), -np.ones(nx), np.ones(ny), np.ones(nx)])
    flen = np.concatenate([mesh.dy, mesh.dx, mesh.dy, mesh.dx])
    return BoundaryFaces(side, orient, face, cell, outward, flen)
