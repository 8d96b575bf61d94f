"""Discrete-ordinates transport with simple corner balance in space.

Each cell carries four corner intensities per group and direction, ordered
SW, SE, NW, NE (corner index c = 2*cy + cx).  Backward Euler folds the time
derivative into an effective removal kappa + 1/(c dt) and a source
kappa*B + I_prev/(c dt); one sweep per direction solves the system exactly
because there is no scattering.

Without scattering the four quadrants are independent, so they share one
wavefront pass (the simultaneous-quadrant form of KBA diagonal sweeps; Baker
& Koch, Nucl. Sci. Eng. 128, 1998).  Each quadrant is mapped into its flow
frame, where x is reflected when mu < 0 and y when eta < 0, so every
direction flows from flow corner 0 (upwind) towards flow corner 3.  The
flow-frame corners form a 2nx x 2ny grid, corner (u, v) = (2a + fx,
2b + fy) of cell (a, b), and every corner obeys one stencil,

    I[u, v] = (S + ax I[u-1, v] + ay I[u, v-1]) / den,

with ax, ay and den those of its cell and S its source; the cell's four
corner equations are this stencil in their upwind order.  So the corners of
anti-diagonal u + v depend only on the previous anti-diagonal, and the
sweep solves 2 (nx + ny) - 1 of them in turn.  It works in a corner layout
(group, corner by anti-diagonal, lane), with one lane per (quadrant,
direction) pair on the contiguous last axis.  The index tables between the
physical and the corner layout are built by a solver's first sweep and
kept; a solver that never sweeps (the reduced-order model's) never builds
them.

Closures come from one contraction of the corner field with a (16, M)
table of half-range weights.  For each half range of directions (mu < 0,
eta < 0, mu > 0, eta > 0: the ones that leave the domain through the left,
bottom, right and top sides) its rows are w, w c^2, w mu eta and w |c|, with
c the component normal to those sides.  Cell ratios use the corner means of
these moments.  A face takes each half range from the upwind trace, the mean
of the two corners by which that half range leaves the upwind cell; at a
boundary face the entering half range takes the prescribed isotropic inflow
times its weight sums instead.  The boundary factor is the outgoing half
range's w |c| moment over its w moment on the boundary cells' outer corners.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .materials import C_LIGHT, FrequencyGrid, planck_spectrum
from .mesh import SIDES, SpatialMesh
from .quadrature import AngularQuadrature, QuadratureSpecError

# the sweep has one numpy path; benchmarks/run.py reports this flag
_HAVE_NUMBA = False


class DegenerateIntensityError(ValueError):
    """Zero or negative angular integral where a closure ratio is formed."""


class ShapeError(ValueError):
    """Array dimensions inconsistent with the mesh/quadrature/group layout."""


@dataclass
class ClosureRecord:
    """Eddington tensor entries and boundary factors for one time level.

    Each field is that time level's column of the snapshot matrix of the
    same name (drivers.SNAPSHOT_NAMES, in field order): group-major, each
    group's grid row-major (y outer).  Tensor entries live on cell centers
    and on the face grids that consume them in the moment equations;
    boundary factors cb are per boundary face, in the geometry's
    boundary-face order (mesh.SIDES).
    """

    fxx_c: np.ndarray  # n_g * ny * nx
    fxx_v: np.ndarray  # n_g * ny * (nx+1)
    fyy_c: np.ndarray  # n_g * ny * nx
    fyy_h: np.ndarray  # n_g * (ny+1) * nx
    fxy_v: np.ndarray  # n_g * ny * (nx+1)
    fxy_h: np.ndarray  # n_g * (ny+1) * nx
    cb: np.ndarray     # n_g * 2 (nx + ny)

    def bound_violations(self) -> int:
        """Entries outside the physical bounds (not clamped): f_ii in [0, 1], cb in (0, 1)."""
        diag = sum(int(np.sum((a < 0.0) | (a > 1.0)))
                   for a in (self.fxx_c, self.fxx_v, self.fyy_c, self.fyy_h))
        return diag + int(np.sum((self.cb <= 0.0) | (self.cb >= 1.0)))


def intensity_unknowns(nx: int, ny: int, n_groups: int, n_dirs: int) -> int:
    """Corner unknown count 4 * Nx * Ny * Ng * N_omega."""
    return 4 * nx * ny * n_groups * n_dirs


_QUADRANTS = ((1, 1), (-1, 1), (-1, -1), (1, -1))

#: per side of mesh.SIDES, the half range of directions that leaves the
#: domain through it, as (axis 0 = x or 1 = y, sign of mu or eta), and the
#: two corners of a cell that lie on that side.  A half range leaves every
#: cell through those corners, and it enters the domain through the side
#: that the opposite half range leaves by.
_EXITS = ((0, -1, (0, 2)), (1, -1, (0, 1)), (0, 1, (1, 3)), (1, 1, (2, 3)))
#: the side of mesh.SIDES by which half range (axis, sign) leaves
_EXIT_SIDE = {(axis, sign): h for h, (axis, sign, _) in enumerate(_EXITS)}


class _SweepTables:
    """What only the sweep reads: the maps between the physical and the corner
    layout, the anti-diagonal stages, the streaming weights and the lane inflows.

    `dirs` (4, K) holds each quadrant's directions in _QUADRANTS order.
    """

    def __init__(self, mesh: SpatialMesh, quad: AngularQuadrature, dirs: np.ndarray,
                 inflow: np.ndarray):
        nx, ny = mesh.nx, mesh.ny
        sx, sy = np.array(_QUADRANTS).T                        # (4,) each
        # flow-frame cells (a, b), a-major; physical cell per quadrant:
        # reflect x if sx < 0, y if sy < 0
        a, b = np.divmod(np.arange(nx * ny), ny)
        ix = np.where(sx > 0, a[:, None], nx - 1 - a[:, None])  # (cells, 4)
        iy = np.where(sy > 0, b[:, None], ny - 1 - b[:, None])
        cells = iy * nx + ix
        k = dirs.shape[1]
        self.lane_cells = np.repeat(cells, k, axis=1)           # (cells, 4K)
        # flow-frame corners (u, v) = (2a + fx, 2b + fy) by anti-diagonal
        # u + v, then by u; each anti-diagonal is one stage of the sweep
        u, v = np.divmod(np.arange(4 * nx * ny), 2 * ny)
        order = np.lexsort((u, u + v))
        u, v = u[order], v[order]
        starts = np.concatenate(([0], np.cumsum(np.bincount(u + v))))
        # (first corner, end corner, first column u) of each stage
        self.stages = list(zip(starts[:-1].tolist(), starts[1:].tolist(),
                               u[starts[:-1]].tolist()))
        self.corner_cells = (u // 2) * ny + v // 2
        # physical corner 2*cy + cx of flow corner 2*fy + fx per quadrant
        fx, fy = np.array([0, 1, 0, 1])[:, None], np.array([0, 0, 1, 1])[:, None]
        corner = 2 * np.where(sy > 0, fy, 1 - fy) + np.where(sx > 0, fx, 1 - fx)  # (4, 4)
        corner = np.take(corner, 2 * (v % 2) + u % 2, axis=0)    # (corners, 4)
        # per group, the corner layout (corner, quadrant, K) and the physical
        # layout (direction, y, x, corner) as flat indices of each other
        field = (4 * np.take(cells, self.corner_cells, axis=0) + corner)[..., None] \
            + dirs * (4 * nx * ny)
        self.field = field.ravel()
        self.inverse = np.empty_like(self.field)
        self.inverse[self.field] = np.arange(self.field.size)
        # streaming weights and corner areas per flow cell and lane, and per corner
        dxl, dyl = mesh.dx[ix], mesh.dy[iy]
        self.cell_quarter = np.repeat(0.25 * dxl * dyl, k, axis=1)  # (cells, 4K)
        wx = (0.5 * np.abs(quad.mu[dirs]) * dyl[:, :, None]).reshape(nx * ny, -1)
        wy = (0.5 * np.abs(quad.eta[dirs]) * dxl[:, :, None]).reshape(nx * ny, -1)
        self.wxy = wx + wy
        self.ax, self.ay, self.quarter = (
            np.take(t, self.corner_cells, axis=0) for t in (wx, wy, self.cell_quarter))
        # inflow of each lane across the upwind x and y faces of the flow frame:
        # lanes of sign s on an axis enter where half range (axis, -s) leaves
        self.x_in = np.repeat(inflow[:, [_EXIT_SIDE[0, -s] for s in sx]], k, axis=1)
        self.y_in = np.repeat(inflow[:, [_EXIT_SIDE[1, -s] for s in sy]], k, axis=1)


class TransportSolver:
    """Sweeper and closure extractor bound to one mesh/quadrature/group layout.

    `inflow` (n_g, side) is the isotropic incoming intensity per group and
    side of mesh.SIDES; zeros mean vacuum.  The sweep's tables are built by
    the first `sweep` and kept, so a solver that only extracts closures or
    gives the boundary inflow (the reduced-order model's) never builds them.
    """

    def __init__(self, mesh: SpatialMesh, quad: AngularQuadrature,
                 grid: FrequencyGrid, inflow: np.ndarray):
        self.mesh = mesh
        self.quad = quad
        self.grid = grid
        # a read-only copy: the closure's inflow moments, taken here, and the
        # sweep's lane inflows, taken at the first sweep, see the same values
        self.inflow = inflow = np.array(inflow, dtype=float)
        inflow.setflags(write=False)
        if inflow.shape != (grid.n_groups, len(SIDES)):
            raise ShapeError(f"inflow shape {inflow.shape} != {(grid.n_groups, len(SIDES))}")
        if np.any((quad.mu == 0.0) | (quad.eta == 0.0)):
            raise QuadratureSpecError("a direction with mu = 0 or eta = 0 lies in no quadrant")
        dirs = [np.nonzero((np.sign(quad.mu) == sx) & (np.sign(quad.eta) == sy))[0]
                for sx, sy in _QUADRANTS]
        if len({len(ms) for ms in dirs}) != 1:
            raise QuadratureSpecError("the quadrants hold unequal direction counts")
        self._dirs = np.array(dirs)                            # (4, K)
        # the opposite side, through which half range h enters
        self._opposite = [_EXIT_SIDE[axis, -sign] for axis, sign, _ in _EXITS]
        # half range h leaves through side SIDES[h]; its rows of the weight
        # table are (w, w c^2, w mu eta, w |c|), c its normal component, and
        # zero off the half range
        axis, sign, _ = zip(*_EXITS)
        c = np.stack([quad.mu, quad.eta])[list(axis)]           # (half range, M)
        half = np.array(sign)[:, None] * c > 0.0
        w = quad.weight
        r = np.stack(np.broadcast_arrays(w, w * c * c, w * quad.mu * quad.eta,
                                         w * np.abs(c)), axis=1)  # (half range, row, M)
        self._weights = np.where(half[:, None], r, 0.0).reshape(16, -1)
        # sums over the half range alone, the quadrature's own sums: each
        # half range holds half the directions
        members = np.nonzero(half)[1].reshape(4, 1, -1)
        sums = np.take_along_axis(r, members, axis=2).sum(axis=2)
        # moments of the inflow through each side: (n_g, side, row)
        self._inflow_moments = inflow[:, :, None] * sums[self._opposite]

    @cached_property
    def _tables(self) -> _SweepTables:
        """The sweep's tables, built on first use."""
        return _SweepTables(self.mesh, self.quad, self._dirs, self.inflow)

    # ------------------------------------------------------------------ API
    @property
    def shape(self) -> tuple:
        return (self.grid.n_groups, self.quad.n_dirs, self.mesh.ny, self.mesh.nx, 4)

    def equilibrium_intensity(self, T: float) -> np.ndarray:
        """Isotropic corner field at the blackbody level B_g(T)."""
        b = planck_spectrum(T, self.grid)
        out = np.empty(self.shape)
        out[:] = np.asarray(b)[:, None, None, None, None]
        return out

    def sweep(self, kappa: np.ndarray, emission: np.ndarray, I_prev: np.ndarray,
              dt: float) -> np.ndarray:
        """One backward-Euler SCB solve given per-cell opacity and emission.

        kappa, emission: (n_g, ny, nx); I_prev: corner field.  All quadrants
        sweep in one wavefront pass over the anti-diagonals of the
        flow-frame corner grid: the corners of one depend only on the
        previous one, and every (group, quadrant, direction) lane is
        independent.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if I_prev.shape != self.shape:
            raise ShapeError(f"I_prev shape {I_prev.shape} != {self.shape}")
        if kappa.shape != self.shape[:1] + self.shape[2:4]:
            raise ShapeError(f"kappa shape {kappa.shape} incompatible with mesh/groups")
        if emission.shape != kappa.shape:
            raise ShapeError(f"emission shape {emission.shape} != kappa shape {kappa.shape}")
        n_g = kappa.shape[0]
        t = self._tables
        cdt = C_LIGHT * dt

        def lanes(field):  # (n_g, ny, nx) -> (n_g, flow cells, 4K)
            return np.take(field.reshape(n_g, -1), t.lane_cells, axis=1)

        # per-cell terms are formed per flow cell, then taken to corner order
        # once, into one buffer that holds kappa B, then den, then the result
        buf = np.take(lanes(kappa * emission), t.corner_cells, axis=1)  # (n_g, corners, 4K)
        # every table indexes in range: "clip" never clips, it skips the bounds
        # check and lets take() write straight into out=
        s = np.take(I_prev.reshape(n_g, -1), t.field, axis=1, mode="clip")
        s = s.reshape(buf.shape)
        s /= cdt
        s += buf
        s *= t.quarter
        denom = lanes(kappa + 1.0 / cdt)
        denom *= t.cell_quarter
        denom += t.wxy
        denom = np.take(denom, t.corner_cells, axis=1, mode="clip", out=buf)
        # upwind values by flow-frame column u at slot u + 1: the latest
        # solved corner of that column, or the y inflow before it has one;
        # slot 0 holds the x inflow
        prev = np.empty((n_g, 2 * self.mesh.nx + 1, s.shape[2]))
        prev[:, 0] = t.x_in
        prev[:, 1:] = t.y_in[:, None]
        ax, ay = t.ax, t.ay
        for p0, p1, lo in t.stages:
            hi = lo + p1 - p0
            # I[u, v] = (S + ax I[u-1, v] + ay I[u, v-1]) / den, summed in that
            # order as in a cell's corner equations; it overwrites S
            sd = s[:, p0:p1]
            acc = ax[p0:p1] * prev[:, lo:hi]
            acc += sd
            acc += ay[p0:p1] * prev[:, lo + 1:hi + 1]
            np.divide(acc, denom[:, p0:p1], out=sd)
            prev[:, lo + 1:hi + 1] = sd
        out = np.take(s.reshape(n_g, -1), t.inverse, axis=1, mode="clip",
                      out=buf.reshape(n_g, -1))
        return out.reshape(self.shape)

    # ------------------------------------------------------------- closures
    def compute_eddington(self, I: np.ndarray) -> ClosureRecord:
        """Eddington tensor entries on cells and faces (boundary factors too)."""
        if I.shape != self.shape:
            raise ShapeError(f"I shape {I.shape} != {self.shape}")
        n_g, n_m, ny, nx, _ = I.shape
        # (n_g, half range, row, y, x, corner)
        mom = (self._weights @ I.reshape(n_g, n_m, -1)).reshape(n_g, 4, 4, ny, nx, 4)
        cell = (mom.reshape(-1, 4) @ np.full(4, 0.25)).reshape(mom.shape[:-1])
        # the two x half ranges (0 and 2) hold every direction once
        phi = _positive(cell[:, 0, 0] + cell[:, 2, 0], "nonpositive angular integral in a cell")
        fxx_c = (cell[:, 0, 1] + cell[:, 2, 1]) / phi
        fyy_c = (cell[:, 1, 1] + cell[:, 3, 1]) / phi
        faces, cb = [0.0, 0.0], []
        for h, (axis, sign, (c0, c1)) in enumerate(_EXITS):
            # upwind trace: the mean over the two corners the half range leaves by
            trace = 0.5 * (mom[:, h, ..., c0] + mom[:, h, ..., c1])  # (n_g, row, y, x)
            along = -1 - axis
            out = np.take(trace, 0 if sign < 0 else -1, axis=along)
            den = _positive(out[:, 0], "zero outgoing current on a boundary face")
            cb.append(out[:, 3] / den)
            # downwind faces of the cells, and the inflow on the first face
            shape = list(trace.shape)
            shape[along] = 1
            entering = np.broadcast_to(
                self._inflow_moments[:, self._opposite[h], :, None, None], shape)
            parts = (trace, entering) if sign < 0 else (entering, trace)
            faces[axis] = faces[axis] + np.concatenate(parts, axis=along)
        fv, fh = faces
        phi_v = _positive(fv[:, 0], "nonpositive angular integral on a face")
        phi_h = _positive(fh[:, 0], "nonpositive angular integral on a face")
        columns = (fxx_c, fv[:, 1] / phi_v, fyy_c, fh[:, 1] / phi_h, fv[:, 2] / phi_v,
                   fh[:, 2] / phi_h, np.concatenate(cb, axis=1))
        return ClosureRecord(*(a.ravel() for a in columns))

    def boundary_inflow(self, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E_in and n.F_in per group and boundary face from the inflow.

        side holds each face's index into mesh.SIDES.  The half-range sums
        are the quadrature's own, so the moment-system boundary rows are
        exactly consistent with the transport boundary condition.
        """
        moments = self._inflow_moments[:, side]
        # n.Omega on the incoming range is negative on every side
        return moments[..., 0] / C_LIGHT, -moments[..., 3]


def _positive(den: np.ndarray, what: str) -> np.ndarray:
    if den.min() <= 0.0:
        raise DegenerateIntensityError(what)
    return den
