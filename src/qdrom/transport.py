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
direction flows from flow corner 0 (upwind) towards flow corner 3.  In the
flow frame the cells of diagonal d = a + b depend only on diagonal d - 1.
The sweep works in a lane layout (group, flow cell in diagonal order, flow
corner, lane), with one lane per (quadrant, direction) pair on the
contiguous last axis; the index tables between the two layouts are built
once per solver.

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

import numpy as np

from .materials import FrequencyGrid, MaterialModel, planck_spectrum
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


class TransportSolver:
    """Sweeper and closure extractor bound to one mesh/quadrature/group layout.

    `inflow` (n_g, side) is the isotropic incoming intensity per group and
    side of mesh.SIDES; zeros mean vacuum.
    """

    def __init__(self, mesh: SpatialMesh, quad: AngularQuadrature,
                 grid: FrequencyGrid, material: MaterialModel, inflow: np.ndarray):
        self.mesh = mesh
        self.quad = quad
        self.grid = grid
        self.material = material
        self.inflow = inflow = np.asarray(inflow, dtype=float)
        if inflow.shape != (grid.n_groups, len(SIDES)):
            raise ShapeError(f"inflow shape {inflow.shape} != {(grid.n_groups, len(SIDES))}")
        if np.any((quad.mu == 0.0) | (quad.eta == 0.0)):
            raise QuadratureSpecError("a direction with mu = 0 or eta = 0 lies in no quadrant")
        dirs = [np.nonzero((np.sign(quad.mu) == sx) & (np.sign(quad.eta) == sy))[0]
                for sx, sy in _QUADRANTS]
        if len({len(ms) for ms in dirs}) != 1:
            raise QuadratureSpecError("the quadrants hold unequal direction counts")
        dirs = np.array(dirs)                                  # (4, K)
        nx, ny = mesh.nx, mesh.ny
        sx, sy = np.array(_QUADRANTS).T                        # (4,) each
        # flow-frame cells (a, b) in diagonal order d = a + b, then by a
        a, b = np.divmod(np.arange(nx * ny), ny)
        order = np.lexsort((a, a + b))
        a, b = a[order], b[order]
        counts = np.bincount(a + b)
        starts = np.concatenate(([0], np.cumsum(counts)))
        # (first cell, end cell, first column) of each diagonal
        self._diagonals = [(int(p0), int(p1), int(a[p0]))
                           for p0, p1 in zip(starts[:-1], starts[1:])]
        # physical cell of each flow cell per quadrant: reflect x if sx < 0, y if sy < 0
        ix = np.where(sx > 0, a[:, None], nx - 1 - a[:, None])  # (cells, 4)
        iy = np.where(sy > 0, b[:, None], ny - 1 - b[:, None])
        cells = iy * nx + ix
        k = dirs.shape[1]
        self._lane_cells = np.repeat(cells, k, axis=1)          # (cells, 4K)
        # physical corner 2*cy + cx of flow corner 2*fy + fx per quadrant
        fx, fy = np.array([0, 1, 0, 1])[:, None], np.array([0, 0, 1, 1])[:, None]
        corner = 2 * np.where(sy > 0, fy, 1 - fy) + np.where(sx > 0, fx, 1 - fx)  # (4, 4)
        # per group, the lane layout (cell, flow corner, quadrant, K) and the
        # physical layout (direction, y, x, corner) as flat indices of each other
        to_lanes = (4 * cells[:, None, :] + corner)[..., None] + dirs * (4 * nx * ny)
        self._to_lanes = to_lanes.ravel()
        self._to_field = np.empty_like(self._to_lanes)
        self._to_field[self._to_lanes] = np.arange(self._to_lanes.size)
        # streaming weights and corner areas per flow cell and lane
        dxl, dyl = mesh.dx[ix], mesh.dy[iy]
        self._quarter = np.repeat(0.25 * dxl * dyl, k, axis=1)  # (cells, 4K)
        self._wx = (0.5 * np.abs(quad.mu[dirs]) * dyl[:, :, None]).reshape(nx * ny, -1)
        self._wy = (0.5 * np.abs(quad.eta[dirs]) * dxl[:, :, None]).reshape(nx * ny, -1)
        self._wxy = self._wx + self._wy
        # half range h leaves through side SIDES[h]; its rows of the weight
        # table are (w, w c^2, w mu eta, w |c|), c its normal component, and
        # zero off the half range
        exit_side = {(axis, sign): h for h, (axis, sign, _) in enumerate(_EXITS)}
        # the opposite side, through which half range h enters
        self._opposite = [exit_side[axis, -sign] for axis, sign, _ in _EXITS]
        w, rows, sums = quad.weight, [], []
        for axis, sign, _ in _EXITS:
            c = (quad.mu, quad.eta)[axis]
            half = sign * c > 0.0
            r = np.stack([w, w * c * c, w * quad.mu * quad.eta, w * np.abs(c)])
            rows.append(np.where(half, r, 0.0))
            # 1-D sums over the half range alone, the quadrature's own sums
            sums.append([np.sum(x[half]) for x in r])
        self._weights = np.concatenate(rows)                    # (16, M)
        # moments of the inflow through each side: (n_g, side, row)
        self._inflow_moments = inflow[:, :, None] * np.array(sums)[self._opposite]
        # inflow of each lane across the upwind x and y faces of the flow frame:
        # lanes of sign s on an axis enter where half range (axis, -s) leaves
        self._x_in = np.repeat(inflow[:, [exit_side[0, -s] for s in sx]], k, axis=1)
        self._y_in = np.repeat(inflow[:, [exit_side[1, -s] for s in sy]], k, axis=1)

    # ------------------------------------------------------------------ API
    @property
    def shape(self) -> tuple:
        return (self.grid.n_groups, self.quad.n_dirs, self.mesh.ny, self.mesh.nx, 4)

    def equilibrium_intensity(self, T: float) -> np.ndarray:
        """Isotropic corner field at the blackbody level B_g(T)."""
        b = planck_spectrum(T, self.grid, radiation_constant=self.material.radiation_constant,
                            light_speed=self.material.light_speed)
        out = np.empty(self.shape)
        out[:] = np.asarray(b)[:, None, None, None, None]
        return out

    def sweep(self, kappa: np.ndarray, emission: np.ndarray, I_prev: np.ndarray,
              dt: float) -> np.ndarray:
        """One backward-Euler SCB solve given per-cell opacity and emission.

        kappa, emission: (n_g, ny, nx); I_prev: corner field.  All quadrants
        sweep in one wavefront pass over the flow-frame diagonals: the cells
        of a diagonal depend only on the previous diagonal, and every
        (group, quadrant, direction) lane is independent.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if I_prev.shape != self.shape:
            raise ShapeError(f"I_prev shape {I_prev.shape} != {self.shape}")
        if kappa.shape != self.shape[:1] + self.shape[2:4]:
            raise ShapeError(f"kappa shape {kappa.shape} incompatible with mesh/groups")
        if emission.shape != kappa.shape:
            raise ShapeError(f"emission shape {emission.shape} != kappa shape {kappa.shape}")
        n_g, n_cells = kappa.shape[0], self._lane_cells.shape[0]
        cdt = self.material.light_speed * dt
        quarter = self._quarter

        def lanes(field):  # (n_g, ny, nx) -> (n_g, cells, 4K)
            return np.take(field.reshape(n_g, -1), self._lane_cells, axis=1)

        denom = self._wxy + lanes(kappa + 1.0 / cdt) * quarter
        # the tables are permutations: "clip" never clips, it skips the bounds check
        s = np.take(I_prev.reshape(n_g, -1), self._to_lanes, axis=1, mode="clip")
        s = s.reshape(n_g, n_cells, 4, -1)      # (n_g, cells, flow corner, 4K)
        s /= cdt
        s += lanes(kappa * emission)[:, :, None]
        s *= quarter[:, None]
        # upwind corners of the previous diagonal by flow-frame column a at
        # slot a + 1; slot 0 and the slots not yet swept hold the inflow
        prev = np.empty((n_g, self.mesh.nx + 1) + s.shape[2:])
        prev[:, 0, 1::2] = self._x_in[:, None]
        prev[:, 1:, 2:] = self._y_in[:, None, None]
        wx, wy = self._wx, self._wy
        for p0, p1, lo in self._diagonals:
            hi = lo + p1 - p0
            xin, yin = prev[:, lo:hi], prev[:, lo + 1:hi + 1]
            sd, den, ax, ay = s[:, p0:p1], denom[:, p0:p1], wx[p0:p1], wy[p0:p1]
            # each corner overwrites its own source once solved
            i00, i10, i01, i11 = np.moveaxis(sd, 2, 0)
            np.divide(i00 + ax * xin[:, :, 1] + ay * yin[:, :, 2], den, out=i00)
            np.divide(i10 + ax * i00 + ay * yin[:, :, 3], den, out=i10)
            np.divide(i01 + ax * xin[:, :, 3] + ay * i00, den, out=i01)
            np.divide(i11 + ax * i01 + ay * i10, den, out=i11)
            prev[:, lo + 1:hi + 1] = sd
        out = np.take(s.reshape(n_g, -1), self._to_field, axis=1, mode="clip")
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
        return moments[..., 0] / self.material.light_speed, -moments[..., 3]


def _positive(den: np.ndarray, what: str) -> np.ndarray:
    if den.min() <= 0.0:
        raise DegenerateIntensityError(what)
    return den
