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

Face-located quantities use the upwind trace: the mean of the two corner
intensities on the upwind side of the face, per direction.  Boundary faces
take the prescribed incoming intensity for entering directions.
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


@dataclass(frozen=True)
class BoundarySpec:
    """Isotropic incoming intensity per side and group; zeros mean vacuum."""

    left: np.ndarray
    bottom: np.ndarray
    right: np.ndarray
    top: np.ndarray

    def side(self, name: str) -> np.ndarray:
        return getattr(self, name)


@dataclass
class ClosureRecord:
    """Eddington tensor components and boundary factors for one time level.

    Tensor entries live on cell centers and on the face grids that consume
    them in the moment equations; boundary factors are per group and
    boundary face, in the geometry's boundary-face order (mesh.SIDES).
    """

    fxx_cell: np.ndarray   # (n_g, ny, nx)
    fyy_cell: np.ndarray   # (n_g, ny, nx)
    fxx_vface: np.ndarray  # (n_g, ny, nx+1)
    fxy_vface: np.ndarray  # (n_g, ny, nx+1)
    fyy_hface: np.ndarray  # (n_g, ny+1, nx)
    fxy_hface: np.ndarray  # (n_g, ny+1, nx)
    cb: np.ndarray         # (n_g, 2 (nx + ny))

    def bound_violations(self) -> dict:
        """Count entries outside the physical closure bounds (not clamped)."""
        diag = 0
        for a in (self.fxx_cell, self.fyy_cell, self.fxx_vface, self.fyy_hface):
            diag += int(np.sum((a < 0.0) | (a > 1.0)))
        return {"tensor": diag,
                "boundary_factor": int(np.sum((self.cb <= 0.0) | (self.cb >= 1.0)))}


def intensity_unknowns(nx: int, ny: int, n_groups: int, n_dirs: int) -> int:
    """Corner unknown count 4 * Nx * Ny * Ng * N_omega."""
    return 4 * nx * ny * n_groups * n_dirs


_QUADRANTS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def eddington_ratios(quad: AngularQuadrature, samples: np.ndarray):
    """Second-to-zeroth angular moment ratios of intensity samples.

    samples has the direction index on axis 1: (n_g, M, ...).  Returns
    (fxx, fyy, fxy) over the trailing axes.
    """
    w, mu, eta = quad.weight, quad.mu, quad.eta
    phi = np.einsum("m,gm...->g...", w, samples)
    if np.any(phi <= 0.0):
        raise DegenerateIntensityError("nonpositive angular integral")
    fxx = np.einsum("m,gm...->g...", w * mu * mu, samples) / phi
    fyy = np.einsum("m,gm...->g...", w * eta * eta, samples) / phi
    fxy = np.einsum("m,gm...->g...", w * mu * eta, samples) / phi
    return fxx, fyy, fxy


def half_range_factor(quad: AngularQuadrature, samples: np.ndarray, axis: str,
                      outward: float) -> np.ndarray:
    """Boundary factor: outgoing current over outgoing density on one side.

    axis is "x" or "y"; outward is the sign of the outward normal component.
    """
    comp = quad.mu if axis == "x" else quad.eta
    outgoing = comp * outward > 0.0
    w = quad.weight
    num = np.einsum("m,gm...->g...", (w * np.abs(comp))[outgoing], samples[:, outgoing])
    den = np.einsum("m,gm...->g...", w[outgoing], samples[:, outgoing])
    if np.any(den <= 0.0):
        raise DegenerateIntensityError("zero outgoing current on a boundary face")
    return num / den


class TransportSolver:
    """Sweeper and closure extractor bound to one mesh/quadrature/group layout."""

    def __init__(self, mesh: SpatialMesh, quad: AngularQuadrature,
                 grid: FrequencyGrid, material: MaterialModel, bc: BoundarySpec):
        self.mesh = mesh
        self.quad = quad
        self.grid = grid
        self.material = material
        self.bc = bc
        self._mu_pos = quad.mu > 0.0
        self._eta_pos = quad.eta > 0.0
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
        # inflow of each lane across the upwind x and y faces of the flow frame
        x_in = np.stack([bc.side("left" if s > 0 else "right") for s in sx], axis=1)
        y_in = np.stack([bc.side("bottom" if s > 0 else "top") for s in sy], axis=1)
        self._x_in = np.repeat(x_in, k, axis=1)                 # (n_g, 4K)
        self._y_in = np.repeat(y_in, k, axis=1)

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
            return field.reshape(n_g, -1)[:, self._lane_cells]

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
    def face_traces(self, I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-direction upwind face traces on vertical and horizontal faces."""
        nx, ny = self.mesh.nx, self.mesh.ny
        n_g, n_m = self.grid.n_groups, self.quad.n_dirs
        tv = np.empty((n_g, n_m, ny, nx + 1))
        th = np.empty((n_g, n_m, ny + 1, nx))
        mp, ep = self._mu_pos, self._eta_pos
        # take the corner before the directions: only it is copied
        tv[:, mp, :, 1:] = 0.5 * (I[..., 1][:, mp] + I[..., 3][:, mp])
        tv[:, mp, :, 0:1] = self.bc.left[:, None, None, None]
        tv[:, ~mp, :, :nx] = 0.5 * (I[..., 0][:, ~mp] + I[..., 2][:, ~mp])
        tv[:, ~mp, :, nx:] = self.bc.right[:, None, None, None]
        th[:, ep, 1:, :] = 0.5 * (I[..., 2][:, ep] + I[..., 3][:, ep])
        th[:, ep, 0:1, :] = self.bc.bottom[:, None, None, None]
        th[:, ~ep, :ny, :] = 0.5 * (I[..., 0][:, ~ep] + I[..., 1][:, ~ep])
        th[:, ~ep, ny:, :] = self.bc.top[:, None, None, None]
        return tv, th

    def compute_eddington(self, I: np.ndarray) -> ClosureRecord:
        """Eddington tensor entries on cells and faces (boundary factors too)."""
        if I.shape != self.shape:
            raise ShapeError(f"I shape {I.shape} != {self.shape}")
        fxx_c, fyy_c, _ = eddington_ratios(self.quad, I.mean(axis=4))
        tv, th = self.face_traces(I)
        fxx_v, _, fxy_v = eddington_ratios(self.quad, tv)
        _, fyy_h, fxy_h = eddington_ratios(self.quad, th)
        # outgoing traces, axis and outward normal sign of each boundary side
        sides = {"left": (tv[:, :, :, 0], "x", -1.0), "bottom": (th[:, :, 0, :], "y", -1.0),
                 "right": (tv[:, :, :, -1], "x", 1.0), "top": (th[:, :, -1, :], "y", 1.0)}
        cb = np.concatenate([half_range_factor(self.quad, *sides[s]) for s in SIDES], axis=1)
        return ClosureRecord(fxx_c, fyy_c, fxx_v, fxy_v, fyy_h, fxy_h, cb)

    # ------------------------------------------------- boundary moment data
    def incoming_moments(self) -> dict:
        """Discrete E^in and n.F^in per side and group from the incoming spec.

        Uses quadrature half-range sums so the moment-system boundary rows
        are exactly consistent with the transport boundary condition.
        """
        w, mu, eta = self.quad.weight, self.quad.mu, self.quad.eta
        c = self.material.light_speed
        out = {}
        for name, comp, incoming in (
            ("left", mu, mu > 0.0), ("bottom", eta, eta > 0.0),
            ("right", mu, mu < 0.0), ("top", eta, eta < 0.0),
        ):
            ivals = self.bc.side(name)  # (n_g,)
            s0 = np.sum(w[incoming])
            # n.Omega on the incoming range is negative on every side
            s1 = -np.sum(w[incoming] * np.abs(comp[incoming]))
            out[name] = (ivals * s0 / c, ivals * s1)
        return out

