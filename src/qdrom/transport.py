"""Discrete-ordinates transport with simple corner balance in space.

Each cell carries four corner intensities per group and direction, ordered
SW, SE, NW, NE (corner index c = 2*cy + cx).  Backward Euler folds the time
derivative into an effective removal kappa + 1/(c dt) and a source
kappa*B + I_prev/(c dt); one sweep per direction solves the system exactly
because there is no scattering.

Face-located quantities use the upwind trace: the mean of the two corner
intensities on the upwind side of the face, per direction.  Boundary faces
take the prescribed incoming intensity for entering directions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import FrequencyGrid, MaterialModel, planck_spectrum
from .mesh import SIDES, SpatialMesh
from .quadrature import AngularQuadrature

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
        self._quadrant_dirs = [
            np.nonzero((np.sign(quad.mu) == sx) & (np.sign(quad.eta) == sy))[0]
            for sx, sy in _QUADRANTS
        ]
        # wavefront diagonals per quadrant: cells sharing a flow diagonal are
        # independent and solve as one batch; all index/geometry data is static
        self._diagonals = {}
        nx, ny = mesh.nx, mesh.ny
        for sx, sy in _QUADRANTS:
            diags = []
            for d in range(nx + ny - 1):
                a = np.arange(max(0, d - ny + 1), min(nx, d + 1))
                b = d - a
                ix = a if sx > 0 else nx - 1 - a
                iy = b if sy > 0 else ny - 1 - b
                dx = mesh.dx[ix][None, None, :]
                dy = mesh.dy[iy][None, None, :]
                jx, jy = ix - sx, iy - sy
                diags.append({
                    "iy": iy, "ix": ix, "dx": dx, "dy": dy,
                    "quarter": 0.25 * dx * dy,
                    "jxc": np.clip(jx, 0, nx - 1), "ok_x": (0 <= jx) & (jx < nx),
                    "jyc": np.clip(jy, 0, ny - 1), "ok_y": (0 <= jy) & (jy < ny),
                })
            self._diagonals[(sx, sy)] = diags

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

        kappa, emission: (n_g, ny, nx); I_prev: corner field.  Each quadrant
        is solved diagonal by diagonal: cells on a flow diagonal only depend
        on the previous diagonal, so they solve in one batch.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if I_prev.shape != self.shape:
            raise ShapeError(f"I_prev shape {I_prev.shape} != {self.shape}")
        if kappa.shape != self.shape[:1] + self.shape[2:4]:
            raise ShapeError(f"kappa shape {kappa.shape} incompatible with mesh/groups")
        quad = self.quad
        cdt = self.material.light_speed * dt
        ktil = kappa + 1.0 / cdt                      # (n_g, ny, nx)
        src = kappa * emission                        # (n_g, ny, nx)
        out = np.empty(self.shape)

        for (sx, sy), ms in zip(_QUADRANTS, self._quadrant_dirs):
            # flow->actual corner index: c = 2*cy + cx
            def corner(fx, fy):
                cx = fx if sx > 0 else 1 - fx
                cy = fy if sy > 0 else 1 - fy
                return 2 * cy + cx
            c00, c10, c01, c11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
            bxc = self.bc.side("left" if sx > 0 else "right")[:, None, None]
            byc = self.bc.side("bottom" if sy > 0 else "top")[:, None, None]
            amu = np.abs(quad.mu[ms])[None, :, None]
            aeta = np.abs(quad.eta[ms])[None, :, None]
            msc = ms[:, None]
            # total source including the previous-step corner term, all corners
            src_tot = src[:, None, :, :, None] + I_prev[:, ms] / cdt
            for dg in self._diagonals[(sx, sy)]:
                iy, ix = dg["iy"][None, :], dg["ix"][None, :]
                quarter = dg["quarter"]
                wx, wy = 0.5 * amu * dg["dy"], 0.5 * aeta * dg["dx"]
                denom = wx + wy + ktil[:, dg["iy"], dg["ix"]][:, None, :] * quarter
                s = src_tot[:, :, dg["iy"], dg["ix"], :] * quarter[..., None]
                jxc, jyc = dg["jxc"][None, :], dg["jyc"][None, :]
                in_x0 = np.where(dg["ok_x"], out[:, msc, iy, jxc, c10], bxc)
                in_x1 = np.where(dg["ok_x"], out[:, msc, iy, jxc, c11], bxc)
                in_y0 = np.where(dg["ok_y"], out[:, msc, jyc, ix, c01], byc)
                in_y1 = np.where(dg["ok_y"], out[:, msc, jyc, ix, c11], byc)
                i00 = (s[..., c00] + wx * in_x0 + wy * in_y0) / denom
                i10 = (s[..., c10] + wx * i00 + wy * in_y1) / denom
                i01 = (s[..., c01] + wx * in_x1 + wy * i00) / denom
                i11 = (s[..., c11] + wx * i01 + wy * i10) / denom
                out[:, msc, iy, ix, c00] = i00
                out[:, msc, iy, ix, c10] = i10
                out[:, msc, iy, ix, c01] = i01
                out[:, msc, iy, ix, c11] = i11
        return out

    # ------------------------------------------------------------- closures
    def face_traces(self, I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-direction upwind face traces on vertical and horizontal faces."""
        nx, ny = self.mesh.nx, self.mesh.ny
        n_g, n_m = self.grid.n_groups, self.quad.n_dirs
        tv = np.empty((n_g, n_m, ny, nx + 1))
        th = np.empty((n_g, n_m, ny + 1, nx))
        mp, ep = self._mu_pos, self._eta_pos
        tv[:, mp, :, 1:] = 0.5 * (I[:, mp][..., 1] + I[:, mp][..., 3])
        tv[:, mp, :, 0:1] = self.bc.left[:, None, None, None]
        tv[:, ~mp, :, :nx] = 0.5 * (I[:, ~mp][..., 0] + I[:, ~mp][..., 2])
        tv[:, ~mp, :, nx:] = self.bc.right[:, None, None, None]
        th[:, ep, 1:, :] = 0.5 * (I[:, ep][..., 2] + I[:, ep][..., 3])
        th[:, ep, 0:1, :] = self.bc.bottom[:, None, None, None]
        th[:, ~ep, :ny, :] = 0.5 * (I[:, ~ep][..., 0] + I[:, ~ep][..., 1])
        th[:, ~ep, ny:, :] = self.bc.top[:, None, None, None]
        return tv, th

    def compute_eddington(self, I: np.ndarray) -> ClosureRecord:
        """Eddington tensor entries on cells and faces (boundary factors too)."""
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

