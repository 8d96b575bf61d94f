"""Low-order moment solvers: multigroup system, grey coefficients, grey problem.

Both levels solve the same E-only moment system over the unknowns
x = [E_cell, E_vface, E_hface] per group (multigroup) or in total (grey).
Each half-cell momentum balance, closed by the Eddington tensor, is solved
locally for its face-normal flux, which gives the one-sided expression

    F_j = p_j + (c / A_j) [ -s_j l_j d_face E_f + s_j l_j d_cell E_i
                            - l'_j / 2 (d_plus E_+ - d_minus E_-) ]

in the face, owning-cell and perpendicular-face energy densities.  Cell
rows are the energy balances with these expressions substituted; face rows
sum s_j F_j over the half cells of a face (flux continuity at interior
faces) and, at boundary faces, close it with -c C E_f (the boundary
condition).  The levels differ only in coefficients: the multigroup level
uses d = f / (kappa + 1/(c dt)), with f the Eddington-tensor entry, and
p = F_prev / (1 + c dt kappa) per group; the effective grey problem uses
their spectrum averages, together with averaged absorption and emission
opacities and boundary factors, so that it is the exact group sum of the
multigroup scheme.  MomentSystem is the one object per mesh: it holds the
half-cell adjacency, the boundary-face table and the band layout, and its
one solve serves both levels: each level passes its coefficients, and the
solve fills, factors, checks and unpacks the energies and face fluxes.  It
factors each group as a banded matrix (LAPACK dgbsv, partial pivoting) in a
row-interleaved order of the unknowns: per mesh row the hfaces below it,
then vface and cell pairs, then the last vface, and the top hfaces last.
Every entry then lies within 2 nx + 1 of the diagonal.
The grey system couples to the material energy balance through the
absorption and emission terms, linearized about the outer temperature
iterate: the emission through T^4, and the grey opacities through their
temperature derivatives (formed with the grey coefficients), which carry the
spectral shape that a temperature change would induce in each cell's row.
The temperature is eliminated cell-by-cell, so the coupling only adds to the
cell diagonal and right-hand side, and the grey level is one linear solve per
outer iteration.

All face fluxes use the fixed +x / +y orientation; outward signs come from
the adjacency tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

from .materials import FrequencyGrid, MaterialModel
from .mesh import SIDES, SpatialMesh, build_adjacency
from .transport import ClosureRecord


class SolverError(RuntimeError):
    """Failure of a moment-system solve."""


class DegenerateStateError(ValueError):
    """Zero denominator in a spectrum average."""


@dataclass
class MultigroupMoments:
    """Per-group cell/face energy densities and face fluxes."""

    e_cell: np.ndarray   # (n_g, ny, nx)
    e_vface: np.ndarray  # (n_g, ny, nx+1)
    e_hface: np.ndarray  # (n_g, ny+1, nx)
    f_vface: np.ndarray  # (n_g, ny, nx+1), +x component
    f_hface: np.ndarray  # (n_g, ny+1, nx), +y component

    @classmethod
    def equilibrium(cls, planck: np.ndarray, system: MomentSystem,
                    light_speed: float) -> "MultigroupMoments":
        """Isotropic moments 4*pi*B/c with zero flux, B given per (g, cell)."""
        n_g = planck.shape[0]
        ny, nx = system.mesh.ny, system.mesh.nx
        e_c = 4.0 * np.pi * planck / light_speed
        e_v = np.empty((n_g, ny, nx + 1))
        e_v[:, :, 1:-1] = 0.5 * (e_c[:, :, 1:] + e_c[:, :, :-1])
        e_v[:, :, 0] = e_c[:, :, 0]
        e_v[:, :, -1] = e_c[:, :, -1]
        e_h = np.empty((n_g, ny + 1, nx))
        e_h[:, 1:-1, :] = 0.5 * (e_c[:, 1:, :] + e_c[:, :-1, :])
        e_h[:, 0, :] = e_c[:, 0, :]
        e_h[:, -1, :] = e_c[:, -1, :]
        return cls(e_c, e_v, e_h, np.zeros_like(e_v), np.zeros_like(e_h))


@dataclass
class FluxCoeffs:
    """Per-adjacency one-sided flux coefficients and lag term.

    Arrays are (n_adj,) on the grey level and (n_g, n_adj) per group.
    """

    d_face: np.ndarray   # multiplies E on the face itself
    d_cell: np.ndarray   # multiplies E on the owning cell
    d_plus: np.ndarray   # multiplies E on the + perpendicular face
    d_minus: np.ndarray  # multiplies E on the - perpendicular face
    p: np.ndarray        # lagged previous-flux contribution


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum values (..., len(index)) into (..., size) bins, in input order."""
    lead = values.shape[:-1]
    n = int(np.prod(lead, dtype=int))
    bins = (index + size * np.arange(n)[:, None]).ravel()
    return np.bincount(bins, values.ravel(), minlength=n * size).reshape(lead + (size,))


class MomentSystem:
    """Layout of the E-only moment system over x = [E_cell, E_vface, E_hface].

    The solve orders the unknowns row by row of the mesh: for mesh row j
    the hfaces below it, then the pairs (vface i, cell i), then the last
    vface; the top hfaces come last.  In that order every entry lies within
    kl = ku = 2 nx + 1 of the diagonal, so each group is one banded LU with
    partial pivoting (LAPACK dgbsv).  The half-cell adjacency, the
    boundary-face table, the entries' (row, col) in the natural order,
    their band-storage slots and the position table depend on the mesh only
    and are built here, once; both levels call solve() with a leading group
    axis or none.
    """

    def __init__(self, mesh: SpatialMesh):
        self.mesh = mesh
        self.vadj, self.hadj = va, ha = build_adjacency(mesh)
        nc, nv, nh = mesh.n_cells, mesh.n_vfaces, mesh.n_hfaces
        n = nc + nv + nh
        ny, nx = self.shape = (mesh.ny, mesh.nx)
        self.n_cells, self.n_vfaces, self.n_unknowns = nc, nv, n
        # boundary faces in the side order of mesh.SIDES (left, bottom,
        # right, top): each face's index into SIDES and its global face id,
        # vfaces first
        self.boundary_side = np.repeat(np.arange(len(SIDES)), (ny, nx, ny, nx))
        left, bottom = (nx + 1) * np.arange(ny), nv + np.arange(nx)
        self.boundary_face = np.concatenate([left, bottom, left + nx, bottom + ny * nx])
        # columns of the face, cell, + and - perpendicular-face entries of
        # each one-sided flux expression
        self.vcols = np.stack([nc + va.face, va.cell,
                               nc + nv + va.cross_plus, nc + nv + va.cross_minus])
        self.hcols = np.stack([nc + nv + ha.face, ha.cell,
                               nc + ha.cross_plus, nc + ha.cross_minus])
        cells = np.arange(nc)
        vrow, hrow = nc + va.face, nc + nv + ha.face
        brow = nc + self.boundary_face
        # entry order of fill(): cell diagonal; per orientation the flux
        # expressions in the cell rows, then in the face rows; boundary terms
        self.rows = np.concatenate([cells, np.tile(va.cell, 4), np.tile(vrow, 4),
                                    np.tile(ha.cell, 4), np.tile(hrow, 4), brow])
        self.cols = np.concatenate([cells, self.vcols.ravel(), self.vcols.ravel(),
                                    self.hcols.ravel(), self.hcols.ravel(), brow])
        # band position of each unknown: cells, vfaces, hfaces of mesh row j
        # at j * stride + (nx + 2i + 1, nx + 2i, i)
        stride = 3 * nx + 1
        jc, ic = np.divmod(cells, nx)
        jv, iv = np.divmod(np.arange(nv), nx + 1)
        jh, ih = np.divmod(np.arange(nh), nx)
        self.pos = np.concatenate([jc * stride + nx + 2 * ic + 1,
                                   jv * stride + nx + 2 * iv, jh * stride + ih])
        r, c = self.pos[self.rows], self.pos[self.cols]
        self.kl, self.ku = int(np.max(r - c)), int(np.max(c - r))
        # LAPACK band storage AB(kl + ku + r - c, c), column-major, ldab rows
        self.ldab = 2 * self.kl + self.ku + 1
        self.slot = self.kl + self.ku + r - c + self.ldab * c
        self.rhs_rows = np.concatenate([cells, va.cell, vrow, ha.cell, hrow, brow])
        self.vcount = np.bincount(va.face, minlength=nv)
        self.hcount = np.bincount(ha.face, minlength=nh)

    @staticmethod
    def _weights(adj, fc: FluxCoeffs, light_speed: float) -> np.ndarray:
        """(..., 4, n_adj) multipliers of x[cols] in the flux expressions."""
        scale = light_speed / adj.half_area
        return np.stack([
            -scale * adj.sign * fc.d_face * adj.face_len,
            scale * adj.sign * fc.d_cell * adj.face_len,
            -scale * 0.5 * adj.cross_len * fc.d_plus,
            scale * 0.5 * adj.cross_len * fc.d_minus,
        ], axis=-2)

    def fill(self, light_speed: float, cell_diag, cell_rhs, vflux: FluxCoeffs,
             hflux: FluxCoeffs, boundary_diag, boundary_rhs):
        """Entry values (..., len(rows)), right-hand side (..., n) and flux weights.

        Entry k adds its value at (rows[k], cols[k]) of the natural order.

        cell_diag/cell_rhs are (..., n_cells); boundary_diag/boundary_rhs are
        (..., n_bfaces), in the order of boundary_face.
        """
        lead = np.shape(cell_diag)[:-1]
        vals, rhs = [cell_diag], [cell_rhs]
        weights = []
        for adj, fc in ((self.vadj, vflux), (self.hadj, hflux)):
            w = self._weights(adj, fc, light_speed)
            sl = adj.sign * adj.face_len
            vals += [(sl * w).reshape(lead + (-1,)), (adj.sign * w).reshape(lead + (-1,))]
            rhs += [-sl * fc.p, -adj.sign * fc.p]
            weights.append(w)
        vals.append(boundary_diag)
        rhs.append(boundary_rhs)
        b = _scatter(self.rhs_rows, np.concatenate(rhs, axis=-1), self.n_unknowns)
        return np.concatenate(vals, axis=-1), b, weights

    def face_fluxes(self, x: np.ndarray, weights, vflux: FluxCoeffs, hflux: FluxCoeffs):
        """(F_vface, F_hface) from the one-sided expressions, averaged per face."""
        out = []
        for adj, fc, w, cols, count in ((self.vadj, vflux, weights[0], self.vcols, self.vcount),
                                        (self.hadj, hflux, weights[1], self.hcols, self.hcount)):
            f = fc.p + (w * x[..., cols]).sum(axis=-2)
            out.append(_scatter(adj.face, f, count.size) / count)
        return out

    def energies(self, x: np.ndarray):
        """(E_cell, E_vface, E_hface) grids, keeping any leading axis."""
        ny, nx = self.shape
        nc, nv = self.n_cells, self.n_cells + self.n_vfaces
        lead = x.shape[:-1]
        return (x[..., :nc].reshape(lead + (ny, nx)),
                x[..., nc:nv].reshape(lead + (ny, nx + 1)),
                x[..., nv:].reshape(lead + (ny + 1, nx)))

    def solve(self, light_speed: float, cell_diag, cell_rhs, vflux: FluxCoeffs,
              hflux: FluxCoeffs, boundary_diag, boundary_rhs):
        """(E_cell, E_vface, E_hface, F_vface, F_hface) grids of fill()'s system.

        Takes fill()'s arguments and keeps their leading group axis, if any;
        each group is one banded LU in the band order.  Raises SolverError
        for a singular matrix or a non-finite solution, naming the group.
        """
        vals, b, weights = self.fill(light_speed, cell_diag, cell_rhs, vflux, hflux,
                                     boundary_diag, boundary_rhs)
        lead, n = b.shape[:-1], self.n_unknowns
        # unit row 1-norms: where cold, opaque cells make the row scales
        # span many decades, unscaled pivoting lost all accuracy
        scale = 1.0 / np.maximum(_scatter(self.rows, np.abs(vals), n), np.finfo(float).tiny)
        band = _scatter(self.slot, vals * scale[..., self.rows], n * self.ldab)
        band = band.reshape(-1, n, self.ldab)
        xb = np.empty((band.shape[0], n))
        xb[:, self.pos] = (b * scale).reshape(-1, n)
        for g, ab in enumerate(band):
            # ab.T is the Fortran-ordered band storage itself: no copy
            _, _, xb[g], info = dgbsv(self.kl, self.ku, ab.T, xb[g],
                                      overwrite_ab=1, overwrite_b=1)
            if info:
                where = f" in group {g}" if lead else ""
                raise SolverError(f"moment-system matrix is singular{where} (dgbsv info {info})")
        x = xb[:, self.pos].reshape(b.shape)
        f_v, f_h = self.face_fluxes(x, weights, vflux, hflux)
        finite = np.isfinite(x).all(-1) & np.isfinite(f_v).all(-1) & np.isfinite(f_h).all(-1)
        if not np.all(finite):
            where = f" in group {int(np.argmin(finite))}" if lead else ""
            raise SolverError(f"moment-system solve returned non-finite values{where}")
        ny, nx = self.shape
        return (*self.energies(x), f_v.reshape(lead + (ny, nx + 1)),
                f_h.reshape(lead + (ny + 1, nx)))


def group_flux_coeffs(closure: ClosureRecord, kappa2: np.ndarray, prev: MultigroupMoments,
                      dt: float, system: MomentSystem, light_speed: float):
    """Per-group (vertical, horizontal) flux coefficients, arrays (n_g, n_adj).

    d = f / kappa_tilde with kappa_tilde = kappa + 1/(c dt) of the owning
    cell, and p = F_prev / (1 + c dt kappa); kappa2 is (n_g, n_cells).
    """
    n_g = kappa2.shape[0]
    cdt = light_speed * dt
    kappa_tilde = kappa2 + 1.0 / cdt

    def coeffs(adj, f_face, f_cell, f_perp, fprev):
        kt = kappa_tilde[:, adj.cell]
        return FluxCoeffs(
            f_face.reshape(n_g, -1)[:, adj.face] / kt,
            f_cell.reshape(n_g, -1)[:, adj.cell] / kt,
            f_perp.reshape(n_g, -1)[:, adj.cross_plus] / kt,
            f_perp.reshape(n_g, -1)[:, adj.cross_minus] / kt,
            fprev.reshape(n_g, -1)[:, adj.face] / (1.0 + cdt * kappa2[:, adj.cell]),
        )

    return (coeffs(system.vadj, closure.fxx_vface, closure.fxx_cell, closure.fxy_hface,
                   prev.f_vface),
            coeffs(system.hadj, closure.fyy_hface, closure.fyy_cell, closure.fxy_vface,
                   prev.f_hface))


class MultigroupLoqdSolver:
    """Direct solver for the per-group E-only moment systems.

    Face fluxes follow from the one-sided expressions after the solve.
    """

    def __init__(self, system: MomentSystem, grid: FrequencyGrid,
                 material: MaterialModel, e_in: np.ndarray, f_in: np.ndarray):
        self.system = system
        self.grid = grid
        self.material = material
        self.e_in = e_in  # (n_g, n_bfaces)
        self.f_in = f_in
        self.n_unknowns = system.n_unknowns  # per group

    def solve(self, closure: ClosureRecord, kappa: np.ndarray, planck: np.ndarray,
              prev: MultigroupMoments, dt: float):
        """Direct solve of every group system; kappa/planck are (n_g, ny, nx).

        Groups are independent; MomentSystem.solve factors each in turn.
        Returns the moments and the per-group (vertical, horizontal) flux
        coefficients, which the grey coefficients average.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        system = self.system
        n_g = self.grid.n_groups
        c = self.material.light_speed
        area = system.mesh.cell_area.ravel()
        kappa2 = kappa.reshape(n_g, -1)
        vflux, hflux = group_flux_coeffs(closure, kappa2, prev, dt, system, c)
        moments = MultigroupMoments(*system.solve(
            c, area / dt + c * kappa2 * area,
            (area / dt) * prev.e_cell.reshape(n_g, -1)
            + 4.0 * np.pi * kappa2 * planck.reshape(n_g, -1) * area,
            vflux, hflux, -c * closure.cb, -c * closure.cb * self.e_in + self.f_in))
        return moments, (vflux, hflux)


# ---------------------------------------------------------------------------
# spectrum-averaged (grey) coefficients
# ---------------------------------------------------------------------------

@dataclass
class SpectrumAveraged:
    """Grey coefficients for one outer iterate (flattened grids)."""

    kbar_e: np.ndarray        # (n_cells,)
    kbar_b: np.ndarray        # (n_cells,)
    dkbar_e: np.ndarray       # (n_cells,) d kbar_e/dT, spectrum shape included
    dkbar_b: np.ndarray       # (n_cells,) d kbar_b/dT, likewise
    e_cell_total: np.ndarray  # (n_cells,) sum of E_g, which dkbar_e multiplies
    cbar: np.ndarray          # (n_bfaces,)
    e_in_total: np.ndarray    # (n_bfaces,)
    f_in_total: np.ndarray    # (n_bfaces,)
    vflux: FluxCoeffs
    hflux: FluxCoeffs


def _weighted_mean(values, weights, what: str) -> np.ndarray:
    den = weights.sum(axis=0)
    if np.any(den == 0.0):
        loc = int(np.argmin(np.abs(den)))
        raise DegenerateStateError(f"zero denominator averaging {what} at index {loc}")
    return (values * weights).sum(axis=0) / den


def compute_grey_coefficients(mg: MultigroupMoments, kappa: np.ndarray, planck: np.ndarray,
                              dkappa: np.ndarray, dplanck: np.ndarray,
                              closure: ClosureRecord,
                              group_flux: tuple[FluxCoeffs, FluxCoeffs],
                              system: MomentSystem, e_in: np.ndarray, f_in: np.ndarray,
                              dt: float, light_speed: float) -> SpectrumAveraged:
    """Spectrum averages over the multigroup solution, and their T-derivatives.

    kappa/planck and their T-derivatives dkappa/dplanck are (n_g, ny, nx) at
    the outer iterate; group_flux is the per-group (vertical, horizontal)
    flux-coefficient pair of MultigroupLoqdSolver.solve; e_in/f_in are the
    per-group boundary tables.  The boundary-factor average falls back to the
    unweighted mean where its denominator is below 1e-30 of the local energy
    density.  The group energies respond to T through their own cell rows,
    transport held fixed: dE_g/dT = [4 pi (kappa' B + kappa B') - c kappa' E_g]
    / (1/dt + c kappa); then d kbar_e/dT = [sum kappa' E_g + sum (kappa -
    kbar_e) dE_g/dT] / sum E_g, and likewise d kbar_b/dT over the B_g (linear
    multifrequency-grey acceleration, Morel, Larsen & Matzen, JQSRT 34, 1985).
    """
    n_g = kappa.shape[0]
    kap2 = kappa.reshape(n_g, -1)
    b2 = planck.reshape(n_g, -1)
    e_c = mg.e_cell.reshape(n_g, -1)
    e_v = mg.e_vface.reshape(n_g, -1)
    e_h = mg.e_hface.reshape(n_g, -1)

    kbar_e = _weighted_mean(kap2, e_c, "absorption opacity")
    kbar_b = _weighted_mean(kap2, b2, "emission opacity")

    dkap, db = dkappa.reshape(n_g, -1), dplanck.reshape(n_g, -1)
    de = (4.0 * np.pi * (dkap * b2 + kap2 * db) - light_speed * dkap * e_c) \
        / (1.0 / dt + light_speed * kap2)
    e_sum = e_c.sum(axis=0)
    dkbar_e = ((dkap * e_c).sum(axis=0) + ((kap2 - kbar_e) * de).sum(axis=0)) / e_sum
    dkbar_b = ((dkap * b2).sum(axis=0) + ((kap2 - kbar_b) * db).sum(axis=0)) / b2.sum(axis=0)

    # boundary factor average with the 0/0 guard at near-equilibrium walls
    e_faces = np.concatenate([e_v, e_h], axis=1)
    e_bf = e_faces[:, system.boundary_face]
    cb = closure.cb
    diff = e_bf - e_in
    den = diff.sum(axis=0)
    num = (cb * diff).sum(axis=0)
    scale = e_bf.sum(axis=0)
    guarded = np.abs(den) < 1e-30 * scale
    cbar = np.where(guarded, cb.mean(axis=0), num / np.where(guarded, 1.0, den))

    def average(adj, fc: FluxCoeffs, e_face, e_perp):
        what = "flux coefficient"
        return FluxCoeffs(
            _weighted_mean(fc.d_face, e_face[:, adj.face], what),
            _weighted_mean(fc.d_cell, e_c[:, adj.cell], what),
            _weighted_mean(fc.d_plus, e_perp[:, adj.cross_plus], what),
            _weighted_mean(fc.d_minus, e_perp[:, adj.cross_minus], what),
            fc.p.sum(axis=0),
        )

    vflux = average(system.vadj, group_flux[0], e_v, e_h)
    hflux = average(system.hadj, group_flux[1], e_h, e_v)
    return SpectrumAveraged(kbar_e, kbar_b, dkbar_e, dkbar_b, e_sum, cbar,
                            e_in.sum(axis=0), f_in.sum(axis=0), vflux, hflux)


# ---------------------------------------------------------------------------
# effective grey problem
# ---------------------------------------------------------------------------

@dataclass
class GreyState:
    """Converged grey unknowns for one time level."""

    temperature: np.ndarray  # (ny, nx)
    e_cell: np.ndarray       # (ny, nx)
    e_vface: np.ndarray      # (ny, nx+1)
    e_hface: np.ndarray      # (ny+1, nx)
    f_vface: np.ndarray      # (ny, nx+1)
    f_hface: np.ndarray      # (ny+1, nx)
    newton_iterations: int = 0  # linear solves that produced the state: 1


@dataclass
class GreyProblem:
    """Grey LOQD + material energy balance about an outer temperature iterate.

    The material energy balance cv (T - T_prev)/dt = c kbar_e(T) E -
    c kbar_b(T) a_R T^4 is linearized about the outer temperature iterate
    t_star (> 0 per cell): the emission through 4 t_star^3 (T - t_star),
    and both opacities through the T-derivatives in `coeffs`, with its
    multigroup energy sum standing in for E in the absorption term.  Each
    cell then gives T = slope E + offset, and the grey problem is one
    linear system.  At T = t_star every Newton term vanishes: a fixed point
    of the outer iteration is a root of the nonlinear grey problem, and
    repeating the solve from its own temperature is Newton's method on it
    when the derivatives are exact (zero for opacities that do not depend
    on T).
    """

    system: MomentSystem
    coeffs: SpectrumAveraged
    material: MaterialModel
    dt: float
    e_prev_cell: np.ndarray
    t_prev: np.ndarray
    t_star: np.ndarray

    def solve(self) -> GreyState:
        """One linear solve of the grey system linearized about t_star."""
        mat, co, dt = self.material, self.coeffs, self.dt
        c, a_r = mat.light_speed, mat.radiation_constant
        area = self.system.mesh.cell_area.ravel()
        t_prev, t_star = self.t_prev.ravel(), self.t_star.ravel()
        quart = c * co.kbar_b * a_r
        t3 = t_star**3
        # d/dT of the net emission c kbar_b a_R T^4 - c kbar_e E beyond
        # 4 quart t3, clipped so that the net emission never falls as T
        # rises: the denominator stays at least cv/dt
        extra = np.maximum(c * a_r * t_star**4 * co.dkbar_b - c * co.dkbar_e * co.e_cell_total,
                           -4.0 * quart * t3)
        # cv (T - T_prev)/dt + quart t3 (4 T - 3 t_star) + extra (T - t_star)
        # = c kbar_e E, solved for T - T_prev = slope E + shift so that no
        # coupling leaves T_prev exactly
        cv_dt = mat.heat_capacity / dt
        den = cv_dt + 4.0 * quart * t3 + extra
        slope = c * co.kbar_e / den
        shift = -(quart * t3 * (4.0 * t_prev - 3.0 * t_star) + extra * (t_prev - t_star)) / den
        # the cell row adds the material energy change cv (T - T_prev)/dt,
        # which is the linearized absorption minus emission: the grey and
        # material balances exchange exactly the same energy
        e_c, e_v, e_h, f_v, f_h = self.system.solve(
            c, area / dt + cv_dt * area * slope,
            (area / dt) * self.e_prev_cell.ravel() - cv_dt * area * shift,
            co.vflux, co.hflux, -c * co.cbar, -c * co.cbar * co.e_in_total + co.f_in_total)
        return GreyState(
            temperature=(t_prev + (slope * e_c.ravel() + shift)).reshape(e_c.shape),
            e_cell=e_c, e_vface=e_v, e_hface=e_h, f_vface=f_v, f_hface=f_h,
            newton_iterations=1,
        )
