"""Low-order moment solvers: multigroup system, grey coefficients, grey problem.

Both levels solve the same E-only moment system over the unknowns
x = [E_cell, E_vface, E_hface] per group (multigroup) or in total (grey).
Each half-cell momentum balance, closed by the Eddington tensor, is solved
locally for its face-normal flux, which gives the one-sided expression

    F_j = p_j + (c / A_j) [ -s_j l_j d_face E_f + s_j l_j d_cell E_i
                            - l'_j / 2 (d_plus E_+ - d_minus E_-) ]

in the face, owning-cell and perpendicular-face energy densities.  A
vertical and a horizontal half cell differ only in which Eddington-tensor
entries their d read, so one half-cell table (mesh.build_adjacency) serves
both orientations.  Cell rows are the energy balances with these
expressions substituted; face rows sum
s_j F_j over the half cells of a face (flux continuity at interior faces)
and, at boundary faces, close it with -c C E_f (the boundary condition).
The levels differ only in coefficients: the multigroup level uses
d = f / (kappa + 1/(c dt)), with f the Eddington-tensor entry, and
p = F_prev / (1 + c dt kappa) per group; the effective grey problem uses
their spectrum averages, together with averaged absorption and emission
opacities and boundary factors, so that it is the exact group sum of the
multigroup scheme.  Both levels take their boundary rows in one form, a
diagonal -c C and a right-hand side -c C E_in + n.F_in: per group from the
inflow that MultigroupLoqdSolver keeps (gather), and in total from its
group sums (compute_grey_coefficients); c is MomentSystem's.  The four d
of an expression are stacked like its columns of x
(MomentSystem.flux_cols): a closure's entries are gathered through them
once per closure (MultigroupLoqdSolver.gather; once per step for the
reduced-order model, whose iterates change only kappa), the grey weights in
one take.  MomentSystem, one per mesh, holds the half-cell table, the
boundary-face table, the band layout and a geometry row of the constant
factors of every matrix entry, so that filling the matrix is one
concatenation of the d and one multiply; its one solve serves both levels
and returns the energies: face fluxes are recovered only for the accepted
iterate.  Each group is one banded LU in a row-interleaved order of the
unknowns (MomentSystem).  The grey system couples to the material energy
balance through the absorption and emission terms, linearized about the
outer temperature iterate: the emission through T^4, and the grey opacities
through their temperature derivatives (formed with the grey coefficients),
which carry the spectral shape that a temperature change would induce in
each cell's row.  The temperature is eliminated cell-by-cell, so the
coupling only adds to the cell diagonal and right-hand side, and the grey
level is one linear solve per outer iteration.

All face fluxes use the fixed +x / +y orientation; outward signs come from
the half-cell table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

from .materials import MaterialModel
from .mesh import SIDES, SpatialMesh, build_adjacency
from .transport import ClosureRecord


class SolverError(RuntimeError):
    """Failure of a moment-system solve."""


class DegenerateStateError(ValueError):
    """Zero denominator in a spectrum average."""


@dataclass
class MultigroupMoments:
    """Per-group cell/face energy densities and face fluxes (None until recovered)."""

    e_cell: np.ndarray   # (n_g, ny, nx)
    e_vface: np.ndarray  # (n_g, ny, nx+1)
    e_hface: np.ndarray  # (n_g, ny+1, nx)
    f_vface: np.ndarray | None = None  # (n_g, ny, nx+1), +x component
    f_hface: np.ndarray | None = None  # (n_g, ny+1, nx), +y component

    @classmethod
    def equilibrium(cls, planck: np.ndarray, system: MomentSystem,
                    light_speed: float) -> "MultigroupMoments":
        """Isotropic moments 4*pi*B/c with zero flux, B given per (g, cell) of the mesh."""
        if planck.shape[1:] != system.shape:
            raise ValueError(f"planck grid {planck.shape[1:]} is not the mesh's {system.shape}")
        if light_speed != system.light_speed:
            raise ValueError("light_speed differs from the moment system's")
        e_c = 4.0 * np.pi * planck / light_speed
        # a face between two cells takes their mean, a boundary face its cell's value
        e_v = np.concatenate([e_c[:, :, :1], 0.5 * (e_c[:, :, 1:] + e_c[:, :, :-1]),
                              e_c[:, :, -1:]], axis=2)
        e_h = np.concatenate([e_c[:, :1], 0.5 * (e_c[:, 1:] + e_c[:, :-1]), e_c[:, -1:]], axis=1)
        return cls(e_c, e_v, e_h, np.zeros_like(e_v), np.zeros_like(e_h))


@dataclass
class FluxCoeffs:
    """Per-half-cell one-sided flux coefficients and lag term; leading group axis or none."""

    d: np.ndarray  # (..., 4, n_half): multiplies E at MomentSystem.flux_cols
    p: np.ndarray  # (..., n_half): lagged previous-flux contribution


@dataclass
class GatheredClosure:
    """A closure as every multigroup solve with it reads it (MultigroupLoqdSolver.gather)."""

    record: ClosureRecord
    f: np.ndarray              # (n_g, 4, n_half) entries at MomentSystem.flux_cols
    boundary_diag: np.ndarray  # (n_g, n_bfaces): -c C
    boundary_rhs: np.ndarray   # (n_g, n_bfaces): -c C E_in + n.F_in


class MomentSystem:
    """Layout of the E-only moment system over x = [E_cell, E_vface, E_hface].

    The solve orders the unknowns row by row of the mesh: for mesh row j
    the hfaces below it, then the pairs (vface i, cell i), then the last
    vface; the top hfaces come last.  In that order every entry lies within
    kl = ku = 2 nx + 1 of the diagonal, so each group is one banded LU with
    partial pivoting (LAPACK dgbsv).  The half-cell table (one for both
    face orientations), the boundary-face table, the entries' (row, col)
    in the natural order, their band-storage slots, the position table and
    the flux expressions' geometry factors depend on the mesh and c only
    and are built here, once; both levels call solve() with a leading
    group axis or none.
    """

    def __init__(self, mesh: SpatialMesh, light_speed: float):
        self.mesh, self.light_speed = mesh, light_speed
        self.adj = adj = build_adjacency(mesh)
        nc, nv, nh = mesh.n_cells, mesh.n_vfaces, mesh.n_hfaces
        n = nc + nv + nh
        ny, nx = self.shape = (mesh.ny, mesh.nx)
        self.n_cells, self.n_vfaces, self.n_unknowns = nc, nv, n
        # boundary faces in the side order of mesh.SIDES (left, bottom,
        # right, top): each face's index into SIDES, its global face id
        # (vfaces first) and its unknown, the row and column of its term
        self.boundary_side = np.repeat(np.arange(len(SIDES)), (ny, nx, ny, nx))
        left, bottom = (nx + 1) * np.arange(ny), nv + np.arange(nx)
        self.boundary_face = np.concatenate([left, bottom, left + nx, bottom + ny * nx])
        self.boundary_cols = brow = nc + self.boundary_face
        # columns of the face, cell, + and - perpendicular-face entries of
        # each one-sided flux expression: x holds the faces after the cells,
        # in the global face order
        self.flux_cols = np.stack([nc + adj.face, adj.cell, nc + adj.cross_plus,
                                   nc + adj.cross_minus])
        # the expressions' weights of x[flux_cols] are P Q d, P = (c/A)
        # (-s, s, -l'/2, l'/2) and Q = (l, l, 1, 1), added to cell rows
        # times s l and to face rows times s: the geometry row holds these
        # constant factors of fill()'s entries, rhs_factors those of its p
        self.area = mesh.cell_area.ravel()
        k, sl = light_speed / adj.half_area, adj.sign * adj.face_len
        self._pq = np.stack([-k * sl, k * sl, -k * 0.5 * adj.cross_len, k * 0.5 * adj.cross_len])
        cell_ones, boundary_ones = np.ones(nc), np.ones(brow.size)
        self._row = np.concatenate([cell_ones, (sl * self._pq).ravel(),
                                    (adj.sign * self._pq).ravel(), boundary_ones])
        self._rhs_factors = np.concatenate([cell_ones, -sl, -adj.sign, boundary_ones])
        cells, face_rows = np.arange(nc), nc + adj.face
        # entry order of fill(): cell diagonal; the flux expressions in the
        # cell rows, then in the face rows; boundary terms
        self.rows = np.concatenate([cells, np.tile(adj.cell, 4), np.tile(face_rows, 4), brow])
        self.cols = np.concatenate([cells, self.flux_cols.ravel(), self.flux_cols.ravel(), brow])
        # band position of each unknown: cells, vfaces, hfaces of mesh row j
        # at j * stride + (nx + 2i + 1, nx + 2i, i); a permutation, whose
        # inverse gives the unknown at each band position
        stride = 3 * nx + 1
        jc, ic = np.divmod(cells, nx)
        jv, iv = np.divmod(np.arange(nv), nx + 1)
        jh, ih = np.divmod(np.arange(nh), nx)
        self.pos = np.concatenate([jc * stride + nx + 2 * ic + 1,
                                   jv * stride + nx + 2 * iv, jh * stride + ih])
        self.band_order = np.empty_like(self.pos)
        self.band_order[self.pos] = np.arange(n)
        r, c = self.pos[self.rows], self.pos[self.cols]
        self.kl, self.ku = int(np.max(r - c)), int(np.max(c - r))
        # LAPACK band storage AB(kl + ku + r - c, c), column-major, ldab rows
        self.ldab = 2 * self.kl + self.ku + 1
        self.slot = self.kl + self.ku + r - c + self.ldab * c
        self.rhs_rows = np.concatenate([cells, adj.cell, face_rows, brow])
        self.face_count = np.bincount(adj.face, minlength=nv + nh)
        # _scatter()'s index tables and bin counts; bins per leading shape on first use
        self._tables = {"rows": (self.rows, n), "rhs_rows": (self.rhs_rows, n),
                        "slot": (self.slot, n * self.ldab), "face": (adj.face, nv + nh)}
        self._bins = {}

    def _scatter(self, table: str, values: np.ndarray) -> np.ndarray:
        """Sum values (..., len(index)) into (..., size) bins of an index table, in input order."""
        lead = values.shape[:-1]
        if (table, lead) not in self._bins:
            (index, size), n = self._tables[table], values.size // values.shape[-1]
            self._bins[table, lead] = ((index + size * np.arange(n)[:, None]).ravel(), n * size)
        bins, length = self._bins[table, lead]
        return np.bincount(bins, values.ravel(), minlength=length).reshape(lead + (-1,))

    def fill(self, cell_diag, cell_rhs, flux: FluxCoeffs, boundary_diag, boundary_rhs):
        """Entry values (..., len(rows)) and right-hand side (..., n).

        Entry k adds its value at (rows[k], cols[k]) of the natural order.

        cell_diag/cell_rhs are (..., n_cells); boundary_diag/boundary_rhs are
        (..., n_bfaces), in the order of boundary_face.
        """
        d = flux.d.reshape(np.shape(cell_diag)[:-1] + (-1,))
        vals = np.concatenate([cell_diag, d, d, boundary_diag], axis=-1)
        vals *= self._row
        rhs = np.concatenate([cell_rhs, flux.p, flux.p, boundary_rhs], axis=-1)
        rhs *= self._rhs_factors
        return vals, self._scatter("rhs_rows", rhs)

    def natural(self, state) -> np.ndarray:
        """x (..., n) of a state's e_cell/e_vface/e_hface grids: energies()' inverse."""
        lead = state.e_cell.shape[:-2]
        return np.concatenate([e.reshape(lead + (-1,)) for e in
                               (state.e_cell, state.e_vface, state.e_hface)], axis=-1)

    def _face_grids(self, v: np.ndarray):
        """(vface, hface) grids of values (..., n_vfaces + n_hfaces) in the global face order."""
        ny, nx = self.shape
        lead, nv = v.shape[:-1], self.n_vfaces
        return v[..., :nv].reshape(lead + (ny, nx + 1)), v[..., nv:].reshape(lead + (ny + 1, nx))

    def face_fluxes(self, state, flux: FluxCoeffs):
        """(F_vface, F_hface) grids of a state's energies, averaged over half cells.

        Raises SolverError for a non-finite flux, naming the group.
        """
        x = self.natural(state)
        f = flux.p + (self._pq * flux.d * x.take(self.flux_cols, axis=-1)).sum(axis=-2)
        faces = self._scatter("face", f) / self.face_count
        _require_finite(faces, x.shape[:-1], "flux recovery")
        return self._face_grids(faces)

    def energies(self, x: np.ndarray):
        """(E_cell, E_vface, E_hface) grids, keeping any leading axis."""
        nc = self.n_cells
        return (x[..., :nc].reshape(x.shape[:-1] + self.shape), *self._face_grids(x[..., nc:]))

    def solve(self, cell_diag, cell_rhs, flux: FluxCoeffs, boundary_diag, boundary_rhs):
        """(E_cell, E_vface, E_hface) grids of fill()'s system.

        Takes fill()'s arguments and keeps their leading group axis, if any;
        each group is one banded LU in the band order.  Raises SolverError
        for a singular matrix or a non-finite solution, naming the group.
        """
        vals, b = self.fill(cell_diag, cell_rhs, flux, boundary_diag, boundary_rhs)
        lead, n = b.shape[:-1], self.n_unknowns
        # unit row 1-norms: where cold, opaque cells make the row scales
        # span many decades, unscaled pivoting lost all accuracy
        scale = 1.0 / np.maximum(self._scatter("rows", np.abs(vals)), np.finfo(float).tiny)
        vals *= scale.take(self.rows, axis=-1)
        band = self._scatter("slot", vals).reshape(-1, n, self.ldab)
        b *= scale
        xb = b.reshape(-1, n).take(self.band_order, axis=1)
        for g, ab in enumerate(band):
            # ab.T is the Fortran-ordered band storage itself: no copy
            _, _, xb[g], info = dgbsv(self.kl, self.ku, ab.T, xb[g],
                                      overwrite_ab=1, overwrite_b=1)
            if info:
                where = f" in group {g}" if lead else ""
                raise SolverError(f"moment-system matrix is singular{where} (dgbsv info {info})")
        x = xb.take(self.pos, axis=1).reshape(b.shape)
        _require_finite(x, lead, "solve")
        return self.energies(x)


def _require_finite(x: np.ndarray, lead: tuple, what: str):
    """Raise SolverError if x (..., n) holds a non-finite value, naming its group."""
    finite = np.isfinite(x).all(-1)
    if not finite.all():
        where = f" in group {int(np.argmin(finite))}" if lead else ""
        raise SolverError(f"moment-system {what} returned non-finite values{where}")


def group_flux_coeffs(closure: GatheredClosure, kappa2: np.ndarray, prev: MultigroupMoments,
                      dt: float, system: MomentSystem) -> FluxCoeffs:
    """Per-group flux coefficients of every half cell; d is (n_g, 4, n_half).

    d = f / kappa_tilde with kappa_tilde = kappa + 1/(c dt) of the owning
    cell and f the closure entry at each column of the expression, and
    p = F_prev / (1 + c dt kappa); kappa2 is (n_g, n_cells).
    """
    cdt = system.light_speed * dt
    cells = system.adj.cell
    kappa_tilde = (kappa2 + 1.0 / cdt).take(cells, axis=1)[:, None]
    lag = (1.0 + cdt * kappa2).take(cells, axis=1)
    n_g = kappa2.shape[0]
    # the previous face fluxes in the global face order, vfaces first
    f_prev = np.concatenate([prev.f_vface.reshape(n_g, -1), prev.f_hface.reshape(n_g, -1)], axis=1)
    return FluxCoeffs(closure.f / kappa_tilde, f_prev.take(system.adj.face, axis=1) / lag)


class MultigroupLoqdSolver:
    """Direct solver for the per-group E-only moment systems.

    Face fluxes follow from the one-sided expressions, for the accepted
    iterate (MomentSystem.face_fluxes with the returned coefficients).
    """

    def __init__(self, system: MomentSystem, e_in: np.ndarray, f_in: np.ndarray):
        self.system = system
        self.e_in = e_in  # (n_g, n_bfaces)
        self.f_in = f_in
        self.e_in_total, self.f_in_total = e_in.sum(axis=0), f_in.sum(axis=0)
        self.n_unknowns = n = system.n_unknowns  # per group
        # gather() lays a closure's entries out like x twice: the vertical
        # half cells (west, east: the first half) read (fxx_c, fxx_v, fxy_h),
        # the horizontal ones (fyy_c, fxy_v, fyy_h)
        half = 2 * system.n_cells
        self._entry_cols = system.flux_cols + n * (np.arange(2 * half) >= half)

    def gather(self, closure: ClosureRecord) -> GatheredClosure:
        """The closure as it is now; only kappa changes between solves that share it."""
        n_g, c = self.e_in.shape[0], self.system.light_speed
        cb = closure.cb.reshape(n_g, -1)
        entries = np.concatenate([e.reshape(n_g, -1) for e in (
            closure.fxx_c, closure.fxx_v, closure.fxy_h,
            closure.fyy_c, closure.fxy_v, closure.fyy_h)], axis=1)
        return GatheredClosure(closure, entries.take(self._entry_cols, axis=1),
                               -c * cb, -c * cb * self.e_in + self.f_in)

    def solve(self, closure: GatheredClosure, kappa: np.ndarray, planck: np.ndarray,
              prev: MultigroupMoments, dt: float):
        """Direct solve of every group system for a gather()ed closure; kappa/planck (n_g, ny, nx).

        Groups are independent; MomentSystem.solve factors each in turn.
        Returns the moments and the per-group flux coefficients, which the
        grey coefficients average.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        system = self.system
        n_g, c, area = kappa.shape[0], system.light_speed, system.area
        kappa2 = kappa.reshape(n_g, -1)
        flux = group_flux_coeffs(closure, kappa2, prev, dt, system)
        moments = MultigroupMoments(*system.solve(
            area / dt + c * kappa2 * area,
            (area / dt) * prev.e_cell.reshape(n_g, -1)
            + 4.0 * np.pi * kappa2 * planck.reshape(n_g, -1) * area,
            flux, closure.boundary_diag, closure.boundary_rhs))
        return moments, flux


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
    boundary_diag: np.ndarray  # (n_bfaces,): -c Cbar
    boundary_rhs: np.ndarray   # (n_bfaces,): -c Cbar E_in + n.F_in, both group sums
    flux: FluxCoeffs


def _weighted_mean(values, weights, den, what: str) -> np.ndarray:
    """sum(values * weights) / den over the leading (group) axis; den = sum(weights)."""
    if not den.all():
        loc = tuple(int(i) for i in np.unravel_index(np.argmin(np.abs(den)), den.shape))
        raise DegenerateStateError(f"zero denominator averaging {what} at index {loc}")
    return (values * weights).sum(axis=0) / den


def compute_grey_coefficients(mg: MultigroupMoments, kappa: np.ndarray, planck: np.ndarray,
                              dkappa: np.ndarray, dplanck: np.ndarray,
                              closure: ClosureRecord,
                              group_flux: FluxCoeffs,
                              solver: MultigroupLoqdSolver, dt: float) -> SpectrumAveraged:
    """Spectrum averages over the multigroup solution, and their T-derivatives.

    kappa/planck and their T-derivatives dkappa/dplanck are (n_g, ny, nx) at
    the outer iterate; group_flux holds the per-group flux coefficients of
    `solver`.solve.  The grey boundary terms are
    the multigroup level's with the group sums of `solver`'s inflow and the
    boundary factor averaged over E_g - E_in,g, which falls back to the
    unweighted mean where its denominator is below 1e-30 of the local energy
    density.  The group energies respond to T through their own cell rows,
    transport held fixed: dE_g/dT = [4 pi (kappa' B + kappa B') - c kappa' E_g]
    / (1/dt + c kappa); then d kbar_e/dT = [sum kappa' E_g + sum (kappa -
    kbar_e) dE_g/dT] / sum E_g, and likewise d kbar_b/dT over the B_g (linear
    multifrequency-grey acceleration, Morel, Larsen & Matzen, JQSRT 34, 1985).
    """
    system = solver.system
    light_speed, n_g = system.light_speed, kappa.shape[0]
    kap2, b2, e_c = (a.reshape(n_g, -1) for a in (kappa, planck, mg.e_cell))
    # the group energies in the natural order: x at a flux expression's
    # columns weighs its d, and at boundary_cols the boundary factors
    x_mg = system.natural(mg)
    x_sum = x_mg.sum(axis=0)

    e_sum, b_sum = e_c.sum(axis=0), b2.sum(axis=0)
    kbar_e = _weighted_mean(kap2, e_c, e_sum, "absorption opacity")
    kbar_b = _weighted_mean(kap2, b2, b_sum, "emission opacity")

    dkap, db = dkappa.reshape(n_g, -1), dplanck.reshape(n_g, -1)
    de = (4.0 * np.pi * (dkap * b2 + kap2 * db) - light_speed * dkap * e_c) \
        / (1.0 / dt + light_speed * kap2)
    dkbar_e = ((dkap * e_c).sum(axis=0) + ((kap2 - kbar_e) * de).sum(axis=0)) / e_sum
    dkbar_b = ((dkap * b2).sum(axis=0) + ((kap2 - kbar_b) * db).sum(axis=0)) / b_sum

    # boundary factor average with the 0/0 guard at near-equilibrium walls
    e_bf = x_mg.take(system.boundary_cols, axis=1)
    cb = closure.cb.reshape(n_g, -1)
    diff = e_bf - solver.e_in
    den, num = diff.sum(axis=0), (cb * diff).sum(axis=0)
    guarded = np.abs(den) < 1e-30 * x_sum.take(system.boundary_cols)
    cbar = np.where(guarded, cb.mean(axis=0), num / np.where(guarded, 1.0, den))

    cols = system.flux_cols
    flux = FluxCoeffs(_weighted_mean(group_flux.d, x_mg.take(cols, axis=1), x_sum.take(cols),
                                     "flux coefficient"), group_flux.p.sum(axis=0))
    diag = -light_speed * cbar
    return SpectrumAveraged(kbar_e, kbar_b, dkbar_e, dkbar_b, e_sum, diag,
                            diag * solver.e_in_total + solver.f_in_total, flux)


# ---------------------------------------------------------------------------
# effective grey problem
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class GreyState(MultigroupMoments):
    """Grey unknowns for one time level: the moments' grids, no group axis, and T."""

    temperature: np.ndarray  # (ny, nx)
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
        area = self.system.area
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
        e_c, e_v, e_h = self.system.solve(
            area / dt + cv_dt * area * slope,
            (area / dt) * self.e_prev_cell.ravel() - cv_dt * area * shift,
            co.flux, co.boundary_diag, co.boundary_rhs)
        return GreyState(
            temperature=(t_prev + (slope * e_c.ravel() + shift)).reshape(e_c.shape),
            e_cell=e_c, e_vface=e_v, e_hface=e_h, newton_iterations=1,
        )
