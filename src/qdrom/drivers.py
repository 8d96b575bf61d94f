"""Time-stepping drivers: full-order model, reduced-order model, snapshots.

Both drivers advance the same multilevel loop per step: update opacities and
emission from the current temperature iterate, obtain closures, solve the
multigroup moment system, average it to grey coefficients, then solve the
coupled grey/material-energy problem for the next temperature iterate.  The
full-order model refreshes closures from a transport sweep every iteration;
the reduced-order model reconstructs them once per step from compressed
data and never touches the transport grid.

The outer iteration is a fixed point of the map T_it -> grey temperature.
Both drivers accelerate it by Anderson mixing of the temperature iterate
(depth `ANDERSON_DEPTH`, history reset every step): the first iterate of a
step is the plain update, and a mixed iterate with a non-positive cell
temperature falls back to the plain update.  The change test and the
accepted state are those of the unmixed grey solve.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .loqd import (
    GreyProblem,
    MultigroupLoqdSolver,
    MultigroupMoments,
    ProblemGeometry,
    compute_grey_coefficients,
    incoming_tables,
)
from .lowrank import ClosureModel, SnapshotMatrix
from .materials import FrequencyGrid, MaterialModel, planck_spectrum
from .mesh import SIDES, SpatialMesh
from .quadrature import build_quadrature
from .transport import BoundarySpec, ClosureRecord, TransportSolver


class DriverError(RuntimeError):
    """Outer iteration failure; carries the change history."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


#: floor applied to the sweep emission source and initial intensity.  At
#: cold-start temperatures the Planck emission of high-frequency groups
#: underflows to exactly zero (its true value can be ~1e-600), which would
#: leave outgoing boundary currents identically zero and the closure ratios
#: undefined.  The floor is ~1e-110 below any physical signal in the
#: supported configurations and keeps intensities representable.
INTENSITY_SEED = 1e-125

#: past residual differences combined by the Anderson mixing of the outer
#: iterate.  The wave-front opacity makes the plain (Picard) update contract
#: at ~0.88 per iteration; depth 10 cuts the desk FOM steps 1-2 from 230/199
#: to 62/50 iterations, and depth 20 was no better.  0 is the plain update.
ANDERSON_DEPTH = 10


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0 or self.n_steps < 1:
            raise ValueError("need dt > 0 and n_steps >= 1")

    @property
    def times(self) -> np.ndarray:
        """Time levels t^1 .. t^{N_t} (the recorded steps)."""
        return self.t0 + self.dt * np.arange(1, self.n_steps + 1)


SNAPSHOT_NAMES = ("fxx_c", "fxx_v", "fyy_c", "fyy_h", "fxy_v", "fxy_h", "cb")


def closure_unknowns(nx: int, ny: int, n_groups: int) -> int:
    """Closure degrees of freedom per step: 2 (D_v + D_h + D_c) N_g."""
    d_c = nx * ny
    d_v = (nx + 1) * ny
    d_h = nx * (ny + 1)
    return 2 * (d_v + d_h + d_c) * n_groups


def stack_closure(c: ClosureRecord) -> dict:
    """Flatten a closure record into the seven snapshot vectors.

    Rows are group-major; grids flatten row-major (y outer); boundary
    factors keep the boundary-face order (sides left, bottom, right, top)
    within each group.
    """
    return {
        "fxx_c": c.fxx_cell.ravel(),
        "fxx_v": c.fxx_vface.ravel(),
        "fyy_c": c.fyy_cell.ravel(),
        "fyy_h": c.fyy_hface.ravel(),
        "fxy_v": c.fxy_vface.ravel(),
        "fxy_h": c.fxy_hface.ravel(),
        "cb": c.cb.ravel(),
    }


def unstack_closure(vectors: dict, nx: int, ny: int, n_groups: int) -> ClosureRecord:
    """Inverse of stack_closure for one time step."""
    v = {k: np.asarray(vectors[k], dtype=float) for k in SNAPSHOT_NAMES}
    return ClosureRecord(
        fxx_cell=v["fxx_c"].reshape(n_groups, ny, nx),
        fyy_cell=v["fyy_c"].reshape(n_groups, ny, nx),
        fxx_vface=v["fxx_v"].reshape(n_groups, ny, nx + 1),
        fxy_vface=v["fxy_v"].reshape(n_groups, ny, nx + 1),
        fyy_hface=v["fyy_h"].reshape(n_groups, ny + 1, nx),
        fxy_hface=v["fxy_h"].reshape(n_groups, ny + 1, nx),
        cb=v["cb"].reshape(n_groups, 2 * (nx + ny)),
    )


def snapshot_layout(name: str, config: RunConfig) -> dict:
    grids = {"fxx_c": "cell", "fyy_c": "cell", "fxx_v": "vface", "fxy_v": "vface",
             "fyy_h": "hface", "fxy_h": "hface", "cb": "boundary"}
    return {
        "quantity": name,
        "grid": grids[name],
        "nx": config.nx,
        "ny": config.ny,
        "n_groups": config.n_groups,
        "stacking": "group-major; grids row-major y-outer; boundary sides L,B,R,T",
    }


@dataclass
class Problem:
    """Configuration bound to its solver components."""

    config: RunConfig
    geom: ProblemGeometry
    grid: FrequencyGrid
    material: MaterialModel
    transport: TransportSolver
    mg_solver: MultigroupLoqdSolver


def build_problem(config: RunConfig) -> Problem:
    mesh = SpatialMesh.uniform(config.nx, config.ny, config.dx, config.dy)
    geom = ProblemGeometry.build(mesh)
    grid = FrequencyGrid(np.asarray(config.group_bounds, dtype=float))
    material = MaterialModel(
        heat_capacity=config.heat_capacity,
        opacity_coeff=config.opacity_coeff,
        opacity_exponent=config.opacity_exponent,
        stimulated_correction=config.stimulated_correction,
        light_speed=config.light_speed,
        radiation_constant=config.radiation_constant,
    )
    quad = build_quadrature(config.quadrature)
    sides = []
    for name in SIDES:
        T_in = getattr(config, f"boundary_{name}")
        if T_in is None:
            sides.append(np.zeros(grid.n_groups))
        else:
            sides.append(np.asarray(planck_spectrum(
                T_in, grid, radiation_constant=material.radiation_constant,
                light_speed=material.light_speed)))
    transport = TransportSolver(mesh, quad, grid, material, BoundarySpec(*sides))
    e_in, f_in = incoming_tables(geom, transport.incoming_moments())
    mg_solver = MultigroupLoqdSolver(geom, grid, material, e_in, f_in)
    return Problem(config, geom, grid, material, transport, mg_solver)


@dataclass
class RunRecord:
    """Per-step grey state, closures and iteration diagnostics."""

    time: TimeGrid
    mode: str
    config_meta: dict
    temperature: np.ndarray    # (n_steps, ny, nx)
    e_cell: np.ndarray         # (n_steps, ny, nx)
    e_vface: np.ndarray
    e_hface: np.ndarray
    f_vface: np.ndarray
    f_hface: np.ndarray
    closures: list = field(default_factory=list)
    iterations: np.ndarray = None
    final_change: np.ndarray = None
    negative_corners: np.ndarray = None
    closure_violations: np.ndarray = None
    positivity_violations: int = 0

    @property
    def n_steps(self) -> int:
        return self.temperature.shape[0]


def _spectral_fields(p: Problem, T: np.ndarray):
    kappa = np.moveaxis(p.material.group_opacity(T, p.grid), -1, 0)
    planck = np.moveaxis(planck_spectrum(
        T, p.grid, radiation_constant=p.material.radiation_constant,
        light_speed=p.material.light_speed), -1, 0)
    return np.ascontiguousarray(kappa), np.ascontiguousarray(planck)


def _anderson_update(pairs, depth: int) -> np.ndarray:
    """Type-II Anderson update of a fixed-point iteration x -> g(x).

    `pairs` holds the latest (x, g(x)) pairs, oldest first.  With residuals
    f = g - x, the update is g_k - dG gamma, where gamma minimises
    |f_k - dF gamma|_2 over the differences of the last `depth` + 1 pairs
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  Returns g_k itself when
    only one pair is usable, or when the update has a component <= 0.
    """
    g_k = pairs[-1][1]
    m = min(depth, len(pairs) - 1)
    if m == 0:
        return g_k
    recent = list(pairs)[-m - 1:]
    xs = np.array([x.ravel() for x, _ in recent])
    gs = np.array([g.ravel() for _, g in recent])
    f = gs - xs
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    mixed = (gs[-1] - np.diff(gs, axis=0).T @ gamma).reshape(g_k.shape)
    return mixed if np.all(mixed > 0.0) else g_k


def _advance_step(p: Problem, mg_prev: MultigroupMoments, t_prev: np.ndarray,
                  closures, norm_ord, warm_x):
    """Iterate the multilevel loop for one time step until fixed point.

    The step is accepted once the change of T and of E between outer
    iterates, in the vector norm of order `norm_ord`, is within
    outer_tol * |new| + outer_floor.  The change test sees the unmixed grey
    solution; only the next temperature iterate is Anderson-mixed.
    """
    cfg = p.config
    tol, floor = cfg.outer_tol, cfg.outer_floor

    def ratio(new, old):
        return np.linalg.norm((new - old).ravel(), norm_ord) \
            / (tol * np.linalg.norm(new.ravel(), norm_ord) + floor)

    e_prev_tot = mg_prev.e_cell.sum(axis=0)
    T_it = t_prev
    E_it = e_prev_tot
    grey_x = warm_x
    history = []
    pairs = deque(maxlen=ANDERSON_DEPTH + 1)
    for it in range(cfg.max_outer):
        kappa, planck = _spectral_fields(p, T_it)
        closure, extra = closures(T_it, kappa, planck)
        mg, group_flux = p.mg_solver.solve(closure, kappa, planck, mg_prev, cfg.dt)
        coeffs = compute_grey_coefficients(mg, kappa, planck, closure, group_flux, p.geom,
                                           p.mg_solver.e_in, p.mg_solver.f_in)
        grey_problem = GreyProblem(p.geom, coeffs, p.material, cfg.dt,
                                   e_prev_tot, t_prev,
                                   newton_tol=cfg.newton_tol,
                                   max_newton=cfg.max_newton)
        if grey_x is None:
            grey_x = np.concatenate([
                e_prev_tot.ravel(),
                mg_prev.e_vface.sum(axis=0).ravel(),
                mg_prev.e_hface.sum(axis=0).ravel(),
            ])
        grey = grey_problem.solve(grey_x)
        grey_x = np.concatenate([grey.e_cell.ravel(), grey.e_vface.ravel(),
                                 grey.e_hface.ravel()])
        change = max(ratio(grey.temperature, T_it), ratio(grey.e_cell, E_it))
        history.append(change)
        if change <= 1.0:
            return grey, mg, closure, extra, it + 1, history, grey_x
        pairs.append((T_it, grey.temperature))
        T_it = _anderson_update(pairs, ANDERSON_DEPTH)
        E_it = grey.e_cell
    raise DriverError(
        f"no convergence in {cfg.max_outer} iterations (last change ratio "
        f"{history[-1]:.3e})", history)


def _initial_state(p: Problem):
    cfg = p.config
    T0 = np.full((cfg.ny, cfg.nx), cfg.t_initial)
    _, planck0 = _spectral_fields(p, T0)
    mg0 = MultigroupMoments.equilibrium(planck0, p.geom, p.material.light_speed)
    return T0, mg0


def _empty_record(p: Problem, mode: str) -> RunRecord:
    cfg = p.config
    nt, ny, nx = cfg.n_steps, cfg.ny, cfg.nx
    return RunRecord(
        time=TimeGrid(0.0, cfg.dt, nt), mode=mode, config_meta=cfg.to_dict(),
        temperature=np.empty((nt, ny, nx)), e_cell=np.empty((nt, ny, nx)),
        e_vface=np.empty((nt, ny, nx + 1)), e_hface=np.empty((nt, ny + 1, nx)),
        f_vface=np.empty((nt, ny, nx + 1)), f_hface=np.empty((nt, ny + 1, nx)),
        iterations=np.zeros(nt, dtype=int), final_change=np.zeros(nt),
        negative_corners=np.zeros(nt, dtype=int),
        closure_violations=np.zeros(nt, dtype=int),
    )


def _store_step(rec: RunRecord, n: int, grey, closure, extra, iters, history):
    rec.temperature[n] = grey.temperature
    rec.e_cell[n] = grey.e_cell
    rec.e_vface[n] = grey.e_vface
    rec.e_hface[n] = grey.e_hface
    rec.f_vface[n] = grey.f_vface
    rec.f_hface[n] = grey.f_hface
    rec.closures.append(closure)
    rec.iterations[n] = iters
    rec.final_change[n] = history[-1]
    rec.negative_corners[n] = extra
    viol = closure.bound_violations()
    rec.closure_violations[n] = viol["tensor"] + viol["boundary_factor"]
    if np.any(grey.temperature <= 0.0) or np.any(grey.e_cell <= 0.0):
        rec.positivity_violations += 1
        warnings.warn(f"nonpositive temperature or energy density at step {n + 1}")


def _run(p: Problem, mode: str, closures_for_step, norm_ord, log) -> RunRecord:
    """The time-step loop of both drivers.

    `closures_for_step(n)` returns the closure source of 0-based step n, a
    function (T, kappa, planck) -> (closure, negative-corner count) that the
    outer iteration calls once per iterate; `norm_ord` is the vector norm of
    the change test.
    """
    cfg = p.config
    T_prev, mg_prev = _initial_state(p)
    rec = _empty_record(p, mode)
    warm_x = None
    for n in range(cfg.n_steps):
        closures = closures_for_step(n)
        try:
            grey, mg, closure, extra, iters, history, warm_x = _advance_step(
                p, mg_prev, T_prev, closures, norm_ord, warm_x)
        except DriverError as err:
            raise DriverError(f"{mode.upper()} step {n + 1}: {err}", err.history) from err
        mg_prev = mg
        T_prev = grey.temperature
        _store_step(rec, n, grey, closure, extra, iters, history)
        if log is not None:
            log(n + 1, iters, history[-1])
    return rec


def run_fom(config: RunConfig | Problem, log=None) -> RunRecord:
    """Full-order run: a transport sweep in every iteration; max-norm change test."""
    p = config if isinstance(config, Problem) else build_problem(config)
    dt = p.config.dt
    latest = {"I": np.maximum(p.transport.equilibrium_intensity(p.config.t_initial),
                              INTENSITY_SEED)}

    def sweep_closures(n):
        # the last sweep of the previous step, which was accepted
        I_prev = latest["I"]

        def closures(T_it, kappa, planck):
            I_new = p.transport.sweep(kappa, np.maximum(planck, INTENSITY_SEED),
                                      I_prev, dt)
            latest["I"] = I_new
            return p.transport.compute_eddington(I_new), int(np.sum(I_new < 0.0))
        return closures

    return _run(p, "fom", sweep_closures, np.inf, log)


def run_rom(config: RunConfig | Problem, models: dict, log=None) -> RunRecord:
    """Reduced-order run: closures reconstructed once per step; 2-norm change test."""
    p = config if isinstance(config, Problem) else build_problem(config)
    cfg = p.config
    missing = [k for k in SNAPSHOT_NAMES if k not in models]
    if missing:
        raise ValueError(f"missing closure models: {missing}")

    def reconstructed_closures(n):
        vectors = {}
        for name in SNAPSHOT_NAMES:
            vec = models[name].reconstruct(n + 1)
            if not np.all(np.isfinite(vec)):
                raise DriverError(f"model '{name}' produced non-finite values at step {n + 1}")
            vectors[name] = vec
        closure = unstack_closure(vectors, cfg.nx, cfg.ny, cfg.n_groups)
        return lambda T_it, kappa, planck: (closure, 0)

    return _run(p, "rom", reconstructed_closures, 2, log)


def record_snapshots(run: RunRecord) -> dict:
    """Assemble the seven snapshot matrices from a completed run."""
    if len(run.closures) != run.time.n_steps:
        raise ValueError("run record does not hold one closure per step")
    cfg = RunConfig.from_dict(run.config_meta)
    columns = {name: [] for name in SNAPSHOT_NAMES}
    for closure in run.closures:
        vecs = stack_closure(closure)
        for name in SNAPSHOT_NAMES:
            columns[name].append(vecs[name])
    out = {}
    for name in SNAPSHOT_NAMES:
        data = np.stack(columns[name], axis=1)
        out[name] = SnapshotMatrix(name, data, snapshot_layout(name, cfg),
                                   t0=run.time.t0, dt=run.time.dt)
    return out


def playback_models(matrices: dict) -> dict:
    """Identity-playback models for every snapshot matrix (testing aid).

    Each is the snapshot data as basis with identity coefficients, so step n
    reconstructs stored column n exactly.
    """
    models = {}
    for name in SNAPSHOT_NAMES:
        m = matrices[name]
        models[name] = ClosureModel(name, np.zeros(m.data.shape[0]), m.data,
                                    np.eye(m.n_steps), np.empty(0), 0.0,
                                    m.layout, m.t0, m.dt)
    return models
