"""Time-stepping drivers: full-order model, reduced-order model, snapshots.

Both drivers solve each step with the same low-order loop for a given
closure: evaluate the opacities, the emission and their temperature
derivatives at the current temperature iterate in one pass, solve the
multigroup moment system, average it to grey coefficients, then solve the
coupled grey/material-energy problem for the next temperature iterate.
The grey level is one linear solve, linearized about the current iterate:
the emission through T^4, and the grey opacities through their
temperature derivatives, which include the spectral shape that a
temperature change would induce in each cell's multigroup row (linear
multifrequency-grey acceleration).  Without them the grey solve lags the
multigroup spectrum, the loop's slow mode.  Every Newton term vanishes at
the fixed point, so the linearization is exact there.  Each iterate takes
its closure from a source evaluated at the iterate's spectral fields.  The
reduced-order model's source is the closure it reconstructs once per step
from compressed data, so it never touches the transport grid.  The
full-order model's source is a transport sweep at the iterate's
temperature, from the intensity of the previous step: one sweep per
low-order solve, and the step's closure is that of its last sweep.

The low-order loop is a fixed point of the map T_it -> grey temperature,
accelerated by Anderson mixing of the temperature iterate (depth
`ANDERSON_DEPTH`, history reset for every step): the first iterate is the
plain update, and a mixed iterate with a non-positive cell temperature
falls back to the plain update.  The change test and the accepted state
are those of the unmixed grey solve.

Both models stop on the relative change of T and E in the 2-norm
(`_change_ratio`).  The full-order model stops at `outer_tol`.  The
reduced-order model stops at the tolerance its closure models warrant,
derived once per run (`rom_tolerance`): `ROM_STOP_FRACTION` times the
smallest positive singular-value energy fraction the models discard, and
never below `outer_tol`.  Its run record states that tolerance as
`config_meta["outer_tol"]`.
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .loqd import (
    GreyProblem,
    GreyState,
    MomentSystem,
    MultigroupLoqdSolver,
    MultigroupMoments,
    compute_grey_coefficients,
)
from .lowrank import ClosureModel, SnapshotMatrix
from .materials import FrequencyGrid, MaterialModel, planck_spectrum, planck_spectrum_slope
from .mesh import SIDES, SpatialMesh, grid_shape
from .quadrature import build_quadrature
from .transport import ClosureRecord, TransportSolver


class DriverError(RuntimeError):
    """A time step that does not converge, or unusable closure data."""


class ModelMismatchError(ValueError):
    """A closure model that does not fit the run; `snapshot` names its snapshot."""

    def __init__(self, snapshot: str, message: str):
        super().__init__(message)
        self.snapshot = snapshot


#: floor applied to the sweep emission source and initial intensity.  At
#: cold-start temperatures the Planck emission of high-frequency groups
#: underflows to exactly zero (its true value can be ~1e-600), which would
#: leave outgoing boundary currents identically zero and the closure ratios
#: undefined.  The floor is ~1e-110 below any physical signal in the
#: supported configurations and keeps intensities representable.
INTENSITY_SEED = 1e-125

#: past residual differences combined by the Anderson mixing of the outer
#: iterate.  On desk steps 1-2 depth 10 takes 9/10 low-order solves against
#: 12/16 for the plain (Picard) update on the POD ROM (xi 1e-6), and 11/10
#: against 22/16 on the FOM.  0 is the plain update.
ANDERSON_DEPTH = 10

#: the ROM's loop stops at a relative change of this fraction of the
#: smallest positive discarded fraction of its closure models (never below
#: `outer_tol`): iterating further resolves the fixed point of closures
#: that are already wrong by more.  On the desk POD ROM at xi 1e-6 the stop
#: is 5.2e-10, steps 1-2 take 7/8 low-order solves instead of 9/10, and 50
#: steps take ~402 instead of 574; each largest T error of POD, DMD and
#: DMD-E at xi 1e-2 .. 1e-10 over 50 desk steps keeps its two figures
#: (POD xi 1e-6 moves most, 1.77e-9 -> 1.81e-9).  A fraction of 1e-2 moved
#: POD xi 1e-4 from 4.0e-7 to 5.9e-7.
ROM_STOP_FRACTION = 1e-3

#: relative difference below which two time steps, or two time levels, are
#: the same: closures recorded at one dt do not describe a run at another
TIME_RTOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.dt) and self.dt > 0.0
                and self.n_steps >= 1):
            raise ValueError("need a finite t0, a finite dt > 0 and n_steps >= 1")

    @property
    def times(self) -> np.ndarray:
        """Time levels t^1 .. t^{N_t} (the recorded steps)."""
        return self.t0 + self.dt * np.arange(1, self.n_steps + 1)


#: snapshot name (a ClosureRecord field, in field order) -> grid of one group's values
SNAPSHOTS = {"fxx_c": "cell", "fxx_v": "vface", "fyy_c": "cell", "fyy_h": "hface",
             "fxy_v": "vface", "fxy_h": "hface", "cb": "boundary"}
SNAPSHOT_NAMES = tuple(SNAPSHOTS)


def _snapshot_rows(name: str, nx: int, ny: int, n_groups: int) -> int:
    """Rows of snapshot `name`: one step's closure values, all groups."""
    return n_groups * math.prod(grid_shape(SNAPSHOTS[name], nx, ny))


def closure_unknowns(nx: int, ny: int, n_groups: int) -> int:
    """Closure degrees of freedom per step: 2 (D_v + D_h + D_c) N_g."""
    return sum(_snapshot_rows(name, nx, ny, n_groups)
               for name, grid in SNAPSHOTS.items() if grid != "boundary")


def snapshot_layout(name: str, config: RunConfig) -> dict:
    return {
        "quantity": name,
        "grid": SNAPSHOTS[name],
        "nx": config.nx,
        "ny": config.ny,
        "n_groups": config.n_groups,
        "stacking": "group-major; grids row-major y-outer; boundary sides L,B,R,T",
    }


@dataclass
class Problem:
    """Configuration bound to its solver components."""

    config: RunConfig
    geom: MomentSystem  # the mesh and its moment-system layout
    grid: FrequencyGrid
    material: MaterialModel
    transport: TransportSolver
    mg_solver: MultigroupLoqdSolver


def build_problem(config: RunConfig) -> Problem:
    mesh = SpatialMesh.uniform(config.nx, config.ny, config.dx, config.dy)
    grid = FrequencyGrid(np.asarray(config.group_bounds, dtype=float))
    material = MaterialModel(
        heat_capacity=config.heat_capacity,
        opacity_coeff=config.opacity_coeff,
        opacity_exponent=config.opacity_exponent,
        stimulated_correction=config.stimulated_correction,
        light_speed=config.light_speed,
        radiation_constant=config.radiation_constant,
    )
    geom = MomentSystem(mesh, material.light_speed)
    quad = build_quadrature(config.quadrature)
    # isotropic inflow per group and side: a blackbody at boundary_<side>, or vacuum
    inflow = np.zeros((grid.n_groups, len(SIDES)))
    for k, name in enumerate(SIDES):
        T_in = getattr(config, f"boundary_{name}")
        if T_in is not None:
            inflow[:, k] = planck_spectrum(T_in, grid,
                                           radiation_constant=material.radiation_constant,
                                           light_speed=material.light_speed)
    transport = TransportSolver(mesh, quad, grid, material, inflow)
    mg_solver = MultigroupLoqdSolver(geom, *transport.boundary_inflow(geom.boundary_side))
    return Problem(config, geom, grid, material, transport, mg_solver)


#: per-step run-record fields in container order: each grey field (named as
#: in GreyState) -> its grid, each count -> int, the change ratio -> float
RECORD_FIELDS = {"temperature": "cell", "e_cell": "cell", "e_vface": "vface",
                 "e_hface": "hface", "f_vface": "vface", "f_hface": "hface",
                 "iterations": int, "sweeps": int, "final_change": float,
                 "negative_corners": int, "closure_violations": int}


@dataclass
class RunRecord:
    """Per-step grey state, closure snapshots and iteration diagnostics."""

    time: TimeGrid
    mode: str
    config_meta: dict
    temperature: np.ndarray    # (n_steps, ny, nx)
    e_cell: np.ndarray         # (n_steps, ny, nx)
    e_vface: np.ndarray
    e_hface: np.ndarray
    f_vface: np.ndarray
    f_hface: np.ndarray
    snapshots: dict = None  # name -> (rows, n_steps); None when read from a container
    iterations: np.ndarray = None      # low-order solves per step
    sweeps: np.ndarray = None          # transport sweeps per step (0 for the ROM)
    final_change: np.ndarray = None
    negative_corners: np.ndarray = None
    closure_violations: np.ndarray = None
    positivity_violations: int = 0

    @property
    def n_steps(self) -> int:
        return self.temperature.shape[0]


def _spectral_fields(p: Problem, T: np.ndarray):
    """kappa, planck and their T-derivatives at T, each (n_g, ny, nx)."""
    consts = dict(radiation_constant=p.material.radiation_constant,
                  light_speed=p.material.light_speed)
    kappa, dkappa = p.material.group_opacity(T, p.grid)
    planck = planck_spectrum(T, p.grid, **consts)
    dplanck = planck_spectrum_slope(T, planck, p.grid, **consts)
    # group-last views of group-major arrays: group first, they are contiguous
    return tuple(a.transpose(2, 0, 1) for a in (kappa, planck, dkappa, dplanck))


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
    gamma = np.linalg.lstsq((f[1:] - f[:-1]).T, f[-1], rcond=None)[0]
    mixed = (gs[-1] - (gs[1:] - gs[:-1]).T @ gamma).reshape(g_k.shape)
    return mixed if mixed.min() > 0.0 else g_k


def _change_ratio(cfg: RunConfig, grey, T: np.ndarray, E: np.ndarray, tol: float) -> float:
    """Change of the grey solution from (T, E), scaled by the stopping test.

    Each of T and E gives |new - old|_2 / (tol * |new|_2 + outer_floor); the
    larger ratio is returned, and the test accepts a ratio of at most 1.
    """
    def ratio(new, old):
        return np.linalg.norm((new - old).ravel()) \
            / (tol * np.linalg.norm(new.ravel()) + cfg.outer_floor)
    return max(ratio(grey.temperature, T), ratio(grey.e_cell, E))


@dataclass
class _Step:
    """Accepted state of one time step; its scalars carry their RECORD_FIELDS names."""

    grey: GreyState
    mg: MultigroupMoments
    closure: ClosureRecord
    iterations: int
    final_change: float
    sweeps: int = 0
    negative_corners: int = 0

    @property
    def closure_violations(self) -> int:
        return self.closure.bound_violations()


def _advance_step(p: Problem, mg_prev: MultigroupMoments, t_prev: np.ndarray,
                  closure_at, tol: float) -> _Step:
    """Iterate the low-order loop of one time step from the previous time level.

    Each iterate evaluates the spectral fields (kappa, planck) at its
    temperature T_it, takes its gathered closure from `closure_at(kappa,
    planck)` and solves the multigroup and grey levels.  The loop stops once
    the change between the grey solution and its iterate (`_change_ratio` at
    relative tolerance `tol`) is at most 1; the change test sees the unmixed
    grey solution, and only the next temperature iterate is Anderson-mixed.
    Returns the step with the closure and the face fluxes of its last iterate.
    """
    cfg = p.config
    e_prev = mg_prev.e_cell.sum(axis=0)
    T_it, E_it = t_prev, e_prev
    pairs = deque(maxlen=ANDERSON_DEPTH + 1)
    for it in range(cfg.max_outer):
        kappa, planck, dkappa, dplanck = _spectral_fields(p, T_it)
        closure = closure_at(kappa, planck)
        mg, group_flux = p.mg_solver.solve(closure, kappa, planck, mg_prev, cfg.dt)
        coeffs = compute_grey_coefficients(mg, kappa, planck, dkappa, dplanck, closure.record,
                                           group_flux, p.mg_solver, cfg.dt)
        grey = GreyProblem(p.geom, coeffs, p.material, cfg.dt, e_prev, t_prev,
                           t_star=T_it).solve()
        change = _change_ratio(cfg, grey, T_it, E_it, tol)
        if change <= 1.0:
            # only the accepted iterate's face fluxes are ever read
            mg.f_vface, mg.f_hface = p.geom.face_fluxes(mg, group_flux)
            grey.f_vface, grey.f_hface = p.geom.face_fluxes(grey, coeffs.flux)
            return _Step(grey, mg, closure.record, it + 1, change)
        pairs.append((T_it, grey.temperature))
        T_it = _anderson_update(pairs, ANDERSON_DEPTH)
        E_it = grey.e_cell
    raise DriverError(f"no convergence in {cfg.max_outer} iterations (last change ratio "
                      f"{change:.3e})")


def _initial_state(p: Problem):
    cfg = p.config
    T0 = np.full(grid_shape("cell", cfg.nx, cfg.ny), cfg.t_initial)
    planck0 = planck_spectrum(T0, p.grid, radiation_constant=p.material.radiation_constant,
                              light_speed=p.material.light_speed).transpose(2, 0, 1)
    mg0 = MultigroupMoments.equilibrium(planck0, p.geom, p.material.light_speed)
    return T0, mg0


def _empty_record(p: Problem, mode: str) -> RunRecord:
    cfg = p.config
    nt, ny, nx = cfg.n_steps, cfg.ny, cfg.nx
    return RunRecord(
        time=TimeGrid(0.0, cfg.dt, nt), mode=mode, config_meta=cfg.to_dict(),
        snapshots={name: np.empty((_snapshot_rows(name, nx, ny, cfg.n_groups), nt))
                   for name in SNAPSHOT_NAMES},
        **{name: np.empty((nt, *grid_shape(kind, nx, ny))) if isinstance(kind, str)
           else np.zeros(nt, dtype=kind) for name, kind in RECORD_FIELDS.items()})


def _store_step(rec: RunRecord, n: int, step: _Step):
    for name, kind in RECORD_FIELDS.items():
        getattr(rec, name)[n] = getattr(step.grey if isinstance(kind, str) else step, name)
    for name in SNAPSHOT_NAMES:
        rec.snapshots[name][:, n] = getattr(step.closure, name)
    if step.grey.temperature.min() <= 0.0 or step.grey.e_cell.min() <= 0.0:
        rec.positivity_violations += 1
        warnings.warn(f"nonpositive temperature or energy density at step {n + 1}")


def _run(p: Problem, mode: str, advance, log) -> RunRecord:
    """The time-step loop of both drivers.

    `advance(n, mg_prev, t_prev)` solves 0-based step n from the previous
    time level and returns its `_Step`.  `log(step, iterations, change)` is
    called after each step.
    """
    cfg = p.config
    T_prev, mg_prev = _initial_state(p)
    rec = _empty_record(p, mode)
    for n in range(cfg.n_steps):
        try:
            step = advance(n, mg_prev, T_prev)
        except DriverError as err:
            raise DriverError(f"{mode.upper()} step {n + 1}: {err}") from err
        mg_prev = step.mg
        T_prev = step.grey.temperature
        _store_step(rec, n, step)
        if log is not None:
            log(n + 1, step.iterations, step.final_change)
    return rec


def run_fom(config: RunConfig | Problem, log=None) -> RunRecord:
    """Full-order run: one transport sweep per low-order iterate, stopping at `outer_tol`.

    `log(step, iterations, change)` is called after each step, where
    `iterations` counts the step's low-order solves, each with its sweep.
    """
    p = config if isinstance(config, Problem) else build_problem(config)
    cfg = p.config
    # the intensity of the latest sweep; at the start of a step, that of the
    # previous step's accepted sweep
    latest = {"I": np.maximum(p.transport.equilibrium_intensity(cfg.t_initial),
                              INTENSITY_SEED)}

    def advance(n, mg_prev, t_prev):
        I_prev = latest["I"]

        def sweep(kappa, planck):
            latest["I"] = p.transport.sweep(kappa, np.maximum(planck, INTENSITY_SEED),
                                            I_prev, cfg.dt)
            return p.mg_solver.gather(p.transport.compute_eddington(latest["I"]))

        step = _advance_step(p, mg_prev, t_prev, sweep, cfg.outer_tol)
        step.sweeps = step.iterations
        step.negative_corners = int(np.sum(latest["I"] < 0.0))
        return step

    return _run(p, "fom", advance, log)


def rom_tolerance(config: RunConfig, models: dict) -> float:
    """Relative change at which a ROM with these closure models stops.

    `ROM_STOP_FRACTION` times the smallest positive `discarded_fraction` of
    the seven models, and never below `config.outer_tol`; `outer_tol` when
    no model discards anything (playback, full rank).
    """
    fractions = [models[name].discarded_fraction for name in SNAPSHOT_NAMES]
    smallest = min((f for f in fractions if f > 0.0), default=0.0)
    return max(config.outer_tol, ROM_STOP_FRACTION * smallest)


def check_models(config: RunConfig, models: dict) -> None:
    """Refuse closure models that do not fit a run of `config`.

    Raises ModelMismatchError, naming the snapshot, unless every snapshot
    name has a model that holds that name's closures on the run's layout
    (nx, ny, n_groups, and the row count they give), recorded at the run's
    dt (within `TIME_RTOL`), and that covers the run's steps or has a
    one-step operator to extend them.
    """
    expected = {"nx": config.nx, "ny": config.ny, "n_groups": config.n_groups}
    for name in SNAPSHOT_NAMES:
        if name not in models:
            raise ModelMismatchError(name, f"no closure model for '{name}'")
        m = models[name]
        got = {k: m.layout.get(k) for k in expected}
        if m.name != name:
            problem = f"the model given for '{name}' holds '{m.name}'"
        elif got != expected:
            problem = f"layout mismatch for '{name}': model {got}, config {expected}"
        elif m.offset.size != _snapshot_rows(name, **expected):
            problem = (f"model '{name}' holds {m.offset.size} values per step, not the "
                       f"{_snapshot_rows(name, **expected)} of its layout")
        elif abs(m.dt - config.dt) > TIME_RTOL * config.dt:
            problem = (f"time step mismatch for '{name}': model dt {m.dt:g}, "
                       f"config dt {config.dt:g}")
        elif m.operator is None and m.n_steps < config.n_steps:
            problem = (f"model '{name}' covers steps 1..{m.n_steps} of the run's "
                       f"{config.n_steps} and cannot extend them")
        else:
            continue
        raise ModelMismatchError(name, problem)


def run_rom(config: RunConfig | Problem, models: dict, log=None) -> RunRecord:
    """Reduced-order run: closures reconstructed once per step.

    Models that do not fit the run are refused before step 1
    (`check_models`).  Each step stops at `rom_tolerance(config, models)`,
    which the record's `config_meta["outer_tol"]` states.  `log(step,
    iterations, change)` is called after each step.
    """
    p = config if isinstance(config, Problem) else build_problem(config)
    cfg = p.config
    check_models(cfg, models)
    tol = rom_tolerance(cfg, models)

    def advance(n, mg_prev, t_prev):
        columns = {}
        for name in SNAPSHOT_NAMES:
            columns[name] = models[name].reconstruct(n + 1)
            if not np.isfinite(columns[name]).all():
                raise DriverError(f"model '{name}' produced non-finite values")
        # the step's closure is gathered once: only kappa changes between iterates
        closure = p.mg_solver.gather(ClosureRecord(**columns))
        return _advance_step(p, mg_prev, t_prev, lambda kappa, planck: closure, tol)

    rec = _run(p, "rom", advance, log)
    rec.config_meta["outer_tol"] = tol
    return rec


def record_snapshots(run: RunRecord) -> dict:
    """The seven snapshot matrices of a completed run, sharing the record's arrays."""
    if run.snapshots is None or any(data.shape[1] != run.n_steps
                                    for data in run.snapshots.values()):
        raise ValueError("run record does not hold one closure per step")
    cfg = RunConfig.from_dict(run.config_meta)
    return {name: SnapshotMatrix(name, run.snapshots[name], snapshot_layout(name, cfg),
                                 t0=run.time.t0, dt=run.time.dt)
            for name in SNAPSHOT_NAMES}


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
