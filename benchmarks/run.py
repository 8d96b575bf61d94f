#!/usr/bin/env python3
"""qdrom benchmark: desk FOM, desk POD ROM and the paper-scale FOM step.

Run from the root of a qdrom checkout:

    python3 benchmarks/run.py --workload fom-desk --seed 1 --seconds 50 --trace 0

The benchmark imports the package from the checkout's ``src/`` and drives it
only through its public API.  One run sets the workload up several times,
then re-solves the workload's time steps in a closed loop (one solve after
another, single-threaded) for about ``--seconds`` seconds, checks every step
and prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": <steps>, "failed": <steps>, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with timing wrappers installed around the public
calls into each layer, and reports the per-layer metrics plus the tracing
overhead.  See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import os

# One BLAS thread: with the default two, solves were no faster and noisier.
# Set before numpy is imported by anything below.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import dataclasses
import functools
import hashlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
OUT = BENCH_DIR / "out"
MANIFEST = DATA / "MANIFEST.json"

#: POD truncation of the ROM workload (ranks 26-36 on the desk snapshots)
XI_REL = 1e-6
#: set-ups before each solve; setup_s is the median of all set-ups of a run
SETUP_REPEATS = 5
#: per-step global energy-conservation residual limit (acceptance criterion 3)
CONSERVATION_TOL = 1e-10
#: largest cell-relative temperature difference from the stored FOM reference.
#: An outer iteration that reaches the same fixed point moves cold cells by
#: ~1e-11 (Anderson mixing moved them by 2.8e-11); a wrong step moves them
#: by far more.
REFERENCE_TOL = 1e-8
#: tracer self-check: layer self times must account for the traced wall time
ACCOUNTING_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    mode: str          # "fom" or "rom"
    steps: int         # time steps per solve, from t = 0
    reference: str     # stored FOM run record the steps are checked against


WORKLOADS = {
    # routine FOM, balanced profile: sweep, multigroup and grey Newton each
    # take a fifth or more of a step
    "fom-desk": Workload("fleck-cummings-desk", "fom", 2, "desk_fom.ddet"),
    # POD ROM from stored snapshots: no transport (the bypass for transport
    # changes), closures frozen across iterations, the paper's cheap-ROM claim
    "rom-desk": Workload("fleck-cummings-desk", "rom", 2, "desk_fom.ddet"),
    # the paper's 20x20, 17-group, 144-direction step 1: transport and memory
    # at paper scale; ~2 minutes, so not one of the regression workloads
    "fom-fc2d": Workload("fleck-cummings-2d", "fom", 1, "fc2d_fom.ddet"),
}

SNAPSHOTS = "desk_snapshots.ddet"


class BenchError(RuntimeError):
    """The checkout or the stored inputs are not usable."""


def import_qdrom():
    """Import qdrom from this checkout's src/, never from elsewhere."""
    pkg = SRC / "qdrom"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no qdrom package at {pkg}; run from a qdrom checkout")
    sys.path.insert(0, str(SRC))
    import qdrom
    import qdrom.analysis
    import qdrom.container
    import qdrom.loqd
    import qdrom.lowrank
    import qdrom.transport
    if Path(qdrom.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"qdrom imported from {qdrom.__file__}, not {pkg}")
    return qdrom


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest() -> dict:
    """Manifest of the stored inputs; every file must match its checksum."""
    if not MANIFEST.is_file():
        raise BenchError(f"missing {MANIFEST}; run benchmarks/make_reference.py")
    manifest = json.loads(MANIFEST.read_text())
    for name, digest in manifest["sha256"].items():
        path = DATA / name
        if not path.is_file() or sha256(path) != digest:
            raise BenchError(f"{path} is missing or does not match MANIFEST.json")
    return manifest


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans around wrapped calls: [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced

    def totals(self, root: str | None = None) -> tuple[dict, dict, float]:
        """Self seconds and call counts per span name, and summed root wall.

        With `root`, only spans named `root` and their descendants count, and
        the root's own self time is keyed by its name.
        """
        child = [0.0] * len(self.spans)
        under = [root is None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if root is not None:
                under[i] = name == root or (parent >= 0 and under[parent])
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, wall = {}, {}, 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if not under[i]:
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == root:
                wall += end - start
        return self_s, calls, wall

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans, "counts": self.counts}))


def observe_newton(counts, state):
    counts["loqd.newton_iterations"] = (
        counts.get("loqd.newton_iterations", 0) + state.newton_iterations)


class Api:
    """The public qdrom calls the benchmark makes, swappable for traced ones."""

    def __init__(self, qdrom):
        self.qdrom = qdrom
        self.build_problem = qdrom.build_problem
        self.run_fom = qdrom.run_fom
        self.run_rom = qdrom.run_rom
        self.pod_compress = qdrom.pod_compress
        self.save_model = qdrom.container.save_model
        self.load_model = qdrom.container.load_model
        self.load_snapshot_set = qdrom.container.load_snapshot_set
        self.load_run_record = qdrom.container.load_run_record
        self.relative_error_series = qdrom.analysis.relative_error_series

    def install_tracing(self, tracer: Tracer):
        """Wrap the calls into each layer; returns a function that undoes it."""
        q = self.qdrom
        patches = [
            (q.materials.MaterialModel, "group_opacity", "materials.opacity", None),
            (q.drivers, "planck_spectrum", "materials.planck", None),
            (q.transport.TransportSolver, "sweep", "transport.sweep", None),
            (q.transport.TransportSolver, "compute_eddington", "transport.eddington", None),
            (q.loqd.MultigroupLoqdSolver, "solve", "loqd.mg_solve", None),
            (q.drivers, "compute_grey_coefficients", "loqd.grey_coeffs", None),
            (q.loqd.GreyProblem, "__init__", "loqd.grey_build", None),
            (q.loqd.GreyProblem, "solve", "loqd.grey_solve", observe_newton),
            (q.lowrank.PodModel, "reconstruct", "lowrank.reconstruct", None),
        ]
        saved = []
        for owner, attr, name, observe in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        own = {
            "run_fom": "drivers.run", "run_rom": "drivers.run",
            "pod_compress": "lowrank.compress",
            "save_model": "container.write", "load_model": "container.read",
            "load_snapshot_set": "container.read",
            "load_run_record": "container.read",
            "relative_error_series": "analysis.error_series",
        }
        for attr, name in own.items():
            saved.append((self, attr, getattr(self, attr)))
            setattr(self, attr, tracer.wrap(name, getattr(self, attr)))

        def undo():
            for owner, attr, original in saved:
                setattr(owner, attr, original)
        return undo


# ---------------------------------------------------------------------------
# set-up, solve and checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Prepared:
    problem: object
    reference: object       # stored FOM run record cut to the solved steps
    models: dict | None     # ROM closure models
    e0: object              # initial total radiation energy per cell
    container_bytes: int


def cut_record(rec, steps: int):
    """The first `steps` steps of a run record."""
    from qdrom.drivers import TimeGrid
    arrays = {name: getattr(rec, name)[:steps]
              for name in ("temperature", "e_cell", "e_vface", "e_hface", "f_vface",
                           "f_hface", "iterations", "final_change",
                           "negative_corners", "closure_violations")}
    return dataclasses.replace(rec, time=TimeGrid(rec.time.t0, rec.time.dt, steps),
                               **arrays)


def initial_energy(qdrom, problem):
    """Total radiation energy per cell of the equilibrium start state."""
    cfg = problem.config
    T0 = np.full((cfg.ny, cfg.nx), cfg.t_initial)
    planck0 = qdrom.materials.planck_spectrum(
        T0, problem.grid, radiation_constant=problem.material.radiation_constant,
        light_speed=problem.material.light_speed)
    planck0 = np.moveaxis(planck0, -1, 0)
    mg0 = qdrom.loqd.MultigroupMoments.equilibrium(
        planck0, problem.geom, problem.material.light_speed)
    return mg0.e_cell.sum(axis=0)


def prepare(api: Api, wl: Workload, workdir: Path) -> Prepared:
    """Build the problem and load or compute everything the solve needs."""
    q = api.qdrom
    cfg = dataclasses.replace(q.preset(wl.preset), n_steps=wl.steps)
    problem = api.build_problem(cfg)
    nbytes = (DATA / wl.reference).stat().st_size
    reference = cut_record(api.load_run_record(DATA / wl.reference), wl.steps)
    models = None
    if wl.mode == "rom":
        # the pipeline's compress -> rom path: snapshots in, model containers
        # out, models read back
        matrices, _ = api.load_snapshot_set(DATA / SNAPSHOTS)
        nbytes += (DATA / SNAPSHOTS).stat().st_size
        models = {}
        for name in q.drivers.SNAPSHOT_NAMES:
            path = workdir / f"{name}.pod.ddet"
            api.save_model(path, api.pod_compress(matrices[name], XI_REL))
            nbytes += 2 * path.stat().st_size
            models[name] = api.load_model(path)
    return Prepared(problem, reference, models, initial_energy(q, problem), nbytes)


@dataclasses.dataclass
class Solve:
    wall: float
    steps: int                # steps attempted
    step_s: list              # wall seconds of each finished step
    iterations: list
    final_change: list
    failed_steps: int
    rom_err_T: float | None
    error: str | None
    negative_corners: int


def check_steps(api: Api, prep: Prepared, rec) -> tuple[int, float | None]:
    """Failed-step count of a finished run, and the ROM error when a ROM."""
    cfg = prep.problem.config
    area = cfg.dx * cfg.dy
    ref = prep.reference
    series = api.relative_error_series(rec, ref)
    e_prev = prep.e0
    t_prev = np.full((cfg.ny, cfg.nx), cfg.t_initial)
    failed = 0
    for n in range(rec.n_steps):
        T, E = rec.temperature[n], rec.e_cell[n]
        d_rad = (E - e_prev).sum() * area / cfg.dt
        d_mat = cfg.heat_capacity * (T - t_prev).sum() * area / cfg.dt
        leak = (rec.f_vface[n, :, -1].sum() - rec.f_vface[n, :, 0].sum()) * cfg.dy \
            + (rec.f_hface[n, -1, :].sum() - rec.f_hface[n, 0, :].sum()) * cfg.dx
        residual = abs(d_rad + d_mat + leak) / (abs(d_rad) + abs(d_mat) + abs(leak))
        ok = residual <= CONSERVATION_TOL and np.all(T > 0.0) and np.all(E > 0.0)
        if rec.mode == "fom":
            ok = ok and np.max(np.abs(T - ref.temperature[n]) / ref.temperature[n]) \
                <= REFERENCE_TOL
        else:
            ok = ok and series.err_temperature[n] <= REFERENCE_TOL
        failed += not ok
        e_prev, t_prev = E, T
    rom_err = float(series.err_temperature.max()) if rec.mode == "rom" else None
    return failed, rom_err


#: what a failing solve raises: DriverError and SolverError are RuntimeErrors,
#: bad model or closure data are ValueErrors
SOLVE_ERRORS = (RuntimeError, ArithmeticError, ValueError)


def solve(api: Api, prep: Prepared) -> Solve:
    """One run of the workload's steps, timed from outside, then checked.

    A solve that raises fails all its steps: the ones it finished cannot be
    checked.
    """
    stamps, iterations, changes = [], [], []

    def log(step, iters, change):
        stamps.append(time.perf_counter())
        iterations.append(iters)
        changes.append(change)

    steps = prep.problem.config.n_steps
    t0 = time.perf_counter()
    wall = None
    try:
        if prep.models is None:
            rec = api.run_fom(prep.problem, log=log)
        else:
            rec = api.run_rom(prep.problem, prep.models, log=log)
        wall = time.perf_counter() - t0
        failed, rom_err = check_steps(api, prep, rec)
    except SOLVE_ERRORS as err:
        if wall is None:
            wall = time.perf_counter() - t0
        return Solve(wall, steps, list(np.diff([t0] + stamps)), iterations, changes,
                     steps, None, f"{type(err).__name__}: {err}", 0)
    return Solve(wall, steps, list(np.diff([t0] + stamps)), iterations, changes,
                 failed, rom_err, None, int(rec.negative_corners.sum()))


def measure(api: Api, wl: Workload, workdir: Path, seconds: float,
            rounds: int | None = None, prepare_fn=prepare):
    """Closed loop of rounds, each SETUP_REPEATS set-ups and one solve.

    Rounds follow each other while the next is expected to end within
    `seconds`, or until `rounds` are done.  Spreading the set-ups over the
    run exposes them to the same drift in host speed as the solves.
    Returns the set-up times, the solves and the last set-up.
    """
    setup_times, runs = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prep = prepare_fn(api, wl, workdir)
            setup_times.append(time.perf_counter() - t0)
        runs.append(solve(api, prep))
        now = time.perf_counter()
        if rounds is not None:
            if len(runs) == rounds:
                return setup_times, runs, prep
        elif now - start + (now - round_start) > seconds:
            return setup_times, runs, prep


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qdrom").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(qdrom, wl: Workload, seed: int, manifest: dict) -> dict:
    import scipy
    inputs = hashlib.sha256()
    for name in sorted({wl.reference} | ({SNAPSHOTS} if wl.mode == "rom" else set())):
        inputs.update(manifest["sha256"][name].encode())
    inputs.update(json.dumps(qdrom.preset(wl.preset).to_dict(), sort_keys=True).encode())
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(qdrom.transport._HAVE_NUMBA),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
        "inputs_sha256": inputs.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, runs) -> tuple[dict, dict]:
    """End-to-end metrics, the quartiles their medians come from, and the
    median time of each step from the drivers' log callback."""
    details = {"setup_s": quartiles(setup_times),
               "s_per_step": quartiles([r.wall / r.steps for r in runs]),
               "step_s": [statistics.median(times) for times in
                          zip(*(r.step_s for r in runs if r.error is None))]}
    metrics = {
        "setup_s": metric(details["setup_s"]["median"], "s"),
        "s_per_step": metric(details["s_per_step"]["median"], "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return metrics, details


def per_layer(tracer: Tracer, prep: Prepared, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics (solve layers per step, set-up layers per set-up),
    and the tracer's accounting of the traced solve time."""
    problem = prep.problem
    steps = sum(r.steps for r in traced)
    solve_s, solve_calls, solve_wall = tracer.totals("drivers.run")
    setup_s, _, _ = tracer.totals("setup")
    all_s, all_calls, _ = tracer.totals()
    n_setups = all_calls["setup"]
    unknowns = int(np.prod(problem.transport.shape))
    n_groups = problem.grid.n_groups
    n_cells = problem.config.nx * problem.config.ny
    sweeps = solve_calls.get("transport.sweep", 0)
    iters = sum(sum(r.iterations) for r in traced)
    grey_solves = solve_calls.get("loqd.grey_solve", 0)
    series_calls = all_calls.get("analysis.error_series", 0)
    traced_step = quartiles([r.wall / r.steps for r in traced])["median"]
    untraced_step = quartiles([r.wall / r.steps for r in untraced])["median"]

    def per_step(name):
        return solve_s.get(name, 0.0) / steps

    def per_setup(name):
        return setup_s.get(name, 0.0) / n_setups

    m = {
        "materials.opacity_s": (per_step("materials.opacity"), "s/step"),
        "materials.planck_s": (per_step("materials.planck"), "s/step"),
        "materials.calls": ((solve_calls.get("materials.opacity", 0)
                             + solve_calls.get("materials.planck", 0)) / steps,
                            "count/step"),
        "transport.sweep_s": (per_step("transport.sweep"), "s/step"),
        "transport.sweep_calls": (sweeps / steps, "count/step"),
        "transport.sweep_unknowns_per_s": (
            unknowns * sweeps / solve_s["transport.sweep"] if sweeps else 0.0, "1/s"),
        # read I_prev, kappa, emission; write I: from array sizes, not caches
        "transport.sweep_bytes_computed": (
            8 * (2 * unknowns + 2 * n_groups * n_cells) if sweeps else 0, "B/sweep"),
        "transport.eddington_s": (per_step("transport.eddington"), "s/step"),
        "transport.negative_corners": (
            sum(r.negative_corners for r in traced) / steps, "count/step"),
        "loqd.mg_solve_s": (per_step("loqd.mg_solve"), "s/step"),
        "loqd.mg_solve_calls": (solve_calls.get("loqd.mg_solve", 0) / steps, "count/step"),
        "loqd.mg_unknowns": (problem.mg_solver.n_unknowns * n_groups, "count"),
        "loqd.grey_coeffs_s": (per_step("loqd.grey_coeffs"), "s/step"),
        "loqd.grey_build_s": (per_step("loqd.grey_build"), "s/step"),
        "loqd.grey_solve_s": (per_step("loqd.grey_solve"), "s/step"),
        "loqd.newton_iters_per_solve": (
            tracer.counts.get("loqd.newton_iterations", 0) / grey_solves
            if grey_solves else 0.0, "count"),
        "drivers.outer_iters_per_step": (iters / steps, "count/step"),
        "drivers.s_per_outer_iter": (solve_wall / max(iters, 1), "s"),
        "drivers.self_s": (per_step("drivers.run"), "s/step"),
        "drivers.final_change_max": (
            max((c for r in traced for c in r.final_change), default=0.0), "ratio"),
        "lowrank.compress_s": (per_setup("lowrank.compress"), "s/setup"),
        "lowrank.rank_total": (
            sum(mod.rank for mod in prep.models.values()) if prep.models else 0, "count"),
        "lowrank.reconstruct_s": (per_step("lowrank.reconstruct"), "s/step"),
        "container.write_s": (per_setup("container.write"), "s/setup"),
        "container.read_s": (per_setup("container.read"), "s/setup"),
        "container.bytes": (prep.container_bytes, "B/setup"),
        "analysis.error_series_s": (
            all_s.get("analysis.error_series", 0.0) / max(series_calls, 1), "s/call"),
        "analysis.rom_err_T": (
            max((r.rom_err_T for r in traced if r.rom_err_T is not None), default=0.0),
            "ratio"),
        "trace.overhead_pct": (100.0 * (traced_step / untraced_step - 1.0), "%"),
    }
    accounted = sum(solve_s.values())
    details = {"traced_wall_s": solve_wall, "layers_plus_drivers_self_s": accounted,
               "unaccounted_s": solve_wall - accounted,
               "traced_s_per_step": traced_step, "untraced_s_per_step": untraced_step}
    return {k: metric(v, u) for k, (v, u) in m.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded with the result; the workloads are the "
                             "fixed paper presets, so no input depends on it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured solve time per run (half of it traced "
                             "with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        qdrom = import_qdrom()
        manifest = load_manifest()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    api = Api(qdrom)
    print(json.dumps({"environment": environment(qdrom, wl, args.seed, manifest)}))
    OUT.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if not args.trace:
            setup_times, runs, _ = measure(api, wl, workdir, args.seconds)
            metrics, details = end_to_end(setup_times, runs)
        else:
            _, untraced, _ = measure(api, wl, workdir, args.seconds / 2.0)
            tracer = Tracer()
            undo = api.install_tracing(tracer)
            try:
                _, traced, prep = measure(api, wl, workdir, args.seconds,
                                          rounds=len(untraced),
                                          prepare_fn=tracer.wrap("setup", prepare))
            finally:
                undo()
            runs = untraced + traced
            metrics, details = per_layer(tracer, prep, traced, untraced)
            ok = abs(details["unaccounted_s"]) <= ACCOUNTING_TOL * details["traced_wall_s"]
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    attempted = sum(r.steps for r in runs)
    failed = sum(r.failed_steps for r in runs)
    report = {
        "workload": args.workload, "solves": len(runs), "steps_per_solve": wl.steps,
        "failed_step_ratio": failed / attempted,
        "outer_iterations": runs[0].iterations,
        "errors": sorted({r.error for r in runs if r.error}),
        "details": details,
    }
    if wl.mode == "rom":
        report["rom_err_T"] = max((r.rom_err_T for r in runs if r.rom_err_T is not None),
                                  default=float("nan"))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": bool(failed == 0 and ok), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
