"""The benchmark's trace hooks and step checks still fit the solvers.

benchmarks/run.py times each layer by patching names on qdrom's modules and
classes.  A refactor that moves a call off a patched name leaves its layer
silently at zero; this runs the hooks on a tiny FOM and POD ROM.  It also
runs the benchmark's own set-up and step checks, which read fields of the
problem and of the run records.
"""
import dataclasses
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import qdrom
import qdrom.analysis
import qdrom.container
import qdrom.loqd
import qdrom.lowrank
import qdrom.materials
import qdrom.transport
from qdrom.drivers import SNAPSHOT_NAMES

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYER_SPANS = {
    "materials.opacity", "materials.planck", "transport.sweep", "transport.eddington",
    "loqd.mg_solve", "loqd.grey_coeffs", "loqd.grey_build", "loqd.grey_solve",
    "lowrank.reconstruct", "lowrank.compress", "drivers.run",
}


@pytest.fixture(scope="module")
def bench():
    """benchmarks/run.py as a module; the BLAS variables it sets are restored."""
    saved = {var: os.environ.get(var) for var in BLAS_VARS}
    spec = importlib.util.spec_from_file_location("qdrom_bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    yield module
    sys.modules.pop(spec.name, None)


def test_trace_hooks_cover_every_layer(bench, tiny_config, tiny_snapshots):
    api = bench.Api(qdrom)
    q = qdrom
    owners = (q.materials.MaterialModel, q.drivers, q.transport.TransportSolver,
              q.loqd.MultigroupLoqdSolver, q.loqd.GreyProblem, q.lowrank.PodModel, api)
    before = [dict(vars(owner)) for owner in owners]
    tracer = bench.Tracer()
    undo = api.install_tracing(tracer)
    try:
        problem = api.build_problem(dataclasses.replace(tiny_config, n_steps=1))
        api.run_fom(problem)
        models = {name: api.pod_compress(tiny_snapshots[name], 1e-6)
                  for name in SNAPSHOT_NAMES}
        api.run_rom(problem, models)
    finally:
        undo()
    names = {span[0] for span in tracer.spans}
    assert LAYER_SPANS <= names, sorted(LAYER_SPANS - names)
    assert tracer.counts["loqd.newton_iterations"] > 0
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[k] is v for k, v in attrs.items()), owner


def test_benchmark_checks_read_the_tiny_runs(bench, tiny_config, tiny_fom, tiny_snapshots):
    # the benchmark's own set-up and step checks on a FOM and a POD ROM: a
    # field of Problem or RunRecord they read that moves fails here, not in
    # a benchmark run
    api = bench.Api(qdrom)
    steps = 3
    problem = api.build_problem(dataclasses.replace(tiny_config, n_steps=steps))
    e0 = bench.initial_energy(qdrom, problem)
    assert e0.shape == (tiny_config.ny, tiny_config.nx) and np.all(e0 > 0.0)
    reference = bench.cut_record(tiny_fom, steps)
    assert reference.n_steps == steps
    assert np.array_equal(reference.temperature, tiny_fom.temperature[:steps])
    models = {name: api.pod_compress(tiny_snapshots[name], bench.XI_REL)
              for name in SNAPSHOT_NAMES}
    manifest = json.loads(bench.MANIFEST.read_text())
    for workload, models in (("fom-desk", None), ("rom-desk", models)):
        prep = bench.Prepared(problem, reference, models, e0, 0)
        rec = api.run_fom(problem) if models is None else api.run_rom(problem, models)
        failed, rom_err = bench.check_steps(api, prep, rec)
        assert failed == 0, workload
        if models is None:
            assert rom_err is None
        else:
            assert 0.0 <= rom_err <= bench.REFERENCE_TOL
        env = bench.environment(qdrom, bench.WORKLOADS[workload], 0, manifest)
        assert isinstance(env["have_numba"], bool)
        assert len(env["inputs_sha256"]) == 64


@pytest.mark.parametrize("workload", ["fom-desk", "rom-desk"])
def test_tracer_accounts_for_the_tiny_runs(bench, tiny_config, tiny_fom, tiny_snapshots,
                                           tmp_path, workload):
    # the --trace 1 path on the tiny problem: set-ups and one solve traced,
    # then the per-layer metrics and their accounting check.  Work that
    # moves off a patched name, or a grey state that stops reporting its
    # one linear solve, fails here and not only in a benchmark run
    api = bench.Api(qdrom)
    wl = dataclasses.replace(bench.WORKLOADS[workload], steps=2)
    models = {name: api.pod_compress(tiny_snapshots[name], bench.XI_REL)
              for name in SNAPSHOT_NAMES}

    def prepare(api, wl, workdir):
        problem = api.build_problem(dataclasses.replace(tiny_config, n_steps=wl.steps))
        return bench.Prepared(problem, bench.cut_record(tiny_fom, wl.steps),
                              models if wl.mode == "rom" else None,
                              bench.initial_energy(qdrom, problem), 0)

    _, untraced, _ = bench.measure(api, wl, tmp_path, 0.0, rounds=1, prepare_fn=prepare)
    tracer = bench.Tracer()
    undo = api.install_tracing(tracer)
    try:
        _, traced, prep = bench.measure(api, wl, tmp_path, 0.0, rounds=1,
                                        prepare_fn=tracer.wrap("setup", prepare))
    finally:
        undo()
    assert [(r.error, r.failed_steps) for r in untraced + traced] == [(None, 0)] * 2
    metrics, details = bench.per_layer(tracer, prep, traced, untraced)
    assert abs(details["unaccounted_s"]) <= bench.ACCOUNTING_TOL * details["traced_wall_s"]
    assert metrics["loqd.newton_iters_per_solve"]["value"] == 1
    solves = sum(traced[0].iterations) / wl.steps
    for layer in ("loqd.mg_solve_calls", "drivers.outer_iters_per_step"):
        assert metrics[layer]["value"] == solves, layer
    assert metrics["transport.sweep_calls"]["value"] == (solves if wl.mode == "fom" else 0)
