"""The benchmark's trace hooks still land on the calls the solvers make.

benchmarks/run.py times each layer by patching names on qdrom's modules and
classes.  A refactor that moves a call off a patched name leaves its layer
silently at zero; this runs the hooks on a tiny FOM and POD ROM.
"""
import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

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
