"""Shared fixtures: a tiny fast problem reused across the machinery tests."""
import os

# One BLAS thread, set before anything imports numpy: on a 2-core host with
# one other busy process, the suite's many small SVDs ran ~100x slower with
# two OpenBLAS threads.  A value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from qdrom.config import RunConfig
from qdrom.drivers import record_snapshots, run_fom

TINY_KW = dict(nx=4, ny=4, dx=1.5, dy=1.5,
               group_bounds=(0.0, 0.7075, 2.83, 1.0e7),
               quadrature=1, dt=0.02, n_steps=5)


@pytest.fixture(scope="session")
def tiny_config():
    return RunConfig(**TINY_KW)


@pytest.fixture(scope="session")
def tiny_fom(tiny_config):
    return run_fom(tiny_config)


@pytest.fixture(scope="session")
def tiny_snapshots(tiny_fom):
    return record_snapshots(tiny_fom)
