"""Diagnostics: error series, boundary averages, breakout, rank tables."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdrom.analysis import (
    DegenerateReferenceError,
    FieldStepError,
    ShapeMismatchError,
    XI_GRID,
    boundary_averages,
    breakout_time,
    relative_error_series,
    singular_value_report,
)
from qdrom.config import RunConfig
from qdrom.drivers import RunRecord, TimeGrid


def synthetic_run(temperature, e_cell, config_kw=None, faces=None):
    """Minimal run record around given (nt, ny, nx) fields."""
    temperature = np.asarray(temperature, dtype=float)
    nt, ny, nx = temperature.shape
    cfg = RunConfig(**(config_kw or dict(
        nx=nx, ny=ny, dx=0.5, dy=0.5, group_bounds=(0.0, 1.0e7),
        quadrature=1, dt=0.1, n_steps=nt)))
    z_v = np.zeros((nt, ny, nx + 1))
    z_h = np.zeros((nt, ny + 1, nx))
    faces = faces or {}
    return RunRecord(
        time=TimeGrid(0.0, cfg.dt, nt), mode="fom", config_meta=cfg.to_dict(),
        temperature=temperature, e_cell=np.asarray(e_cell, dtype=float),
        e_vface=faces.get("e_vface", z_v.copy()),
        e_hface=faces.get("e_hface", z_h.copy()),
        f_vface=faces.get("f_vface", z_v.copy()),
        f_hface=faces.get("f_hface", z_h.copy()),
        iterations=np.ones(nt, dtype=int), final_change=np.zeros(nt),
        negative_corners=np.zeros(nt, dtype=int),
        closure_violations=np.zeros(nt, dtype=int),
    )


# ---------------------------------------------------------------------------
# error series
# ---------------------------------------------------------------------------

def test_error_series_identical_runs():
    rng = np.random.default_rng(0)
    t = rng.uniform(0.5, 1.0, (3, 2, 2))
    e = rng.uniform(0.5, 1.0, (3, 2, 2))
    run = synthetic_run(t, e)
    series = relative_error_series(run, run)
    assert np.all(series.err_temperature == 0.0)
    assert np.all(series.err_energy == 0.0)


def test_error_series_uniform_scaling():
    rng = np.random.default_rng(1)
    t = rng.uniform(0.5, 1.0, (4, 3, 3))
    e = rng.uniform(0.5, 1.0, (4, 3, 3))
    ref = synthetic_run(t, e)
    run = synthetic_run(1.01 * t, 1.01 * e)
    series = relative_error_series(run, ref)
    assert series.err_temperature == pytest.approx(np.full(4, 0.01), rel=1e-12)
    assert series.err_energy == pytest.approx(np.full(4, 0.01), rel=1e-12)


def test_error_series_two_cell_hand_case():
    ref = synthetic_run(np.array([[[1.0, 1.0]]]), np.ones((1, 1, 2)),
                        dict(nx=2, ny=1, dx=0.5, dy=0.5,
                             group_bounds=(0.0, 1.0e7), quadrature=1,
                             dt=0.1, n_steps=1))
    run = synthetic_run(np.array([[[1.0, 2.0]]]), np.ones((1, 1, 2)),
                        dict(nx=2, ny=1, dx=0.5, dy=0.5,
                             group_bounds=(0.0, 1.0e7), quadrature=1,
                             dt=0.1, n_steps=1))
    series = relative_error_series(run, ref)
    assert series.err_temperature[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)


def test_error_series_errors():
    run = synthetic_run(np.ones((2, 2, 2)), np.ones((2, 2, 2)))
    other = synthetic_run(np.ones((2, 3, 3)), np.ones((2, 3, 3)))
    with pytest.raises(ShapeMismatchError):
        relative_error_series(run, other)
    # time steps 4e-6 apart are different time grids; 1e-13 apart, the same
    kw = dict(nx=2, ny=2, dx=0.5, dy=0.5, group_bounds=(0.0, 1.0e7), quadrature=1, n_steps=2)
    for rel, same in ((4e-6, False), (1e-13, True)):
        shifted = synthetic_run(np.ones((2, 2, 2)), np.ones((2, 2, 2)),
                                {**kw, "dt": 0.1 * (1.0 + rel)})
        if same:
            assert np.all(relative_error_series(run, shifted).err_temperature == 0.0)
        else:
            with pytest.raises(ShapeMismatchError, match="time grids differ"):
                relative_error_series(run, shifted)
    zero = synthetic_run(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
    with pytest.raises(DegenerateReferenceError):
        relative_error_series(run, zero)
    # field-map steps are 1-based and within the run: 0 is not the last step
    for steps in ((0,), (3,), (1, -1)):
        with pytest.raises(FieldStepError):
            relative_error_series(run, run, field_steps=steps)
    assert issubclass(FieldStepError, ValueError)
    # a zero reference cell has no relative error map at that step
    e = np.ones((2, 2, 2))
    e[1, 0, 0] = 0.0
    holed = synthetic_run(np.ones((2, 2, 2)), e)
    assert relative_error_series(run, holed, field_steps=(1,)).fields[1]["energy"].max() == 0.0
    with pytest.raises(DegenerateReferenceError, match="field step 2"):
        relative_error_series(run, holed, field_steps=(2,))


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-6, 1e6))
def test_error_series_scale_equivariance(scale):
    rng = np.random.default_rng(7)
    t = rng.uniform(0.5, 1.0, (2, 2, 2))
    e = rng.uniform(0.5, 1.0, (2, 2, 2))
    t2 = t * (1.0 + rng.uniform(-0.1, 0.1, t.shape))
    e2 = e * (1.0 + rng.uniform(-0.1, 0.1, e.shape))
    base = relative_error_series(synthetic_run(t2, e2), synthetic_run(t, e))
    scaled = relative_error_series(synthetic_run(scale * t2, scale * e2),
                                   synthetic_run(scale * t, scale * e))
    assert np.allclose(base.err_temperature, scaled.err_temperature, rtol=1e-15, atol=1e-15)


def test_error_series_field_maps():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.5, 1.0, (3, 2, 2))
    e = rng.uniform(0.5, 1.0, (3, 2, 2))
    ref = synthetic_run(t, e)
    run = synthetic_run(t * 1.5, e)
    series = relative_error_series(run, ref, field_steps=(2,))
    assert series.fields[2]["temperature"] == pytest.approx(np.full((2, 2), 0.5))


# ---------------------------------------------------------------------------
# boundary averages and breakout
# ---------------------------------------------------------------------------

def test_boundary_averages_uniform_fields():
    nt, ny, nx = 2, 3, 4
    faces = {
        "f_vface": np.full((nt, ny, nx + 1), 2.5),
        "e_vface": np.full((nt, ny, nx + 1), 1.5),
    }
    run = synthetic_run(np.full((nt, ny, nx), 0.7), np.ones((nt, ny, nx)),
                        dict(nx=nx, ny=ny, dx=0.5, dy=0.5,
                             group_bounds=(0.0, 1.0e7), quadrature=1,
                             dt=0.1, n_steps=nt), faces)
    series = boundary_averages(run)
    assert np.allclose(series.flux, 2.5)
    assert np.allclose(series.energy, 1.5)
    assert np.allclose(series.temperature, 0.7)


def test_boundary_average_linear_in_y_is_midpoint_mean():
    nt, ny, nx = 1, 4, 2
    t = np.zeros((nt, ny, nx))
    t[0, :, -1] = 1.0 + np.arange(ny)  # linear in the row index
    run = synthetic_run(t, np.ones((nt, ny, nx)),
                        dict(nx=nx, ny=ny, dx=0.5, dy=0.5,
                             group_bounds=(0.0, 1.0e7), quadrature=1,
                             dt=0.1, n_steps=nt))
    series = boundary_averages(run)
    assert series.temperature[0] == pytest.approx(np.mean(1.0 + np.arange(ny)), rel=1e-14)


def test_breakout_hand_case():
    res = breakout_time(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([0.0, 1.0, 2.0, 3.0]), 1.5)
    assert res.reached
    assert res.time == 2.0
    assert res.time_interpolated == pytest.approx(1.5)


def test_breakout_edges():
    times = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, 1.0, 2.0])
    first = breakout_time(times, values, 0.0)
    assert first.reached and first.step == 1 and first.time == 1.0
    missed = breakout_time(times, values, 5.0)
    assert not missed.reached and missed.step is None


def test_breakout_monotone_in_threshold():
    rng = np.random.default_rng(11)
    values = np.cumsum(rng.uniform(0.0, 1.0, 20))
    times = np.arange(1.0, 21.0)
    prev = -np.inf
    for thr in np.linspace(values[0], values[-1], 9):
        res = breakout_time(times, values, thr)
        assert res.reached
        assert res.time >= prev
        prev = res.time


# ---------------------------------------------------------------------------
# singular-value report
# ---------------------------------------------------------------------------

def test_rank_tables_monotone_and_dmd_leq_pod(tiny_snapshots):
    reports = singular_value_report(tiny_snapshots)
    assert len(reports) == 7
    for rep in reports:
        pods = [rep.ranks["pod"][xi] for xi in XI_GRID]
        assert all(a <= b for a, b in zip(pods, pods[1:]))  # xi decreasing
        for xi in XI_GRID:
            assert rep.ranks["dmd"][xi] <= rep.ranks["pod"][xi]
        assert rep.significant >= 1


def test_rank_tables_match_compression(tiny_snapshots):
    # the training matrices the report builds are the ones compress() uses
    from qdrom.lowrank import compress
    reports = singular_value_report(tiny_snapshots)
    for rep in reports:
        for method in ("pod", "dmd", "dmd-e"):
            for xi in XI_GRID:
                model = compress(tiny_snapshots[rep.name], method, xi)
                assert rep.ranks[method][xi] == model.rank, (rep.name, method, xi)


def test_rank_one_synthetic_matrix():
    from qdrom.lowrank import SnapshotMatrix
    rng = np.random.default_rng(13)
    u = rng.normal(size=8)
    mats = {}
    from qdrom.drivers import SNAPSHOT_NAMES
    for name in SNAPSHOT_NAMES:
        data = np.outer(u, 1.0 + 0.1 * np.arange(6))
        mats[name] = SnapshotMatrix(name, data, {})
    reports = singular_value_report(mats)
    for rep in reports:
        assert rep.significant == 1
