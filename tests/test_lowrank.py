"""Compression-layer checks: TSVD, rank selection, POD, DMD, DMD-E."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdrom.drivers import SNAPSHOT_NAMES, playback_models
from qdrom.lowrank import (
    DegenerateDataError,
    OutOfWindowError,
    SnapshotMatrix,
    compress,
    dmd_compress,
    pod_compress,
    select_rank,
    truncated_svd,
)


def snap(data, name="test", dt=1.0):
    return SnapshotMatrix(name, np.asarray(data, dtype=float),
                          {"nx": 1, "ny": 1, "n_groups": 1}, dt=dt)


# ---------------------------------------------------------------------------
# truncated SVD
# ---------------------------------------------------------------------------

def test_svd_rank_one():
    rng = np.random.default_rng(1)
    u = rng.normal(size=6)
    v = rng.normal(size=4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    _, s, _ = truncated_svd(np.outer(u, v))
    assert s[0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(s[1:]) <= 1e-14


def test_svd_identity():
    _, s, _ = truncated_svd(np.eye(3))
    assert np.allclose(s, 1.0, atol=1e-14)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(20, 10))
    u, s, vt = truncated_svd(a)
    assert np.linalg.norm(a - (u * s) @ vt) <= 1e-10 * np.linalg.norm(a)
    assert np.max(np.abs(u.T @ u - np.eye(10))) <= 1e-12
    assert np.max(np.abs(vt @ vt.T - np.eye(10))) <= 1e-12
    assert np.all(np.diff(s) <= 0.0)


def test_eckart_young_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 10))
    u, s, vt = truncated_svd(a)
    for r in range(1, 11):
        a_r = (u[:, :r] * s[:r]) @ vt[:r, :]
        tail = np.sum(s[r:] ** 2)
        assert np.linalg.norm(a - a_r, "fro") ** 2 == pytest.approx(
            tail, rel=1e-10, abs=1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        truncated_svd(np.array([[1.0, np.nan]]))


# ---------------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------------

def test_select_rank_worked_example():
    s = np.array([1.0, 1e-1, 1e-3, 1e-8])
    assert select_rank(s, 1e-2) == 2


def test_select_rank_edges():
    s = np.array([3.0, 1.0, 0.5])
    assert select_rank(s, 1.0) == 1
    assert select_rank(s, 1e-300) == 3
    with pytest.raises(DegenerateDataError):
        select_rank(np.zeros(4), 1e-2)
    with pytest.raises(ValueError):
        select_rank(s, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=30),
       st.floats(1e-12, 1.0))
def test_select_rank_minimality(values, xi):
    s = np.sort(np.asarray(values))[::-1]
    k = select_rank(s, xi)
    energy = s**2
    total = energy.sum()
    assert energy[k:].sum() <= xi**2 * total + 1e-30
    if k > 1:
        assert energy[k - 1:].sum() > xi**2 * total


# ---------------------------------------------------------------------------
# POD
# ---------------------------------------------------------------------------

def test_pod_constant_columns_is_exact_mean():
    col = np.array([2.0, -1.0, 0.5])
    model = pod_compress(snap(np.tile(col[:, None], (1, 5))), 1e-6)
    assert np.allclose(model.offset, col)
    for n in range(1, 6):
        assert np.allclose(model.reconstruct(n), col)
    assert np.max(np.abs(model.basis.T @ model.basis - np.eye(model.rank))) <= 1e-12


def test_pod_alternating_columns_rank_one():
    a = np.array([[1.0, 3.0, 1.0, 3.0], [0.0, 2.0, 0.0, 2.0]])
    model = pod_compress(snap(a), 1e-12)
    assert model.rank == 1
    for n in range(1, 5):
        assert np.allclose(model.reconstruct(n), a[:, n - 1], atol=1e-12)


def test_pod_full_rank_reconstruction():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 8))
    model = pod_compress(snap(a), 1e-300)
    err = max(np.linalg.norm(model.reconstruct(n) - a[:, n - 1]) for n in range(1, 9))
    assert err <= 1e-10 * np.linalg.norm(a)


def test_pod_achieved_ratio_verified_post_hoc():
    rng = np.random.default_rng(6)
    # strongly decaying spectrum so truncation actually bites
    u, _ = np.linalg.qr(rng.normal(size=(40, 12)))
    v, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    s = 10.0 ** (-np.arange(12, dtype=float))
    a = (u * s) @ v.T + 3.0
    xi = 1e-4
    model = pod_compress(snap(a), xi)
    centered = a - a.mean(axis=1)[:, None]
    recon = np.stack([model.reconstruct(n) for n in range(1, 13)], axis=1)
    ratio = np.linalg.norm(a - recon, "fro") / np.linalg.norm(centered, "fro")
    assert ratio <= xi


def test_pod_out_of_window():
    model = pod_compress(snap(np.random.default_rng(0).normal(size=(4, 3))), 1e-2)
    with pytest.raises(OutOfWindowError):
        model.reconstruct(4)
    with pytest.raises(OutOfWindowError):
        model.reconstruct(0)


def test_pod_optimality_against_random_projections():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(15, 9))
    model = pod_compress(snap(a), 1e-1)
    k = model.rank
    centered = a - a.mean(axis=1)[:, None]
    best = np.linalg.norm(
        centered - model.basis @ (model.basis.T @ centered), "fro")
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(15, k)))
        other = np.linalg.norm(centered - q @ (q.T @ centered), "fro")
        assert best <= other + 1e-12


# ---------------------------------------------------------------------------
# DMD
# ---------------------------------------------------------------------------

def test_dmd_scalar_geometric_sequence():
    a = np.array([[1.0, 2.0, 4.0, 8.0]])
    model = dmd_compress(snap(a, dt=0.5), 1e-12)
    assert model.rank == 1
    assert np.linalg.eigvals(model.operator)[0] == pytest.approx(2.0, rel=1e-12)
    for n in range(1, 5):
        assert model.reconstruct(n)[0] == pytest.approx(a[0, n - 1], rel=1e-10)


def test_dmd_diagonal_linear_system_oracle():
    # columns follow a_{n+1} = diag(0.9, 0.5) a_n
    b = np.diag([0.9, 0.5])
    cols = [np.array([1.0, 2.0])]
    for _ in range(7):
        cols.append(b @ cols[-1])
    a = np.stack(cols, axis=1)
    model = dmd_compress(snap(a, dt=1.0), 1e-12)
    eigenvalues = np.linalg.eigvals(model.operator)
    eigs = np.sort(eigenvalues.real)
    assert np.allclose(np.sort(np.abs(eigenvalues)), [0.5, 0.9], atol=1e-10)
    assert np.max(np.abs(eigenvalues.imag)) <= 1e-10
    assert eigs == pytest.approx([0.5, 0.9], abs=1e-10)
    for n in range(1, 9):
        assert np.allclose(model.reconstruct(n), a[:, n - 1], atol=1e-10)
    # one-step extrapolation beyond the window
    assert np.allclose(model.reconstruct(9), b @ a[:, -1], atol=1e-8)


def test_dmd_conjugate_pair_symmetry():
    # rotation dynamics give a complex pair
    theta = 0.7
    rot = 0.95 * np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]])
    cols = [np.array([1.0, 0.3])]
    for _ in range(9):
        cols.append(rot @ cols[-1])
    model = dmd_compress(snap(np.stack(cols, axis=1)), 1e-12)
    eigs = np.sort_complex(np.linalg.eigvals(model.operator))
    assert np.allclose(eigs[0], np.conj(eigs[1]), atol=1e-12)
    assert np.allclose(np.abs(eigs), 0.95, atol=1e-12)
    for n in range(1, 11):
        assert np.allclose(model.reconstruct(n), cols[n - 1], atol=1e-9)


def test_dmd_amplitude_fit_is_locally_optimal():
    # basis @ z_1 is the orthogonal projection of a_1 onto the orthonormal basis
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 5)) + 5.0
    model = dmd_compress(snap(a), 1e-1)
    z1 = model.coefficients[:, 0]
    assert np.max(np.abs(model.basis.T @ model.basis - np.eye(model.rank))) <= 1e-12
    residual = a[:, 0] - model.basis @ z1
    assert np.max(np.abs(model.basis.T @ residual)) <= 1e-12 * np.linalg.norm(a[:, 0])
    base = np.linalg.norm(residual)
    for i in range(model.rank):
        for delta in (1e-6, -1e-6):
            z = z1.copy()
            z[i] += delta
            assert np.linalg.norm(model.basis @ z - a[:, 0]) >= base - 1e-12


def test_dmd_exact_for_low_order_recurrence():
    # three decaying modes, diagonalizable generator
    rng = np.random.default_rng(12)
    p = rng.normal(size=(7, 3))
    lams = np.array([0.9, 0.6, -0.3])
    coeffs = rng.normal(size=3)
    cols = [p @ (coeffs * lams**n) for n in range(9)]
    a = np.stack(cols, axis=1)
    model = dmd_compress(snap(a), 1e-13)
    for n in range(1, 10):
        err = np.linalg.norm(model.reconstruct(n) - a[:, n - 1])
        assert err <= 1e-9 * max(np.linalg.norm(a[:, n - 1]), 1e-12)


def test_dmd_negative_eigenvalue_branch():
    a = np.array([[1.0, -0.5, 0.25, -0.125]])
    model = dmd_compress(snap(a, dt=2.0), 1e-12)
    assert np.linalg.eigvals(model.operator)[0] == pytest.approx(-0.5, rel=1e-12)
    for n in range(1, 5):
        assert model.reconstruct(n)[0] == pytest.approx(a[0, n - 1], rel=1e-10)


def test_dmde_constant_data_returns_equilibrium():
    col = np.array([4.0, -2.0])
    a = np.tile(col[:, None], (1, 6))
    model = dmd_compress(snap(a), 1e-2, variant="equilibrium_subtracted")
    assert model.offset == pytest.approx(col)
    assert np.max(np.abs(model.coefficients)) == 0.0
    for n in (1, 3, 17):
        assert np.array_equal(model.reconstruct(n), col)


def test_dmde_recovers_shifted_dynamics():
    # decaying mode on top of an equilibrium; the final column holds the
    # exact equilibrium so the subtracted history is purely geometric
    a_b = np.array([2.0, 1.0])
    lam = 0.3
    cols = [a_b + np.array([1.0, -1.0]) * lam**n for n in range(9)] + [a_b]
    a = np.stack(cols, axis=1)
    model = dmd_compress(snap(a), 1e-10, variant="equilibrium_subtracted")
    assert np.linalg.eigvals(model.operator)[0] == pytest.approx(lam, rel=1e-10)
    for n in range(1, 10):
        assert np.allclose(model.reconstruct(n), a[:, n - 1], atol=1e-9)


def test_dmd_input_validation():
    with pytest.raises(ValueError):
        dmd_compress(snap(np.ones((3, 2))), 1e-2)
    with pytest.raises(ValueError):
        dmd_compress(snap(np.ones((3, 3))), 1e-2, variant="equilibrium_subtracted")
    with pytest.raises(ValueError):
        dmd_compress(snap(np.ones((3, 4))), 1e-2, variant="bogus")


# ---------------------------------------------------------------------------
# playback and dispatch
# ---------------------------------------------------------------------------

def test_snapshot_playback_identity():
    rng = np.random.default_rng(13)
    s = snap(rng.normal(size=(5, 4)))
    model = playback_models({name: s for name in SNAPSHOT_NAMES})["cb"]
    for n in range(1, 5):
        assert np.array_equal(model.reconstruct(n), s.data[:, n - 1])
    with pytest.raises(OutOfWindowError):
        model.reconstruct(5)


def test_compress_dispatch():
    rng = np.random.default_rng(14)
    s = snap(rng.normal(size=(6, 6)) + 4.0)
    pod = compress(s, "pod", 1e-2)
    assert pod.rank >= 1 and pod.operator is None
    dmd = compress(s, "dmd", 1e-2)
    assert dmd.operator is not None and not np.any(dmd.offset)
    dmde = compress(s, "dmd-e", 1e-2)
    assert np.array_equal(dmde.offset, s.data[:, -1])
    with pytest.raises(ValueError):
        compress(s, "nope", 1e-2)


def test_desk_models_reconstruct_real_over_xi_grid():
    # every method at every truncation of the rank tables yields finite real
    # closures on the desk snapshot set; accuracy is not asserted here
    from pathlib import Path

    from qdrom.analysis import XI_GRID
    from qdrom.container import load_snapshot_set
    data = Path(__file__).resolve().parents[1] / "benchmarks" / "data"
    matrices, _ = load_snapshot_set(data / "desk_snapshots.ddet")
    for method in ("pod", "dmd", "dmd-e"):
        for xi in XI_GRID:
            for name in SNAPSHOT_NAMES:
                mat = matrices[name]
                model = compress(mat, method, xi)
                for n in range(1, mat.n_steps + 1):
                    vec = model.reconstruct(n)
                    assert vec.dtype == np.float64 and vec.shape == (mat.data.shape[0],)
                    assert np.all(np.isfinite(vec)), (method, xi, name, n)
