"""Acceptance criteria at the desk-scale configuration.

Each test prints one PASS line; the heavy runs (full-order reference and the
reduced-order re-solves) are session-cached fixtures shared by the criteria.
"""
from pathlib import Path

import numpy as np
import pytest

from qdrom.analysis import (
    XI_GRID,
    boundary_averages,
    breakout_time,
    relative_error_series,
    singular_value_report,
)
from qdrom.config import preset
from qdrom.container import load_run_record
from qdrom.drivers import (
    SNAPSHOT_NAMES,
    build_problem,
    closure_unknowns,
    playback_models,
    record_snapshots,
    run_fom,
    run_rom,
    _initial_state,
)
from qdrom.lowrank import (
    SnapshotMatrix, compress, pod_compress, select_rank, truncated_svd,
)
from qdrom.quadrature import build_quadrature
from qdrom.transport import TransportSolver, intensity_unknowns
from qdrom.materials import FrequencyGrid, MaterialModel
from qdrom.mesh import SpatialMesh


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="session")
def desk_problem():
    return build_problem(preset("fleck-cummings-desk"))


@pytest.fixture(scope="session")
def desk_fom(desk_problem):
    return run_fom(desk_problem)


@pytest.fixture(scope="session")
def desk_snapshots(desk_fom):
    return record_snapshots(desk_fom)


def rom_cache(problem, snapshots, method):
    """ROM runs by truncation, each solved once per session."""
    cache = {}

    def get(xi):
        if xi not in cache:
            models = {k: compress(snapshots[k], method, xi) for k in SNAPSHOT_NAMES}
            cache[xi] = run_rom(problem, models)
        return cache[xi]

    return get


@pytest.fixture(scope="session")
def pod_rom(desk_problem, desk_snapshots):
    return rom_cache(desk_problem, desk_snapshots, "pod")


@pytest.fixture(scope="session")
def dmd_rom(desk_problem, desk_snapshots):
    return rom_cache(desk_problem, desk_snapshots, "dmd")


def test_criterion_1_dimension_bookkeeping():
    cfg = preset("fleck-cummings-2d")
    d_f = closure_unknowns(cfg.nx, cfg.ny, cfg.n_groups)
    d_i = intensity_unknowns(cfg.nx, cfg.ny, cfg.n_groups, 4 * cfg.quadrature)
    assert d_f == 42_160
    assert d_i == 3_916_800
    assert d_i // d_f == 92
    assert round(d_i / d_f) == 93
    report("1 dimension bookkeeping (D_f = 42160, D_I = 3916800, ratio 93)")


@pytest.mark.parametrize("per_quadrant", [4, 36])
def test_criterion_2_closure_identities(per_quadrant):
    grid = FrequencyGrid(np.array([0.0, 1.0e7]))
    material = MaterialModel(heat_capacity=1.0)
    mesh = SpatialMesh.uniform(3, 3, 1.0, 1.0)
    solver = TransportSolver(mesh, build_quadrature(per_quadrant), grid, material,
                             np.full((1, 4), 0.8))
    iso = np.full(solver.shape, 0.8)
    rec = solver.compute_eddington(iso)
    for arr in (rec.fxx_c, rec.fyy_c, rec.fxx_v, rec.fyy_h):
        assert np.max(np.abs(arr - 1.0 / 3.0)) <= 1e-10
    for arr in (rec.fxy_v, rec.fxy_h):
        assert np.max(np.abs(arr)) <= 1e-10
    assert np.max(np.abs(rec.cb - 0.5)) <= 1e-10
    report(f"2 closure identities (isotropic f = 1/3, C = 1/2; {4 * per_quadrant} directions)")


def test_criterion_3_conservation(desk_problem, desk_fom):
    cfg = desk_problem.config
    area = cfg.dx * cfg.dy
    _, mg0 = _initial_state(desk_problem)
    e_prev = mg0.e_cell.sum(axis=0)
    t_prev = np.full((cfg.ny, cfg.nx), cfg.t_initial)
    worst = 0.0
    for n in range(cfg.n_steps):
        d_rad = (desk_fom.e_cell[n] - e_prev).sum() * area / cfg.dt
        d_mat = cfg.heat_capacity * (desk_fom.temperature[n] - t_prev).sum() * area / cfg.dt
        leak = (desk_fom.f_vface[n, :, -1].sum() - desk_fom.f_vface[n, :, 0].sum()) * cfg.dy \
            + (desk_fom.f_hface[n, -1, :].sum() - desk_fom.f_hface[n, 0, :].sum()) * cfg.dx
        scale = abs(d_rad) + abs(d_mat) + abs(leak)
        worst = max(worst, abs(d_rad + d_mat + leak) / scale)
        e_prev = desk_fom.e_cell[n]
        t_prev = desk_fom.temperature[n]
    assert worst <= 1e-10
    assert desk_fom.positivity_violations == 0
    report(f"3 global energy conservation (worst residual {worst:.2e})")


def test_criterion_4_identity_playback(desk_problem, desk_fom, desk_snapshots):
    rom = run_rom(desk_problem, playback_models(desk_snapshots))
    series = relative_error_series(rom, desk_fom)
    worst = max(series.err_temperature.max(), series.err_energy.max())
    assert worst <= 1e-10
    report(f"4 exact-closure consistency (worst relative error {worst:.2e})")


def test_criterion_5_full_rank_pod(desk_fom, pod_rom):
    series = relative_error_series(pod_rom(1e-16), desk_fom)
    worst = max(series.err_temperature.max(), series.err_energy.max())
    assert worst <= 1e-9
    report(f"5 full-rank POD reproduction (worst relative error {worst:.2e})")


def check_monotone_convergence(method, rom, desk_fom):
    errs_t, errs_e = [], []
    for xi in (1e-2, 1e-4, 1e-6):
        series = relative_error_series(rom(xi), desk_fom)
        errs_t.append(series.err_temperature.max())
        errs_e.append(series.err_energy.max())
    for errs in (errs_t, errs_e):
        assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2]
    # reported, not asserted: the full-scale proportionality e ~ 1e-2 xi
    ratios = [e / xi for e, xi in zip(errs_t, (1e-2, 1e-4, 1e-6))]
    report(f"6 monotone {method} convergence "
           f"(max T errors {errs_t[0]:.2e}, {errs_t[1]:.2e}, {errs_t[2]:.2e}; "
           f"e/xi = {ratios[0]:.2e}, {ratios[1]:.2e}, {ratios[2]:.2e})")


def test_criterion_6_monotone_pod_convergence(desk_fom, pod_rom):
    check_monotone_convergence("POD", pod_rom, desk_fom)


def test_criterion_6_monotone_dmd_convergence(desk_fom, dmd_rom):
    check_monotone_convergence("DMD", dmd_rom, desk_fom)


#: largest 50-step T errors when every ROM step ran to outer_tol (1e-14)
FULL_STOP_T_ERRORS = {"pod": (7.51e-4, 4.01e-7, 1.77e-9),
                      "dmd": (3.82e-3, 1.65e-5, 1.15e-7)}


@pytest.mark.parametrize("method", sorted(FULL_STOP_T_ERRORS))
def test_rom_stop_keeps_the_errors_of_the_full_stop(desk_fom, pod_rom, dmd_rom, method):
    # stopping at the models' own truncation saves solves, not accuracy
    rom = pod_rom if method == "pod" else dmd_rom
    for xi, want in zip((1e-2, 1e-4, 1e-6), FULL_STOP_T_ERRORS[method]):
        got = relative_error_series(rom(xi), desk_fom).err_temperature.max()
        assert got == pytest.approx(want, rel=0.05), xi
    if method == "pod":
        assert rom(1e-6).iterations.sum() < 500  # 574 at the full stop


def test_criterion_7_dmd_rank_economy(desk_snapshots):
    reports = singular_value_report(desk_snapshots, XI_GRID)
    for rep in reports:
        for xi in XI_GRID:
            assert rep.ranks["dmd"][xi] <= rep.ranks["pod"][xi], \
                f"{rep.name} at xi={xi:g}"
    # the chosen ranks of actual compressed models agree with the tables
    for name in ("fxx_c", "cb"):
        for xi in (1e-2, 1e-6):
            pod = pod_compress(desk_snapshots[name], xi)
            dmd = compress(desk_snapshots[name], "dmd", xi)
            assert dmd.rank <= pod.rank
    report("7 DMD rank economy (rank_dmd <= rank_pod on all 7 matrices, full xi grid)")


def test_criterion_8_dmd_linear_system_oracle():
    b = np.diag([0.9, 0.5])
    cols = [np.array([1.3, 0.7])]
    for _ in range(9):
        cols.append(b @ cols[-1])
    a = np.stack(cols, axis=1)
    model = compress(SnapshotMatrix("oracle", a, {}), "dmd", 1e-12)
    eigenvalues = np.linalg.eigvals(model.operator)
    assert np.allclose(np.sort(eigenvalues.real), [0.5, 0.9], atol=1e-10)
    assert np.max(np.abs(eigenvalues.imag)) <= 1e-10
    for n in range(1, 11):
        assert np.allclose(model.reconstruct(n), a[:, n - 1], atol=1e-10)
    report("8 linear-system DMD oracle (eigenvalues and reconstruction to 1e-10)")


def test_criterion_9_eckart_young_suite():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        d = rng.integers(3, 25)
        m = rng.integers(2, 15)
        a = rng.normal(size=(d, m)) * 10.0 ** rng.integers(-3, 4)
        u, s, vt = truncated_svd(a)
        total = np.sum(s**2)
        for k in range(1, min(d, m) + 1):
            a_k = (u[:, :k] * s[:k]) @ vt[:k, :]
            tail = np.sum(s[k:] ** 2)
            err = np.linalg.norm(a - a_k, "fro") ** 2
            assert err == pytest.approx(tail, rel=1e-10, abs=1e-10 * total)
        xi = 10.0 ** rng.uniform(-14, 0)
        k_sel = select_rank(s, xi)
        assert np.sum(s[k_sel:] ** 2) <= xi**2 * total
        if k_sel > 1:
            assert np.sum(s[k_sel - 1:] ** 2) > xi**2 * total
    report("9 Eckart-Young and rank-selection suite (100 random matrices)")


def test_desk_fom_keeps_the_stored_fixed_point(desk_fom):
    # the stored reference was computed by an earlier iteration scheme; any
    # scheme converged to the stopping test reaches the same fixed point
    ref = load_run_record(Path(__file__).resolve().parents[1] / "benchmarks" / "data"
                          / "desk_fom.ddet")
    assert ref.n_steps == desk_fom.n_steps
    for name in ("temperature", "e_cell"):
        want = getattr(ref, name)
        assert np.max(np.abs(getattr(desk_fom, name) - want) / np.abs(want)) <= 1e-9, name


def test_desk_wavefront_monotone(desk_fom):
    # rightmost cell with T above half the drive never retreats
    half_drive = 0.5 * 1.0
    front = []
    for n in range(desk_fom.n_steps):
        hot = np.nonzero(np.any(desk_fom.temperature[n] > half_drive, axis=0))[0]
        front.append(hot.max() if hot.size else -1)
    assert np.all(np.diff(front) >= 0)
    assert front[-1] >= front[0]


def test_criterion_10_breakout_structure(desk_fom, pod_rom):
    fom_series = boundary_averages(desk_fom)
    for name, series in (("flux", fom_series.flux), ("energy", fom_series.energy)):
        running = np.maximum.accumulate(series)
        assert np.all(np.diff(series) >= -1e-12 * running[1:]), name
    rom_series = boundary_averages(pod_rom(1e-4))
    threshold = 0.5 * fom_series.flux.max()
    fom_hit = breakout_time(fom_series.times, fom_series.flux, threshold)
    rom_hit = breakout_time(rom_series.times, rom_series.flux, threshold)
    assert fom_hit.reached and rom_hit.reached
    assert abs(fom_hit.step - rom_hit.step) <= 1
    report(f"10 breakout structure (FOM step {fom_hit.step}, ROM step {rom_hit.step}, "
           f"threshold {threshold:.3e})")
