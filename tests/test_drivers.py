"""Driver-level checks: dimensions, determinism, playback, snapshots."""
import dataclasses

import numpy as np
import pytest

from qdrom import drivers
from qdrom.analysis import relative_error_series
from qdrom.config import RunConfig, preset
from qdrom.container import load_model, save_model
from qdrom.drivers import (
    DriverError,
    ModelMismatchError,
    RECORD_FIELDS,
    ROM_STOP_FRACTION,
    SNAPSHOT_NAMES,
    _anderson_update,
    build_problem,
    closure_unknowns,
    playback_models,
    record_snapshots,
    rom_tolerance,
    run_fom,
    run_rom,
)
from qdrom.loqd import GreyProblem, MomentSystem, MultigroupLoqdSolver, SolverError
from qdrom.lowrank import METHODS, compress
from qdrom.materials import MaterialModel
from qdrom.mesh import SIDES
from qdrom.transport import ClosureRecord, TransportSolver, intensity_unknowns


def test_dimension_bookkeeping_full_preset():
    cfg = preset("fleck-cummings-2d")
    d_f = closure_unknowns(cfg.nx, cfg.ny, cfg.n_groups)
    d_i = intensity_unknowns(cfg.nx, cfg.ny, cfg.n_groups, 144)
    assert d_f == 42_160
    assert d_i == 3_916_800
    assert d_i // d_f == 92
    assert round(d_i / d_f) == 93


def test_equilibrium_preset_keeps_temperature_constant():
    cfg = preset("equilibrium-2d")
    rec = run_fom(cfg)
    t0 = cfg.t_initial
    assert np.max(np.abs(rec.temperature - t0)) <= 1e-11 * t0
    assert np.all(rec.iterations >= 1)


def test_infinite_last_group_edge_runs_as_the_infinite_edge():
    # the suite turns RuntimeWarnings into errors, so a NaN step in the set-up fails here
    base = dataclasses.replace(preset("equilibrium-2d"), n_steps=2)
    runs = [run_fom(dataclasses.replace(base, group_bounds=(0.0, 0.7075, 2.83, last)))
            for last in (1e7, np.inf)]
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


def test_run_record_contents(tiny_config, tiny_fom):
    rec = tiny_fom
    nt = tiny_config.n_steps
    assert rec.n_steps == nt
    assert list(rec.snapshots) == list(SNAPSHOT_NAMES)
    assert all(data.shape[1] == nt for data in rec.snapshots.values())
    assert rec.mode == "fom"
    assert np.all(rec.temperature > 0.0)
    assert np.all(rec.e_cell > 0.0)
    assert rec.positivity_violations == 0
    assert np.all(rec.final_change <= 1.0)
    assert rec.iterations.shape == (nt,) and np.all(rec.iterations >= 1)


def test_snapshot_shapes(tiny_config, tiny_snapshots):
    cfg = tiny_config
    nt = cfg.n_steps
    d_c = cfg.nx * cfg.ny
    d_v = (cfg.nx + 1) * cfg.ny
    d_h = cfg.nx * (cfg.ny + 1)
    n_g = cfg.n_groups
    expected = {
        "fxx_c": n_g * d_c, "fyy_c": n_g * d_c,
        "fxx_v": n_g * d_v, "fxy_v": n_g * d_v,
        "fyy_h": n_g * d_h, "fxy_h": n_g * d_h,
        "cb": 2 * n_g * (cfg.nx + cfg.ny),
    }
    for name in SNAPSHOT_NAMES:
        assert tiny_snapshots[name].data.shape == (expected[name], nt)
    tensor_rows = sum(expected[k] for k in expected if k != "cb")
    assert tensor_rows == closure_unknowns(cfg.nx, cfg.ny, n_g)


def test_snapshot_rows_on_a_non_square_mesh():
    # nx != ny tells the vertical-face grid from the horizontal one
    nx, ny, n_g = 3, 2, 2
    cfg = RunConfig(nx=nx, ny=ny, dx=1.5, dy=1.5, group_bounds=(0.0, 1.0, 1.0e7),
                    quadrature=1, dt=0.02, n_steps=1, t_initial=0.001, boundary_left=1.0)
    rec = run_fom(cfg)
    expected = {"fxx_c": 12, "fyy_c": 12, "fxx_v": 16, "fxy_v": 16,
                "fyy_h": 18, "fxy_h": 18, "cb": 20}
    for name in SNAPSHOT_NAMES:
        assert rec.snapshots[name].shape == (expected[name], 1), name
    assert closure_unknowns(nx, ny, n_g) == 92


def test_full_preset_boundary_matrix_rows():
    cfg = preset("fleck-cummings-2d")
    assert 2 * cfg.n_groups * (cfg.nx + cfg.ny) == 1360
    assert cfg.n_steps == 300


def test_snapshot_roundtrip(tiny_config, tiny_snapshots, monkeypatch):
    # a closure record is one column of each snapshot matrix, in field order
    assert tuple(f.name for f in dataclasses.fields(ClosureRecord)) == SNAPSHOT_NAMES
    accepted = []
    store = drivers._store_step

    def keep(rec, n, step):
        accepted.append(step.closure)
        store(rec, n, step)

    monkeypatch.setattr(drivers, "_store_step", keep)
    run_fom(dataclasses.replace(tiny_config, n_steps=3))
    closure = accepted[2]
    columns = {name: tiny_snapshots[name].data[:, 2] for name in SNAPSHOT_NAMES}
    for name in SNAPSHOT_NAMES:
        assert getattr(closure, name).tobytes() == columns[name].tobytes(), name
    # the stored columns, made a record, gather to what the accepted closure does
    solver = build_problem(tiny_config).mg_solver
    stored, fom = solver.gather(ClosureRecord(**columns)), solver.gather(closure)
    for field in ("f", "boundary_diag", "boundary_rhs"):
        assert np.array_equal(getattr(stored, field), getattr(fom, field)), field


def test_record_snapshots_share_the_record_columns(tiny_fom, tiny_snapshots):
    for name in SNAPSHOT_NAMES:
        assert np.shares_memory(tiny_snapshots[name].data, tiny_fom.snapshots[name])
        assert np.array_equal(tiny_snapshots[name].data, tiny_fom.snapshots[name])


def test_degenerate_snapshot_sizes():
    cfg = RunConfig(nx=1, ny=1, dx=6.0, dy=6.0, group_bounds=(0.0, 1.0e7),
                    quadrature=1, dt=0.02, n_steps=3)
    rec = run_fom(cfg)
    mats = record_snapshots(rec)
    assert mats["fxx_c"].data.shape == (1, 3)
    assert mats["cb"].data.shape == (4, 3)


def test_determinism_bit_identical(tiny_config, tiny_fom):
    again = run_fom(tiny_config)
    assert np.array_equal(again.temperature, tiny_fom.temperature)
    assert np.array_equal(again.e_cell, tiny_fom.e_cell)
    assert np.array_equal(again.f_vface, tiny_fom.f_vface)
    for name in SNAPSHOT_NAMES:
        assert np.array_equal(again.snapshots[name], tiny_fom.snapshots[name]), name


def test_identity_playback_matches_fom(tiny_config, tiny_fom, tiny_snapshots):
    rom = run_rom(tiny_config, playback_models(tiny_snapshots))
    # the ROM records the closures it played back: the FOM's, bit for bit
    for name, mat in record_snapshots(rom).items():
        assert np.array_equal(mat.data, tiny_snapshots[name].data), name
    for n in range(tiny_config.n_steps):
        ref_t = np.linalg.norm(tiny_fom.temperature[n])
        ref_e = np.linalg.norm(tiny_fom.e_cell[n])
        assert np.linalg.norm(rom.temperature[n] - tiny_fom.temperature[n]) <= 1e-10 * ref_t
        assert np.linalg.norm(rom.e_cell[n] - tiny_fom.e_cell[n]) <= 1e-10 * ref_e


def assert_same_record(a, b):
    assert a.config_meta == b.config_meta
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in SNAPSHOT_NAMES:
        assert np.array_equal(a.snapshots[name], b.snapshots[name]), name


def tiny_models(snapshots, method, xi):
    return {k: compress(snapshots[k], method, xi) for k in SNAPSHOT_NAMES}


@pytest.mark.parametrize("method,xi,bound", [
    ("pod", 1e-10, 1e-7),
    ("dmd", 1e-10, 1e-4),
    ("dmd-e", 1e-10, 1e-4),
])
def test_compressed_rom_tracks_fom(tiny_config, tiny_fom, tiny_snapshots,
                                   method, xi, bound):
    rom = run_rom(tiny_config, tiny_models(tiny_snapshots, method, xi))
    series = relative_error_series(rom, tiny_fom)
    assert series.err_temperature.max() <= bound
    assert series.err_energy.max() <= bound


def test_rom_requires_all_models(tiny_config, tiny_snapshots):
    models = playback_models(tiny_snapshots)
    del models["cb"]
    with pytest.raises(ModelMismatchError, match="no closure model for 'cb'"):
        run_rom(tiny_config, models)


def test_rom_refuses_a_model_under_another_name_before_step_one(tiny_config, tiny_snapshots):
    # fxx_c and fyy_c share a grid, so swapping them passes every shape
    # check; only each model's own name tells.  Models recorded at another
    # dt or on another mesh, or whose rows do not fill their layout, are
    # refused the same way, naming the first model
    models = playback_models(tiny_snapshots)
    swapped = dict(models, fxx_c=models["fyy_c"], fyy_c=models["fxx_c"])
    short = playback_models({name: dataclasses.replace(m, data=m.data[1:])
                             for name, m in tiny_snapshots.items()})
    rows = tiny_snapshots["fxx_c"].data.shape[0]
    for cfg, given, message in (
            (tiny_config, swapped, "given for 'fxx_c' holds 'fyy_c'"),
            (tiny_config, short,
             f"model 'fxx_c' holds {rows - 1} values per step, not the {rows} of its layout"),
            (dataclasses.replace(tiny_config, dt=0.01), models,
             "time step mismatch for 'fxx_c': model dt 0.02, config dt 0.01"),
            (dataclasses.replace(tiny_config, nx=3), models, "layout mismatch for 'fxx_c'")):
        logged = []
        with pytest.raises(ModelMismatchError, match=message) as err:
            run_rom(cfg, given, log=lambda *args: logged.append(args))
        assert err.value.snapshot == "fxx_c"
        assert logged == []


def test_rom_refuses_models_shorter_than_the_run_before_step_one(tiny_config, tiny_snapshots):
    # playback models of 3 stored columns cannot extend past step 3: a
    # 5-step run is refused before its first step, naming the first such model
    models = playback_models({name: dataclasses.replace(m, data=m.data[:, :3])
                              for name, m in tiny_snapshots.items()})
    logged = []
    with pytest.raises(ModelMismatchError,
                       match=f"model '{SNAPSHOT_NAMES[0]}' covers steps 1..3") as err:
        run_rom(tiny_config, models, log=lambda *args: logged.append(args))
    assert err.value.snapshot == SNAPSHOT_NAMES[0]
    assert logged == []
    assert run_rom(dataclasses.replace(tiny_config, n_steps=3), models).n_steps == 3


@pytest.mark.parametrize("side", SIDES)
def test_boundary_key_drives_its_own_side(tiny_config, side):
    # one driven side at a time: the inflow is nonzero exactly on its faces
    keys = {f"boundary_{s}": 1.0 if s == side else None for s in SIDES}
    p = build_problem(dataclasses.replace(tiny_config, **keys))
    on_side = p.geom.boundary_side == SIDES.index(side)
    for table in (p.mg_solver.e_in, p.mg_solver.f_in):
        assert np.array_equal(table != 0.0, np.broadcast_to(on_side, table.shape))
    assert np.array_equal(p.transport.inflow != 0.0,
                          np.broadcast_to(np.array(SIDES) == side, p.transport.inflow.shape))


@pytest.mark.parametrize("outer_tol", [1e-14, 1e-6])
@pytest.mark.parametrize("method", METHODS)
def test_rom_stop_lies_between_outer_tol_and_the_truncation(tiny_config, tiny_snapshots,
                                                            method, outer_tol):
    # never tighter than outer_tol; never looser than the stop fraction of
    # the truncation, since no model discards more than xi_rel
    cfg = dataclasses.replace(tiny_config, outer_tol=outer_tol)
    for xi in (1e-1, 1e-2, 1e-4, 1e-8, 1e-300):
        tol = rom_tolerance(cfg, tiny_models(tiny_snapshots, method, xi))
        assert outer_tol <= tol <= max(outer_tol, ROM_STOP_FRACTION * xi)
    models = tiny_models(tiny_snapshots, method, 1e-2)
    rom = run_rom(cfg, models)
    assert rom.config_meta == {**cfg.to_dict(), "outer_tol": rom_tolerance(cfg, models)}


def test_derived_rom_stop_saves_solves_not_accuracy(tiny_config, tiny_fom, tiny_snapshots,
                                                   monkeypatch):
    models = tiny_models(tiny_snapshots, "pod", 1e-2)
    derived = run_rom(tiny_config, models)
    monkeypatch.setattr(drivers, "rom_tolerance", lambda config, models: config.outer_tol)
    fixed = run_rom(tiny_config, models)
    assert derived.config_meta["outer_tol"] > fixed.config_meta["outer_tol"]
    assert derived.iterations.sum() < fixed.iterations.sum()
    a, b = relative_error_series(derived, tiny_fom), relative_error_series(fixed, tiny_fom)
    assert a.err_temperature.max() == pytest.approx(b.err_temperature.max(), rel=1e-2)
    assert a.err_energy.max() == pytest.approx(b.err_energy.max(), rel=1e-2)


def test_playback_rom_stops_at_outer_tol(tiny_config, tiny_snapshots, monkeypatch):
    # playback models discard nothing, so the ROM keeps the stop it had
    # before the stop was derived from the models, bit for bit
    rom = run_rom(tiny_config, playback_models(tiny_snapshots))
    assert rom.config_meta == tiny_config.to_dict()
    monkeypatch.setattr(drivers, "rom_tolerance", lambda config, models: config.outer_tol)
    assert_same_record(rom, run_rom(tiny_config, playback_models(tiny_snapshots)))


@pytest.mark.parametrize("method", METHODS)
def test_stored_models_give_the_same_rom(tiny_config, tiny_snapshots, tmp_path, method):
    # the compress -> save -> load -> rom path of the command line and the benchmark
    models = tiny_models(tiny_snapshots, method, 1e-2)
    loaded = {}
    for name, model in models.items():
        save_model(tmp_path / f"{name}.ddet", model)
        loaded[name] = load_model(tmp_path / f"{name}.ddet")
    assert_same_record(run_rom(tiny_config, models), run_rom(tiny_config, loaded))


@pytest.mark.parametrize("mode", ["fom", "rom"])
def test_driver_error_on_iteration_cap(tiny_config, tiny_snapshots, mode, monkeypatch):
    # MAX_OUTER caps the outer iteration of both drivers
    monkeypatch.setattr(drivers, "MAX_OUTER", 1)
    with pytest.raises(DriverError, match=f"{mode.upper()} step 1: no convergence in 1 "):
        if mode == "fom":
            run_fom(tiny_config)
        else:
            run_rom(tiny_config, playback_models(tiny_snapshots))


def affine_contraction(n, seed=0):
    # x -> A x + b with positive A, b: positive iterates, spectral radius 0.9
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, (n, n))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    b = rng.uniform(0.5, 1.0, n)
    return (lambda x: A @ x + b), np.linalg.solve(np.eye(n) - A, b)


def test_anderson_depth_zero_is_plain_update():
    g, _ = affine_contraction(4)
    pairs = []
    x = np.ones(4)
    for _ in range(3):
        pairs.append((x, g(x)))
        x = _anderson_update(pairs, 0)
        assert x is pairs[-1][1]


@pytest.mark.parametrize("depth", [6, 10])
def test_anderson_linear_map_converges_in_n_plus_one_updates(depth):
    # Anderson mixing of a linear map is GMRES-equivalent: with the full
    # history it reaches the fixed point within n + 1 updates
    n = 6
    g, fixed = affine_contraction(n)
    pairs = []
    x = np.ones(n)
    for _ in range(n + 1):
        pairs.append((x, g(x)))
        x = _anderson_update(pairs, depth)
    assert np.max(np.abs(x - fixed) / fixed) <= 1e-12
    picard = np.ones(n)
    for _ in range(n + 1):
        picard = g(picard)
    assert np.max(np.abs(picard - fixed) / fixed) > 0.1


def test_anderson_nonpositive_mix_falls_back_to_plain_update():
    # the secant step of x -> x / 2 - 1 from x = 10, 4 lands on its fixed
    # point -2; the update keeps the plain image 1 instead
    g = lambda x: 0.5 * x - 1.0
    x0, x1 = np.array([10.0]), np.array([4.0])
    pairs = [(x0, g(x0)), (x1, g(x1))]
    assert np.array_equal(_anderson_update(pairs, 10), g(x1))
    # a positive extrapolation is taken: x -> x / 2 + 1 has fixed point 2
    g = lambda x: 0.5 * x + 1.0
    pairs = [(x0, g(x0)), (x1, g(x1))]
    assert _anderson_update(pairs, 10) == pytest.approx([2.0], rel=1e-14)


def run_mode(mode, config, snapshots):
    if mode == "fom":
        return run_fom(config)
    return run_rom(config, playback_models(snapshots))


@pytest.mark.parametrize("mode", ["fom", "rom"])
def test_anderson_reaches_the_picard_fixed_point(tiny_config, tiny_fom, tiny_snapshots,
                                                 mode, monkeypatch):
    mixed = tiny_fom if mode == "fom" else run_mode(mode, tiny_config, tiny_snapshots)
    monkeypatch.setattr(drivers, "ANDERSON_DEPTH", 0)
    picard = run_mode(mode, tiny_config, tiny_snapshots)
    for name in ("temperature", "e_cell"):
        ref = getattr(picard, name)
        assert np.max(np.abs(getattr(mixed, name) - ref) / np.abs(ref)) <= 1e-10
    assert mixed.iterations.sum() < picard.iterations.sum()


@pytest.mark.parametrize("mode", ["fom", "rom"])
def test_temperature_response_reaches_the_same_fixed_point(tiny_config, tiny_fom,
                                                          tiny_snapshots, mode, monkeypatch):
    # without the grey opacities' temperature response the grey solve lags
    # the spectrum: the same fixed point, reached in more low-order solves
    on = tiny_fom if mode == "fom" else run_mode(mode, tiny_config, tiny_snapshots)

    averages = drivers.compute_grey_coefficients

    def fixed(*args):
        co = averages(*args)
        zero = np.zeros_like(co.dkbar_e)
        return dataclasses.replace(co, dkbar_e=zero, dkbar_b=zero)

    monkeypatch.setattr(drivers, "compute_grey_coefficients", fixed)
    off = run_mode(mode, tiny_config, tiny_snapshots)
    for name in ("temperature", "e_cell"):
        ref = getattr(off, name)
        assert np.max(np.abs(getattr(on, name) - ref) / np.abs(ref)) <= 1e-10
    assert on.iterations.sum() < off.iterations.sum()


def test_one_node_term_evaluation_per_iterate(tiny_config, monkeypatch):
    # the opacities and their T-derivatives come from one pass over the
    # Planck-node terms, and the spectral fields are evaluated once per
    # low-order iterate (the initial state needs only the Planck emission)
    counts = {"node_terms": 0, "fields": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MaterialModel, "_node_terms",
                        counted(MaterialModel._node_terms, "node_terms"))
    monkeypatch.setattr(drivers, "_spectral_fields",
                        counted(drivers._spectral_fields, "fields"))
    rec = run_fom(dataclasses.replace(tiny_config, n_steps=2))
    assert counts["fields"] == rec.iterations.sum() > 0
    assert counts["node_terms"] == counts["fields"]


def test_fom_sweeps_once_per_low_order_solve(tiny_config, tiny_fom, tiny_snapshots):
    assert np.all(tiny_fom.sweeps >= 1)
    assert np.array_equal(tiny_fom.sweeps, tiny_fom.iterations - 1)
    rom = run_rom(tiny_config, playback_models(tiny_snapshots))
    assert np.array_equal(rom.sweeps, np.zeros(tiny_config.n_steps))


def test_fom_step_starts_from_the_closure_it_has():
    # at equilibrium the starting closure already holds the fixed point, yet
    # no step is accepted before its first sweep: two solves, one sweep
    fom = run_fom(preset("equilibrium-2d"))
    assert np.all(fom.sweeps >= 1)
    assert np.array_equal(fom.iterations, np.full(fom.n_steps, 2))
    assert np.array_equal(fom.sweeps, np.ones(fom.n_steps))


def test_fom_extracts_a_closure_per_sweep_and_one_at_the_start(tiny_config, tiny_fom,
                                                                monkeypatch):
    calls = []
    extract = TransportSolver.compute_eddington
    monkeypatch.setattr(TransportSolver, "compute_eddington",
                        lambda self, I: calls.append(I) or extract(self, I))
    fom = run_fom(tiny_config)
    assert_same_record(fom, tiny_fom)
    assert len(calls) == fom.sweeps.sum() + 1


def test_fom_start_closure_keeps_the_fixed_point(tiny_config, tiny_fom, monkeypatch):
    # a run that sweeps on every iterate, the first one too, reaches the
    # same temperatures
    advance, sweep, sweeps = drivers._advance_step, TransportSolver.sweep, []
    monkeypatch.setattr(drivers, "_advance_step",
                        lambda *args, start=None: advance(*args))
    monkeypatch.setattr(TransportSolver, "sweep",
                        lambda self, *args: sweeps.append(1) or sweep(self, *args))
    swept = run_fom(tiny_config)
    assert len(sweeps) == swept.iterations.sum()
    assert np.max(np.abs(swept.temperature - tiny_fom.temperature)) <= 1e-12


def test_closure_gathered_once_per_step_in_the_rom(tiny_config, tiny_fom, tiny_snapshots,
                                                   monkeypatch):
    # a ROM step's closure is fixed, so its columns are gathered once per
    # step; the FOM's closure comes from each sweep and from the initial
    # intensity, and is gathered once each.  Each gather takes a new record
    gathered = []
    gather = MultigroupLoqdSolver.gather
    monkeypatch.setattr(MultigroupLoqdSolver, "gather",
                        lambda self, closure: gathered.append(closure) or gather(self, closure))
    rom = run_rom(tiny_config, tiny_models(tiny_snapshots, "pod", 1e-6))
    assert np.all(rom.iterations > 1)
    assert len(gathered) == tiny_config.n_steps
    assert len({id(closure) for closure in gathered}) == len(gathered)
    gathered.clear()
    fom = run_fom(tiny_config)
    assert_same_record(fom, tiny_fom)
    assert len(gathered) == fom.iterations.sum() - tiny_config.n_steps + 1
    assert len({id(closure) for closure in gathered}) == len(gathered)


def test_edited_closure_is_gathered_again(tiny_config, tiny_fom):
    # nothing is cached on the record: gathering it after an in-place edit
    # gives the edited entries, as gathering a fresh copy does
    solver = drivers.build_problem(tiny_config).mg_solver
    cfg = tiny_config
    closure = ClosureRecord(**{name: tiny_fom.snapshots[name][:, 0].copy()
                               for name in SNAPSHOT_NAMES})
    before = solver.gather(closure)
    closure.fxy_h.reshape(cfg.n_groups, cfg.ny + 1, cfg.nx)[:, 1, 2] += 0.01
    closure.cb[3] *= 1.1  # group 0, boundary face 3
    after = solver.gather(closure)
    fresh = solver.gather(dataclasses.replace(
        closure, **{f.name: getattr(closure, f.name).copy()
                    for f in dataclasses.fields(closure)}))
    vertical = slice(0, 2 * solver.system.n_cells)  # the half cells that read fxy_h
    assert not np.array_equal(before.f[..., vertical], after.f[..., vertical])
    assert not np.array_equal(before.boundary_diag, after.boundary_diag)
    for field in ("f", "boundary_diag", "boundary_rhs"):
        assert np.array_equal(getattr(after, field), getattr(fresh, field))


@pytest.mark.parametrize("mode", ["fom", "rom"])
def test_face_fluxes_recovered_once_per_level_per_step(tiny_config, tiny_fom, tiny_snapshots,
                                                       mode, monkeypatch):
    # only the accepted iterate's fluxes are read: each step recovers them
    # once for the multigroup level (group axis first), then once for grey
    recovered = []
    recover = MomentSystem.face_fluxes

    def counted(self, state, flux):
        recovered.append((state.e_cell.ndim, recover(self, state, flux)))
        return recovered[-1][1]

    monkeypatch.setattr(MomentSystem, "face_fluxes", counted)
    if mode == "fom":
        rec = run_fom(tiny_config)
        assert_same_record(rec, tiny_fom)
    else:
        rec = run_rom(tiny_config, tiny_models(tiny_snapshots, "pod", 1e-6))
    assert np.all(rec.iterations > 1)
    assert [ndim for ndim, _ in recovered] == [3, 2] * tiny_config.n_steps
    grey = [fluxes for ndim, fluxes in recovered if ndim == 2]
    assert np.array_equal(rec.f_vface, [f_v for f_v, _ in grey])
    assert np.array_equal(rec.f_hface, [f_h for _, f_h in grey])


@pytest.mark.parametrize("level", ["multigroup", "grey"])
def test_nonfinite_flux_coefficient_raises_at_acceptance(tiny_config, level, monkeypatch):
    # the fluxes are checked where they are recovered: a flux coefficient
    # that is non-finite only after its level's solve still raises
    if level == "multigroup":
        averages = drivers.compute_grey_coefficients

        def poisoned(*args):
            co = averages(*args)
            args[6].p[1, 3] = np.nan  # the group flux coefficients, group 1
            return co
        monkeypatch.setattr(drivers, "compute_grey_coefficients", poisoned)
        match = "flux recovery returned non-finite values in group 1"
    else:
        solve = GreyProblem.solve

        def poisoned(self):
            state = solve(self)
            self.coeffs.flux.d[2, 2 * self.system.n_cells + 5] = np.inf  # a horizontal half cell
            return state
        monkeypatch.setattr(GreyProblem, "solve", poisoned)
        match = "flux recovery returned non-finite values$"
    with pytest.raises(SolverError, match=match):
        run_fom(dataclasses.replace(tiny_config, n_steps=1))


def test_monotone_heating_under_constant_drive(tiny_config, tiny_fom):
    # domain-integrated material energy never decreases with the wall drive on
    cfg = tiny_config
    area = cfg.dx * cfg.dy
    energy = cfg.heat_capacity * tiny_fom.temperature.sum(axis=(1, 2)) * area
    drops = np.diff(energy)
    assert np.all(drops >= -1e-12 * np.abs(energy[1:]))


def test_conservation_per_step(tiny_config, tiny_fom):
    # radiation + material energy change balances boundary leakage
    cfg = tiny_config
    area = cfg.dx * cfg.dy
    c_v = cfg.heat_capacity
    t0 = np.full((cfg.ny, cfg.nx), cfg.t_initial)
    from qdrom.drivers import build_problem, _initial_state
    p = build_problem(cfg)
    _, mg0 = _initial_state(p)
    e_prev = mg0.e_cell.sum(axis=0)
    t_prev = t0
    worst = 0.0
    for n in range(cfg.n_steps):
        e_now = tiny_fom.e_cell[n]
        t_now = tiny_fom.temperature[n]
        d_rad = (e_now - e_prev).sum() * area / cfg.dt
        d_mat = c_v * (t_now - t_prev).sum() * area / cfg.dt
        leak = (tiny_fom.f_vface[n, :, -1].sum() - tiny_fom.f_vface[n, :, 0].sum()) * cfg.dy \
            + (tiny_fom.f_hface[n, -1, :].sum() - tiny_fom.f_hface[n, 0, :].sum()) * cfg.dx
        scale = abs(d_rad) + abs(d_mat) + abs(leak)
        worst = max(worst, abs(d_rad + d_mat + leak) / scale)
        e_prev, t_prev = e_now, t_now
    assert worst <= 1e-10
