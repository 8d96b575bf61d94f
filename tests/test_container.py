"""Container format: round-trips, corruption handling, typed helpers."""
import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrom.config import RunConfig
from qdrom.container import (
    FormatError,
    load_model,
    load_run_record,
    load_snapshot_set,
    read_container,
    save_model,
    save_run_record,
    save_snapshot_set,
    write_container,
)
from qdrom.drivers import record_snapshots
from qdrom.lowrank import compress, pod_compress


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(7, 3)),
        "b": np.array([1e-310, -0.0, np.pi, 1e300]),  # subnormal and signed zero
    }
    path = tmp_path / "t.ddet"
    write_container(path, "results", {"note": "x", "n": 3}, arrays)
    kind, desc, back = read_container(path)
    assert kind == "results"
    assert desc == {"note": "x", "n": 3}
    assert back["a"].tobytes() == arrays["a"].tobytes()
    assert back["b"].tobytes() == arrays["b"][None, :].tobytes()


def decode_arrays(raw: bytes) -> dict:
    """Oracle: the arrays of a container decoded from its bytes with struct and
    np.frombuffer (read-only views of `raw`)."""
    (desc_len,) = struct.unpack_from("<I", raw, 24)
    (count,) = struct.unpack_from("<I", raw, 28 + desc_len)
    at, out = 32 + desc_len, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, at)
        name = raw[at + 4:at + 4 + name_len].decode("utf-8")
        rows, cols = struct.unpack_from("<QQ", raw, at + 4 + name_len)
        at += 20 + name_len
        out[name] = np.frombuffer(raw, "<f8", rows * cols, at).reshape(rows, cols)
        at += 8 * rows * cols
    assert at == len(raw)
    return out


@pytest.mark.parametrize("source", ["desk_fom.ddet", "desk_snapshots.ddet", "fc2d_fom.ddet",
                                    "dmd model"])
def test_read_arrays_are_bit_exact_and_own_their_memory(tmp_path, tiny_snapshots, source):
    if source == "dmd model":
        path = tmp_path / "m.ddet"
        save_model(path, compress(tiny_snapshots["cb"], "dmd", 1e-8))
    else:
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / source
    _, _, arrays = read_container(path)
    want = decode_arrays(path.read_bytes())
    assert list(arrays) == list(want)
    for name, arr in arrays.items():
        assert arr.dtype == np.dtype("<f8") and arr.tobytes() == want[name].tobytes(), name
        assert arr.shape == want[name].shape, name
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous, name
    names = list(arrays)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not np.shares_memory(arrays[a], arrays[b]), (a, b)


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {"x": rng.normal(size=(4, 4))}
    p1, p2 = tmp_path / "a.ddet", tmp_path / "b.ddet"
    write_container(p1, "results", {"k": 1}, arrays)
    write_container(p2, "results", {"k": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ddet"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(FormatError):
        read_container(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v.ddet"
    write_container(path, "results", {}, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_container(path)


def test_truncation_and_trailing(tmp_path):
    path = tmp_path / "t.ddet"
    write_container(path, "results", {}, {"x": np.arange(6.0)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        read_container(path)
    path.write_bytes(raw + b"extra")
    with pytest.raises(FormatError):
        read_container(path)


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_container(tmp_path / "x.ddet", "mystery", {}, {})


@pytest.mark.parametrize("existing", [False, True], ids=["new target", "existing target"])
def test_refused_write_leaves_no_file_behind(tmp_path, existing):
    # a 3-D array is refused mid-write, after the 1-D one was written
    path = tmp_path / "r.ddet"
    if existing:
        write_container(path, "results", {"k": 1}, {"x": np.arange(3.0)})
    before = path.read_bytes() if existing else None
    with pytest.raises(ValueError, match="1-D or 2-D"):
        write_container(path, "results", {}, {"a": np.zeros(3), "b": np.zeros((2, 2, 2))})
    assert not path.with_name(path.name + ".tmp").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == (["r.ddet"] if existing else [])
    if existing:
        assert path.read_bytes() == before


def test_snapshot_set_roundtrip(tmp_path, tiny_snapshots, tiny_config):
    path = tmp_path / "snaps.ddet"
    save_snapshot_set(path, tiny_snapshots, tiny_config.to_dict())
    back, meta = load_snapshot_set(path)
    assert meta["nx"] == tiny_config.nx
    for name, mat in tiny_snapshots.items():
        assert np.array_equal(back[name].data, mat.data)
        assert back[name].layout == mat.layout
        assert back[name].dt == mat.dt


def test_pod_model_roundtrip(tmp_path, tiny_snapshots):
    model = pod_compress(tiny_snapshots["fxx_c"], 1e-6)
    path = tmp_path / "m.ddet"
    save_model(path, model)
    back = load_model(path)
    assert back.rank == model.rank
    assert back.xi_rel == model.xi_rel
    for n in (1, 3, 5):
        assert np.array_equal(back.reconstruct(n), model.reconstruct(n))


@pytest.mark.parametrize("method", ["dmd", "dmd-e"])
def test_dmd_model_roundtrip(tmp_path, tiny_snapshots, method):
    model = compress(tiny_snapshots["cb"], method, 1e-8)
    path = tmp_path / "m.ddet"
    save_model(path, model)
    back = load_model(path)
    assert np.array_equal(back.operator, model.operator)
    assert np.array_equal(back.offset, model.offset)
    for n in (1, 2, 5, 9):
        assert np.array_equal(back.reconstruct(n), model.reconstruct(n))


def test_run_record_roundtrip(tmp_path, tiny_fom):
    # every field but the closure snapshots, which a run record does not store
    run = dataclasses.replace(tiny_fom, positivity_violations=2)
    path = tmp_path / "run.ddet"
    save_run_record(path, run)
    back = load_run_record(path)
    assert back.snapshots is None
    with pytest.raises(ValueError, match="one closure per step"):
        record_snapshots(back)
    for f in dataclasses.fields(run):
        if f.name == "snapshots":
            continue
        want, got = getattr(run, f.name), getattr(back, f.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and np.array_equal(got, want), f.name
        else:
            assert got == want, f.name
    assert np.all(back.sweeps >= 1)
    # records that still carry the retired grey Newton counts load; the array is ignored
    kind, desc, arrays = read_container(path)
    arrays["newton_iterations"] = 2.0 * arrays["iterations"]
    write_container(path, kind, desc, arrays)
    back = load_run_record(path)
    assert not hasattr(back, "newton_iterations")
    assert np.array_equal(back.iterations, run.iterations)
    assert np.array_equal(back.temperature, run.temperature)
    # records written before the sweep counts were stored load them as 0
    del arrays["sweeps"]
    write_container(path, kind, desc, arrays)
    back = load_run_record(path)
    assert back.sweeps.dtype.kind == "i" and np.array_equal(back.sweeps, np.zeros(run.n_steps))
    assert np.array_equal(back.iterations, run.iterations)
    stored = load_run_record(Path(__file__).resolve().parents[1] / "benchmarks" / "data"
                             / "desk_fom.ddet")
    assert np.array_equal(stored.sweeps, np.zeros(stored.n_steps))


def test_stored_config_with_retired_keys_loads(tmp_path, tiny_fom, tiny_snapshots,
                                               tiny_config):
    # containers written before the retired keys were removed
    meta = {**tiny_config.to_dict(), "threads": 1, "seed": None,
            "xi_rel": [1e-2, 1e-4], "method": "pod",
            "inner_tol_rel": 1e-14, "inner_tol_abs": 1e-15, "max_inner": 500,
            "newton_tol": 1e-13, "max_newton": 100}
    run = dataclasses.replace(tiny_fom, config_meta=meta)
    path = tmp_path / "run.ddet"
    save_run_record(path, run)
    back = load_run_record(path)
    assert back.config_meta == meta
    assert np.array_equal(back.temperature, tiny_fom.temperature)
    # records written before positivity_violations was stored load it as 0
    kind, desc, arrays = read_container(path)
    del desc["positivity_violations"]
    write_container(path, kind, desc, arrays)
    assert load_run_record(path).positivity_violations == 0
    matrices = record_snapshots(run)
    for name, mat in tiny_snapshots.items():
        assert np.array_equal(matrices[name].data, mat.data)
    path = tmp_path / "snaps.ddet"
    save_snapshot_set(path, matrices, meta)
    back_matrices, back_meta = load_snapshot_set(path)
    assert back_meta == meta
    assert RunConfig.from_dict(back_meta) == tiny_config
    assert np.array_equal(back_matrices["cb"].data, tiny_snapshots["cb"].data)


@pytest.mark.parametrize("key, value", [("light_speed", 29.9792458),
                                        ("radiation_constant", 0.01372),
                                        ("outer_floor", 1e-15), ("max_outer", 500),
                                        ("heat_capacity", 0.008118123999999999),
                                        ("opacity_coeff", 27.0), ("opacity_exponent", 3.0),
                                        ("stimulated_correction", True)])
def test_stored_former_key_loads_only_at_its_built_in_value(tmp_path, tiny_fom, key, value):
    # the committed references hold these former options at their built-in values
    path = tmp_path / "run.ddet"
    save_run_record(path, dataclasses.replace(
        tiny_fom, config_meta={**tiny_fom.config_meta, key: value}))
    assert np.array_equal(load_run_record(path).temperature, tiny_fom.temperature)
    save_run_record(path, dataclasses.replace(
        tiny_fom, config_meta={**tiny_fom.config_meta, key: 3 * value}))
    with pytest.raises(FormatError, match=f"stored {key} = "):
        load_run_record(path)


@pytest.mark.parametrize("value", [np.nan, 2.5, -3.0])
@pytest.mark.parametrize("name", ["iterations", "sweeps", "negative_corners",
                                  "closure_violations", "positivity_violations"])
def test_run_record_counter_must_be_a_count(tmp_path, tiny_fom, name, value):
    path = tmp_path / "run.ddet"
    save_run_record(path, tiny_fom)
    kind, desc, arrays = read_container(path)
    if name in desc:  # a per-run count in the descriptor
        desc[name] = value
    else:
        arrays[name][0, 1] = value
    write_container(path, kind, desc, arrays)
    with pytest.raises(FormatError, match=name):
        load_run_record(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["temperature", "e_cell", "e_vface", "e_hface", "f_vface",
                                  "f_hface", "final_change"])
def test_run_record_values_must_be_finite(tmp_path, tiny_fom, name, value):
    path = tmp_path / "run.ddet"
    save_run_record(path, tiny_fom)
    kind, desc, arrays = read_container(path)
    arrays[name][0, 1] = value
    write_container(path, kind, desc, arrays)
    with pytest.raises(FormatError, match=f"'{name}' has non-finite values"):
        load_run_record(path)


@pytest.mark.parametrize("name, cut", [("iterations", np.s_[:, :2]),
                                       ("final_change", np.s_[:, 1:]),
                                       ("temperature", np.s_[:3])])
def test_run_record_arrays_hold_one_row_per_step(tmp_path, tiny_fom, name, cut):
    # a counter row or a grid array cut short must not load as a full record
    path = tmp_path / "run.ddet"
    save_run_record(path, tiny_fom)
    kind, desc, arrays = read_container(path)
    stored = arrays[name].shape
    arrays[name] = arrays[name][cut]
    write_container(path, kind, desc, arrays)
    cut_shape = arrays[name].shape
    with pytest.raises(FormatError, match=rf"'{name}' is stored as {cut_shape[0]}x"
                                          rf"{cut_shape[1]}, expected {stored[0]}x{stored[1]}"):
        load_run_record(path)


def test_run_record_transposed_grid_is_format_error(tmp_path, tiny_fom):
    # the right number of values in the wrong shape is not reshaped silently
    path = tmp_path / "run.ddet"
    save_run_record(path, tiny_fom)
    kind, desc, arrays = read_container(path)
    n_steps, n_cells = arrays["e_cell"].shape
    assert n_steps != n_cells
    arrays["e_cell"] = np.ascontiguousarray(arrays["e_cell"].T)
    write_container(path, kind, desc, arrays)
    with pytest.raises(FormatError, match=f"'e_cell' is stored as {n_cells}x{n_steps}, "
                                          f"expected {n_steps}x{n_cells}"):
        load_run_record(path)


def test_model_kind_mismatch(tmp_path, tiny_snapshots, tiny_config):
    path = tmp_path / "s.ddet"
    save_snapshot_set(path, tiny_snapshots, tiny_config.to_dict())
    with pytest.raises(FormatError):
        load_model(path)
    with pytest.raises(FormatError):
        load_run_record(path)


@pytest.mark.parametrize("kind", ["pod-model", "dmd-model"])
def test_retired_model_kinds_are_format_errors(tmp_path, tiny_snapshots, kind):
    # containers of the former split POD/DMD layout are no kind this version reads
    path = tmp_path / "m.ddet"
    save_model(path, pod_compress(tiny_snapshots["cb"], 1e-6))
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + kind.encode("ascii").ljust(16, b"\0") + raw[24:])
    with pytest.raises(FormatError, match=f"unknown payload kind '{kind}'"):
        load_model(path)


@pytest.mark.parametrize("fault", ["nan", "inf", "offset rows", "basis columns",
                                   "operator shape", "two offset rows", "layout"])
def test_model_contents_are_checked(tmp_path, tiny_snapshots, fault):
    path = tmp_path / "m.ddet"
    save_model(path, compress(tiny_snapshots["cb"], "dmd", 1e-8))
    kind, desc, arrays = read_container(path)
    if fault == "nan":
        arrays["coefficients"][0, 2] = np.nan
    elif fault == "inf":
        arrays["basis"][3, 0] = -np.inf
    elif fault == "offset rows":
        arrays["offset"] = arrays["offset"][:, :-1]
    elif fault == "basis columns":
        arrays["basis"] = arrays["basis"][:, :-1]
    elif fault == "operator shape":
        arrays["operator"] = arrays["operator"][:-1]
    elif fault == "two offset rows":
        arrays["offset"] = np.vstack([arrays["offset"]] * 2)
    else:
        desc["layout"] = 5
    write_container(path, kind, desc, arrays)
    with pytest.raises(FormatError):
        load_model(path)


# ---------------------------------------------------------------------------
# corrupted files: only FormatError may escape
# ---------------------------------------------------------------------------

def first_dims_offset(raw: bytes) -> int:
    """Byte offset of the (rows, cols) field of the first array."""
    desc_len = struct.unpack_from("<I", raw, 24)[0]
    name_len = struct.unpack_from("<I", raw, 32 + desc_len)[0]
    return 36 + desc_len + name_len


@pytest.fixture(scope="module")
def record_file(tmp_path_factory, tiny_fom):
    path = tmp_path_factory.mktemp("fuzz") / "run.ddet"
    save_run_record(path, tiny_fom)
    return path, path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_inputs(record_file, tmp_path_factory, tiny_snapshots):
    """(path, bytes, typed loader) of a run record and of a DMD model."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ddet"
    save_model(path, compress(tiny_snapshots["cb"], "dmd", 1e-8))
    return [(*record_file, load_run_record), (path, path.read_bytes(), load_model)]


FUZZ = settings(max_examples=60, deadline=None)


def load_corrupted(path, raw: bytes, load) -> None:
    path.write_bytes(raw)
    try:
        read_container(path)
        load(path)
    except FormatError:
        pass


@FUZZ
@given(data=st.data())
def test_fuzz_truncation(fuzz_inputs, data):
    path, raw, load = data.draw(st.sampled_from(fuzz_inputs))
    cut = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        read_container(path)
    with pytest.raises(FormatError):
        load(path)


@FUZZ
@given(data=st.data())
def test_fuzz_byte_flips(fuzz_inputs, data):
    path, raw, load = data.draw(st.sampled_from(fuzz_inputs))
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                               min_size=1, max_size=4))
    bad = bytearray(raw)
    for pos, mask in flips:
        bad[pos] ^= mask
    load_corrupted(path, bytes(bad), load)


@FUZZ
@given(rows=st.integers(0, 2**64 - 1), cols=st.integers(0, 2**64 - 1))
def test_fuzz_oversize_dims(record_file, rows, cols):
    path, raw = record_file
    at = first_dims_offset(raw)
    if struct.pack("<QQ", rows, cols) == raw[at:at + 16]:
        return
    path.write_bytes(raw[:at] + struct.pack("<QQ", rows, cols) + raw[at + 16:])
    with pytest.raises(FormatError):
        read_container(path)


def test_run_record_missing_array_is_format_error(tmp_path, tiny_fom):
    path = tmp_path / "run.ddet"
    save_run_record(path, tiny_fom)
    kind, desc, arrays = read_container(path)
    del arrays["e_hface"]
    write_container(path, kind, desc, arrays)
    with pytest.raises(FormatError, match="e_hface"):
        load_run_record(path)
    del desc["n_steps"]
    write_container(path, kind, desc, {})
    with pytest.raises(FormatError):
        load_run_record(path)
