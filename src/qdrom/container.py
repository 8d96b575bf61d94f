"""Self-describing binary container for snapshots, models and run records.

Layout (all integers little-endian):

    magic "DDET" | version u32 | kind (16 bytes, NUL-padded ascii)
    | descriptor length u32 | descriptor JSON (utf-8)
    | array count u32
    | per array: name length u32, name utf-8, rows u64, cols u64,
      rows*cols float64 payload (C order, little-endian)

Writers go through a temporary file and an atomic rename.  Readers take the
file's size once and count down the bytes left: a length or payload size
past the end is refused before anything is read or allocated, and each
payload is read straight into its own new array.
"""
from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"DDET"
VERSION = 1
KINDS = ("snapshot-set", "closure-model", "run-record", "results")

_U32 = struct.Struct("<I")
_DIMS = struct.Struct("<QQ")


class FormatError(ValueError):
    """Corrupt or incompatible container file."""


def write_container(path, kind: str, descriptor: dict, arrays: dict) -> None:
    """Write named float64 arrays with a JSON descriptor, atomically."""
    if kind not in KINDS:
        raise ValueError(f"unknown container kind '{kind}'")
    path = Path(path)
    desc = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_U32.pack(VERSION))
            fh.write(kind.encode("ascii").ljust(16, b"\0"))
            fh.write(_U32.pack(len(desc)))
            fh.write(desc)
            fh.write(_U32.pack(len(arrays)))
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr, dtype="<f8")
                if arr.ndim == 1:
                    arr = arr[None, :]
                if arr.ndim != 2:
                    raise ValueError(f"array '{name}' must be 1-D or 2-D")
                encoded = name.encode("utf-8")
                fh.write(_U32.pack(len(encoded)))
                fh.write(encoded)
                fh.write(_DIMS.pack(arr.shape[0], arr.shape[1]))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        # a refused or interrupted write leaves no partial file behind
        tmp.unlink(missing_ok=True)
        raise


def _decode(raw: bytes, encoding: str, what: str) -> str:
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as err:
        raise FormatError(f"undecodable {what}: {err}") from err


def read_container(path):
    """Read (kind, descriptor, arrays) back; validates sizes exactly."""
    path = Path(path)
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def claim(n: int, what: str) -> int:
            """Count n more bytes as read, refusing sizes beyond the end of the file."""
            nonlocal left
            if n > left:
                raise FormatError(f"truncated container while reading {what}")
            left -= n
            return n

        def take(n: int, what: str) -> bytes:
            buf = fh.read(claim(n, what))
            if len(buf) != n:
                raise FormatError(f"truncated container while reading {what}")
            return buf

        if take(4, "magic") != MAGIC:
            raise FormatError(f"{path}: bad magic bytes")
        version = _U32.unpack(take(4, "version"))[0]
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        kind = _decode(take(16, "kind").rstrip(b"\0"), "ascii", "kind")
        if kind not in KINDS:
            raise FormatError(f"{path}: unknown payload kind '{kind}'")
        desc_len = _U32.unpack(take(4, "descriptor length"))[0]
        try:
            descriptor = json.loads(take(desc_len, "descriptor"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise FormatError(f"{path}: bad descriptor JSON: {err}") from err
        count = _U32.unpack(take(4, "array count"))[0]
        arrays = {}
        for _ in range(count):
            nlen = _U32.unpack(take(4, "name length"))[0]
            name = _decode(take(nlen, "name"), "utf-8", "array name")
            if name in arrays:
                raise FormatError(f"{path}: array '{name}' stored twice")
            rows, cols = _DIMS.unpack(take(16, "dims"))
            what = f"payload of '{name}'"
            nbytes = claim(rows * cols * 8, what)
            try:
                arr = np.empty((rows, cols), dtype="<f8")
            except ValueError as err:  # a zero-size array with a dimension past the limit
                raise FormatError(f"{path}: bad dims {rows}x{cols} of '{name}'") from err
            if fh.readinto(arr) != nbytes:
                raise FormatError(f"truncated container while reading {what}")
            arrays[name] = arr
        if left:
            raise FormatError(f"{path}: trailing bytes after declared payload")
    return kind, descriptor, arrays


@contextmanager
def _typed_fields(path, kind: str):
    """Report a missing or malformed array or descriptor key as a FormatError."""
    try:
        yield
    except FormatError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: malformed {kind}: {type(err).__name__}: {err}") from err


# ---------------------------------------------------------------------------
# typed save/load helpers
# ---------------------------------------------------------------------------

def save_snapshot_set(path, matrices: dict, config_meta: dict) -> None:
    from .drivers import SNAPSHOT_NAMES
    first = matrices[SNAPSHOT_NAMES[0]]
    descriptor = {
        "config": config_meta,
        "layouts": {k: matrices[k].layout for k in SNAPSHOT_NAMES},
        "t0": first.t0, "dt": first.dt, "n_steps": first.n_steps,
    }
    write_container(path, "snapshot-set", descriptor,
                    {k: matrices[k].data for k in SNAPSHOT_NAMES})


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def load_snapshot_set(path):
    from .drivers import SNAPSHOT_NAMES, _snapshot_rows
    from .lowrank import SnapshotMatrix
    kind, desc, arrays = read_container(path)
    if kind != "snapshot-set":
        raise FormatError(f"{path}: expected snapshot-set, found {kind}")
    out = {}
    with _typed_fields(path, kind):
        for key in ("t0", "dt"):
            if not _finite_number(desc[key]):
                raise FormatError(f"{path}: snapshot-set '{key}' is not a finite number")
        for name in SNAPSHOT_NAMES:
            if name not in arrays:
                raise FormatError(f"{path}: snapshot matrix '{name}' missing")
            layout = desc["layouts"][name]
            if not isinstance(layout, dict):
                raise FormatError(f"{path}: layout of '{name}' is not an object")
            # one row per closure value of a step, one column per step
            shape = (_snapshot_rows(name, layout["nx"], layout["ny"], layout["n_groups"]),
                     desc["n_steps"])
            if arrays[name].shape != shape:
                raise FormatError(f"{path}: snapshot matrix '{name}' is stored as "
                                  f"{arrays[name].shape[0]}x{arrays[name].shape[1]}, "
                                  f"expected {shape[0]}x{shape[1]}")
            out[name] = SnapshotMatrix(name, arrays[name], layout, t0=desc["t0"], dt=desc["dt"])
        return out, desc.get("config", {})


def save_model(path, model) -> None:
    descriptor = {"name": model.name, "layout": model.layout,
                  "xi_rel": model.xi_rel, "t0": model.t0, "dt": model.dt}
    arrays = {"offset": model.offset, "basis": model.basis,
              "coefficients": model.coefficients,
              "singular_values": model.singular_values}
    if model.operator is not None:
        arrays["operator"] = model.operator
    write_container(path, "closure-model", descriptor, arrays)


def load_model(path):
    from .lowrank import ClosureModel
    kind, desc, arrays = read_container(path)
    if kind != "closure-model":
        raise FormatError(f"{path}: expected closure-model, found {kind}")
    with _typed_fields(path, kind):
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"{path}: model array '{name}' has non-finite values")
        (offset,), basis = arrays["offset"], arrays["basis"]
        coefficients, operator = arrays["coefficients"], arrays.get("operator")
        k = basis.shape[1]
        if (offset.size != basis.shape[0] or coefficients.shape[0] != k
                or (operator is not None and operator.shape != (k, k))):
            raise FormatError(
                f"{path}: model shapes disagree: offset {offset.shape}, basis "
                f"{basis.shape}, coefficients {coefficients.shape}, operator "
                f"{None if operator is None else operator.shape}")
        (singular_values,) = arrays["singular_values"]
        if not isinstance(desc["layout"], dict):
            raise FormatError(f"{path}: model layout is not an object")
        for key in ("t0", "dt"):
            if not _finite_number(desc[key]):
                raise FormatError(f"{path}: model '{key}' is not a finite number")
        if not (_finite_number(desc["xi_rel"]) and 0.0 < desc["xi_rel"] <= 1.0):
            raise FormatError(f"{path}: model 'xi_rel' is not a number in (0, 1]")
        return ClosureModel(
            name=desc["name"], offset=offset, basis=basis,
            coefficients=coefficients, singular_values=singular_values,
            xi_rel=desc["xi_rel"], layout=desc["layout"],
            t0=desc["t0"], dt=desc["dt"], operator=operator,
        )


def save_run_record(path, run) -> None:
    from .drivers import RECORD_FIELDS
    descriptor = {
        "mode": run.mode, "config": run.config_meta,
        "t0": run.time.t0, "dt": run.time.dt, "n_steps": run.time.n_steps,
        "positivity_violations": int(run.positivity_violations),
    }
    nt = run.time.n_steps
    arrays = {name: getattr(run, name).reshape(nt if isinstance(kind, str) else 1, -1)
              for name, kind in RECORD_FIELDS.items()}
    write_container(path, "run-record", descriptor, arrays)


def _counts(path, name: str, values) -> np.ndarray:
    """Stored counters as ints; each value must be whole and >= 0."""
    values = np.asarray(values, dtype=float)
    # NaN fails both comparisons; the upper limit keeps the cast exact
    if not np.all((values >= 0.0) & (values < 2.0**63) & (values == np.floor(values))):
        raise FormatError(f"{path}: '{name}' holds a value that is not a count")
    return values.astype(int)


def load_run_record(path):
    from .config import RunConfig
    from .drivers import RECORD_FIELDS, RunRecord, TimeGrid
    from .mesh import grid_shape
    kind, desc, arrays = read_container(path)
    if kind != "run-record":
        raise FormatError(f"{path}: expected run-record, found {kind}")
    with _typed_fields(path, kind):
        cfg = RunConfig.from_dict(desc["config"])
        nt = desc["n_steps"]
        fields = {}
        for name, field_kind in RECORD_FIELDS.items():
            # records written before sweeps were stored load them as 0
            values = arrays.get(name, np.zeros((1, nt))) if name == "sweeps" else arrays[name]
            rows, cols = (nt, np.prod(grid_shape(field_kind, cfg.nx, cfg.ny))) \
                if isinstance(field_kind, str) else (1, nt)
            if values.shape != (rows, cols):
                raise FormatError(f"{path}: run-record array '{name}' is stored as "
                                  f"{values.shape[0]}x{values.shape[1]}, expected {rows}x{cols}")
            if field_kind is int:
                fields[name] = _counts(path, name, values[0])
            elif not np.all(np.isfinite(values)):
                raise FormatError(f"{path}: run-record array '{name}' has non-finite values")
            elif field_kind is float:
                fields[name] = values[0]
            else:
                fields[name] = values.reshape(nt, *grid_shape(field_kind, cfg.nx, cfg.ny))
        return RunRecord(
            time=TimeGrid(desc["t0"], desc["dt"], nt), mode=desc["mode"],
            config_meta=desc["config"],
            # records written before this counter was stored load as 0
            positivity_violations=int(_counts(
                path, "positivity_violations", desc.get("positivity_violations", 0))),
            **fields)


def save_error_fields(path, field_maps: dict, config_meta: dict) -> None:
    """Cell-wise error maps keyed by step, as a results container."""
    descriptor = {"config": config_meta, "steps": sorted(field_maps)}
    arrays = {}
    for step, maps in field_maps.items():
        for field_name, arr in maps.items():
            arrays[f"{field_name}:{step}"] = arr
    write_container(path, "results", descriptor, arrays)
