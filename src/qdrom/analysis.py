"""Run diagnostics: error series, boundary averages, breakout times, ranks.

All spatial error norms are 2-norms over the cell grid at each time level;
boundary averages are midpoint-rule means over the right-boundary faces
(and the adjacent cell column for the temperature).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .drivers import RunRecord, SNAPSHOT_NAMES, TIME_RTOL
from .lowrank import METHODS, compress, select_rank, truncated_svd


class ShapeMismatchError(ValueError):
    """Runs live on different grids."""


class DegenerateReferenceError(ValueError):
    """Reference field has zero norm at some step, or a zero cell at a field step."""


class FieldStepError(ValueError):
    """Error-map step outside the run's steps 1..n_steps."""


#: truncation grid used for the rank tables
XI_GRID = tuple(10.0**(-p) for p in range(2, 17, 2))


@dataclass
class ErrorSeries:
    times: np.ndarray
    err_temperature: np.ndarray
    err_energy: np.ndarray
    fields: dict | None = None  # optional per-cell error maps per step index


@dataclass
class BreakoutSeries:
    times: np.ndarray
    flux: np.ndarray         # mean of e_x . F over the right boundary
    energy: np.ndarray       # mean E over the right boundary
    temperature: np.ndarray  # mean T over the rightmost cell column

    def series(self, quantity: str) -> np.ndarray:
        return {"flux": self.flux, "energy": self.energy,
                "temperature": self.temperature}[quantity]


@dataclass
class BreakoutResult:
    reached: bool
    step: int | None          # 1-based index of the first crossing
    time: float | None
    time_interpolated: float | None


def relative_error_series(run: RunRecord, reference: RunRecord,
                          field_steps=()) -> ErrorSeries:
    """Per-step relative 2-norm errors of T and E over the cell grid."""
    if run.temperature.shape != reference.temperature.shape:
        raise ShapeMismatchError(
            f"grids differ: {run.temperature.shape} vs {reference.temperature.shape}")
    if not np.allclose(run.time.times, reference.time.times, rtol=TIME_RTOL, atol=0.0):
        raise ShapeMismatchError("time grids differ")
    nt = run.n_steps
    bad = [s for s in field_steps if not 1 <= s <= nt]
    if bad:
        raise FieldStepError(f"field steps {bad} outside the run's steps 1..{nt}")
    err_t = np.empty(nt)
    err_e = np.empty(nt)
    for n in range(nt):
        ref_t = np.linalg.norm(reference.temperature[n])
        ref_e = np.linalg.norm(reference.e_cell[n])
        if ref_t == 0.0 or ref_e == 0.0:
            raise DegenerateReferenceError(f"zero reference norm at step {n + 1}")
        err_t[n] = np.linalg.norm(run.temperature[n] - reference.temperature[n]) / ref_t
        err_e[n] = np.linalg.norm(run.e_cell[n] - reference.e_cell[n]) / ref_e
    fields = None
    if field_steps:
        fields = {}
        for step in field_steps:
            n = step - 1
            if np.any(reference.temperature[n] == 0.0) or np.any(reference.e_cell[n] == 0.0):
                raise DegenerateReferenceError(
                    f"zero reference cell at field step {step}: no relative error map")
            fields[step] = {
                "temperature": np.abs(run.temperature[n] - reference.temperature[n])
                / np.abs(reference.temperature[n]),
                "energy": np.abs(run.e_cell[n] - reference.e_cell[n])
                / np.abs(reference.e_cell[n]),
            }
    return ErrorSeries(run.time.times, err_t, err_e, fields)


def boundary_averages(run: RunRecord) -> BreakoutSeries:
    """Right-boundary averages of normal flux, energy density and temperature."""
    cfg = run.config_meta
    dy = np.full(cfg["ny"], cfg["dy"])
    wsum = dy.sum()
    flux = (run.f_vface[:, :, -1] * dy[None, :]).sum(axis=1) / wsum
    energy = (run.e_vface[:, :, -1] * dy[None, :]).sum(axis=1) / wsum
    temperature = (run.temperature[:, :, -1] * dy[None, :]).sum(axis=1) / wsum
    return BreakoutSeries(run.time.times, flux, energy, temperature)


def breakout_time(times: np.ndarray, values: np.ndarray,
                  threshold: float) -> BreakoutResult:
    """First time level at which the series reaches the threshold."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    hits = np.nonzero(values >= threshold)[0]
    if hits.size == 0:
        return BreakoutResult(False, None, None, None)
    i = int(hits[0])
    t_cross = times[i]
    if i == 0:
        t_interp = times[0]
    else:
        v0, v1 = values[i - 1], values[i]
        frac = (threshold - v0) / (v1 - v0) if v1 != v0 else 1.0
        t_interp = times[i - 1] + frac * (times[i] - times[i - 1])
    return BreakoutResult(True, i + 1, float(t_cross), float(t_interp))


@dataclass
class SingularValueReport:
    name: str
    singular_values: np.ndarray      # raw matrix spectrum
    significant: int                 # count above 1e-14 * s1
    ranks: dict                      # method -> {xi_rel: k}


def singular_value_report(matrices: dict, xi_grid=XI_GRID) -> list:
    """Spectra and per-method rank tables for every snapshot matrix.

    Rank tables use the spectrum of each method's own training matrix, as
    its compressed model reports it: the centered data for POD, the history
    block for DMD, and the equilibrium-subtracted history for DMD-E.
    """
    out = []
    for name in SNAPSHOT_NAMES:
        snap = matrices[name]
        _, s_raw, _ = truncated_svd(snap.data)
        spectra = {m: compress(snap, m, xi_grid[0]).singular_values for m in METHODS}
        ranks = {m: {xi: select_rank(s, xi) for xi in xi_grid} for m, s in spectra.items()}
        out.append(SingularValueReport(
            name, s_raw, int(np.sum(s_raw > 1e-14 * s_raw[0])), ranks))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_error_csv(path, series: ErrorSeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_ns", "rel_err_temperature", "rel_err_energy"])
        for t, et, ee in zip(series.times, series.err_temperature, series.err_energy):
            w.writerow([f"{t:.10g}", f"{et:.16e}", f"{ee:.16e}"])


def write_breakout_csv(path, series: BreakoutSeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_ns", "flux_right", "energy_right", "temperature_right"])
        for row in zip(series.times, series.flux, series.energy, series.temperature):
            w.writerow([f"{row[0]:.10g}"] + [f"{v:.16e}" for v in row[1:]])


def write_sigma_csv(path, reports: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["matrix", "index", "singular_value"])
        for rep in reports:
            for i, s in enumerate(rep.singular_values, 1):
                w.writerow([rep.name, i, f"{s:.16e}"])


def write_rank_csv(path, reports: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "xi_rel"] + [rep.name for rep in reports])
        for method in METHODS:
            for xi in sorted(reports[0].ranks[method], reverse=True):
                w.writerow([method, f"{xi:.0e}"]
                           + [rep.ranks[method][xi] for rep in reports])
