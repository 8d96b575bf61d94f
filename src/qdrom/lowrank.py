"""Snapshot compression: truncated SVD, POD, DMD and DMD-E.

Snapshot matrices hold one closure quantity per matrix, group-stacked rows,
one column per time step.  Every model reconstructs step n as
offset + basis @ coefficients[:, n - 1] in real arithmetic.  POD centers
the data about the column mean (the offset) and keeps the leading left
singular vectors; DMD fits the best linear one-step operator to the
uncentered history, projects it onto the leading left singular vectors and
propagates the projected first snapshot with it; DMD-E first subtracts the
final (near steady state) snapshot, whose column in the fit is then zero.

The retained rank k is the smallest one whose discarded singular-value
energy satisfies sum_{i>k} s_i^2 <= xi_rel^2 * sum_i s_i^2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DecompositionError(RuntimeError):
    """Eigen/SVD failure inside a compression routine."""


class DegenerateDataError(ValueError):
    """All-zero singular values where a rank must be selected."""


class OutOfWindowError(IndexError):
    """Reconstruction requested outside the steps a model covers."""


@dataclass
class SnapshotMatrix:
    """Chronological snapshot columns of one closure quantity."""

    name: str
    data: np.ndarray          # (d, n_steps)
    layout: dict              # grid kind, mesh dims, group count, stacking
    t0: float = 0.0
    dt: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("snapshot matrix must be 2-D")
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"snapshot matrix '{self.name}' has non-finite entries")

    @property
    def n_steps(self) -> int:
        return self.data.shape[1]


def truncated_svd(a: np.ndarray):
    """Thin SVD returning (U, s, Vt) with s non-increasing."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise DecompositionError(f"SVD failed: {err}") from err
    return u, s, vt


def _check_xi(xi_rel: float) -> None:
    if not 0.0 < xi_rel <= 1.0:
        raise ValueError("xi_rel must lie in (0, 1]")


def select_rank(singular_values: np.ndarray, xi_rel: float) -> int:
    """Smallest k with discarded energy fraction at most xi_rel^2 (k >= 1)."""
    s = np.asarray(singular_values, dtype=float)
    _check_xi(xi_rel)
    if s.size == 0 or np.all(s == 0.0):
        raise DegenerateDataError("all singular values are zero")
    energy = s**2
    # accumulate tails from the smallest value up: subtracting a cumulative
    # sum from the total would drown tiny tails in cancellation noise
    tails = np.concatenate([np.cumsum(energy[::-1])[::-1][1:], [0.0]])
    total = tails[0] + energy[0]
    admissible = np.nonzero(tails <= xi_rel**2 * total)[0]
    return int(admissible[0]) + 1 if admissible.size else s.size


@dataclass
class ClosureModel:
    """Real-valued closure model: offset + basis @ coefficients[:, step - 1].

    The coefficient table has one column per trained step.  A DMD model also
    keeps its k x k one-step operator, which extends the table past the
    trained window; POD and playback models stop at the window's end.
    """

    name: str
    offset: np.ndarray        # (d,)
    basis: np.ndarray         # (d, k)
    coefficients: np.ndarray  # (k, n_steps)
    singular_values: np.ndarray
    xi_rel: float
    layout: dict = field(default_factory=dict)
    t0: float = 0.0
    dt: float = 1.0
    operator: np.ndarray | None = None  # (k, k), DMD only

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def n_steps(self) -> int:
        return self.coefficients.shape[1]

    @property
    def discarded_fraction(self) -> float:
        """sqrt(sum_{i>rank} s_i^2 / sum_i s_i^2): the spectrum's energy left out.

        0 when nothing is discarded, including a playback model, whose
        spectrum is empty.  For POD it is the relative Frobenius error of the
        centered reconstruction over the trained window (Eckart-Young).
        """
        energy = np.asarray(self.singular_values, dtype=float) ** 2
        total = energy.sum()
        if self.rank >= energy.size or total == 0.0:
            return 0.0
        return float(np.sqrt(energy[self.rank:].sum() / total))

    def reconstruct(self, step: int) -> np.ndarray:
        """Closure vector at time-step `step` (1-based)."""
        if step < 1 or (step > self.n_steps and self.operator is None):
            raise OutOfWindowError(
                f"step {step} outside trained window 1..{self.n_steps}")
        z = self.coefficients[:, min(step, self.n_steps) - 1]
        for _ in range(step - self.n_steps):
            z = self.operator @ z
        return self.offset + self.basis @ z


# kept as an alias: benchmarks/run.py times reconstruction by patching
# `lowrank.PodModel.reconstruct`
PodModel = ClosureModel


def pod_compress(snap: SnapshotMatrix, xi_rel: float) -> ClosureModel:
    """POD of the column-centered snapshot matrix at truncation xi_rel."""
    a = snap.data
    if a.shape[1] < 2:
        raise ValueError("need at least two snapshot columns")
    _check_xi(xi_rel)  # constant data skips select_rank
    mean = a.mean(axis=1)
    centered = a - mean[:, None]
    u, s, vt = truncated_svd(centered)
    if np.all(s == 0.0):
        k = 1  # constant data: the mean carries everything
    else:
        k = select_rank(s, xi_rel)
    coeffs = s[:k, None] * vt[:k, :]
    return ClosureModel(snap.name, mean, u[:, :k], coeffs, s, xi_rel,
                        dict(snap.layout), snap.t0, snap.dt)


def _dmd_compress(snap: SnapshotMatrix, xi_rel: float, subtract_final: bool) -> ClosureModel:
    """Projected DMD of a snapshot set, less its final snapshot if `subtract_final`.

    The best-fit one-step operator is projected onto the leading left
    singular subspace U_k of the history matrix, A = U_k^T X' V_k S_k^-1.
    Step p is reconstructed as U_k A^(p-1) U_k^T a_1, the projected-mode
    DMD expansion with least-squares amplitudes evaluated in real
    arithmetic (Schmid, J. Fluid Mech. 656, 2010).  DMD-E first subtracts
    the final snapshot, which becomes the offset, and fits every column of
    the difference: the final one is zero, so the fit also sees the
    approach to the offset.
    """
    a = snap.data
    if a.shape[1] < 3:
        raise ValueError("DMD needs at least 3 columns")
    _check_xi(xi_rel)  # constant data skips select_rank
    offset = np.zeros(a.shape[0])
    if subtract_final:
        offset = a[:, -1].copy()
        a = a - offset[:, None]
    x = a[:, :-1]
    u, s, vt = truncated_svd(x)
    if np.all(s == 0.0):
        # numerically constant training data: the offset carries everything
        k, operator = 1, np.eye(1)
    else:
        k = select_rank(s, xi_rel)
        operator = (u[:, :k].T @ a[:, 1:]) @ (vt[:k, :].T / s[:k])
    coeffs = np.empty((k, snap.n_steps))
    coeffs[:, 0] = u[:, :k].T @ a[:, 0]
    for p in range(1, snap.n_steps):
        coeffs[:, p] = operator @ coeffs[:, p - 1]
    return ClosureModel(snap.name, offset, u[:, :k], coeffs, s, xi_rel,
                        dict(snap.layout), snap.t0, snap.dt, operator)


#: compression method names: POD, plain DMD and equilibrium-subtracted DMD
METHODS = ("pod", "dmd", "dmd-e")


def compress(snap: SnapshotMatrix, method: str, xi_rel: float) -> ClosureModel:
    """Compress by method name, one of METHODS: the public entry for DMD and DMD-E."""
    if method not in METHODS:
        raise ValueError(f"unknown compression method '{method}'")
    if method == "pod":
        return pod_compress(snap, xi_rel)
    return _dmd_compress(snap, xi_rel, subtract_final=method == "dmd-e")
