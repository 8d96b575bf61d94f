"""Snapshot compression: truncated SVD, POD, DMD and DMD-E.

Snapshot matrices hold one closure quantity per matrix, group-stacked rows,
one column per time step.  Every model reconstructs step n as
offset + basis @ coefficients[:, n - 1] in real arithmetic.  POD centers
the data about the column mean (the offset) and keeps the leading left
singular vectors; DMD fits the best linear one-step operator to the
uncentered history, projects it onto the leading left singular vectors and
propagates the projected first snapshot with it; DMD-E first subtracts the
final (near steady state) snapshot and drops it from the fit.

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


def select_rank(singular_values: np.ndarray, xi_rel: float) -> int:
    """Smallest k with discarded energy fraction at most xi_rel^2 (k >= 1)."""
    s = np.asarray(singular_values, dtype=float)
    if not 0.0 < xi_rel <= 1.0:
        raise ValueError("xi_rel must lie in (0, 1]")
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


def dmd_compress(snap: SnapshotMatrix, xi_rel: float,
                 variant: str = "plain") -> ClosureModel:
    """Projected DMD (optionally equilibrium-subtracted) of a snapshot set.

    The best-fit one-step operator is projected onto the leading left
    singular subspace U_k of the history matrix, A = U_k^T X' V_k S_k^-1.
    Step p is reconstructed as U_k A^(p-1) U_k^T a_1, the projected-mode
    DMD expansion with least-squares amplitudes evaluated in real
    arithmetic (Schmid, J. Fluid Mech. 656, 2010).  The
    "equilibrium_subtracted" variant first subtracts the final snapshot,
    which becomes the offset, and drops it from the fit.
    """
    if variant not in ("plain", "equilibrium_subtracted"):
        raise ValueError(f"unknown DMD variant '{variant}'")
    a = snap.data
    offset = np.zeros(a.shape[0])
    if variant == "equilibrium_subtracted":
        if a.shape[1] < 4:
            raise ValueError("equilibrium-subtracted DMD needs at least 4 columns")
        offset = a[:, -1].copy()
        a = a[:, :-1] - offset[:, None]
    elif a.shape[1] < 3:
        raise ValueError("DMD needs at least 3 columns")
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


def compress(snap: SnapshotMatrix, method: str, xi_rel: float) -> ClosureModel:
    """Dispatch by method name: pod | dmd | dmd-e."""
    if method == "pod":
        return pod_compress(snap, xi_rel)
    if method == "dmd":
        return dmd_compress(snap, xi_rel, "plain")
    if method == "dmd-e":
        return dmd_compress(snap, xi_rel, "equilibrium_subtracted")
    raise ValueError(f"unknown compression method '{method}'")
