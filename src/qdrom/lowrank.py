"""Snapshot compression: truncated SVD, POD, DMD and DMD-E.

Snapshot matrices hold one closure quantity per matrix, group-stacked rows,
one column per time step.  Every model reconstructs step n as
offset + basis @ coefficients[:, n - 1] in real arithmetic.  POD, DMD and
DMD-E differ only in the offset they subtract and the training matrix they
decompose (`compress`).

The retained rank k is the smallest one whose discarded singular-value
energy satisfies sum_{i>k} s_i^2 <= xi_rel^2 * sum_i s_i^2, with xi_rel
taken as at least machine epsilon.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DecompositionError(RuntimeError):
    """Eigen/SVD failure inside a compression routine."""


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
    """Smallest k with discarded energy fraction at most xi_rel^2 (k >= 1).

    All-zero singular values (constant training data) give k = 1.  An
    xi_rel below machine epsilon is taken as epsilon: a discarded-energy
    target below rounding cannot be resolved.
    """
    s = np.asarray(singular_values, dtype=float)
    if not 0.0 < xi_rel <= 1.0:
        raise ValueError("xi_rel must lie in (0, 1]")
    if s.size == 0:
        raise ValueError("no singular values to select a rank from")
    energy = s**2
    # accumulate tails from the smallest value up: subtracting a cumulative
    # sum from the total would drown tiny tails in cancellation noise
    tails = np.concatenate([np.cumsum(energy[::-1])[::-1][1:], [0.0]])
    total = tails[0] + energy[0]
    admissible = np.nonzero(tails <= max(xi_rel, np.finfo(float).eps) ** 2 * total)[0]
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


#: compression method -> the offset it subtracts from every column of a
#: SnapshotMatrix: the column mean for POD, zero for DMD, the final snapshot
#: for DMD-E
OFFSETS = {
    "pod": lambda snap: snap.data.mean(axis=1),
    "dmd": lambda snap: np.zeros(snap.data.shape[0]),
    "dmd-e": lambda snap: snap.data[:, -1].copy(),
}
#: compression method names: POD, plain DMD and equilibrium-subtracted DMD
METHODS = tuple(OFFSETS)


def compress(snap: SnapshotMatrix, method: str, xi_rel: float) -> ClosureModel:
    """Compress a snapshot set by method name, one of METHODS, at truncation xi_rel.

    Every method subtracts its offset (`OFFSETS`) from the data and takes
    the truncated SVD of a training matrix: every column for POD, the
    history (all columns but the last) for DMD and DMD-E.  POD keeps the
    leading left singular vectors with coefficients s V^T.  DMD projects the
    best-fit one-step operator onto the leading left singular subspace U_k,
    A = U_k^T X' V_k S_k^-1, and propagates the projected first column with
    it: step p is U_k A^(p-1) U_k^T a_1, the projected-mode DMD expansion
    with least-squares amplitudes in real arithmetic (Schmid, J. Fluid
    Mech. 656, 2010).  DMD-E's final column is zero after its offset, so its
    fit also sees the approach to the offset.
    """
    if method not in METHODS:
        raise ValueError(f"unknown compression method '{method}'")
    dmd = method != "pod"  # DMD and DMD-E train on the history
    need = 3 if dmd else 2  # a training matrix of two columns at least
    if snap.n_steps < need:
        raise ValueError(f"{method} needs at least {need} snapshot columns")
    offset = OFFSETS[method](snap)
    a = snap.data - offset[:, None]
    u, s, vt = truncated_svd(a[:, :-1] if dmd else a)
    k = select_rank(s, xi_rel)
    if not dmd:
        return ClosureModel(snap.name, offset, u[:, :k], s[:k, None] * vt[:k, :], s,
                            xi_rel, dict(snap.layout), snap.t0, snap.dt)
    if s[0] == 0.0:
        operator = np.eye(1)  # zero training data: the offset carries everything
    else:
        operator = (u[:, :k].T @ a[:, 1:]) @ (vt[:k, :].T / s[:k])
    coeffs = np.empty((k, snap.n_steps))
    coeffs[:, 0] = u[:, :k].T @ a[:, 0]
    for p in range(1, snap.n_steps):
        coeffs[:, p] = operator @ coeffs[:, p - 1]
    return ClosureModel(snap.name, offset, u[:, :k], coeffs, s, xi_rel,
                        dict(snap.layout), snap.t0, snap.dt, operator)


def pod_compress(snap: SnapshotMatrix, xi_rel: float) -> ClosureModel:
    """POD of the column-centered snapshot matrix at truncation xi_rel."""
    return compress(snap, "pod", xi_rel)
