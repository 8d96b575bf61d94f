"""Snapshot compression: truncated SVD, POD, DMD and DMD-E.

Snapshot matrices hold one closure quantity per matrix, group-stacked rows,
one column per time step.  POD centers the data about the column mean and
keeps the leading left singular vectors; DMD fits the best linear one-step
operator to the uncentered history and keeps projected modes; DMD-E first
subtracts the final (near steady state) snapshot and drops it from the fit.

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
    """POD reconstruction requested outside the trained steps."""


class ModelError(ValueError):
    """Reconstruction produced unusable (non-finite) values."""


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
class PodModel:
    """Mean + orthonormal modes + per-step coefficients."""

    name: str
    mean: np.ndarray          # (d,)
    modes: np.ndarray         # (d, k)
    coefficients: np.ndarray  # (k, n_steps)
    singular_values: np.ndarray
    xi_rel: float
    layout: dict = field(default_factory=dict)
    t0: float = 0.0
    dt: float = 1.0

    @property
    def rank(self) -> int:
        return self.modes.shape[1]

    @property
    def n_steps(self) -> int:
        return self.coefficients.shape[1]

    def in_window(self, step: int) -> bool:
        return 1 <= step <= self.n_steps

    def reconstruct(self, step: int) -> np.ndarray:
        """Closure vector at time-step `step` (1-based, trained window only)."""
        if not self.in_window(step):
            raise OutOfWindowError(
                f"step {step} outside trained window 1..{self.n_steps}")
        return self.mean + self.modes @ self.coefficients[:, step - 1]


def pod_compress(snap: SnapshotMatrix, xi_rel: float) -> PodModel:
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
    return PodModel(snap.name, mean, u[:, :k], coeffs, s, xi_rel,
                    dict(snap.layout), snap.t0, snap.dt)


@dataclass
class DmdModel:
    """Projected DMD modes, eigenvalues and first-snapshot amplitudes."""

    name: str
    modes: np.ndarray         # (d, k) complex
    eigenvalues: np.ndarray   # (k,) complex
    amplitudes: np.ndarray    # (k,) complex
    variant: str              # "plain" or "equilibrium_subtracted"
    equilibrium: np.ndarray | None
    singular_values: np.ndarray
    xi_rel: float
    n_steps: int              # steps covered by the source snapshot matrix
    layout: dict = field(default_factory=dict)
    t0: float = 0.0
    dt: float = 1.0

    @property
    def rank(self) -> int:
        return self.modes.shape[1]

    def in_window(self, step: int) -> bool:
        return 1 <= step <= self.n_steps

    def reconstruct(self, step: int) -> np.ndarray:
        """Closure vector at step (1-based); extrapolation allowed beyond."""
        if step < 1:
            raise OutOfWindowError(f"step {step} is before the trained window")
        p = step - 1
        vec = self.modes @ (self.amplitudes * self.eigenvalues**p)
        norm = np.linalg.norm(vec)
        imag = np.max(np.abs(vec.imag)) if vec.size else 0.0
        if imag > 1e-9 * max(norm, 1e-300):
            raise ModelError(
                f"imaginary residue {imag:.3e} exceeds tolerance for '{self.name}'")
        out = vec.real
        if self.equilibrium is not None:
            out = out + self.equilibrium
        if not np.all(np.isfinite(out)):
            raise ModelError(f"non-finite reconstruction for '{self.name}'")
        return out


def dmd_compress(snap: SnapshotMatrix, xi_rel: float,
                 variant: str = "plain") -> DmdModel:
    """Projected-mode DMD (optionally equilibrium-subtracted) of a snapshot set.

    The best-fit one-step operator is approximated on the leading left
    singular subspace of the history matrix; modes are the projections of
    its eigenvectors, and amplitudes fit the first training snapshot in the
    least-squares sense.
    """
    if variant not in ("plain", "equilibrium_subtracted"):
        raise ValueError(f"unknown DMD variant '{variant}'")
    a = snap.data
    equilibrium = None
    if variant == "equilibrium_subtracted":
        if a.shape[1] < 4:
            raise ValueError("equilibrium-subtracted DMD needs at least 4 columns")
        equilibrium = a[:, -1].copy()
        a = a[:, :-1] - equilibrium[:, None]
    elif a.shape[1] < 3:
        raise ValueError("DMD needs at least 3 columns")
    x = a[:, :-1]
    x_next = a[:, 1:]
    u, s, vt = truncated_svd(x)
    if np.all(s == 0.0):
        # numerically constant training data: amplitude-free model
        modes = u[:, :1].astype(complex)
        return DmdModel(snap.name, modes, np.ones(1, dtype=complex),
                        np.zeros(1, dtype=complex), variant, equilibrium,
                        s, xi_rel, snap.n_steps, dict(snap.layout), snap.t0, snap.dt)
    k = select_rank(s, xi_rel)
    u_k = u[:, :k]
    proj = (u_k.T @ x_next) @ (vt[:k, :].T / s[:k])
    try:
        eigvals, eigvecs = np.linalg.eig(proj)
    except np.linalg.LinAlgError as err:
        raise DecompositionError(f"DMD eigenproblem failed: {err}") from err
    modes = u_k @ eigvecs
    amplitudes, *_ = np.linalg.lstsq(modes, a[:, 0].astype(complex), rcond=None)
    return DmdModel(snap.name, modes, eigvals, amplitudes, variant, equilibrium,
                    s, xi_rel, snap.n_steps, dict(snap.layout), snap.t0, snap.dt)


@dataclass
class SnapshotPlayback:
    """Lossless identity model: reconstruction returns the stored column."""

    source: SnapshotMatrix

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def rank(self) -> int:
        return self.source.data.shape[1]

    @property
    def layout(self) -> dict:
        return self.source.layout

    def in_window(self, step: int) -> bool:
        return 1 <= step <= self.source.n_steps

    def reconstruct(self, step: int) -> np.ndarray:
        if not self.in_window(step):
            raise OutOfWindowError(
                f"step {step} outside recorded window 1..{self.source.n_steps}")
        return self.source.data[:, step - 1].copy()


def compress(snap: SnapshotMatrix, method: str, xi_rel: float):
    """Dispatch by method name: pod | dmd | dmd-e."""
    if method == "pod":
        return pod_compress(snap, xi_rel)
    if method == "dmd":
        return dmd_compress(snap, xi_rel, "plain")
    if method == "dmd-e":
        return dmd_compress(snap, xi_rel, "equilibrium_subtracted")
    raise ValueError(f"unknown compression method '{method}'")
