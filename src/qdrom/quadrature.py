"""Discrete-ordinates angular quadrature sets for 2-D x-y transport.

Directions live on the upper (xi = Omega_z > 0) hemisphere with the lower
hemisphere folded in (weights sum to 4*pi), which is the standard reduction
for z-invariant problems.  Sets are symmetric under sign reflection of
Omega_x and Omega_y and under the x<->y swap, so all odd x/y moments vanish
and the diagonal second moments integrate to (4*pi/3).

Two arrangements are supported for a requested per-quadrant count q:
triangular (q = n(n+1)/2, with n polar levels carrying n, n-1, ..., 1
azimuthal points) and square product (q = s*s).  Polar cosines are
Gauss-Legendre nodes on (0, 1); the single-level case uses xi = 1/sqrt(3),
which makes the 4-point set Omega = (+-1/sqrt(3), +-1/sqrt(3), 1/sqrt(3))
with weight pi per direction.

Azimuthal points per level sit at pi/4 +- delta_j with equal weights; such
symmetric pairs keep every second moment exact regardless of the deltas.
For sets with at least two azimuthal points per level the delta scale is
solved so that the half-range current identity sum_{mu>0} w mu = pi holds
to machine precision, making the isotropic boundary factor exactly 1/2.
The solve returns the midpoint of the two adjacent doubles between which
the cos sum crosses its target, the pair that bisecting [0, pi/4) ends on.
The cos sum is decreasing and concave in the delta scale there, so Newton's
method on a scalar copy of it, started at the upper end, falls monotonically
onto the root (Press et al., Numerical Recipes, 3rd ed., 9.4).  From that
guess, probes at distances doubling from one ulp bracket the crossing, and a
probe outside the bracket halves it instead, as bisection would.  Only the
vectorized sum decides the bracket, so each level gets the bisection's
doubles, in 4-10 cos-sum evaluations for every supported q <= 121 (the
bisection took up to 56).
The single-point-per-level case (including the classic 4-point set) cannot
satisfy that identity; multi-level triangular sets compensate on their
wider levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class QuadratureSpecError(ValueError):
    """Unsupported quadrature family or order."""


@dataclass(frozen=True)
class AngularQuadrature:
    mu: np.ndarray      # Omega_x, (M,)
    eta: np.ndarray     # Omega_y, (M,)
    xi: np.ndarray      # Omega_z, (M,)
    weight: np.ndarray  # steradians, (M,)

    @property
    def n_dirs(self) -> int:
        return self.mu.shape[0]


def _polar_levels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for xi on (0, 1); weights sum to 1."""
    if n == 1:
        # single level: xi fixed by the second-moment identity sum(W xi^2)=1/3
        return np.array([1.0 / np.sqrt(3.0)]), np.array([1.0])
    nodes, wts = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * wts


def _solve_level_angles(a: int, cos_target: float) -> np.ndarray:
    """First-quadrant azimuthal angles pi/4 +- delta_j with the given cos sum."""
    if a == 1:
        return np.array([0.25 * np.pi])
    p, odd = divmod(a, 2)
    steps = 2.0 * np.arange(1, p + 1) - (0 if odd else 1)
    den = max(2 * p + odd - 1, 1)
    root2, root_half = math.sqrt(2.0), math.sqrt(0.5)

    def excess(beta: float) -> float:
        """sum_k cos(phi_k) at delta scale beta, less the target."""
        total = root2 * np.cos(beta * steps / den).sum()
        if odd:
            total += root_half
        return float(total) - cos_target

    lo, hi = 0.0, 0.25 * np.pi * (1.0 - 1e-12)
    if excess(lo) < 0.0 or excess(hi) > 0.0:
        raise QuadratureSpecError(
            f"azimuthal half-range target {cos_target:.6f} infeasible for {a} points"
        )
    # the guess: Newton from the upper end on a scalar copy of the sum
    beta, ks = hi, steps.tolist()
    for _ in range(100):
        f = root2 * sum(math.cos(beta * k / den) for k in ks) + odd * root_half - cos_target
        slope = -root2 * sum(k / den * math.sin(beta * k / den) for k in ks)
        if f >= 0.0 or slope >= 0.0 or beta - f / slope == beta:
            break  # on or below the root, or the step is below an ulp
        beta -= f / slope
    # the bracket: excess alone decides it
    step = math.ulp(beta)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo, hi adjacent doubles: no halving can move the bracket
        if not lo < beta < hi:
            beta = mid
        if excess(beta) >= 0.0:
            lo, beta = beta, beta + step
        else:
            hi, beta = beta, beta - step
        step *= 2.0
    deltas = 0.5 * (lo + hi) * steps / den
    angles = [0.25 * np.pi - d for d in deltas[::-1]] + ([0.25 * np.pi] if odd else []) \
        + [0.25 * np.pi + d for d in deltas]
    return np.array(angles)


def _assemble(levels: np.ndarray, level_w: np.ndarray, azi_counts: np.ndarray) -> AngularQuadrature:
    s_lev = np.sqrt(np.clip(1.0 - levels**2, 0.0, None))
    # choose a common per-level azimuthal mean cosine so the half-range
    # current sums to exactly pi; single-point levels are pinned at pi/4
    pinned = azi_counts == 1
    pinned_part = np.sqrt(2.0) * np.sum(level_w[pinned] * s_lev[pinned])
    free_mass = np.sum(level_w[~pinned] * s_lev[~pinned])
    kappa = (1.0 - pinned_part) / free_mass if free_mass > 0.0 else None

    mu, eta, xi, wgt = [], [], [], []
    for lev, lw, s, na in zip(levels, level_w, s_lev, azi_counts):
        if na == 1:
            phi = np.array([0.25 * np.pi])
        else:
            phi = _solve_level_angles(int(na), 0.5 * na * kappa)
        w_dir = np.pi * lw / na
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            mu.append(sx * s * np.cos(phi))
            eta.append(sy * s * np.sin(phi))
            xi.append(np.full(na, lev))
            wgt.append(np.full(na, w_dir))
    return AngularQuadrature(
        np.concatenate(mu), np.concatenate(eta), np.concatenate(xi), np.concatenate(wgt)
    )


def azimuthal_counts(per_quadrant: int) -> np.ndarray:
    """Azimuthal points per polar level for `per_quadrant` directions per quadrant.

    Triangular q = n(n+1)/2 gives n, n-1, ..., 1 (most points on the lowest
    level); otherwise a perfect square q = s*s gives s levels of s points.
    """
    q = int(per_quadrant)
    if q < 1:
        raise QuadratureSpecError(f"per-quadrant count must be >= 1, got {per_quadrant}")
    n = int((np.sqrt(8.0 * q + 1.0) - 1.0) / 2.0 + 0.5)
    if n * (n + 1) // 2 == q:
        return np.arange(n, 0, -1)
    s = int(np.sqrt(q) + 0.5)
    if s * s == q:
        return np.full(s, s)
    raise QuadratureSpecError(
        f"unsupported per-quadrant count {q}: need a triangular number n(n+1)/2 or a perfect square"
    )


def build_quadrature(per_quadrant: int) -> AngularQuadrature:
    """Build the level-symmetric set with `per_quadrant` directions per x-y quadrant."""
    azi = azimuthal_counts(per_quadrant)
    levels, lw = _polar_levels(azi.size)
    return _assemble(levels, lw, azi)
