"""Frequency grid, material, Planck integrals and group opacities.

Units: lengths cm, time ns, photon energy and temperature keV, energy in
jerks.  The Planck group emission B_g is normalized so that summing
4*pi*B_g over groups spanning (0, inf) gives a_R * c * T^4.  The material
is the one of Fleck & Cummings (J. Comput. Phys. 8, 1971): opacity
kappa_nu = OPACITY_COEFF (1 - e^{-nu/T}) / nu^3 and heat capacity
HEAT_CAPACITY.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import ClassVar

import numpy as np

C_LIGHT = 29.9792458   # speed of light, cm/ns
A_RAD = 0.01372        # radiation constant, jerk / (cm^3 keV^4)
FOUR_PI = 4.0 * np.pi
HEAT_CAPACITY = 0.5917 * A_RAD * 1.0**3  # c_v, jerk / (cm^3 keV)
OPACITY_COEFF = 27.0   # keV^3 / cm

#: group boundaries at or above this value are treated as +infinity (keV)
INFINITE_EDGE = 1.0e7

#: temperatures below this are rejected as unphysical (keV)
TEMPERATURE_FLOOR = 1.0e-8

_PI4_15 = np.pi**4 / 15.0
_GL16 = np.polynomial.legendre.leggauss(16)

#: regimes of planck_cumulative: below _X_SERIES the complementary integral's
#: Bernoulli series (radius 2 pi), up to _X_TAIL the exponential series, above
#: it its first term.  Each term count is the least that keeps the truncation
#: under 1e-17 relative at the regime's worst end (checked against mpmath), so
#: moving a limit needs a new count.
_X_SERIES = 2.0
_X_TAIL = 40.0
_BERNOULLI_TERMS = 15
_EXP_TERMS = 18

#: lower clip of the Planck-weight exponent in group_opacity: e^-700 (~1e-304)
#: is negligible in every row's sum, and below about -707.5 numpy's vector exp
#: leaves its fast path (slower still where its results are subnormal)
_WEIGHT_EXP_FLOOR = -700.0


def _series_coefficients(n_terms: int) -> np.ndarray:
    """a_k of int_0^x s^3/(e^s - 1) ds = x^3 (sum_k a_k x^(2k) - x/8), k <= n_terms.

    a_0 = 1/3 and a_k = B_2k / ((2k + 3) (2k)!), from the generating function
    s/(e^s - 1) = sum_n B_n s^n / n!; the Bernoulli numbers are exact
    fractions from the recurrence sum_{j<=m} C(m+1, j) B_j = 0.
    """
    b = [Fraction(1)]
    for m in range(1, 2 * n_terms + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return np.array([1 / 3] + [float(b[2 * k] / ((2 * k + 3) * factorial(2 * k)))
                               for k in range(1, n_terms + 1)])


_SERIES_COEFFS = _series_coefficients(_BERNOULLI_TERMS)
#: row n - 1 holds (1/n, 1/n^2, 1/n^3, 1/n^4): the q^n coefficients of Li_1..Li_4
_POLYLOG_COEFFS = 1.0 / np.arange(1.0, _EXP_TERMS + 1.0)[:, None] ** np.arange(1, 5)


class TemperatureDomainError(ValueError):
    """Temperature below the physical floor, or not finite."""


def _check_temperature(T) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.size and not (T.min() >= TEMPERATURE_FLOOR and T.max() < np.inf):
        raise TemperatureDomainError(
            f"temperature not finite or below floor {TEMPERATURE_FLOOR:g} keV "
            f"(min {T.min():g}, max {T.max():g})"
        )
    return T


@dataclass(frozen=True)
class FrequencyGrid:
    """Photon-energy group boundaries nu_0 = 0 < nu_1 < ... < nu_Ng (keV).

    Only the last boundary may be at or above INFINITE_EDGE; `edges` holds
    the boundaries with that one as +inf.  The 16-point Gauss-Legendre rule
    of each group is built once: `nodes` (n_groups, 16), `node_weights` (the
    weights times the Jacobian) and `nodes_cubed`.  A bounded group maps
    linearly; an unbounded last group (lo, inf) maps through nu = lo/u,
    u in (0, 1].  The one group (0, inf) maps through nu = T u/(1 - u), so
    its nodes and weights are those of T = 1 and scale with T
    (`scales_with_temperature`).
    """

    bounds: np.ndarray
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    node_weights: np.ndarray = field(init=False, repr=False, compare=False)
    nodes_cubed: np.ndarray = field(init=False, repr=False, compare=False)
    scales_with_temperature: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.ndim != 1 or b.shape[0] < 2:
            raise ValueError("need at least one group (two boundaries)")
        if b[0] != 0.0:
            raise ValueError("first boundary must be 0")
        if not np.all(np.diff(b) > 0.0):
            raise ValueError("boundaries must be strictly increasing")
        if np.any(b[:-1] >= INFINITE_EDGE):
            raise ValueError(f"only the last boundary may be >= {INFINITE_EDGE:g} (infinite)")
        unbounded = bool(b[-1] >= INFINITE_EDGE)
        single = unbounded and b.shape[0] == 2
        gl_x, gl_w = _GL16
        n_bounded = b.shape[0] - 1 - unbounded
        lo, hi = b[:n_bounded, None], b[1:n_bounded + 1, None]
        nodes, jac = np.empty((2, b.shape[0] - 1, gl_x.size))
        nodes[:n_bounded] = 0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo)
        jac[:n_bounded] = 0.5 * (hi - lo)
        if single:
            u = 0.5 * (gl_x + 1.0) * (1.0 - 1e-8)
            nodes[-1], jac[-1] = u / (1.0 - u), 1.0 / (1.0 - u) ** 2
        elif unbounded:
            u = 0.5 * (gl_x + 1.0)
            nodes[-1], jac[-1] = b[-2] / u, b[-2] / u**2
        edges = b.copy()
        if unbounded:
            edges[-1] = np.inf
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "node_weights", gl_w * jac)
        object.__setattr__(self, "nodes_cubed", nodes**3)
        object.__setattr__(self, "scales_with_temperature", single)

    @property
    def n_groups(self) -> int:
        return self.bounds.shape[0] - 1


def _powers(y: np.ndarray, n: int) -> np.ndarray:
    """(y.size, n) table of y .. y^n (1-D y) by running products: pow is slow at y = 0."""
    table = np.repeat(y[:, None], n, axis=1)
    return np.multiply.accumulate(table, axis=1, out=table)


def _planck_head(x: np.ndarray) -> np.ndarray:
    """Integral of s^3 / (e^s - 1) from 0 to x, for 0 <= x < _X_SERIES (1-D x)."""
    acc = _powers(x * x, _BERNOULLI_TERMS) @ _SERIES_COEFFS[1:] + _SERIES_COEFFS[0]
    return x**3 * (acc - x / 8.0)


def planck_cumulative(x) -> np.ndarray:
    """Integral P(x) of s^3 / (e^s - 1) from x to infinity, elementwise.

    Three regimes, each a fixed number of array passes: below _X_SERIES,
    pi^4/15 minus the Bernoulli series of the integral from 0 to x; up to
    _X_TAIL, the exponential series sum_n e^{-n x} (x^3/n + 3x^2/n^2 +
    6x/n^3 + 6/n^4) = x^3 Li_1(q) + 3x^2 Li_2(q) + 6x Li_3(q) + 6 Li_4(q),
    q = e^{-x}, to _EXP_TERMS terms; beyond, its first term
    e^{-x} (x^3 + 3x^2 + 6x + 6), exact to rounding there.  P(0) = pi^4/15
    and P(inf) = 0 exactly; a negative or NaN argument raises ValueError.
    """
    return _cumulative(x)[0]


def _cumulative(x):
    """(planck_cumulative(x), _planck_head(x) where x < _X_SERIES and 0 elsewhere)."""
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() >= 0.0:
        raise ValueError("Planck integral argument must be >= 0 (and not NaN)")
    out = np.zeros_like(x)  # P(inf) = 0
    small = x < _X_SERIES
    mid = (x >= _X_SERIES) & (x < _X_TAIL)
    tail = (x >= _X_TAIL) & (x < np.inf)

    head = np.zeros_like(x)
    head[small] = h = _planck_head(x[small])
    out[small] = _PI4_15 - h

    xm = x[mid]
    li = _powers(np.exp(-xm), _EXP_TERMS) @ _POLYLOG_COEFFS
    out[mid] = ((li[:, 0] * xm + 3.0 * li[:, 1]) * xm + 6.0 * li[:, 2]) * xm + 6.0 * li[:, 3]

    xt = x[tail]
    with np.errstate(under="ignore"):
        out[tail] = np.exp(-xt) * (((xt + 3.0) * xt + 6.0) * xt + 6.0)
    return out, head


def _group_integrals(x: np.ndarray) -> np.ndarray:
    """Integrals of s^3 / (e^s - 1) between consecutive edges x (n_g + 1, ...).

    P(x_lo) - P(x_hi), except where both edges lie below _X_SERIES: there
    the difference of the series from 0, which does not cancel against
    pi^4/15.
    """
    cum, head = _cumulative(x)
    band = cum[:-1] - cum[1:]
    low = x[1:] < _X_SERIES
    band[low] = (head[1:] - head[:-1])[low]
    return band


def planck_spectrum(T, grid: FrequencyGrid, *, radiation_constant: float = A_RAD,
                    light_speed: float = C_LIGHT) -> np.ndarray:
    """Group Planck emission B_g(T) per steradian, all groups at once.

    T may be a scalar or an array; the group axis is appended last, as a
    view of a group-major array (np.moveaxis(B, -1, 0) is contiguous).
    """
    T = _check_temperature(T)
    Trow = T.reshape(1, -1)
    frac = _group_integrals(grid.edges[:, None] / Trow) / _PI4_15
    scale = radiation_constant * light_speed * Trow**4 / FOUR_PI
    return (scale * frac).T.reshape(np.shape(T) + (grid.n_groups,))


def planck_spectrum_slope(T, planck, grid: FrequencyGrid, *,
                          radiation_constant: float = A_RAD,
                          light_speed: float = C_LIGHT) -> np.ndarray:
    """dB_g/dT, given planck = planck_spectrum(T, grid) with the same constants.

    With x = nu/T, d/dT of T^4 int_{x_hi}^{x_lo} s^3/(e^s - 1) ds is
    4/T of itself plus T^3 [h(x_lo) - h(x_hi)], h(x) = x^4/(e^x - 1),
    h(0) = h(inf) = 0.  Laid out like planck_spectrum's values.
    """
    T = _check_temperature(T)
    Trow = T.reshape(1, -1)
    x = grid.edges[:, None] / Trow
    h = np.zeros_like(x)
    inner = (x > 0.0) & (x < np.inf)
    xi = x[inner]
    with np.errstate(under="ignore"):
        h[inner] = xi**4 * np.exp(-xi) / -np.expm1(-xi)
    edge = radiation_constant * light_speed * Trow**3 / (FOUR_PI * _PI4_15) \
        * (h[:-1] - h[1:])
    slope = 4.0 * planck.reshape(-1, grid.n_groups).T / Trow + edge
    return slope.T.reshape(np.shape(T) + (grid.n_groups,))


class MaterialModel:
    """The Fleck-Cummings material: its group opacities and constants.

    Material energy density is linear in temperature: eps(T) = c_v * T.
    """

    heat_capacity: ClassVar[float] = HEAT_CAPACITY
    light_speed: ClassVar[float] = C_LIGHT
    radiation_constant: ClassVar[float] = A_RAD

    def _node_terms(self, T: np.ndarray, grid: FrequencyGrid):
        """(x, 1 - e^{-x}, Planck weights, opacities) at the grid's nodes.

        Arrays are (groups, cells, 16), x = nu/T.  The weights are
        nu^3/(e^x - 1) times the rule's weights, with the row factor
        e^{-xmin} taken out: it cancels in every weighted average and keeps
        cold rows from underflowing.  The exponent is clipped at
        _WEIGHT_EXP_FLOOR, where e^{xmin - x} is already ~1e-304 of the
        row's largest weight.
        """
        Tn = T.reshape(1, -1, 1)
        nu, wj, nu3 = grid.nodes[:, None], grid.node_weights[:, None], grid.nodes_cubed[:, None]
        if grid.scales_with_temperature:
            nu = Tn * nu
            wj = wj * Tn
            nu3 = nu**3
        x = nu / Tn
        # division by T > 0 is monotone, so xmin is the smallest node over T
        xmin = nu.min(axis=-1, keepdims=True) / Tn
        # the (groups, cells, 16) passes run in place; 1 - e^{-x} serves both
        # the weight and the stimulated-emission factor
        stim = np.negative(x)
        np.expm1(stim, out=stim)
        np.negative(stim, out=stim)
        wgt = np.subtract(xmin, x)
        np.maximum(wgt, _WEIGHT_EXP_FLOOR, out=wgt)
        np.exp(wgt, out=wgt)
        wgt *= nu3
        wgt /= stim
        wgt *= wj
        kap = stim * (OPACITY_COEFF / nu3)
        return x, stim, wgt, kap

    def group_opacity(self, T, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
        """Planck-averaged group opacities and their T-derivatives, each T.shape + (n_groups,).

        Each group integrates kappa_nu weighted by nu^3/(e^{nu/T}-1) with the
        grid's 16-point Gauss-Legendre rule, all cells and groups at once.
        The derivative is the quotient rule on the same nodes, with T dW/dT =
        W x/(1 - e^{-x}) for the Planck weights W and T dk/dT = -k x/(e^x - 1)
        for the stimulated-emission factor of the node opacities k; on the one
        group (0, inf), whose nodes scale with T, the average is C' T^-3.  Both
        are laid out like planck_spectrum's values.
        """
        T = _check_temperature(T)
        x, stim, wgt, kap = self._node_terms(T, grid)
        den = wgt.sum(axis=-1)
        kbar = (wgt * kap).sum(axis=-1) / den
        Trow = T.reshape(1, -1)
        if grid.scales_with_temperature:
            slope = -3.0 * kbar / Trow
        else:
            # T dkbar/dT sums W (x/stim) (kap - kbar) + W T dkap/dT over W; the stimulated-
            # emission factor's T dkap/dT = -(x/stim) kap (1 - stim) leaves kap stim - kbar
            slope = (wgt * (x / stim * (kap * stim - kbar[..., None]))).sum(axis=-1) \
                / (den * Trow)
        shape = np.shape(T) + (grid.n_groups,)
        return kbar.T.reshape(shape), slope.T.reshape(shape)
