"""Frequency grid, material model, Planck integrals and group opacities.

Units: lengths cm, time ns, photon energy and temperature keV, energy in
jerks.  The Planck group emission B_g is normalized so that summing
4*pi*B_g over groups spanning (0, inf) gives a_R * c * T^4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C_LIGHT = 29.9792458   # speed of light, cm/ns
A_RAD = 0.01372        # radiation constant, jerk / (cm^3 keV^4)
FOUR_PI = 4.0 * np.pi

#: group boundaries at or above this value are treated as +infinity (keV)
INFINITE_EDGE = 1.0e7

#: temperatures below this are rejected as unphysical (keV)
TEMPERATURE_FLOOR = 1.0e-8

_PI4_15 = np.pi**4 / 15.0
_SERIES_MIN_TERMS = 25
_SERIES_CUTOFF = 1e-16
_GL16 = np.polynomial.legendre.leggauss(16)


class TemperatureDomainError(ValueError):
    """Temperature below the physical floor, or not finite."""


def _check_temperature(T) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if not np.all(np.isfinite(T) & (T >= TEMPERATURE_FLOOR)):
        raise TemperatureDomainError(
            f"temperature not finite or below floor {TEMPERATURE_FLOOR:g} keV "
            f"(min {T.min():g}, max {T.max():g})"
        )
    return T


@dataclass(frozen=True)
class FrequencyGrid:
    """Photon-energy group boundaries nu_0 = 0 < nu_1 < ... < nu_Ng (keV)."""

    bounds: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.ndim != 1 or b.shape[0] < 2:
            raise ValueError("need at least one group (two boundaries)")
        if b[0] != 0.0:
            raise ValueError("first boundary must be 0")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "bounds", b)

    @property
    def n_groups(self) -> int:
        return self.bounds.shape[0] - 1


def planck_cumulative(x) -> np.ndarray:
    """Integral of s^3 / (e^s - 1) from x to infinity, by exponential series.

    Terms e^{-n x} (x^3/n + 3x^2/n^2 + 6x/n^3 + 6/n^4) are accumulated until
    they drop below 1e-16 in absolute value (at least 25 terms).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("Planck integral argument must be >= 0")
    out = np.full_like(x, _PI4_15)  # exact complete integral at x = 0
    pos = x > 0.0
    xp = x[pos]
    acc = np.zeros_like(xp)
    x3, x2 = xp**3, xp**2
    n = 1
    while xp.size:
        with np.errstate(under="ignore"):
            term = np.exp(-n * xp) * (x3 / n + 3.0 * x2 / n**2 + 6.0 * xp / n**3 + 6.0 / n**4)
        acc += term
        if n >= _SERIES_MIN_TERMS and term.max() < _SERIES_CUTOFF:
            break
        n += 1
    out[pos] = acc
    return out


def planck_spectrum(T, grid: FrequencyGrid, *, radiation_constant: float = A_RAD,
                    light_speed: float = C_LIGHT) -> np.ndarray:
    """Group Planck emission B_g(T) per steradian, all groups at once.

    T may be a scalar or an array; the group axis is appended last.
    """
    T = _check_temperature(T)
    bounds = grid.bounds
    infinite = bounds >= INFINITE_EDGE
    Tcol = T.reshape(-1, 1)
    x = np.where(infinite[None, :], np.inf, bounds[None, :] / Tcol)
    cum = np.zeros_like(x)
    finite = ~np.isinf(x)
    cum[finite] = planck_cumulative(x[finite])
    frac = (cum[:, :-1] - cum[:, 1:]) / _PI4_15
    scale = radiation_constant * light_speed * Tcol**4 / FOUR_PI
    return (scale * frac).reshape(np.shape(T) + (grid.n_groups,))


@dataclass(frozen=True)
class MaterialModel:
    """Opacity law, heat capacity and physical constants.

    Spectral opacity is coeff / nu^exponent, optionally carrying the
    stimulated-emission correction factor (1 - e^{-nu/T}).  Material energy
    density is linear in temperature: eps(T) = c_v * T.
    """

    heat_capacity: float                 # c_v, jerk / (cm^3 keV)
    opacity_coeff: float = 27.0
    opacity_exponent: float = 3.0
    stimulated_correction: bool = True
    light_speed: float = C_LIGHT
    radiation_constant: float = A_RAD

    def __post_init__(self):
        for name in ("heat_capacity", "opacity_coeff", "light_speed", "radiation_constant"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    def spectral_opacity(self, nu, T) -> np.ndarray:
        """kappa_nu(T) in 1/cm."""
        T = _check_temperature(T)
        nu = np.asarray(nu, dtype=float)
        if np.any(nu <= 0.0):
            raise ValueError("frequency must be positive")
        kappa = self.opacity_coeff / nu**self.opacity_exponent
        if self.stimulated_correction:
            with np.errstate(under="ignore"):
                kappa = kappa * (-np.expm1(-nu / T))
        return kappa

    def group_opacity(self, T, grid: FrequencyGrid) -> np.ndarray:
        """Planck-averaged group opacities, shape T.shape + (n_groups,).

        Each group integrates kappa_nu weighted by nu^3/(e^{nu/T}-1) with
        16-point Gauss-Legendre; the last group, when unbounded, is mapped
        through nu = nu_lo / u onto u in (0, 1].
        """
        T = _check_temperature(T)
        Tcol = T.reshape(-1, 1)
        gl_x, gl_w = _GL16
        n_groups = grid.n_groups
        kbar = np.empty((Tcol.shape[0], n_groups))
        for g in range(n_groups):
            lo, hi = grid.bounds[g], grid.bounds[g + 1]
            if hi >= INFINITE_EDGE and lo > 0.0:
                u = 0.5 * (gl_x + 1.0)
                nu = lo / u
                jac = lo / u**2
            elif hi >= INFINITE_EDGE:
                # single group spanning (0, inf): nu = T u/(1-u), per-row grid
                u = 0.5 * (gl_x + 1.0) * (1.0 - 1e-8)
                nu = Tcol * (u / (1.0 - u))[None, :]
                jac = Tcol * (1.0 / (1.0 - u) ** 2)[None, :]
            else:
                nu = 0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo)
                jac = np.full_like(nu, 0.5 * (hi - lo))
            if np.ndim(nu) == 1:
                nu = nu[None, :]
                jac = jac[None, :]
            x = nu / Tcol
            # Planck weight with the row max factored out: the common factor
            # e^{-xmin} cancels in the num/den ratio, dodging underflow at low T
            xmin = x.min(axis=1, keepdims=True)
            with np.errstate(under="ignore"):
                wgt = nu**3 * np.exp(-(x - xmin)) / (-np.expm1(-x))
            kap = self.spectral_opacity(nu, Tcol)
            num = np.sum(gl_w * jac * wgt * kap, axis=1)
            den = np.sum(gl_w * jac * wgt, axis=1)
            kbar[:, g] = num / den
        return kbar.reshape(np.shape(T) + (n_groups,))
