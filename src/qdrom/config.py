"""Run configuration: file format, validation and named presets.

Config files are plain `key = value` lines with `#` comments.  Boundary
sides take either a temperature in keV (isotropic blackbody inflow) or the
word `vacuum`.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .materials import (A_RAD, C_LIGHT, HEAT_CAPACITY, INFINITE_EDGE, OPACITY_COEFF,
                        TEMPERATURE_FLOOR)
from .quadrature import QuadratureSpecError, azimuthal_counts

FC_GROUP_BOUNDS = (0.0, 0.7075, 1.415, 2.123, 2.830, 3.538, 4.245, 5.129,
                   6.014, 6.898, 7.783, 8.667, 9.551, 10.44, 11.32, 12.20,
                   13.09, 1.0e7)
DESK_GROUP_BOUNDS = (0.0, 0.7075, 2.830, 6.898, 1.0e7)

#: absolute floor of the low-order stopping test (`drivers._change_ratio`)
OUTER_FLOOR = 1e-15
#: low-order iterates allowed per time step before a run fails
MAX_OUTER = 500


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


#: keys a stored config may hold that are no longer options.  Each maps to the
#: constant that replaced it, the one value a stored config may give it, or to
#: None for a retired no-op option, which may hold any value
_FORMER_KEYS = {
    "light_speed": C_LIGHT, "radiation_constant": A_RAD,
    "outer_floor": OUTER_FLOOR, "max_outer": MAX_OUTER,
    "heat_capacity": HEAT_CAPACITY, "opacity_coeff": OPACITY_COEFF,
    "opacity_exponent": 3.0, "stimulated_correction": True,
    **dict.fromkeys(("threads", "seed", "xi_rel", "method", "inner_tol_rel",
                     "inner_tol_abs", "max_inner", "newton_tol", "max_newton")),
}


@dataclass
class RunConfig:
    nx: int = 10
    ny: int = 10
    dx: float = 0.6
    dy: float = 0.6
    group_bounds: tuple = DESK_GROUP_BOUNDS
    quadrature: int = 4            # directions per quadrant
    dt: float = 0.02               # ns
    n_steps: int = 50
    t_initial: float = 0.001       # keV
    boundary_left: float | None = 1.0   # keV, None = vacuum
    boundary_bottom: float | None = None
    boundary_right: float | None = None
    boundary_top: float | None = None
    outer_tol: float = 1e-14
    # not a field: benchmarks/run.py reads cfg.heat_capacity
    heat_capacity: ClassVar[float] = HEAT_CAPACITY

    def __post_init__(self):
        for name in _FLOATS:
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in _INTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        try:
            azimuthal_counts(self.quadrature)
        except QuadratureSpecError as err:
            raise ConfigError(f"quadrature: {err}") from err
        for name in ("dx", "dy", "dt", "outer_tol"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        b = np.asarray(self.group_bounds, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ConfigError("group_bounds needs at least two edges")
        if b[0] != 0.0 or not np.all(np.diff(b) > 0.0):
            raise ConfigError("group_bounds must start at 0 and increase strictly")
        if np.any(b[:-1] >= INFINITE_EDGE):
            raise ConfigError(f"group_bounds: only the last edge may be >= {INFINITE_EDGE:g} "
                              "(infinite)")
        # the grey emission c kbar_B a_R T^4 counts the whole Planck spectrum,
        # so the groups must cover it for the grey problem to be their sum
        if b[-1] < INFINITE_EDGE:
            raise ConfigError(f"group_bounds: the last edge must be >= {INFINITE_EDGE:g} "
                              f"(infinite), got {b[-1]:g}")
        for name in ("t_initial", *_SIDES):
            val = getattr(self, name)
            if val is not None and not TEMPERATURE_FLOOR <= val < np.inf:
                raise ConfigError(f"{name} temperature must be finite and at least "
                                  f"{TEMPERATURE_FLOOR:g} keV")

    @property
    def n_groups(self) -> int:
        return len(self.group_bounds) - 1

    def to_dict(self) -> dict:
        d = asdict(self)
        d["group_bounds"] = list(self.group_bounds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Inverse of to_dict, for stored configs that may hold former keys.

        A former key loads only at its built-in value: a record made with
        another c, a_R, material or stopping rule means something else.
        """
        for key, value in _FORMER_KEYS.items():
            if value is not None and key in d and d[key] != value:
                raise ConfigError(f"stored {key} = {d[key]!r} is not the built-in "
                                  f"{value!r}, which is no longer an option")
        d = {k: v for k, v in d.items() if k not in _FORMER_KEYS}
        d["group_bounds"] = tuple(d.get("group_bounds", DESK_GROUP_BOUNDS))
        return cls(**d)


#: the keys RunConfig checks as counts, as reals and as side temperatures, by
#: their declared types (annotations are strings here)
_INTS, _FLOATS, _SIDES = (tuple(f.name for f in fields(RunConfig) if f.type == t)
                          for t in ("int", "float", "float | None"))


#: named configurations: the RunConfig keywords in which each differs from the defaults
PRESETS = {
    "fleck-cummings-2d": dict(nx=20, ny=20, dx=0.3, dy=0.3, group_bounds=FC_GROUP_BOUNDS,
                              quadrature=36, n_steps=300),
    "fleck-cummings-desk": {},
    "equilibrium-2d": dict(nx=6, ny=6, dx=1.0, dy=1.0, group_bounds=(0.0, 0.7075, 2.830, 1.0e7),
                           n_steps=10, t_initial=1.0, boundary_left=1.0, boundary_bottom=1.0,
                           boundary_right=1.0, boundary_top=1.0),
}


def preset(name: str) -> RunConfig:
    """The named configuration of PRESETS."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'")
    return RunConfig(**PRESETS[name])


def _side(val: str) -> float | None:
    return None if val.lower() in ("vacuum", "none") else float(val)


#: value parser per declared field type; a parser raises ValueError on bad input
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "float | None": _side,
    "tuple": lambda val: tuple(float(v) for v in val.replace(",", " ").split()),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def load_config(path) -> RunConfig:
    """Parse a key = value configuration file.

    A `preset` line, allowed once, sets the keys that no other line sets.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    values: dict = {}
    named = False
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "preset":
            if named:
                raise ConfigError(f"{path}:{lineno}: a second 'preset' line")
            if val not in PRESETS:
                raise ConfigError(f"{path}:{lineno}: unknown preset '{val}'")
            values = {**preset(val).to_dict(), **values}
            named = True
            continue
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}'") from err
    return RunConfig.from_dict(values)
