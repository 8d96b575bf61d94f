"""Configuration parsing, presets and validation."""
import numpy as np
import pytest

from qdrom.config import MAX_OUTER, OUTER_FLOOR, ConfigError, RunConfig, load_config, preset
from qdrom.materials import A_RAD, C_LIGHT, HEAT_CAPACITY, OPACITY_COEFF


def test_presets_exist():
    full = preset("fleck-cummings-2d")
    assert (full.nx, full.ny, full.n_groups, full.quadrature) == (20, 20, 17, 36)
    assert full.n_steps == 300 and full.dt == 0.02
    assert full.t_initial == 0.001 and full.boundary_left == 1.0
    desk = preset("fleck-cummings-desk")
    assert (desk.nx, desk.ny, desk.n_groups, desk.quadrature) == (10, 10, 4, 4)
    assert desk.n_steps == 50
    eq = preset("equilibrium-2d")
    assert eq.t_initial == eq.boundary_left == eq.boundary_top
    with pytest.raises(ConfigError):
        preset("nope")


def test_heat_capacity_default_matches_drive_cube():
    cfg = preset("fleck-cummings-2d")
    assert cfg.heat_capacity == pytest.approx(0.5917 * A_RAD, rel=1e-12)


def test_parse_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "nx = 3\n"
        "ny = 2\n"
        "dx = 0.5\n"
        "dy = 0.25   # trailing comment\n"
        "group_bounds = 0, 1.0, 1e7\n"
        "quadrature = 1\n"
        "dt = 0.01\n"
        "n_steps = 7\n"
        "t_initial = 0.5\n"
        "boundary_left = 0.9\n"
        "boundary_top = vacuum\n"
    )
    cfg = load_config(path)
    assert (cfg.nx, cfg.ny) == (3, 2)
    assert cfg.group_bounds == (0.0, 1.0, 1e7)
    assert cfg.boundary_left == 0.9
    assert cfg.boundary_top is None


def test_parse_preset_line_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset = fleck-cummings-desk\nn_steps = 12\n")
    cfg = load_config(path)
    assert cfg.n_steps == 12
    assert cfg.nx == 10  # from the preset


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(FileNotFoundError):
        load_config(missing)
    bad = tmp_path / "bad.cfg"
    bad.write_text("nx 3\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("mystery_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    # retired options, and the former keys that are constants now, are unknown keys
    for line in ("threads = 1", "xi_rel = 1e-2", "max_inner = 10", "max_newton = 10",
                 "light_speed = 29.9792458", "radiation_constant = 0.01372",
                 "outer_floor = 1e-15", "max_outer = 500",
                 "heat_capacity = 0.008118124", "opacity_coeff = 27",
                 "opacity_exponent = 3", "stimulated_correction = true"):
        bad.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)
    # values that do not parse name their line and key
    for key, val in (("nx", "abc"), ("group_bounds", "0 x"), ("boundary_left", "hot")):
        bad.write_text(f"dx = 0.5\n{key} = {val}\n")
        with pytest.raises(ConfigError, match=f":2: bad value for '{key}'"):
            load_config(bad)
    bad.write_text("group_bounds = 0\n")
    with pytest.raises(ConfigError, match="two edges"):
        load_config(bad)
    # a preset line may appear once, and names a preset; both errors name their line
    for text, match in (("preset = equilibrium-2d\npreset = fleck-cummings-desk\nn_steps = 1\n",
                         ":2: a second 'preset' line"),
                        ("n_steps = 1\npreset = nosuch\n", ":2: unknown preset 'nosuch'")):
        bad.write_text(text)
        with pytest.raises(ConfigError, match=f"bad.cfg{match}"):
            load_config(bad)


def test_validation():
    with pytest.raises(ConfigError):
        RunConfig(nx=0)
    with pytest.raises(ConfigError):
        RunConfig(dt=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(group_bounds=(0.5, 1.0))
    for bounds in ((), (0.0,)):
        with pytest.raises(ConfigError, match="two edges"):
            RunConfig(group_bounds=bounds)
    with pytest.raises(ConfigError, match="only the last edge"):
        RunConfig(group_bounds=(0.0, 1.0e7, 2.0e7))
    # a finite last edge leaves the spectrum above it out of the groups but
    # not out of the grey emission
    for bounds in ((0.0, 3.0), (0.0, 0.7075, 2.83, 9.9e6)):
        with pytest.raises(ConfigError, match="last edge must be"):
            RunConfig(group_bounds=bounds)
    with pytest.raises(ConfigError):
        RunConfig(boundary_left=-1.0)
    # solver controls and non-finite values
    for kw in (dict(outer_tol=-1.0), dict(outer_tol=0.0), dict(quadrature=0), dict(quadrature=2),
               dict(dx=np.nan), dict(dt=np.inf), dict(boundary_left=np.inf),
               dict(group_bounds=(0.0, np.nan, 1.0e7)),
               # below materials.TEMPERATURE_FLOOR (1e-8 keV)
               dict(t_initial=1e-9), dict(boundary_left=1e-9)):
        with pytest.raises(ConfigError):
            RunConfig(**kw)


def test_roundtrip_dict():
    cfg = preset("fleck-cummings-desk")
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    # stored configs may still carry the retired no-op options; only those are skipped
    stored = {**cfg.to_dict(), "threads": 1, "seed": None, "xi_rel": [1e-2], "method": "pod",
              "inner_tol_rel": 1e-14, "inner_tol_abs": 1e-15, "max_inner": 500,
              "newton_tol": 1e-13, "max_newton": 100}
    assert RunConfig.from_dict(stored) == cfg
    with pytest.raises(TypeError):
        RunConfig.from_dict({**cfg.to_dict(), "mystery_key": 1})
    # options that are constants now load only at their built-in values: a
    # record made with another c, a_R, material or stop describes another run
    for key, value in (("light_speed", C_LIGHT), ("radiation_constant", A_RAD),
                       ("outer_floor", OUTER_FLOOR), ("max_outer", MAX_OUTER),
                       ("heat_capacity", HEAT_CAPACITY), ("opacity_coeff", OPACITY_COEFF),
                       ("opacity_exponent", 3.0), ("stimulated_correction", True)):
        assert RunConfig.from_dict({**cfg.to_dict(), key: value}) == cfg
        with pytest.raises(ConfigError, match=f"stored {key} = "):
            RunConfig.from_dict({**cfg.to_dict(), key: 2 * value})

