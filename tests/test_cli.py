"""End-to-end command-line pipeline on a tiny configuration."""
import csv
import struct

import numpy as np
import pytest

from qdrom.cli import main
from qdrom.container import load_run_record, read_container, write_container

TINY_CONFIG = """\
# tiny pipeline exercise
nx = 4
ny = 4
dx = 1.5
dy = 1.5
group_bounds = 0, 0.7075, 2.83, 1e7
quadrature = 1
dt = 0.02
n_steps = 5
t_initial = 0.001
boundary_left = 1.0
boundary_right = vacuum
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    rc = main(["fom", "--config", str(cfg), "--out", str(root / "fom")])
    assert rc == 0
    return root


def test_fom_outputs(workdir):
    run = load_run_record(workdir / "fom" / "fom_run.ddet")
    assert run.mode == "fom"
    assert run.n_steps == 5
    kind, desc, arrays = read_container(workdir / "fom" / "snapshots.ddet")
    assert kind == "snapshot-set"
    assert arrays["cb"].shape == (2 * 3 * (4 + 4), 5)


def test_compress_and_rom_roundtrip(workdir):
    cfg = workdir / "tiny.cfg"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-12", "--out", str(workdir / "pod")])
    assert rc == 0
    assert len(list((workdir / "pod").glob("*.pod.ddet"))) == 7
    rc = main(["rom", "--config", str(cfg), "--models", str(workdir / "pod"),
               "--out", str(workdir / "rom_pod")])
    assert rc == 0
    fom = load_run_record(workdir / "fom" / "fom_run.ddet")
    rom = load_run_record(workdir / "rom_pod" / "rom_run.ddet")
    err = np.abs(rom.temperature - fom.temperature).max()
    assert err <= 1e-9 * fom.temperature.max()


def test_rom_identity_playback(workdir):
    cfg = workdir / "tiny.cfg"
    rc = main(["rom", "--config", str(cfg),
               "--models", str(workdir / "fom" / "snapshots.ddet"),
               "--out", str(workdir / "rom_id")])
    assert rc == 0
    fom = load_run_record(workdir / "fom" / "fom_run.ddet")
    rom = load_run_record(workdir / "rom_id" / "rom_run.ddet")
    assert np.abs(rom.temperature - fom.temperature).max() <= 1e-10


def test_compare_same_run_is_zero(workdir):
    out = workdir / "self.csv"
    rc = main(["compare", "--run-a", str(workdir / "fom" / "fom_run.ddet"),
               "--run-b", str(workdir / "fom" / "fom_run.ddet"),
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 5
    assert all(float(r["rel_err_temperature"]) == 0.0 for r in rows)


def test_compare_field_maps(workdir):
    out = workdir / "cmp.csv"
    fields = workdir / "fields.ddet"
    rc = main(["compare", "--run-a", str(workdir / "rom_pod" / "rom_run.ddet"),
               "--run-b", str(workdir / "fom" / "fom_run.ddet"),
               "--out", str(out), "--field-steps", "2,4",
               "--fields-out", str(fields)])
    assert rc == 0
    kind, desc, arrays = read_container(fields)
    assert kind == "results"
    assert "temperature:2" in arrays and "energy:4" in arrays


@pytest.mark.parametrize("steps", ["0", "6", "x", "2,"])
def test_compare_bad_field_steps_are_usage_errors(workdir, steps):
    run = str(workdir / "fom" / "fom_run.ddet")
    argv = ["compare", "--run-a", run, "--run-b", run, "--out", str(workdir / "bad.csv"),
            "--field-steps", steps]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects values it cannot parse
        rc = exc.code
    assert rc == 2


def test_compare_zero_reference_cell_is_data_error(workdir, tmp_path):
    # a relative error map is undefined where the reference cell is zero
    run = workdir / "fom" / "fom_run.ddet"
    kind, desc, arrays = read_container(run)
    arrays["e_cell"][1, 0] = 0.0
    ref = tmp_path / "holed_run.ddet"
    write_container(ref, kind, desc, arrays)
    fields = tmp_path / "fields.ddet"
    rc = main(["compare", "--run-a", str(run), "--run-b", str(ref),
               "--out", str(tmp_path / "cmp.csv"), "--field-steps", "2",
               "--fields-out", str(fields)])
    assert rc == 3
    assert not fields.exists()


def test_breakout_unreachable_threshold(workdir):
    out = workdir / "bk.csv"
    rc = main(["breakout", "--run", str(workdir / "fom" / "fom_run.ddet"),
               "--quantity", "flux", "--threshold", "1e30", "--out", str(out)])
    assert rc == 0
    summary = (workdir / "bk.summary.csv").read_text()
    assert "not reached" in summary
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 5


def test_breakout_reached(workdir):
    out = workdir / "bk2.csv"
    rc = main(["breakout", "--run", str(workdir / "fom" / "fom_run.ddet"),
               "--quantity", "temperature", "--threshold", "0.0005",
               "--out", str(out)])
    assert rc == 0
    summary = (workdir / "bk2.summary.csv").read_text()
    assert "yes" in summary


def test_svd_report(workdir):
    rc = main(["svd-report", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--out-prefix", str(workdir / "svd_")])
    assert rc == 0
    ranks = list(csv.DictReader(open(workdir / "svd_ranks.csv")))
    assert {r["method"] for r in ranks} == {"pod", "dmd", "dmd-e"}


def test_dmd_rank_not_above_pod_via_cli(workdir):
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "dmd", "--xi", "1e-4", "--out", str(workdir / "dmd")])
    assert rc == 0
    from qdrom.container import load_model
    for pod_file in (workdir / "pod").glob("*.pod.ddet"):
        name = pod_file.name.split(".")[0]
        pod = load_model(pod_file)
        dmd = load_model(workdir / "dmd" / f"{name}.dmd.ddet")
        # ranks from different xi targets are not comparable; just sanity
        assert dmd.rank >= 1 and pod.rank >= 1


def test_missing_config_is_usage_error(workdir, tmp_path, capsys):
    rc = main(["fom", "--config", str(workdir / "missing.cfg"),
               "--out", str(workdir / "x")])
    assert rc == 2
    assert "missing.cfg" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("nx = 4", "nx = abc"))
    rc = main(["fom", "--config", str(bad), "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "bad value for 'nx'" in capsys.readouterr().err
    bad.write_text(TINY_CONFIG + "outer_tol = -1\n")
    rc = main(["fom", "--config", str(bad), "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "outer_tol must be positive" in capsys.readouterr().err


def test_corrupt_container_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.ddet"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    rc = main(["svd-report", "--snapshots", str(bad), "--out-prefix",
               str(tmp_path / "s_")])
    assert rc == 3


@pytest.mark.parametrize("fault", ["dims", "missing array", "fractional count"])
def test_compare_corrupt_run_record_is_data_error(workdir, tmp_path, capsys, fault):
    good = workdir / "fom" / "fom_run.ddet"
    raw = good.read_bytes()
    if fault == "dims":
        desc_len = struct.unpack_from("<I", raw, 24)[0]
        name_len = struct.unpack_from("<I", raw, 32 + desc_len)[0]
        at = 36 + desc_len + name_len
        raw = raw[:at] + struct.pack("<QQ", 2**62, 2**62) + raw[at + 16:]
    else:
        kind, desc, arrays = read_container(good)
        if fault == "missing array":
            del arrays["temperature"]
        else:
            arrays["iterations"][0, 0] = 2.5
        write_container(tmp_path / "src.ddet", kind, desc, arrays)
        raw = (tmp_path / "src.ddet").read_bytes()
    bad = tmp_path / "bad_run.ddet"
    bad.write_bytes(raw)
    rc = main(["compare", "--run-a", str(bad), "--run-b", str(good),
               "--out", str(tmp_path / "cmp.csv")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_nonfinite_model_is_data_error(workdir, tmp_path, capsys):
    models = tmp_path / "models"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-6", "--out", str(models)])
    assert rc == 0
    kind, desc, arrays = read_container(models / "cb.pod.ddet")
    arrays["coefficients"][0, 1] = np.nan
    write_container(models / "cb.pod.ddet", kind, desc, arrays)
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"), "--models", str(models),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "cb.pod.ddet" in capsys.readouterr().err


def test_two_methods_in_one_model_directory_is_data_error(workdir, tmp_path, capsys):
    snapshots = str(workdir / "fom" / "snapshots.ddet")
    for method in ("pod", "dmd"):
        rc = main(["compress", "--snapshots", snapshots, "--method", method,
                   "--xi", "1e-6", "--out", str(tmp_path / "models")])
        assert rc == 0
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"),
               "--models", str(tmp_path / "models"), "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "fxx_c.dmd.ddet" in err and "fxx_c.pod.ddet" in err


def test_layout_mismatch_is_data_error(workdir, tmp_path):
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(TINY_CONFIG.replace("nx = 4", "nx = 3"))
    rc = main(["rom", "--config", str(other_cfg), "--models", str(workdir / "pod"),
               "--out", str(tmp_path / "r")])
    assert rc == 3


def test_cli_determinism(workdir, tmp_path):
    cfg = workdir / "tiny.cfg"
    rc = main(["fom", "--config", str(cfg), "--out", str(tmp_path / "again")])
    assert rc == 0
    a = (workdir / "fom" / "fom_run.ddet").read_bytes()
    b = (tmp_path / "again" / "fom_run.ddet").read_bytes()
    assert a == b
    sa = (workdir / "fom" / "snapshots.ddet").read_bytes()
    sb = (tmp_path / "again" / "snapshots.ddet").read_bytes()
    assert sa == sb


def test_equilibrium_preset_cli(tmp_path):
    rc = main(["fom", "--preset", "equilibrium-2d", "--out", str(tmp_path / "eq")])
    assert rc == 0
    run = load_run_record(tmp_path / "eq" / "fom_run.ddet")
    assert np.ptp(run.temperature) <= 1e-11


def test_removed_flags_are_usage_errors(workdir, tmp_path):
    cfg = workdir / "tiny.cfg"
    models = ["--models", str(workdir / "fom" / "snapshots.ddet")]
    for command, extra in (("fom", []), ("rom", models)):
        for flag in ("--threads", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), flag, "4", *extra,
                      "--out", str(tmp_path / "t")])
            assert exc.value.code == 2
