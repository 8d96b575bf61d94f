"""End-to-end command-line pipeline on a tiny configuration."""
import csv
import struct

import numpy as np
import pytest

from qdrom import container
from qdrom.cli import main
from qdrom.container import load_run_record, read_container, write_container
from qdrom.drivers import SNAPSHOT_NAMES

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
    assert np.all(run.sweeps >= 1) and np.array_equal(run.sweeps, run.iterations)


def test_fom_progress_prints_the_step_count(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(TINY_CONFIG.replace("n_steps = 5", "n_steps = 1"))
    assert main(["fom", "--config", str(cfg), "--out", str(tmp_path / "fom")]) == 0
    run = load_run_record(tmp_path / "fom" / "fom_run.ddet")
    line = f"step 1: {run.iterations[0]} iterations (change ratio {run.final_change[0]:.3e})"
    assert line in capsys.readouterr().err.splitlines()


@pytest.fixture(scope="module")
def pod_rom(workdir):
    """(model directory, ROM run record) for POD models of the snapshots at xi 1e-12."""
    models, rom_out = workdir / "pod", workdir / "rom_pod"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-12", "--out", str(models)])
    assert rc == 0
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"), "--models", str(models),
               "--out", str(rom_out)])
    assert rc == 0
    return models, rom_out / "rom_run.ddet"


def test_compress_and_rom_roundtrip(workdir, pod_rom):
    models, rom_run = pod_rom
    assert len(list(models.glob("*.pod.ddet"))) == 7
    fom = load_run_record(workdir / "fom" / "fom_run.ddet")
    rom = load_run_record(rom_run)
    err = np.abs(rom.temperature - fom.temperature).max()
    assert err <= 1e-9 * fom.temperature.max()


def test_rom_states_its_stopping_tolerance(workdir, tmp_path, capsys):
    models = tmp_path / "pod2"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-2", "--out", str(models)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"), "--models", str(models),
               "--out", str(tmp_path / "rom")])
    assert rc == 0
    tol = load_run_record(tmp_path / "rom" / "rom_run.ddet").config_meta["outer_tol"]
    assert tol > 1e-14  # the tiny config's outer_tol: these models discard more
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if "tolerance" in line] == [f"stopping tolerance {tol:.3e}"]


def test_rom_identity_playback(workdir):
    cfg = workdir / "tiny.cfg"
    rc = main(["rom", "--config", str(cfg),
               "--models", str(workdir / "fom" / "snapshots.ddet"),
               "--out", str(workdir / "rom_id")])
    assert rc == 0
    fom = load_run_record(workdir / "fom" / "fom_run.ddet")
    rom = load_run_record(workdir / "rom_id" / "rom_run.ddet")
    assert np.abs(rom.temperature - fom.temperature).max() <= 1e-10


def test_run_record_as_models_is_data_error(workdir, tmp_path, capsys):
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"),
               "--models", str(workdir / "fom" / "fom_run.ddet"),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "found run-record" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # not even an empty output directory


def test_snapshot_set_models_are_read_once(workdir, tmp_path, monkeypatch):
    reads = []

    def counted(path):
        reads.append(path)
        return read_container(path)

    monkeypatch.setattr(container, "read_container", counted)
    snapshots = workdir / "fom" / "snapshots.ddet"
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"), "--models", str(snapshots),
               "--out", str(tmp_path / "r")])
    assert rc == 0
    assert [str(p) for p in reads] == [str(snapshots)]


def test_compare_same_run_is_zero(workdir):
    out = workdir / "self.csv"
    rc = main(["compare", "--run-a", str(workdir / "fom" / "fom_run.ddet"),
               "--run-b", str(workdir / "fom" / "fom_run.ddet"),
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 5
    assert all(float(r["rel_err_temperature"]) == 0.0 for r in rows)


def test_compare_field_maps(workdir, pod_rom):
    out = workdir / "cmp.csv"
    fields = workdir / "fields.ddet"
    rc = main(["compare", "--run-a", str(pod_rom[1]),
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
            "--field-steps", steps, "--fields-out", str(workdir / "bad.ddet")]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects values it cannot parse
        rc = exc.code
    assert rc == 2
    assert not (workdir / "bad.ddet").exists()


@pytest.mark.parametrize("given", ["--field-steps", "--fields-out"])
def test_compare_half_given_field_flags_are_usage_errors(workdir, given):
    # the maps need both the steps and the file; one alone must not exit 0
    run = str(workdir / "fom" / "fom_run.ddet")
    value = {"--field-steps": "2", "--fields-out": str(workdir / "half.ddet")}[given]
    argv = ["compare", "--run-a", run, "--run-b", run, "--out", str(workdir / "half.csv"),
            given, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (workdir / "half.csv").exists()


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
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 5


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_breakout_nonfinite_threshold_is_usage_error(workdir, threshold):
    # a NaN threshold is never reached, and would read as "not reached"
    out = workdir / "bk_nonfinite.csv"
    with pytest.raises(SystemExit) as exc:
        main(["breakout", "--run", str(workdir / "fom" / "fom_run.ddet"),
              "--quantity", "flux", "--threshold", threshold, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


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
    ranks = list(csv.DictReader((workdir / "svd_ranks.csv").read_text().splitlines()))
    assert {r["method"] for r in ranks} == {"pod", "dmd", "dmd-e"}


def test_svd_report_on_an_exactly_constant_matrix(workdir, tmp_path):
    # a constant matrix leaves a zero spectrum (DMD-E's always, POD's when
    # the mean is exact): its rank is 1 in every row, as `compress` gives
    kind, desc, arrays = read_container(workdir / "fom" / "snapshots.ddet")
    arrays["cb"] = np.tile(arrays["cb"][:, :1], (1, arrays["cb"].shape[1]))
    snapshots = tmp_path / "snapshots.ddet"
    write_container(snapshots, kind, desc, arrays)
    rc = main(["svd-report", "--snapshots", str(snapshots),
               "--out-prefix", str(tmp_path / "svd_")])
    assert rc == 0
    ranks = list(csv.DictReader((tmp_path / "svd_ranks.csv").read_text().splitlines()))
    assert {r["method"] for r in ranks} == {"pod", "dmd", "dmd-e"}
    assert {r["cb"] for r in ranks} == {"1"}
    rc = main(["compress", "--snapshots", str(snapshots), "--method", "dmd-e",
               "--xi", "1e-6", "--out", str(tmp_path / "models")])
    assert rc == 0
    assert container.load_model(tmp_path / "models" / "cb.dmd-e.ddet").rank == 1


def test_dmd_rank_not_above_pod_via_cli(workdir, pod_rom):
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "dmd", "--xi", "1e-4", "--out", str(workdir / "dmd")])
    assert rc == 0
    from qdrom.container import load_model
    compared = set()
    for pod_file in pod_rom[0].glob("*.pod.ddet"):
        name = pod_file.name.split(".")[0]
        pod = load_model(pod_file)
        dmd = load_model(workdir / "dmd" / f"{name}.dmd.ddet")
        # ranks from different xi targets are not comparable; just sanity
        assert dmd.rank >= 1 and pod.rank >= 1
        compared.add(name)
    assert compared == set(SNAPSHOT_NAMES)


@pytest.mark.parametrize("xi", ["0", "5", "nan"])
def test_compress_bad_xi_is_usage_error(workdir, tmp_path, xi):
    out = tmp_path / "models"
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
              "--method", "pod", "--xi", xi, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


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
    bad.write_text(TINY_CONFIG.replace("quadrature = 1", "quadrature = 2"))
    rc = main(["fom", "--config", str(bad), "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "unsupported per-quadrant count 2" in capsys.readouterr().err
    # temperatures below the 1e-8 keV floor are usage errors, caught before
    # the output directory is made
    for key, line in (("t_initial", "t_initial = 1e-9\n"),
                      ("boundary_left", "boundary_left = 1e-9\n")):
        bad.write_text(TINY_CONFIG + line)
        out = tmp_path / f"floor_{key}"
        rc = main(["fom", "--config", str(bad), "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
    # a finite last group edge is a usage error too
    bad.write_text(TINY_CONFIG.replace("2.83, 1e7", "2.83, 6.0"))
    out = tmp_path / "finite_edge"
    rc = main(["fom", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert "last edge must be" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_container_is_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.ddet"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    rc = main(["svd-report", "--snapshots", str(bad), "--out-prefix",
               str(tmp_path / "s_")])
    assert rc == 3


RUN_RECORD_FAULTS = ["dims", "missing array", "fractional count", "nan dt", "infinite t0",
                     "non-finite fields", "short counter row", "transposed grid"]


def corrupt_run_record(good, tmp_path, fault):
    """Copy of the run record `good` with one fault, written to tmp_path."""
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
        elif fault == "fractional count":
            arrays["iterations"][0, 0] = 2.5
        elif fault == "nan dt":
            desc["dt"] = float("nan")
        elif fault == "short counter row":
            arrays["iterations"] = arrays["iterations"][:, :-1]
        elif fault == "transposed grid":
            arrays["e_cell"] = np.ascontiguousarray(arrays["e_cell"].T)
        elif fault == "non-finite fields":
            arrays["temperature"][2, 3] = np.nan
            arrays["e_cell"][1, 0] = np.inf
        else:
            desc["t0"] = float("inf")
        write_container(tmp_path / "src.ddet", kind, desc, arrays)
        raw = (tmp_path / "src.ddet").read_bytes()
    bad = tmp_path / "bad_run.ddet"
    bad.write_bytes(raw)
    return bad


@pytest.mark.parametrize("fault", RUN_RECORD_FAULTS)
def test_compare_corrupt_run_record_is_data_error(workdir, tmp_path, capsys, fault):
    good = workdir / "fom" / "fom_run.ddet"
    bad = corrupt_run_record(good, tmp_path, fault)
    rc = main(["compare", "--run-a", str(bad), "--run-b", str(good),
               "--out", str(tmp_path / "cmp.csv")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("fault", RUN_RECORD_FAULTS)
def test_breakout_corrupt_run_record_is_data_error(workdir, tmp_path, capsys, fault):
    bad = corrupt_run_record(workdir / "fom" / "fom_run.ddet", tmp_path, fault)
    rc = main(["breakout", "--run", str(bad), "--quantity", "temperature",
               "--threshold", "0.0005", "--out", str(tmp_path / "bk.csv")])
    assert rc == 3
    captured = capsys.readouterr()
    assert "data error" in captured.err
    assert "breakout at" not in captured.out


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


@pytest.mark.parametrize("key, value", [("layouts", 5), ("t0", "soon"), ("dt", float("nan"))])
def test_compress_malformed_snapshot_descriptor_is_data_error(workdir, tmp_path, capsys,
                                                              key, value):
    kind, desc, arrays = read_container(workdir / "fom" / "snapshots.ddet")
    if key == "layouts":
        desc["layouts"]["cb"] = value
    else:
        desc[key] = value
    bad = tmp_path / "snapshots.ddet"
    write_container(bad, kind, desc, arrays)
    models = tmp_path / "models"
    rc = main(["compress", "--snapshots", str(bad), "--method", "pod", "--xi", "1e-6",
               "--out", str(models)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err
    assert not list(models.glob("*.ddet"))


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


def test_swapped_model_files_are_data_error(workdir, tmp_path, capsys):
    # fxx_c and fyy_c share a grid, so only each container's own name tells
    # that the files were swapped; the run must not start on them
    models = tmp_path / "models"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-6", "--out", str(models)])
    assert rc == 0
    fxx, fyy = models / "fxx_c.pod.ddet", models / "fyy_c.pod.ddet"
    fxx.rename(tmp_path / "swap.ddet")
    fyy.rename(fxx)
    (tmp_path / "swap.ddet").rename(fyy)
    capsys.readouterr()
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"), "--models", str(models),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "fxx_c.pod.ddet" in err and "'fxx_c'" in err and "'fyy_c'" in err
    assert "step 1:" not in err and "tolerance" not in err
    assert not (tmp_path / "r").exists()  # not even an empty output directory


def test_model_shorter_than_the_run_is_data_error(workdir, tmp_path, capsys):
    # POD models cover only their 5 trained steps: a 6-step run is refused
    # before step 1 rather than failing part-way
    models = tmp_path / "models"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-6", "--out", str(models)])
    assert rc == 0
    longer = tmp_path / "longer.cfg"
    longer.write_text(TINY_CONFIG.replace("n_steps = 5", "n_steps = 6"))
    capsys.readouterr()
    rc = main(["rom", "--config", str(longer), "--models", str(models),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "fxx_c.pod.ddet: model 'fxx_c' covers steps 1..5 of the run's 6" in err
    assert "step 1:" not in err and "tolerance" not in err
    assert not (tmp_path / "r").exists()  # not even an empty output directory


@pytest.mark.parametrize("key, value", [("t0", "soon"), ("dt", None), ("xi_rel", "x"),
                                        ("xi_rel", 0.0), ("xi_rel", 2.0)])
def test_malformed_model_descriptor_is_data_error(workdir, tmp_path, capsys, key, value):
    models = tmp_path / "models"
    rc = main(["compress", "--snapshots", str(workdir / "fom" / "snapshots.ddet"),
               "--method", "pod", "--xi", "1e-6", "--out", str(models)])
    assert rc == 0
    kind, desc, arrays = read_container(models / "cb.pod.ddet")
    desc[key] = value
    write_container(models / "cb.pod.ddet", kind, desc, arrays)
    rc = main(["rom", "--config", str(workdir / "tiny.cfg"), "--models", str(models),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "cb.pod.ddet" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # not even an empty output directory


@pytest.mark.parametrize("source", ["models", "snapshots"])
def test_time_step_mismatch_is_data_error(workdir, tmp_path, capsys, source):
    # closures recorded at dt = 0.02 do not describe a run at dt = 0.005
    snapshots = workdir / "fom" / "snapshots.ddet"
    models = snapshots
    if source == "models":
        models = tmp_path / "models"
        rc = main(["compress", "--snapshots", str(snapshots), "--method", "pod",
                   "--xi", "1e-6", "--out", str(models)])
        assert rc == 0
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(TINY_CONFIG.replace("dt = 0.02", "dt = 0.005"))
    capsys.readouterr()
    rc = main(["rom", "--config", str(other_cfg), "--models", str(models),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    named = models if source == "snapshots" else models / "fxx_c.pod.ddet"
    assert f"{named}: time step mismatch for 'fxx_c'" in err
    assert "tolerance" not in err
    assert not (tmp_path / "r").exists()  # not even an empty output directory


def test_layout_mismatch_is_data_error(workdir, pod_rom, tmp_path, capsys):
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(TINY_CONFIG.replace("nx = 4", "nx = 3"))
    capsys.readouterr()
    rc = main(["rom", "--config", str(other_cfg), "--models", str(pod_rom[0]),
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{pod_rom[0] / 'fxx_c.pod.ddet'}: layout mismatch for 'fxx_c'" in err
    assert "tolerance" not in err
    assert not (tmp_path / "r").exists()  # not even an empty output directory


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
