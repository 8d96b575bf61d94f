"""Command-line pipeline: fom, compress, rom, compare, breakout, svd-report.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 solver error.
A path that cannot serve as given (missing, a directory where a file is
wanted or the reverse, or not permitted) is a usage error.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, container
from .config import PRESETS, ConfigError, RunConfig, load_config, preset
from .drivers import (
    DriverError,
    ModelMismatchError,
    SNAPSHOT_NAMES,
    build_problem,
    check_models,
    closure_unknowns,
    playback_models,
    record_snapshots,
    rom_tolerance,
    run_fom,
    run_rom,
)
from .loqd import DegenerateStateError, SolverError
from .lowrank import (
    DecompositionError,
    METHODS,
    compress as compress_matrix,
)
from .transport import intensity_unknowns

USAGE_ERRORS = (ConfigError, FileNotFoundError, NotADirectoryError, IsADirectoryError,
                FileExistsError, PermissionError, analysis.FieldStepError)
DATA_ERRORS = (container.FormatError, analysis.ShapeMismatchError,
               analysis.DegenerateReferenceError, ValueError)
SOLVER_ERRORS = (SolverError, DriverError, DecompositionError, DegenerateStateError)


def _config_from_args(args) -> RunConfig:
    if args.config is not None:
        return load_config(args.config)
    if args.preset is not None:
        return preset(args.preset)
    raise ConfigError("one of --config or --preset is required")


def _progress(step: int, iterations: int, change: float) -> None:
    print(f"step {step}: {iterations} iterations (change ratio {change:.3e})", file=sys.stderr)


def cmd_fom(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    d_f = closure_unknowns(cfg.nx, cfg.ny, cfg.n_groups)
    d_i = intensity_unknowns(cfg.nx, cfg.ny, cfg.n_groups,
                             problem.transport.quad.n_dirs)
    print(f"closure unknowns per step: {d_f}; intensity unknowns: {d_i}",
          file=sys.stderr)
    run = run_fom(problem, log=_progress)
    container.save_run_record(out / "fom_run.ddet", run)
    matrices = record_snapshots(run)
    container.save_snapshot_set(out / "snapshots.ddet", matrices, cfg.to_dict())
    print(f"wrote {out / 'fom_run.ddet'} and {out / 'snapshots.ddet'}")
    return 0


def cmd_compress(args) -> int:
    matrices, config_meta = container.load_snapshot_set(args.snapshots)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"method {args.method}, xi_rel {args.xi:g}")
    for name in SNAPSHOT_NAMES:
        try:
            model = compress_matrix(matrices[name], args.method, args.xi)
        except DecompositionError as err:
            raise DecompositionError(f"matrix '{name}': {err}") from err
        container.save_model(out / f"{name}.{args.method}.ddet", model)
        print(f"  {name}: rank {model.rank}")
    return 0


def _load_models(path: Path):
    """(models, file of each) from a directory of model containers or a snapshot-set file."""
    if path.is_file():
        return (playback_models(container.load_snapshot_set(path)[0]),
                dict.fromkeys(SNAPSHOT_NAMES, path))
    if not path.is_dir():
        raise FileNotFoundError(f"model path not found: {path}")
    models, sources = {}, {}
    for name in SNAPSHOT_NAMES:
        hits = sorted(path.glob(f"{name}.*.ddet"))
        if len(hits) != 1:
            found = ", ".join(h.name for h in hits) or "none"
            raise container.FormatError(
                f"need one model container for '{name}' in {path}, found {found}")
        sources[name] = hits[0]
        models[name] = container.load_model(hits[0])
    return models, sources


def cmd_rom(args) -> int:
    cfg = _config_from_args(args)
    models, sources = _load_models(Path(args.models))
    try:
        check_models(cfg, models)
    except ModelMismatchError as err:
        raise container.FormatError(f"{sources[err.snapshot]}: {err}") from err
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"stopping tolerance {rom_tolerance(cfg, models):.3e}", file=sys.stderr)
    run = run_rom(build_problem(cfg), models, log=_progress)
    container.save_run_record(out / "rom_run.ddet", run)
    print(f"wrote {out / 'rom_run.ddet'}")
    return 0


def cmd_compare(args) -> int:
    run_a = container.load_run_record(args.run_a)
    run_b = container.load_run_record(args.run_b)
    series = analysis.relative_error_series(run_a, run_b, field_steps=args.field_steps)
    analysis.write_error_csv(args.out, series)
    print(f"max rel err: T {series.err_temperature.max():.3e} "
          f"E {series.err_energy.max():.3e}")
    if args.field_steps:
        container.save_error_fields(args.fields_out, series.fields, run_a.config_meta)
        print(f"wrote {args.fields_out}")
    return 0


def cmd_breakout(args) -> int:
    run = container.load_run_record(args.run)
    series = analysis.boundary_averages(run)
    analysis.write_breakout_csv(args.out, series)
    values = series.series(args.quantity)
    result = analysis.breakout_time(series.times, values, args.threshold)
    summary = Path(args.summary_out) if args.summary_out else \
        Path(args.out).with_suffix(".summary.csv")
    with open(summary, "w") as fh:
        fh.write("quantity,threshold,reached,step,time_ns,time_interpolated_ns\n")
        if result.reached:
            fh.write(f"{args.quantity},{args.threshold:.10g},yes,{result.step},"
                     f"{result.time:.10g},{result.time_interpolated:.10g}\n")
        else:
            fh.write(f"{args.quantity},{args.threshold:.10g},not reached,,,\n")
    if result.reached:
        print(f"breakout at step {result.step}, t = {result.time:.6g} ns "
              f"(interpolated {result.time_interpolated:.6g} ns)")
    else:
        print("breakout threshold not reached")
    return 0


def cmd_svd_report(args) -> int:
    matrices, _ = container.load_snapshot_set(args.snapshots)
    reports = analysis.singular_value_report(matrices)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    sigma_path = Path(str(prefix) + "sigma.csv")
    rank_path = Path(str(prefix) + "ranks.csv")
    analysis.write_sigma_csv(sigma_path, reports)
    analysis.write_rank_csv(rank_path, reports)
    for rep in reports:
        print(f"{rep.name}: {rep.significant} significant singular values "
              f"(sigma1 {rep.singular_values[0]:.6e})")
    print(f"wrote {sigma_path} and {rank_path}")
    return 0


def _steps(text: str) -> tuple:
    """Comma-separated integer steps of --field-steps."""
    try:
        return tuple(int(s) for s in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdrom",
        description="2-D multigroup thermal radiative transfer with "
                    "quasidiffusion closures and data-driven reduced-order models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="path to a key = value configuration file")
        p.add_argument("--preset", choices=PRESETS, help="named built-in configuration")

    p = sub.add_parser("fom", help="run the full-order model, record snapshots")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fom)

    p = sub.add_parser("compress", help="compress a snapshot set into models")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--xi", type=float, required=True, help="relative truncation error")
    p.add_argument("--out", required=True, help="output directory for model containers")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("rom", help="run the reduced-order model from stored closures")
    add_config(p)
    p.add_argument("--models", required=True,
                   help="model directory, or a snapshot-set file for identity playback")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rom)

    p = sub.add_parser("compare", help="relative-error series between two runs")
    p.add_argument("--run-a", required=True, help="run to evaluate")
    p.add_argument("--run-b", required=True, help="reference run")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--field-steps", default="", type=_steps,
                   help="comma-separated steps for cell-wise error maps")
    p.add_argument("--fields-out", default=None,
                   help="results container for the cell-wise maps")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("breakout", help="right-boundary averages and breakout time")
    p.add_argument("--run", required=True)
    p.add_argument("--quantity", choices=("flux", "energy", "temperature"),
                   default="flux")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True, help="CSV output path for the series")
    p.add_argument("--summary-out", default=None)
    p.set_defaults(func=cmd_breakout)

    p = sub.add_parser("svd-report", help="singular values and rank tables")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_svd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and bool(args.field_steps) != bool(args.fields_out):
        parser.error("--field-steps and --fields-out must be given together")
    if args.command == "compress" and not 0.0 < args.xi <= 1.0:
        parser.error(f"--xi must lie in (0, 1], got {args.xi:g}")
    if args.command == "breakout" and not math.isfinite(args.threshold):
        parser.error(f"--threshold must be finite, got {args.threshold:g}")
    try:
        return args.func(args)
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 4
    except DATA_ERRORS as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
