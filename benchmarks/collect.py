#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a qdrom checkout:

    python3 benchmarks/collect.py --seeds 10 --seconds 30 --out summary.json
    python3 benchmarks/collect.py --seeds 2 --seconds 30 --trace --out layers.json

Each run is `benchmarks/run.py` in its own process, one after another.  For
every workload and metric the summary holds the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
plus the environment line of the first run.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_WORKLOADS = ("fom-desk", "rom-desk")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def summarise(values: list) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help=f"repeatable; default {', '.join(DEFAULT_WORKLOADS)}")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True, help="JSON summary path")
    args = parser.parse_args()

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or DEFAULT_WORKLOADS:
        values, units, runs, env = {}, {}, [], None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            env_line, result = run_once(workload, seed, args.seconds, args.trace)
            env = env or env_line
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace or k.endswith("_s")), file=sys.stderr)
        summary["workloads"][workload] = {
            "environment": env, "runs": runs,
            "metrics": {k: {"unit": units[k], **summarise(v)} for k, v in values.items()},
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            print(f"{workload:9s} {name:34s} median {s['median']:.6g} {s['unit']:10s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {100 * s['spread']:.2f}%")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
