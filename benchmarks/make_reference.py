#!/usr/bin/env python3
"""Regenerate the benchmark's stored inputs in benchmarks/data/.

Run from the root of a qdrom checkout:

    python3 benchmarks/make_reference.py

It writes, with the package of this checkout:

- desk_fom.ddet: run record of the fleck-cummings-desk FOM, all 50 steps;
- desk_snapshots.ddet: the closure snapshot set of that run;
- fc2d_fom.ddet: run record of the first step of fleck-cummings-2d;
- MANIFEST.json: their sha256, the commit and source digest that made
  them, and their outer-iteration counts.

The FOM is bit-for-bit deterministic, so regenerating at the same commit
reproduces the same files.  It takes about 7 minutes on 2 cores.
"""
import dataclasses
import json
import sys
import time

import run


def fom_reference(qdrom, preset: str, steps: int, name: str):
    cfg = dataclasses.replace(qdrom.preset(preset), n_steps=steps)
    t0 = time.perf_counter()
    rec = qdrom.run_fom(qdrom.build_problem(cfg),
                        log=lambda n, it, ch: print(f"{preset} step {n}: {it} iterations",
                                                    file=sys.stderr))
    print(f"{preset}: {steps} steps in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    qdrom.container.save_run_record(run.DATA / name, rec)
    return rec


def main() -> int:
    qdrom = run.import_qdrom()
    run.DATA.mkdir(exist_ok=True)
    desk = fom_reference(qdrom, "fleck-cummings-desk", 50, "desk_fom.ddet")
    qdrom.container.save_snapshot_set(run.DATA / run.SNAPSHOTS,
                                      qdrom.record_snapshots(desk),
                                      qdrom.preset("fleck-cummings-desk").to_dict())
    fc2d = fom_reference(qdrom, "fleck-cummings-2d", 1, "fc2d_fom.ddet")

    files = ("desk_fom.ddet", run.SNAPSHOTS, "fc2d_fom.ddet")
    manifest = {
        "git_commit": run.git_commit(),
        "source_sha256": run.source_digest(),
        "sha256": {f: run.sha256(run.DATA / f) for f in files},
        "outer_iterations": {"desk_fom.ddet": desk.iterations.tolist(),
                             "fc2d_fom.ddet": fc2d.iterations.tolist()},
    }
    run.MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {run.MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
