#!/usr/bin/env python3
"""Regenerate perfbench/reference/: the stored results the output checks use.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs every input a seed can produce (each amplitude factor of the solve
workloads, each verify seed) once through the real CLI and stores, per
amplitude index, a subsample of u_final with its sup and mean (default
workloads) or the solution error (manufactured).  The verify seeds are only
run and must all pass.  Only regenerate on purpose: when the discretisation
or the problem definitions change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import AMPLITUDE_FACTORS, REFERENCE_DIR, VERIFY_SEEDS, WORKLOADS, VerifyAllPairs, check_solve


def run_seed(workload, seed, env, grid_module):
    rundir = Path(tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=run.OUT / "work"))
    try:
        commands = workload.prepare(rundir, seed)
        spec = {"src": str(run.ROOT / "src"), "commands": commands, "trace": False, "spans": "", "run_id": 0}
        status, result, _ = run.run_child(spec, rundir, env)
        if status != 0 or result is None or result["codes"] != [0] * len(commands):
            raise SystemExit(f"{workload.name} seed {seed} failed: {(rundir / 'child.log').read_text()[-2000:]}")
        if isinstance(workload, VerifyAllPairs):
            failures, _ = workload.check(rundir, seed, grid_module)
            record = None
        else:
            failures, _, _ = check_solve(rundir / "out", grid_module)
            record = workload.reference_record(rundir, seed, grid_module)
        if failures:
            raise SystemExit(f"{workload.name} seed {seed}: {failures}")
        return record
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    env = run.child_env(run.OUT / "work")
    sys.path.insert(0, str(run.ROOT / "src"))
    from ksig import grid as grid_module

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        if isinstance(workload, VerifyAllPairs):
            for seed in range(VERIFY_SEEDS):
                run_seed(workload, seed, env, grid_module)
                print(f"{name}: verify seed {workload.verify_seed(seed)} passed", flush=True)
            continue
        records = {}
        for index in range(len(AMPLITUDE_FACTORS)):
            records[str(index)] = run_seed(workload, index, env, grid_module)
            print(f"{name}: amplitude index {index} done", flush=True)
        path = REFERENCE_DIR / f"{name}.json"
        lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in records.items())
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
