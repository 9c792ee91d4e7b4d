#!/usr/bin/env python3
"""ksig benchmark: run one workload's CLI commands and report its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (`src/ksig` beside this directory).  Each
run of the workload is one fresh child interpreter that calls
`ksig.cli.main` for the workload's command(s); runs go one at a time (a
closed loop with one client) until the next would pass --seconds, each in
a fresh output directory given through KSIG_OUTDIR, with BLAS and OpenMP
pinned to one thread.  Every run's outputs are checked; a failed check or a
non-zero exit fails the run.

With --trace 0 the end-to-end metrics are reported: wall_s (median time
from `ksig.cli.main` entry to return), setup_s (median time for a fresh
interpreter to import `ksig.cli`) and peak_rss_mb (median peak resident
memory of a run's child).  fail_rate and, on manufactured-n3-N20,
solution_error are printed too, but are not in the JSON line.  With
--trace 1 runs alternate between untraced and traced children; the traced
ones wrap every ksig layer (see tracer.py) and give the per-layer metrics,
and trace.overhead_s is the traced median wall time minus the untraced
one.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5  # fewest per invocation; one is taken before each run
# never start a run that would end past this, whatever --seconds says
HARD_LIMIT_S = 150.0
READY = "ksig.cli ready"
THREAD_PIN = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env(workdir):
    """The environment of every child: ksig from src/, pinned thread pools."""
    env = dict(os.environ, **THREAD_PIN, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
    env.pop("KSIG_OUTDIR", None)
    return env


def git_commit():
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "thread_pin": THREAD_PIN,
        "commit": git_commit(),
    }


def measure_setup(env):
    """Seconds from spawning a fresh interpreter until it has imported ksig.cli."""
    code = f"import ksig.cli; print({READY!r}, flush=True)"
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=OUT, text=True
    )
    with proc.stdout:
        line = proc.stdout.readline()
    elapsed = perf_counter() - start
    if proc.wait() != 0 or line.strip() != READY:
        raise RuntimeError("a fresh interpreter could not import ksig.cli from src/")
    return elapsed


def run_child(spec, rundir, env):
    """Run child.py on spec; return (exit status, result dict or None, rusage)."""
    spec_path = rundir / "spec.json"
    result_path = rundir / "result.json"
    spec_path.write_text(json.dumps(spec))
    with open(rundir / "child.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=rundir,
        )
        _, status, usage = os.wait4(proc.pid, 0)  # per-child rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return proc.returncode, result, usage


def run_once(workload, seed, traced, run_id, env, grid_module):
    """One run in a fresh directory, checked; returns a dict describing it."""
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "work"))
    try:
        commands = workload.prepare(rundir, seed)
        spec = {
            "src": str(ROOT / "src"),
            "commands": commands,
            "trace": traced,
            "spans": str(OUT / "traces" / f"{workload.name}.spans.jsonl"),
            "run_id": run_id,
        }
        status, result, usage = run_child(spec, rundir, env)
        failures, accuracy = [], {}
        if status != 0 or result is None:
            failures.append(f"child exited with status {status}: {(rundir / 'child.log').read_text()[-2000:]}")
        elif result["codes"] != [0] * len(commands):
            failures.append(f"ksig exit codes {result['codes']}")
        else:
            failures, accuracy = workload.check(rundir, seed, grid_module)
        return {
            "traced": traced,
            "failures": failures,
            "wall_s": result["wall_s"] if result else None,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
            "layers": (result or {}).get("layers"),
            "accuracy": accuracy,
        }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run_loop(workload, args, env, grid_module):
    """Runs until the next would pass --seconds, each after one set-up sample
    so the samples spread over the whole invocation; with tracing, every
    other run is traced.  Returns (runs, set-up samples)."""
    runs, setups, durations = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        setups.append(measure_setup(env))
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(workload, args.seed, traced, len(runs), env, grid_module))
        durations.append(perf_counter() - began)
        projected = perf_counter() - start + statistics.median(durations)
        if len(runs) >= 1 + args.trace and projected > min(args.seconds, HARD_LIMIT_S):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup(env))
    return runs, setups


def median_of(runs, key):
    values = [run[key] for run in runs if not run["failures"]]
    return statistics.median(values) if values else None


def end_to_end_report(runs, setups):
    values = {
        "wall_s": median_of(runs, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(runs, "peak_rss_mb"),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    if any(value is None for value in values.values()):
        return {}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def per_layer_report(workload, seed, runs):
    """Per-layer metrics: medians over the traced runs, plus the tracing overhead."""
    traced = [run for run in runs if run["traced"] and not run["failures"]]
    plain = [run for run in runs if not run["traced"]]
    if not traced or median_of(plain, "wall_s") is None:
        return {}
    layers = {name: statistics.median(run["layers"][name] for run in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    counts = ("solver.newton_iters", "solver.matvecs")
    repeat = all(run["layers"][c] == traced[0]["layers"][c] for run in traced for c in counts)
    print(f"# Newton and matvec counts repeat exactly over {len(traced)} traced runs: {repeat}")
    if workload.expected_counts and seed == 0:
        got = tuple(layers[c] for c in counts)
        print(
            f"# Newton iterations, matvecs at seed 0: {got}; by hand {workload.expected_counts}; "
            f"match: {got == workload.expected_counts}"
        )
    return {name: {"value": value, "unit": tracer.unit_of(name)} for name, value in sorted(layers.items())}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ksig" / "cli.py").is_file():
        print(f"error: no ksig source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for sub in ("work", "traces", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    env = child_env(OUT / "work")
    stamp = machine_stamp()
    sys.path.insert(0, str(ROOT / "src"))
    from ksig import grid as grid_module

    runs, setups = run_loop(workload, args, env, grid_module)
    failed = [run for run in runs if run["failures"]]
    print(f"# machine: {json.dumps(stamp, sort_keys=True)}")
    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}: {len(runs)} runs, {len(failed)} failed")
    for run in failed:
        for failure in run["failures"]:
            print(f"# FAILED: {failure}")

    if args.trace:
        metrics = per_layer_report(workload, args.seed, runs)
    else:
        metrics = end_to_end_report(runs, setups)
    printed = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    printed["fail_rate"] = (len(failed) / len(runs), "1")
    errors = [run["accuracy"]["solution_error"] for run in runs if "solution_error" in run["accuracy"]]
    if errors:
        printed["solution_error"] = (statistics.median(errors), "1")
    for name, (value, unit) in printed.items():
        print(f"{name:<34} {value!r:>24} {unit}")

    line = {"correct": not failed and bool(metrics), "attempted": len(runs), "failed": len(failed), "metrics": metrics}
    record = {
        **line,
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": stamp,
        "setup_samples": setups,
        "runs": [{key: value for key, value in run.items() if key != "layers"} for run in runs],
    }
    (OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
