"""Batch front door: solve / verify / manufacture / report.

Exit codes: 0 success; 1 property violation from `verify`, or a program
error (any exception but ksig.InputError) with its traceback; 2 bad input
(an InputError, which `main` alone turns into the exit code; each command
raises it before it writes anything) or invalid usage; 3 continuation stall;
130 `solve` interrupted (Ctrl-C); 143 `solve` terminated (SIGTERM).  Stall,
interrupt, termination and crash persist the last accepted state.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import InputError, __version__, fieldexpr, geometry, monitors, operator, runconfig, solver
from .artifacts import replacing
from .grid import sup_norm, write_field


def _make_outdir(outdir):
    """Create the output directory; a path that cannot be one is an input error."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {outdir}: {exc.strerror}") from exc


def _dump_json(path, payload):
    with replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# solve


def _write_run_artifacts(outdir, cfg, grid, log, elapsed, stalled):
    """The artifact set of the last accepted record of a run's step log,
    the only accepted record that must hold its u; returns the summary.
    Every summary value is worked out here, from the log."""
    accepted = [rec for rec in log if rec.accepted]
    rejected = [rec for rec in log if not rec.accepted]
    reports = [rec.report for rec in accepted]
    last = accepted[-1]
    coarse = next((rec.coarse for rec in log if rec.coarse), None)
    write_field(outdir / "u_final.ksig", grid, last.u)
    monitors.write_monitor_csv(outdir / "monitors.csv", reports)
    summary = {
        "version": __version__,
        "config": asdict(cfg),
        "t_final": last.t,
        "residual_sup": last.residual_norm,
        "newton_iterations": sum(rec.iterations for rec in accepted),
        "rejected_newton_iterations": sum(rec.iterations for rec in rejected),
        "damping_trials": sum(rec.damping_trials for rec in log),
        "linear_iterations": sum(rec.linear_iterations for rec in log),
        "accepted_steps": len(accepted),
        "rejected_steps": len(rejected),
        "rejected": [
            {"t": rec.t, "dt": rec.dt, "newton_iters": rec.iterations, "note": rec.note}
            for rec in rejected
        ],
        "stalled": stalled,
        # the N/2 solve that chose the whole-path attempt's start; the
        # counters above and monitors.csv are the fine grid's alone
        "coarse": None if coarse is None else {
            "resolution": grid.resolution // 2,
            "newton_iterations": coarse.iterations,
            "damping_trials": coarse.damping_trials,
            "linear_iterations": coarse.linear_iterations,
            "note": coarse.note,
        },
        "timings": {"total_seconds": elapsed},
    }
    monitors.write_charts(outdir, reports)
    # written last: a summary.json on disk means every other artifact is
    # this run's (cmd_solve removes a stale one before the march)
    _dump_json(outdir / "summary.json", summary)
    return summary


def _load_problem(config_path):
    """The front end of solve and manufacture: load_config -> build_problem,
    whose Problem meets the hypotheses -> resolve_output_dir.  Writes nothing."""
    cfg = runconfig.load_config(config_path)
    base = Path(config_path).resolve().parent
    problem = runconfig.build_problem(cfg, base)
    return cfg, base, problem, runconfig.resolve_output_dir(cfg.output.directory)


def cmd_solve(args):
    cfg, _, problem, outdir = _load_problem(args.config)
    _make_outdir(outdir)
    (outdir / "summary.json").unlink(missing_ok=True)
    start = time.perf_counter()
    log = []
    # what cut the march short, and the exit code: None, Ctrl-C, or SIGTERM,
    # which the march takes as it takes Ctrl-C
    interrupted = None

    def on_sigterm(signum, frame):
        nonlocal interrupted
        interrupted = ("terminated", 143)
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    newest = None  # the index in log of the newest accepted record
    try:
        for rec in solver.continuation_steps(problem, cfg.solver):
            log.append(rec)
            # only the newest accepted u is ever written: drop the one before,
            # after rec is in log, so an interrupt here still finds a u
            if rec.accepted:
                if newest is not None:
                    log[newest] = replace(log[newest], u=None)
                newest = len(log) - 1
    except KeyboardInterrupt:
        interrupted = interrupted or ("interrupted", 130)
    except Exception:  # a crash keeps what was accepted, then propagates
        if log:
            _write_run_artifacts(outdir, cfg, problem.grid, log, time.perf_counter() - start, False)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    if not log:  # cut short before the anchor, which is always accepted
        print(f"{interrupted[0]} before the anchor step; nothing written", file=sys.stderr)
        return interrupted[1]
    # an uninterrupted march ends on the step that reaches t = 1, or stalls:
    # on the rejected step that fell below the minimum step, or on an
    # accepted step short of t = 1 when its step budget is spent
    stalled = not (interrupted or (log[-1].accepted and log[-1].t == 1.0))
    summary = _write_run_artifacts(outdir, cfg, problem.grid, log, time.perf_counter() - start, stalled)
    if interrupted:
        print(
            f"{interrupted[0]} at t={summary['t_final']}; last accepted state written to {outdir}",
            file=sys.stderr,
        )
        return interrupted[1]
    if stalled:
        if log[-1].note:
            reason = f"step below the minimum step ({log[-1].note})"
        else:
            reason = f"step budget spent after {len(log)} Newton solves"
        print(f"error: continuation stalled at t={summary['t_final']}: {reason}", file=sys.stderr)
        print(f"last accepted state written to {outdir}", file=sys.stderr)
        return 3
    print(
        f"reached t={summary['t_final']} with residual {summary['residual_sup']:.3e} "
        f"in {summary['newton_iterations']} Newton iterations -> {outdir}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    if not 3 <= args.k <= args.n <= 5:
        raise InputError(f"need 3 <= k <= n <= 5, got n={args.n}, k={args.k}")
    if args.samples < 1:
        raise InputError("samples must be >= 1")
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
    outdir = runconfig.resolve_output_dir(args.out)
    _make_outdir(outdir)
    result = monitors.run_lemma_suite(args.n, args.k, samples=args.samples, seed=args.seed)
    _dump_json(outdir / "lemmas.json", result.to_dict())
    if result.all_passed:
        print(
            f"all {len(result.checks)} properties passed "
            f"(n={args.n}, k={args.k}, samples={args.samples}, seed={args.seed})"
        )
        return 0
    for check in result.checks:
        if not check.passed:
            print(
                f"violation: {check.name} max {check.max_violation:.3e} "
                f"exceeds {check.tolerance:.1e}",
                file=sys.stderr,
            )
    return 1


# ---------------------------------------------------------------------------
# manufacture


def cmd_manufacture(args):
    cfg, base, problem, outdir = _load_problem(args.config)
    grid, p = problem.grid, cfg.problem
    if p.u_star is None:
        raise InputError("u_star is required for manufacture")
    spec = p.u_star.strip()
    if spec.startswith("file:"):
        u_star = runconfig.field_from_spec(spec, grid, base)
        jet = None  # stencil jet: u_star becomes an exact discrete root
    else:
        jet = fieldexpr.analytic_jet(spec, grid)
        u_star = jet.value
    geometry.require_finite("u_star", u_star)
    problem = operator.manufacture_alpha(u_star, problem, jet=jet)
    _make_outdir(outdir)
    (outdir / "manufactured.ini").unlink(missing_ok=True)

    write_field(outdir / "u_star.ksig", grid, u_star)
    write_field(outdir / "alpha.ksig", grid, problem.alpha)
    names = [f"alpha_l_{l}.ksig" for l in range(p.k - 1)]
    for name, values in zip(names, np.broadcast_to(problem.alpha_l, (p.k - 1,) + grid.shape)):
        write_field(outdir / name, grid, values)
    # the package resolves file: paths against its own directory
    bg_spec = p.background.strip()
    prefix = Path(bg_spec[len("file:"):].strip())
    if bg_spec.startswith("file:") and not prefix.is_absolute():
        bg_spec = f"file:{os.path.relpath(base / prefix, outdir.resolve())}"
    package = replace(
        cfg,
        problem=replace(
            p,
            background=bg_spec,
            alpha="file:alpha.ksig",
            alpha_l=", ".join(f"file:{name}" for name in names),
            u_star=None,
        ),
        output=replace(cfg.output, directory="manufactured-run"),
    )
    runconfig.write_config(outdir / "manufactured.ini", package)

    state = operator.evaluate(u_star, 1.0, problem)
    res = sup_norm(state.residual)
    print(f"manufactured residual at t=1: {res:.6e} (sup-norm) -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args):
    rundir = Path(args.rundir)
    reports = monitors.read_monitor_csv(rundir / "monitors.csv")
    monitors.write_charts(rundir, reports)
    print(f"wrote residual.svg, estimates.svg, cone_margin.svg -> {rundir}")
    return 0


# ---------------------------------------------------------------------------

# glibc's mallopt parameters, and its own ceiling for its dynamic mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_the_heap():
    """Have glibc keep the heap this process grows.  Each Newton step frees
    its evaluated state and dF, and the next step allocates them again: with
    trimming off that memory is reused, not returned to the system and faulted
    back.  Setting either parameter turns off glibc's dynamic mmap threshold,
    so the threshold is fixed at its ceiling, which keeps the per-node planes
    on the heap.  Without glibc's mallopt this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # Windows' CDLL refuses None with a TypeError
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)


def main(argv=None):
    # the process that runs main is the CLI's own, so its allocator is too;
    # ksig imported as a library leaves the allocator alone
    _keep_the_heap()
    parser = argparse.ArgumentParser(
        prog="ksig",
        description="continuation solver and verification suite for "
        "sigma_k-quotient curvature equations on a periodic grid",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the homotopy continuation from a config file")
    p.add_argument("config", help="INI run configuration")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the randomized algebraic property suite")
    p.add_argument("--n", type=int, required=True, help="ambient dimension (3..5)")
    p.add_argument("--k", type=int, required=True, help="cone index (3 <= k <= n)")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=".", help="directory for lemmas.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("manufacture", help="back-solve alpha so a chosen u is an exact root")
    p.add_argument("config", help="INI configuration that sets u_star")
    p.set_defaults(func=cmd_manufacture)

    p = sub.add_parser("report", help="render SVG charts from a run directory")
    p.add_argument("rundir", help="directory containing monitors.csv")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
