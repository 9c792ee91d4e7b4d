"""Batch front door: solve / verify / manufacture / report.

Exit codes: 0 success; 1 property violation from `verify`; 2 invalid
configuration, usage, or hypothesis failure (nothing is written); 3
continuation stall (the last accepted state is still persisted); 130
`solve` interrupted (the last accepted state is persisted, if there is one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, cones, fieldexpr, geometry, monitors, operator, runconfig, solver, svgplot
from .artifacts import replacing
from .grid import FieldFormatError, sup_norm, write_field
from .runconfig import ConfigError

# anything wrong with the inputs lands here; nothing may be written first
_VALIDATION_ERRORS = (
    ConfigError,
    geometry.HypothesisViolation,
    fieldexpr.ExprError,
    FieldFormatError,
)


def _fail(exc):
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _dump_json(path, payload):
    with replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# charts, shared by solve and report


def _write_charts(rundir, reports):
    """residual.svg, estimates.svg and cone_margin.svg from the monitor
    reports, one per accepted step."""
    ts = tuple(r.t for r in reports)
    svgplot.write_chart(
        rundir / "residual.svg",
        "final Newton residual per accepted step",
        [svgplot.Series("residual sup-norm", ts, tuple(r.residual for r in reports))],
        x_label="t",
        y_label="residual",
        log_y=True,
    )
    svgplot.write_chart(
        rundir / "estimates.svg",
        "solution estimates along the homotopy",
        [
            svgplot.Series("sup |u|", ts, tuple(r.sup_u for r in reports)),
            svgplot.Series("sup |grad u|", ts, tuple(r.sup_grad_u for r in reports)),
            svgplot.Series("sup |lap u|", ts, tuple(r.sup_lap_u for r in reports)),
        ],
        x_label="t",
        y_label="sup-norm",
    )
    svgplot.write_chart(
        rundir / "cone_margin.svg",
        "admissibility and ellipticity margins",
        [
            svgplot.Series("cone margin", ts, tuple(r.cone_margin for r in reports)),
            svgplot.Series("min eig G^ij", ts, tuple(r.min_eig_Gij for r in reports)),
        ],
        x_label="t",
        y_label="margin",
        log_y=True,
    )


# ---------------------------------------------------------------------------
# solve


def _write_run_artifacts(outdir, cfg, grid, log, elapsed, stalled):
    """The artifact set of the last accepted record of a run's step log;
    returns the summary.  Every summary value is worked out here, from the log."""
    accepted = [rec for rec in log if rec.accepted]
    rejected = [rec for rec in log if not rec.accepted]
    reports = [rec.report for rec in accepted]
    last = accepted[-1]
    write_field(outdir / "u_final.ksig", grid, last.u)
    monitors.write_monitor_csv(outdir / "monitors.csv", reports)
    summary = {
        "version": __version__,
        "config": asdict(cfg),
        "t_final": last.t,
        "residual_sup": last.residual_norm,
        "newton_iterations": sum(rec.newton_iters for rec in accepted),
        "rejected_newton_iterations": sum(rec.newton_iters for rec in rejected),
        "damping_trials": sum(rec.damping_trials for rec in log),
        "linear_iterations": sum(rec.linear_iters for rec in log),
        "accepted_steps": len(accepted),
        "rejected_steps": len(rejected),
        "rejected": [
            {"t": rec.t, "dt": rec.dt, "newton_iters": rec.newton_iters, "note": rec.note}
            for rec in rejected
        ],
        "stalled": stalled,
        "trace_summary": monitors.estimate_trace_series(reports).to_dict(),
        "timings": {"total_seconds": elapsed},
    }
    _dump_json(outdir / "summary.json", summary)
    _write_charts(outdir, reports)
    return summary


def _load_problem(config_path):
    """The front end of solve and manufacture: load_config -> build_problem
    -> validate_hypotheses -> resolve_output_dir.  Writes nothing."""
    cfg = runconfig.load_config(config_path)
    base = Path(config_path).resolve().parent
    grid, background, coeff = runconfig.build_problem(cfg, base)
    geometry.validate_hypotheses(background, coeff)
    return cfg, base, grid, background, coeff, runconfig.resolve_output_dir(cfg.output.directory)


def cmd_solve(args):
    try:
        cfg, _, grid, background, coeff, outdir = _load_problem(args.config)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    log = []
    interrupted = False
    try:
        for rec in solver.continuation_steps(background, coeff, cfg.solver):
            log.append(rec)
    except KeyboardInterrupt:
        interrupted = True
    if not log:  # interrupted before the anchor, which is always accepted
        print("interrupted before the anchor step; nothing written", file=sys.stderr)
        return 130
    # an uninterrupted march ends on the step that reaches t = 1 or on the
    # rejected step that fell below dt_min
    stalled = not (interrupted or log[-1].accepted)
    summary = _write_run_artifacts(outdir, cfg, grid, log, time.perf_counter() - start, stalled)
    if interrupted:
        print(
            f"interrupted at t={summary['t_final']}; last accepted state written to {outdir}",
            file=sys.stderr,
        )
        return 130
    if stalled:
        print(
            f"error: continuation stalled at t={summary['t_final']}: step below "
            f"dt_min={cfg.solver.dt_min} ({log[-1].note})",
            file=sys.stderr,
        )
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
    try:
        if not 3 <= args.k <= args.n <= 5:
            raise ConfigError(f"need 3 <= k <= n <= 5, got n={args.n}, k={args.k}")
        if args.samples < 1:
            raise ConfigError("samples must be >= 1")
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        outdir = runconfig.resolve_output_dir(args.out)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc)
    result = monitors.run_lemma_suite(args.n, args.k, samples=args.samples, seed=args.seed)
    outdir.mkdir(parents=True, exist_ok=True)
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
    try:
        cfg, base, grid, background, coeff, outdir = _load_problem(args.config)
        p = cfg.problem
        if p.u_star is None:
            raise ConfigError("u_star is required for manufacture")
        spec = p.u_star.strip()
        if spec.startswith("file:"):
            u_star = runconfig.field_from_spec(spec, grid, base)
            jet = None  # stencil jet: u_star becomes an exact discrete root
        else:
            jet = fieldexpr.analytic_jet(spec, grid)
            u_star = jet.value
        geometry.require_finite("u_star", u_star)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc)
    # outside the catch above: a plain ValueError from here is a bug, not bad input
    try:
        coeff = solver.manufacture_alpha(u_star, background, coeff, jet=jet)
    except cones.InadmissibleStateError as exc:
        return _fail(exc)

    outdir.mkdir(parents=True, exist_ok=True)
    write_field(outdir / "u_star.ksig", grid, u_star)
    write_field(outdir / "alpha.ksig", grid, coeff.alpha)
    names = [f"alpha_l_{l}.ksig" for l in range(p.k - 1)]
    for name, values in zip(names, coeff.alpha_l):
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

    state = operator.evaluate(u_star, 1.0, background, coeff)
    res = sup_norm(state.residual)
    print(f"manufactured residual at t=1: {res:.6e} (sup-norm) -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args):
    rundir = Path(args.rundir)
    try:
        csv_path = rundir / "monitors.csv"
        if not csv_path.is_file():
            raise ConfigError(f"no monitors.csv in {rundir}")
        try:
            reports = monitors.read_monitor_csv(csv_path)
        except (ValueError, OSError) as exc:  # the file's own content or access
            raise ConfigError(str(exc)) from exc
        if not reports:
            raise ConfigError(f"{csv_path} contains no data rows")
    except _VALIDATION_ERRORS as exc:
        return _fail(exc)
    _write_charts(rundir, reports)
    print(f"wrote residual.svg, estimates.svg, cone_margin.svg -> {rundir}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None):
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
