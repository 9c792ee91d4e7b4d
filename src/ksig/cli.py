"""Batch front door: solve / verify / manufacture / report.

Exit codes: 0 success; 1 property violation from `verify`; 2 invalid
configuration, usage, or hypothesis failure (nothing is written); 3
continuation stall (the last accepted state is still persisted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, cones, fieldexpr, geometry, monitors, operator, runconfig, solver, svgplot
from .artifacts import replacing
from .grid import FieldFormatError, sup_norm, write_field
from .runconfig import ConfigError

# anything wrong with the inputs lands here; nothing may be written first
_VALIDATION_ERRORS = (
    ConfigError,
    geometry.HypothesisViolation,
    cones.InadmissibleStateError,
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


def _write_run_artifacts(outdir, cfg, grid, state, reports, elapsed):
    write_field(outdir / "u_final.ksig", grid, state.u)
    monitors.write_monitor_csv(outdir / "monitors.csv", reports)
    rejected = [rec for rec in state.step_log if not rec.accepted]
    summary = {
        "version": __version__,
        "config": asdict(cfg),
        "t_final": state.t,
        "residual_sup": state.residual_norm,
        "newton_iterations": state.newton_iters,
        "rejected_newton_iterations": sum(rec.newton_iters for rec in rejected),
        "damping_trials": sum(rec.damping_trials for rec in state.step_log),
        "accepted_steps": len(reports),
        "rejected_steps": len(rejected),
        "rejected": [
            {"t": rec.t, "dt": rec.dt, "newton_iters": rec.newton_iters, "note": rec.note}
            for rec in rejected
        ],
        "stalled": state.t < 1.0,
        "trace_summary": monitors.estimate_trace_series(reports).to_dict(),
        "timings": {"total_seconds": elapsed},
    }
    _dump_json(outdir / "summary.json", summary)
    _write_charts(outdir, reports)


def _load_problem(config_path):
    """The front end of solve and manufacture: load_config -> build_problem
    -> validate_hypotheses -> resolve_output_dir.  Writes nothing."""
    cfg = runconfig.load_config(config_path)
    base = Path(config_path).resolve().parent
    grid, background, coeff = runconfig.build_problem(cfg, base=base)
    geometry.validate_hypotheses(background, coeff)
    return cfg, base, grid, background, coeff, runconfig.resolve_output_dir(cfg.output.directory)


def cmd_solve(args):
    try:
        cfg, _, grid, background, coeff, outdir = _load_problem(args.config)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    state, reports = solver.continuation_run(background, coeff, cfg.solver)
    elapsed = time.perf_counter() - start
    _write_run_artifacts(outdir, cfg, grid, state, reports, elapsed)
    if state.t < 1.0:  # the last record is the step that fell below dt_min
        print(
            f"error: continuation stalled at t={state.t}: step below "
            f"dt_min={cfg.solver.dt_min} ({state.step_log[-1].note})",
            file=sys.stderr,
        )
        print(f"last accepted state written to {outdir}", file=sys.stderr)
        return 3
    print(
        f"reached t={state.t} with residual {state.residual_norm:.3e} "
        f"in {state.newton_iters} Newton iterations -> {outdir}"
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
            raise ConfigError("[problem] u_star is required for manufacture")
        spec = p.u_star.strip()
        if spec.startswith("file:"):
            u_star = runconfig.field_from_spec(spec, grid, base=base)
            jet = None  # stencil jet: u_star becomes an exact discrete root
        else:
            jet = fieldexpr.analytic_jet(spec, grid)
            u_star = jet.value
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
    alpha_l_specs = []
    for l in range(p.k - 1):
        name = f"alpha_l_{l}.ksig"
        write_field(outdir / name, grid, coeff.alpha_l[l])
        alpha_l_specs.append(f"file:{name}")
    lines = [
        "[problem]",
        f"n = {p.n}",
        f"k = {p.k}",
        f"tau = {p.tau!r}",
        f"resolution = {p.resolution}",
        f"background = {p.background}",
        "alpha = file:alpha.ksig",
        f"alpha_l = {', '.join(alpha_l_specs)}",
        "",
        "[output]",
        "directory = manufactured-run",
        "",
    ]
    with replacing(outdir / "manufactured.ini") as tmp:
        tmp.write_text("\n".join(lines))

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
    p.add_argument("config", help="INI configuration with [problem] u_star")
    p.set_defaults(func=cmd_manufacture)

    p = sub.add_parser("report", help="render SVG charts from a run directory")
    p.add_argument("rundir", help="directory containing monitors.csv")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
