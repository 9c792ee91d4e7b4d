"""Span tracing of the ksig layers, installed from outside the package.

`install` wraps every public function (the names in `__all__`) of each ksig
module, in every ksig module namespace that binds it, so a call through any
alias is seen.  It adds the boundaries the per-layer metrics need: the CLI
commands and JSON writer, and the scipy `gmres` call as bound in
`ksig.solver`, with the matvec and preconditioner callbacks handed to it.
Spans are kept in memory as [id, parent id, name, start, end, info] and
written out when the run ends; `layer_metrics` reduces them to the
per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "runconfig",
    "fieldexpr",
    "grid",
    "geometry",
    "cones",
    "operator",
    "solver",
    "monitors",
    "sampling",
    "svgplot",
)

# private CLI functions that are layer boundaries: commands and artifact writing
_CLI_BOUNDARIES = ("cmd_solve", "cmd_verify", "cmd_manufacture", "cmd_report", "_dump_json")
ARTIFACT_WRITERS = ("cli._dump_json", "grid.write_field", "monitors.write_monitor_csv", "svgplot.write_chart")
LEMMA_PAIRS = tuple((n, k) for n in (3, 4, 5) for k in range(3, n + 1))


_UNITS = {
    "cones.matrices_per_s": "1/s",
    "cli.artifact_bytes": "B",
    "solver.trial_acceptance": "1",
    "solver.matvecs_per_newton": "1",
}


def unit_of(name):
    """Unit of a per-layer metric: seconds for times, else from _UNITS or a count."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s") or ".lemma_suite_s." in name:
        return "s"
    return "count"


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        """Return fn recording one span per call; info(args, kwargs, out, exc)
        may attach a small JSON-able dict to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            out = exc = None
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                raise
            finally:
                span[4] = perf_counter()
                self._stack.pop()
                if info is not None:
                    span[5] = info(args, kwargs, out, exc)

        return traced

    def write(self, path, run_id):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, info in self.spans:
                record = {"run": run_id, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if info:
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")


def _newton_info(args, kwargs, out, exc):
    if out is not None:
        return {"iters": out.iterations}
    history = getattr(exc, "history", None)
    return {"iters": max(len(history) - 1, 0) if history else 0}


def _continuation_info(args, kwargs, out, exc):
    state = out[0] if out is not None else getattr(exc, "state", None)
    log = getattr(state, "step_log", None) or []
    accepted = sum(1 for rec in log if rec.accepted)
    return {"accepted": accepted, "rejected": len(log) - accepted}


def _batch_info(args, kwargs, out, exc):
    return {"batch": math.prod(getattr(args[0], "shape", ())[:-2])}


def _lemma_info(args, kwargs, out, exc):
    return {"n": args[0], "k": args[1]}


def _bytes_info(args, kwargs, out, exc):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (OSError, IndexError, TypeError):
        return {"bytes": 0}


_INFO = {
    "solver.newton_solve_at_t": _newton_info,
    "solver.continuation_run": _continuation_info,
    "cones.quotient_eval": _batch_info,
    "monitors.run_lemma_suite": _lemma_info,
    **{name: _bytes_info for name in ARTIFACT_WRITERS},
}


def _traced_gmres(recorder, gmres):
    """gmres whose operator and preconditioner callbacks are spans too."""
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    def callbacks(op, name):
        op = aslinearoperator(op)
        return LinearOperator(op.shape, matvec=recorder.wrap(name, op.matvec), dtype=op.dtype)

    def call(A, b, *args, M=None, **kwargs):
        A = callbacks(A, "solver.gmres.matvec")
        if M is not None:
            M = callbacks(M, "solver.gmres.precond")
        return gmres(A, b, *args, M=M, **kwargs)

    def info(args, kwargs, out, exc):
        return {"info": int(out[1]) if out is not None else -1}

    return recorder.wrap("solver.gmres", functools.wraps(gmres)(call), info)


def install(recorder):
    """Wrap the layer functions in every ksig module namespace that binds them."""
    modules = {layer: importlib.import_module(f"ksig.{layer}") for layer in LAYERS}
    targets = {}
    for layer, mod in modules.items():
        names = list(getattr(mod, "__all__", ())) + (list(_CLI_BOUNDARIES) if layer == "cli" else [])
        for attr in names:
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                targets[id(obj)] = recorder.wrap(name, obj, _INFO.get(name))
    solver = modules["solver"]
    if hasattr(solver, "gmres"):
        targets[id(solver.gmres)] = _traced_gmres(recorder, solver.gmres)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapped = targets.get(id(obj))
            if wrapped is not None:
                setattr(mod, attr, wrapped)


def layer_metrics(spans):
    """Per-layer counts and times (seconds) from one run's spans."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    child_time = defaultdict(float)
    children = defaultdict(list)
    for sid, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += dur[sid]
            children[parent].append(sid)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def count(name):
        return len(by_name[name])

    def total(*names):
        return sum(dur[s[0]] for name in names for s in by_name[name])

    def self_time(name):
        return sum(dur[s[0]] - child_time[s[0]] for s in by_name[name])

    def info_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in by_name[name])

    def outermost(prefixes):
        """Time in spans of these names whose caller is outside them."""

        def inside(sid):
            return sid >= 0 and name_of[sid].startswith(prefixes)

        return sum(dur[s[0]] for s in spans if s[2].startswith(prefixes) and not inside(s[1]))

    # damping: per Newton iterate, the evaluations that follow its linear solve
    trials = damping = 0
    for span in by_name["solver.newton_solve_at_t"]:
        groups = []
        for cid in children[span[0]]:
            if name_of[cid] == "solver.gmres":
                groups.append(0)
            elif name_of[cid] == "operator.evaluate" and groups:
                groups[-1] += 1
        trials += sum(groups)
        damping += sum(max(g - 1, 0) for g in groups)

    newton_iters = info_sum("solver.newton_solve_at_t", "iters")
    matvecs = count("solver.gmres.matvec")
    quotient_s = total("cones.quotient_eval")
    lemma = defaultdict(float)
    for span in by_name["monitors.run_lemma_suite"]:
        lemma[(span[5]["n"], span[5]["k"])] += dur[span[0]]

    metrics = {
        "solver.newton_iters": newton_iters,
        "solver.accepted_steps": info_sum("solver.continuation_run", "accepted"),
        "solver.rejected_steps": info_sum("solver.continuation_run", "rejected"),
        "solver.damping_trials": damping,
        "solver.trial_acceptance": newton_iters / trials if trials else 0.0,
        "solver.newton_self_s": self_time("solver.newton_solve_at_t"),
        "solver.gmres_calls": count("solver.gmres"),
        "solver.matvecs": matvecs,
        "solver.matvecs_per_newton": matvecs / newton_iters if newton_iters else 0.0,
        "solver.matvec_s": total("solver.gmres.matvec"),
        "solver.precond_s": total("solver.gmres.precond"),
        "solver.gmres_self_s": self_time("solver.gmres"),
        "solver.gmres_failures": sum(1 for s in by_name["solver.gmres"] if (s[5] or {}).get("info", 0) != 0),
        "solver.manufacture_s": total("solver.manufacture_alpha"),
        "grid.jet_calls": count("grid.compute_jet"),
        "grid.jet_s": total("grid.compute_jet"),
        "grid.field_io_s": total("grid.read_field", "grid.write_field"),
        "geometry.assemble_calls": count("geometry.assemble_U"),
        "geometry.assemble_s": total("geometry.assemble_U"),
        "geometry.validate_s": total("geometry.validate_hypotheses"),
        "cones.quotient_calls": count("cones.quotient_eval"),
        "cones.quotient_s": quotient_s,
        "cones.matrices_per_s": info_sum("cones.quotient_eval", "batch") / quotient_s if quotient_s else 0.0,
        "cones.sigma_s": total("cones.sigma_and_transforms"),
        "operator.evaluate_calls": count("operator.evaluate"),
        "operator.evaluate_self_s": self_time("operator.evaluate"),
        "monitors.snapshot_calls": count("monitors.snapshot_point"),
        "monitors.snapshot_s": total("monitors.snapshot_point"),
        "monitors.lemma_suite_s": total("monitors.run_lemma_suite"),
        "sampling.draw_s": outermost(("sampling.",)),
        "runconfig.build_s": outermost(("runconfig.",)),
        "fieldexpr.analytic_jet_s": total("fieldexpr.analytic_jet"),
        "svgplot.chart_s": outermost(("svgplot.",)),
        "cli.artifact_s": outermost(ARTIFACT_WRITERS),
        "cli.artifact_bytes": sum(info_sum(name, "bytes") for name in ARTIFACT_WRITERS),
    }
    for n, k in LEMMA_PAIRS:
        metrics[f"monitors.lemma_suite_s.n{n}k{k}"] = lemma[(n, k)]
    return metrics
