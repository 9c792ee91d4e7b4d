"""End-to-end command-line tests: exit codes, artifact layout, gating with
no partial output, and byte-level reproducibility of reruns."""

import configparser
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import types
import weakref
from dataclasses import fields, replace
from pathlib import Path
from textwrap import dedent
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksig import InputError, cli, fieldexpr, monitors, operator, runconfig, solver
from ksig.cli import main
from ksig.grid import PeriodicGrid, read_field, write_field
from ksig.monitors import CSV_FIELDS

CHARTS = ("residual.svg", "estimates.svg", "cone_margin.svg")

BASE_CONFIG = """\
[problem]
n = 3
k = 3
tau = 0.0
resolution = 8
background = hyperbolic-like
alpha = 0.2*sin(x1)
alpha_l = 1.0

[output]
directory = {outdir}
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(dedent(text))
    return path


def default_config(tmp_path, **edits):
    text = BASE_CONFIG.format(outdir=tmp_path / "out")
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    return write_config(tmp_path, text)


def write_diagonal_background(directory, value):
    """B = value * I at n = 3, N = 8 as the planes of `file:bg` in `directory`."""
    grid = PeriodicGrid(dim=3, resolution=8)
    for i in range(3):
        for j in range(i, 3):
            write_field(Path(directory, f"bg_B{i}{j}.ksig"), grid, np.full(grid.shape, value * (i == j)))


def log_uniform(low, high):
    """Floats from 10**low to 10**high, uniform in the exponent."""
    return st.floats(low, high).map(lambda e: 10.0**e)


def signed_log_uniform(low, high):
    """log_uniform(low, high) with either sign."""
    return st.tuples(st.sampled_from([1.0, -1.0]), log_uniform(low, high)).map(lambda p: p[0] * p[1])


# ---------------------------------------------------------------------------
# solve


def test_solve_default_problem(tmp_path, capsys):
    cfg = default_config(tmp_path)
    assert main(["solve", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("u_final.ksig", "monitors.csv", "summary.json", *CHARTS):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] == 1.0
    assert summary["residual_sup"] <= 1e-9
    assert summary["stalled"] is False
    assert summary["rejected_steps"] == 0
    assert summary["rejected_newton_iterations"] == 0
    assert summary["rejected"] == []
    # the whole path in one step, with no backtracking on this easy problem
    assert summary["accepted_steps"] == 2
    assert summary["damping_trials"] == 0
    config = summary["config"]
    assert config["problem"]["n"] == 3
    assert set(config) == {"problem", "solver", "output"}
    assert set(config["problem"]) == {
        "n", "k", "tau", "resolution", "background", "alpha", "alpha_l", "u_star"
    }
    assert set(config["solver"]) == {"residual_tol"}
    assert set(config["output"]) == {"directory"}
    # the keys README lists; the per-step estimates live in monitors.csv only
    assert set(summary) == {
        "version", "config", "t_final", "residual_sup", "newton_iterations",
        "rejected_newton_iterations", "damping_trials", "linear_iterations",
        "accepted_steps", "rejected_steps", "rejected", "stalled", "coarse", "timings",
    }
    assert summary["coarse"] is None  # N/2 = 4 is not a grid
    assert "reached t=1.0" in capsys.readouterr().out


def test_solve_respects_outdir_override(tmp_path, monkeypatch):
    cfg = default_config(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("KSIG_OUTDIR", str(override))
    assert main(["solve", str(cfg)]) == 0
    assert (override / "u_final.ksig").is_file()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit,needle",
    [
        ({"tau = 0.0": "tau = 1.5"}, "tau"),
        ({"alpha_l = 1.0": "alpha_l = 0.0, 1.0"}, "alpha_0"),
        ({"background = hyperbolic-like": "background = spaceform:1.0"}, "Gamma_3"),
        ({"alpha = 0.2*sin(x1)": "alpha = 0.2*sin(x4)"}, "x4"),
        ({"alpha = 0.2*sin(x1)": "alpha = file:absent.ksig"}, "absent.ksig"),
        ({"resolution = 8": "resolution = 7"}, "resolution 7"),
        ({"background = hyperbolic-like": "background = conformal:0.1*cos(x1)"}, "unknown background spec"),
        # non-finite input: 1e999 parses as inf, and inf * sin(0) is nan
        ({"alpha = 0.2*sin(x1)": "alpha = 1e999*sin(x1)"}, "alpha = nan at node (0, 0, 0)"),
        ({"[output]": "[solver]\nresidual_tol = inf\n\n[output]"}, "residual_tol"),
        ({"alpha_l = 1.0": "alpha_l = 1e999"}, "alpha_0 = inf at node (0, 0, 0)"),
        ({"tau = 0.0": "tau = -inf"}, "tau = -inf"),
        ({"alpha = 0.2*sin(x1)": "alpha = 1e999"}, "alpha = inf at node (0, 0, 0)"),
        # a value is its text: `%` is no interpolation syntax
        ({"alpha = 0.2*sin(x1)": "alpha = 50%"}, "cannot parse field expression at '%'"),
        # configparser's message for a line with no `=` spans several lines
        ({"[output]": "oops\n\n[output]"}, "cannot parse"),
        ({"alpha_l = 1.0": "alpha_l = 1, 2, 3"}, "alpha_l needs 1 or k-1=2 entries"),
        ({"background = hyperbolic-like": "background = spaceform:abc"}, "bad spaceform curvature"),
        # finite curvatures whose tensor, or whose Gamma_k check, leaves the float range
        ({"background = hyperbolic-like": "background = spaceform:-1e308"}, "B_00 = -inf at node (0, 0, 0)"),
        ({"background = hyperbolic-like": "background = spaceform:-1e300"}, "hypothesis check overflows"),
        # sigma_2(-B) = 3e200 is finite, but F divides by its square
        ({"background = hyperbolic-like": "background = spaceform:-1e100"}, "sigma_2(-B)^2 is not finite"),
        # one entry or k-1 entries, none of them empty
        ({"alpha_l = 1.0": "alpha_l = 1,,2"}, "empty entry"),
        ({"alpha_l = 1.0": "alpha_l = 1, 2,"}, "empty entry"),
        ({"alpha_l = 1.0": "alpha_l = 1,"}, "empty entry"),
        # geometry.Problem's own checks reach the user as invalid input
        ({"k = 3": "k = 2"}, "cone index k=2 outside [3, n=3]"),
        # alpha_l's one entry is not copied k-1 times first, so k < 2 is refused the same way
        ({"k = 3": "k = 1"}, "cone index k=1 outside [3, n=3]"),
        ({"k = 3": "k = 0"}, "cone index k=0 outside [3, n=3]"),
        ({"k = 3": "k = -3"}, "cone index k=-3 outside [3, n=3]"),
    ],
)
def test_solve_gating_rejects_and_writes_nothing(tmp_path, capsys, edit, needle):
    # no warning is raised on the way: stderr is the error line alone
    cfg = default_config(tmp_path, **edit)
    assert main(["solve", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and needle in line
    assert not (tmp_path / "out").exists()


def test_solve_gating_keeps_a_huge_file_background_finite(tmp_path, capsys):
    # B_01 = 1e308 is finite, and so is its symmetric part, though B + B^T
    # is not; the Gamma_k check on -B is what overflows
    grid = PeriodicGrid(dim=3, resolution=8)
    for i in range(3):
        for j in range(i, 3):
            entry = 1e308 if (i, j) == (0, 1) else -float(i == j)
            write_field(tmp_path / f"bg_B{i}{j}.ksig", grid, np.full(grid.shape, entry))
    cfg = default_config(tmp_path, **{"background = hyperbolic-like": "background = file:bg"})
    planes = runconfig._background_planes("file:bg", grid, 0.0, tmp_path)
    assert np.all(planes[0, 1] == 1e308) and np.all(planes[1, 0] == 1e308)
    with pytest.raises(InputError, match="hypothesis check overflows"):
        runconfig.build_problem(runconfig.load_config(cfg), tmp_path)
    assert main(["solve", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "hypothesis check overflows" in line
    assert not (tmp_path / "out").exists()


def test_solve_spaceform_negative_curvature(tmp_path):
    cfg = default_config(
        tmp_path,
        **{"background = hyperbolic-like": "background = spaceform:-1.0"},
    )
    assert main(["solve", str(cfg)]) == 0


def readme_example():
    """The INI block of README.md."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    return block


def test_readme_example_config_loads(tmp_path):
    # configparser takes no inline comments, so the documented example keeps
    # each comment on a line of its own
    block = readme_example()
    (tmp_path / "example.ini").write_text(block)
    cfg = runconfig.load_config(tmp_path / "example.ini")
    assert (cfg.problem.n, cfg.problem.k, cfg.problem.tau, cfg.problem.resolution) == (3, 3, 0.0, 16)
    assert (cfg.problem.alpha, cfg.problem.alpha_l, cfg.problem.u_star) == ("0.2*sin(x1)", "1.0", None)
    assert cfg.solver == solver.SolverConfig()
    assert cfg.output == runconfig.OutputConfig(directory="run-out")
    # the example lists every setting, so a knob cannot change without the docs
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert set(parser["problem"]) <= {f.name for f in fields(runconfig.ProblemConfig)}
    assert set(parser["solver"]) == {f.name for f in fields(solver.SolverConfig)}
    assert set(parser["output"]) == {f.name for f in fields(runconfig.OutputConfig)}


EVERY_KEY_CONFIG = """\
[problem]
n = 5
k = 4
tau = -0.30000000000000004
resolution = 10
background = spaceform:-1.5
alpha = 0.1*sin(x1) - 3e-2*cos(x5)
alpha_l = 1.0, 2, file:a.ksig
u_star = 0.1*sin(x1)*cos(x2)

[solver]
residual_tol = 1.5e-11

[output]
directory = elsewhere/run
"""


def test_config_round_trips_through_write_config(tmp_path):
    for name, text in (("readme", readme_example()), ("every-key", EVERY_KEY_CONFIG)):
        (tmp_path / f"{name}.ini").write_text(text)
        cfg = runconfig.load_config(tmp_path / f"{name}.ini")
        runconfig.write_config(tmp_path / f"{name}-copy.ini", cfg)
        assert runconfig.load_config(tmp_path / f"{name}-copy.ini") == cfg, name
    parser = configparser.ConfigParser()
    parser.read_string(EVERY_KEY_CONFIG)
    for section in fields(cfg):  # the last config sets every key
        assert set(parser[section.name]) == {f.name for f in fields(getattr(cfg, section.name))}
    # None is left out; floats read back exactly
    assert "u_star" not in (tmp_path / "readme-copy.ini").read_text()
    assert "tau = -0.30000000000000004\n" in (tmp_path / "every-key-copy.ini").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "every-key-copy.ini", "every-key.ini", "readme-copy.ini", "readme.ini"
    ]
    # a value with an indented continuation line is one value across lines
    (tmp_path / "multi-line.ini").write_text(MULTI_LINE_CONFIG)
    cfg = runconfig.load_config(tmp_path / "multi-line.ini")
    assert cfg.problem.background == "spaceform:\n-0.5"
    runconfig.write_config(tmp_path / "multi-line-copy.ini", cfg)
    assert runconfig.load_config(tmp_path / "multi-line-copy.ini") == cfg


MULTI_LINE_CONFIG = """\
[problem]
n = 3
k = 3
resolution = 8
background = spaceform:
   -0.5
u_star = 0.1*sin(x1)

[output]
directory = package
"""


def test_manufacture_then_solve_a_multi_line_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manufacture.ini").write_text(MULTI_LINE_CONFIG)
    assert main(["manufacture", "manufacture.ini"]) == 0
    assert main(["solve", str(tmp_path / "package" / "manufactured.ini")]) == 0
    assert capsys.readouterr().err == ""


def expected_planes(n, N, entry):
    """B's planes (n, n, N, ..., N), plane (i, j) filled with entry(i, j)."""
    return np.stack([np.stack([np.full((N,) * n, entry(i, j)) for j in range(n)]) for i in range(n)])


def test_build_problem_evaluates_one_alpha_l_entry_once(tmp_path, monkeypatch):
    # one alpha_l entry is one field that serves every l: at n = k = 5 it is
    # read once, not k-1 = 4 times
    specs = []
    real = runconfig.field_from_spec

    def counting(spec, grid, base):
        specs.append(spec)
        return real(spec, grid, base)

    monkeypatch.setattr(runconfig, "field_from_spec", counting)
    cfg = default_config(tmp_path, **{"n = 3": "n = 5", "k = 3": "k = 5", "alpha_l = 1.0": "alpha_l = 2.0"})
    problem = runconfig.build_problem(runconfig.load_config(cfg), tmp_path)
    assert specs.count("2.0") == 1
    beta = operator.beta_weights(problem, problem.grid.zeros(), 1.0)
    assert beta.shape == problem.grid.shape + (4,) and np.all(beta == 2.0)


def test_build_problem_builds_B_planes_from_the_spec(tmp_path):
    # B's planes are the spec's upper triangle, mirrored; they are compared
    # as bytes, since array_equal would not see the sign of a zero.  A
    # constant B is stored at its own rank, one (n, n) matrix, and equals
    # the full planes once broadcast
    def planes(background, tau="0.0"):
        edits = {"background = hyperbolic-like": f"background = {background}", "tau = 0.0": f"tau = {tau}"}
        return runconfig.build_problem(runconfig.load_config(default_config(tmp_path, **edits)), tmp_path).B_planes

    def full(planes):
        return np.broadcast_to(planes, (3, 3, 8, 8, 8)).tobytes()

    minus_identity = expected_planes(3, 8, lambda i, j: -float(i == j))
    assert np.signbit(minus_identity[0, 1]).all()  # -I is -0.0 off the diagonal
    hyperbolic = planes("hyperbolic-like")
    assert hyperbolic.shape == (3, 3, 1, 1, 1)
    assert full(hyperbolic) == minus_identity.tobytes()
    factor = (-0.7 / 1.0) * (2.0 - 0.2 * 3 / 2.0)  # spaceform_schouten's, at n = 3
    want = expected_planes(3, 8, lambda i, j: factor * float(i == j))
    spaceform = planes("spaceform:-0.7", tau="0.2")
    assert spaceform.shape == (3, 3, 1, 1, 1)
    assert full(spaceform) == want.tobytes()
    grid = PeriodicGrid(dim=3, resolution=8)
    rng = np.random.default_rng(3)
    upper = {(i, j): -float(i == j) + 0.1 * rng.standard_normal(grid.shape) for i in range(3) for j in range(i, 3)}
    upper[0, 2][1, 2, 3] = -0.0
    for (i, j), values in upper.items():
        write_field(tmp_path / f"bg_B{i}{j}.ksig", grid, values)
    want = np.stack([np.stack([upper[min(i, j), max(i, j)] for j in range(3)]) for i in range(3)])
    per_node = planes("file:bg")
    assert per_node.shape == (3, 3) + grid.shape
    assert per_node.tobytes() == want.tobytes()


def test_build_problem_holds_each_expression_at_its_own_rank(tmp_path):
    # an expression keeps the axes its factors read, and alpha_l entries
    # are stacked at the rank they broadcast to, so a constant is one number
    (tmp_path / "example.ini").write_text(readme_example())
    cfg = runconfig.load_config(tmp_path / "example.ini")
    for alpha_l, shape in (("1", (1, 1, 1, 1)), ("1, 0.5 + 0.1*sin(x3)", (2, 1, 1, 16))):
        problem = runconfig.build_problem(replace(cfg, problem=replace(cfg.problem, alpha_l=alpha_l)), tmp_path)
        assert problem.alpha.shape == (16, 1, 1) and problem.alpha_l.shape == shape
        assert np.array_equal(problem.alpha, fieldexpr.evaluate("0.2*sin(x1)", problem.grid))
        assert np.all(problem.alpha_l[0] == 1.0)
    assert np.array_equal(problem.alpha_l[1], fieldexpr.evaluate("0.5 + 0.1*sin(x3)", problem.grid))


def test_config_defaults_are_the_field_defaults(tmp_path):
    cfg = write_config(tmp_path, "[problem]\nn = 3\nk = 3\n")
    assert runconfig.load_config(cfg) == runconfig.RunConfig(
        problem=runconfig.ProblemConfig(n=3, k=3),
        solver=solver.SolverConfig(),
        output=runconfig.OutputConfig(),
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("[problem]\nn = 3\nk = 3\n[extra]\n", "unknown sections: ['extra']"),
        ("[problem]\nn = 3\nk = 3\nalhpa = 1\n", "unknown [problem] keys: ['alhpa']"),
        ("[problem]\nn = 3\nk = 3\n[solver]\ntol = 1\n", "unknown [solver] keys: ['tol']"),
        ("[problem]\nn = 3\nk = 3\n[output]\ndir = x\n", "unknown [output] keys: ['dir']"),
        # a missing [problem] is reported before an unknown [solver] key
        ("[solver]\nmax_newton = 3\n", "missing [problem] section"),
        ("[problem]\nk = 3\n", "[problem] n is required"),
        ("[problem]\nn = 3\n", "[problem] k is required"),
        (
            "[problem]\nn = three\nk = 3\n",
            "[problem] n = 'three': invalid literal for int() with base 10: 'three'",
        ),
        (
            "[problem]\nn = 3\nk = 3\ntau = x\n",
            "[problem] tau = 'x': could not convert string to float: 'x'",
        ),
        # the Newton limit and the step controls are solver constants now
        (
            "[problem]\nn = 3\nk = 3\n[solver]\nmax_newton = 2.5\n",
            "unknown [solver] keys: ['max_newton']",
        ),
        (
            "[problem]\nn = 3\nk = 3\n[solver]\ndt_init = 1e-5\n",
            "unknown [solver] keys: ['dt_init']",
        ),
        (
            "[problem]\nn = 3\nk = 3\n[solver]\nresidual_tol = tiny\n",
            "[solver] residual_tol = 'tiny': could not convert string to float: 'tiny'",
        ),
        (
            "[problem]\nn = 3\nk = 3\n[solver]\nresidual_tol = 0\n",
            "[solver]: residual_tol must be positive and finite",
        ),
    ],
)
def test_config_errors_name_the_section_and_key(tmp_path, text, message):
    cfg = write_config(tmp_path, text)
    with pytest.raises(InputError) as exc:
        runconfig.load_config(cfg)
    assert str(exc.value) == message


def test_solve_missing_config(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_solve_unknown_key_rejected(tmp_path, capsys):
    cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": "alpha = 0.2*sin(x1)\nalhpa = 1"})
    assert main(["solve", str(cfg)]) == 2
    assert "alhpa" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_bad_expression_rejected(tmp_path, capsys):
    cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": "alpha = 0.2*tan(x1)"})
    assert main(["solve", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_solve_does_not_report_a_bug_as_invalid_config(tmp_path, monkeypatch):
    # a plain ValueError from inside the front end is a programming error:
    # it must propagate, not exit 2 as "invalid config"
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(fieldexpr, "evaluate", broken)
    cfg = default_config(tmp_path)
    with pytest.raises(ValueError, match="broadcast") as exc:
        main(["solve", str(cfg)])
    assert not isinstance(exc.value, InputError)
    assert not (tmp_path / "out").exists()


def test_build_problem_reports_a_shape_bug_as_a_program_error(tmp_path, monkeypatch):
    # a field of the wrong shape can only come from a bug: Problem raises a
    # plain ValueError, which build_problem passes on and main does not turn
    # into exit 2
    monkeypatch.setattr(runconfig, "field_from_spec", lambda spec, grid, base: np.zeros((4, 4, 4)))
    cfg = default_config(tmp_path)
    with pytest.raises(ValueError, match=r"^alpha of shape \(4, 4, 4\) does not broadcast") as exc:
        runconfig.build_problem(runconfig.load_config(cfg), tmp_path)
    assert not isinstance(exc.value, InputError)
    with pytest.raises(ValueError, match=r"^alpha of shape \(4, 4, 4\) does not broadcast"):
        main(["solve", str(cfg)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["max_newton", "dt_init", "dt_min"])
def test_solve_refuses_a_removed_solver_key(tmp_path, capsys, monkeypatch, key):
    # the Newton limit and the step controls are solver constants, not
    # settings: a config that still sets one is refused before any work
    monkeypatch.setattr(solver, "continuation_steps", lambda *args: pytest.fail("the march started"))
    cfg = default_config(tmp_path, **{"[output]": f"[solver]\n{key} = 1\n\n[output]"})
    assert main(["solve", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: unknown [solver] keys: ['{key}']"
    assert not (tmp_path / "out").exists()


def test_solve_stall_exits_3_and_persists_state(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    monkeypatch.setattr(solver, "_DT_INIT", 0.2)
    monkeypatch.setattr(solver, "_DT_MIN", 0.15)
    cfg = default_config(tmp_path)
    assert main(["solve", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "continuation stalled at t=0.0: step below the minimum step (" in err
    assert "iteration limit 1 at t=0.2" in err  # the last rejected step's note
    out = tmp_path / "out"
    assert (out / "u_final.ksig").is_file()  # the anchor state was kept
    for name in ("monitors.csv", *CHARTS):  # a stall writes the full artifact set
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stalled"] is True
    assert summary["t_final"] == 0.0
    # the whole-path attempt, then the first step, each spending its one
    # allowed Newton iteration
    assert summary["rejected_steps"] == 2
    assert summary["rejected_newton_iterations"] == 2
    assert [(rec["t"], rec["dt"], rec["newton_iters"]) for rec in summary["rejected"]] == [
        (1.0, 1.0, 1),
        (0.2, 0.2, 1),
    ]
    assert all("iteration limit 1" in rec["note"] for rec in summary["rejected"])
    assert summary["damping_trials"] == 0
    # no step was accepted after the anchor: these are the rejected steps' solves
    assert summary["linear_iterations"] > 0


def test_solve_overflowing_residual_stalls_cleanly(tmp_path, capsys):
    # every value of alpha is finite, so gating passes, but the residual's
    # 2-norm overflows: each step's linear solve fails before its first
    # iteration, the march stalls at the anchor, and no warning is raised
    cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": "alpha = 1e300*sin(x1)"})
    assert main(["solve", str(cfg)]) == 3
    out = tmp_path / "out"
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: continuation stalled at t=0.0: step below the minimum step (")
    assert "2-norm overflows" in lines[0]
    assert lines[1] == f"last accepted state written to {out}"
    _, u = read_field(out / "u_final.ksig")
    assert not u.any()  # the anchor u = 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stalled"] is True and summary["t_final"] == 0.0
    assert summary["rejected_steps"] == len(summary["rejected"]) > 1
    assert all("2-norm overflows" in rec["note"] for rec in summary["rejected"])
    assert summary["linear_iterations"] == 0


@pytest.mark.parametrize("tau, note", [("-1e200", "preconditioned residual"), ("-1e308", "non-finite Jacobian")])
def test_solve_huge_negative_tau_stalls_cleanly(tmp_path, capsys, tau, note):
    # a finite tau far below 0 passes gating, but dF's weights, or the
    # Jacobi-scaled residual, leave the float range: each linear solve fails
    # with a note before it iterates on them, and no warning is raised
    cfg = default_config(tmp_path, **{"tau = 0.0": f"tau = {tau}", "alpha = 0.2*sin(x1)": "alpha = 0.1*sin(x1)"})
    assert main(["solve", str(cfg)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: continuation stalled at t=")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rejected"] and all(note in rec["note"] for rec in summary["rejected"])


def test_solve_huge_alpha_l_over_a_tiny_background_stalls_without_warnings(tmp_path, capsys):
    # found by test_solve_ends_in_a_documented_exit_code: with -B ~ 1e-53 I
    # and alpha_l = 5e176, G's gradient at the whole-path attempt's start
    # overflows (sigma_l alpha_l / sigma_2^2); the step fails on its cone
    # margin, later steps on an overflowing right-hand side, and no warning
    cfg = default_config(
        tmp_path,
        **{
            "tau = 0.0": "tau = -1.0",
            "background = hyperbolic-like": "background = spaceform:-5.812028307355339e-54",
            "alpha = 0.2*sin(x1)": "alpha = -5.812028307355339e-54*sin(x1)",
            "alpha_l = 1.0": "alpha_l = 5.0375107398504483e+176",
        },
    )
    assert main(["solve", str(cfg)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: continuation stalled at t=0.0")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["accepted_steps"] == 1 and summary["stalled"] is True


def test_solve_overflowing_linear_residual_stalls_without_warnings(tmp_path, capsys):
    # found by test_solve_ends_in_a_documented_exit_code: with B = -4e76 I and
    # alpha = 2e143 sin(x1), a GMRES cycle's update makes b - dF[x] overflow
    # its 2-norm; the linear solve fails with a note and no warning
    write_diagonal_background(tmp_path, -3.953663483360433e76)
    cfg = default_config(
        tmp_path,
        **{
            "tau = 0.0": "tau = -1.2142839080984301e-104",
            "background = hyperbolic-like": "background = file:bg",
            "alpha = 0.2*sin(x1)": "alpha = 2.191521181666034e+143*sin(x1)",
            "[output]": "[solver]\nresidual_tol = 0.08072822825831381\n\n[output]",
        },
    )
    assert main(["solve", str(cfg)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: continuation stalled at t=0.0")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert any("GMRES residual inf" in rec["note"] for rec in summary["rejected"])


def test_solve_creeping_march_stalls_at_the_step_budget(tmp_path, capsys, monkeypatch):
    # found by test_solve_ends_in_a_documented_exit_code: one Newton
    # iteration per step and a minimum step of 1e-12 let the march creep at
    # dt ~ 5e-8, 5570 accepted steps to t = 4e-4 in 20 s, keeping every
    # step's u; the step budget ends it as a stall on its last accepted step
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    monkeypatch.setattr(solver, "_DT_INIT", 0.10000000000000002)
    monkeypatch.setattr(solver, "_DT_MIN", 1e-12)
    cfg = default_config(
        tmp_path,
        **{
            "alpha = 0.2*sin(x1)": "alpha = 1.2589254117941673*sin(x1)",
            "tau = 0.0": "tau = 1.3878107994685834e-242",
            "[output]": "[solver]\nresidual_tol = 8.826999160014873e-10\n\n[output]",
        },
    )
    start = time.perf_counter()
    assert main(["solve", str(cfg)]) == 3
    assert time.perf_counter() - start < 10.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    solves = re.fullmatch(r"error: continuation stalled at t=\S+: step budget spent after (\d+) Newton solves", lines[0])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["stalled"] is True and 0.0 < summary["t_final"] < 1.0
    assert summary["accepted_steps"] + summary["rejected_steps"] == int(solves[1]) >= solver._MAX_STEPS


def test_solve_singular_jacobian_stalls_cleanly(tmp_path, capsys):
    # alpha_l = 1e-20 > 0 passes gating, but dF's zeroth-order weight falls
    # below round-off against the stencil's, so dF maps a constant to 0: the
    # linear solves that meet this fail with a note, and the march stalls
    cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": "alpha = 0", "alpha_l = 1.0": "alpha_l = 1e-20"})
    assert main(["solve", str(cfg)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: continuation stalled at t=")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert any("GMRES breakdown" in rec["note"] for rec in summary["rejected"])


@pytest.mark.parametrize("at", [1, 2])
def test_solve_interrupt_writes_the_last_accepted_state(tmp_path, capsys, monkeypatch, at):
    # a KeyboardInterrupt in the Newton solve number `at`: the first is the
    # anchor, which leaves no accepted state; the second is the whole-path
    # attempt, which leaves the anchor
    newton = solver.newton_solve_at_t
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == at:
            raise KeyboardInterrupt
        return newton(*args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve_at_t", interrupted)
    try:
        code = main(["solve", str(default_config(tmp_path))])
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("the interrupt escaped solve")
    assert code == 130
    out = tmp_path / "out"
    err = capsys.readouterr().err
    if at == 1:
        assert err == "interrupted before the anchor step; nothing written\n"
        assert not any(out.iterdir())
        return
    assert err == f"interrupted at t=0.0; last accepted state written to {out}\n"
    _, u = read_field(out / "u_final.ksig")
    assert not u.any()  # the anchor u = 0
    assert len((out / "monitors.csv").read_text().splitlines()) == 2  # header and anchor
    for name in CHARTS:
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] == 0.0 and summary["stalled"] is False
    assert summary["accepted_steps"] == 1 and summary["rejected_steps"] == 0


def test_solve_sigterm_writes_the_last_accepted_state(tmp_path, capsys, monkeypatch):
    # SIGTERM during the second Newton solve, the whole-path attempt: solve
    # takes it as it takes Ctrl-C, keeps the anchor and exits 143, and then
    # puts back the handler it found
    newton = solver.newton_solve_at_t
    calls = []

    def terminated(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            os.kill(os.getpid(), signal.SIGTERM)
        return newton(*args, **kwargs)

    def outer(signum, frame):  # stands in for the default, which would end the test session
        pytest.fail("SIGTERM reached the handler solve should have replaced")

    monkeypatch.setattr(solver, "newton_solve_at_t", terminated)
    previous = signal.signal(signal.SIGTERM, outer)
    try:
        code = main(["solve", str(default_config(tmp_path))])
        assert signal.getsignal(signal.SIGTERM) is outer
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == 143
    out = tmp_path / "out"
    assert capsys.readouterr().err == f"terminated at t=0.0; last accepted state written to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ("u_final.ksig", "monitors.csv", "summary.json", *CHARTS)
    )
    _, u = read_field(out / "u_final.ksig")
    assert not u.any()  # the anchor u = 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] == 0.0 and summary["stalled"] is False
    assert summary["accepted_steps"] == 1 and summary["rejected_steps"] == 0


def test_solve_crash_writes_the_last_accepted_state(tmp_path, capsys, monkeypatch):
    # a LinAlgError in the second Newton solve, the whole-path attempt: the
    # anchor's artifact set is written, then the exception escapes as it was
    newton = solver.newton_solve_at_t
    calls = []

    def crashing(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return newton(*args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve_at_t", crashing)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        main(["solve", str(default_config(tmp_path))])
    out = tmp_path / "out"
    assert capsys.readouterr().err == ""  # the traceback is the message
    # the whole set, and no temporary file
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ("u_final.ksig", "monitors.csv", "summary.json", *CHARTS)
    )
    _, u = read_field(out / "u_final.ksig")
    assert not u.any()  # the anchor u = 0
    assert len((out / "monitors.csv").read_text().splitlines()) == 2  # header and anchor
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] == 0.0 and summary["stalled"] is False
    assert summary["accepted_steps"] == 1 and summary["rejected_steps"] == 0


def test_solve_summary_records_the_coarse_solve(tmp_path):
    # N = 16: the whole-path attempt starts from the root on N/2 = 8, whose
    # counts get their own key; the run's counters are the fine grid's
    cfg = default_config(tmp_path, **{"resolution = 8": "resolution = 16"})
    assert main(["solve", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    coarse = summary["coarse"]
    assert set(coarse) == {"resolution", "newton_iterations", "damping_trials", "linear_iterations", "note"}
    assert coarse["resolution"] == 8 and coarse["note"] == ""
    assert coarse["newton_iterations"] > summary["newton_iterations"]
    assert summary["accepted_steps"] == 2 and summary["rejected_steps"] == 0
    assert len((tmp_path / "out" / "monitors.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_solve_ending_inside_the_coarse_solve_keeps_the_anchor(tmp_path, capsys, monkeypatch, error):
    # the Newton solve on N/2 = 8 runs after the anchor: an interrupt there
    # exits 130 and an exception escapes, each after writing the anchor's
    # full artifact set
    newton = solver.newton_solve_at_t

    def ending(u0, t, problem, *args):
        if problem.grid.resolution == 8:
            raise error("inside the coarse solve")
        return newton(u0, t, problem, *args)

    monkeypatch.setattr(solver, "newton_solve_at_t", ending)
    cfg = default_config(tmp_path, **{"resolution = 8": "resolution = 16"})
    out = tmp_path / "out"
    if error is KeyboardInterrupt:
        assert main(["solve", str(cfg)]) == 130
        assert capsys.readouterr().err == f"interrupted at t=0.0; last accepted state written to {out}\n"
    else:
        with pytest.raises(RuntimeError, match="inside the coarse solve"):
            main(["solve", str(cfg)])
        assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ("u_final.ksig", "monitors.csv", "summary.json", *CHARTS)
    )
    grid, u = read_field(out / "u_final.ksig")
    assert grid.resolution == 16 and not u.any()  # the anchor u = 0
    assert len((out / "monitors.csv").read_text().splitlines()) == 2  # header and anchor
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_final"] == 0.0 and summary["stalled"] is False
    assert summary["accepted_steps"] == 1 and summary["rejected_steps"] == 0
    assert summary["coarse"] is None  # no whole-path record was written


def test_solve_summary_counts_the_backtracks_of_rejected_steps(tmp_path):
    # a forcing 100x the default's: the whole-path attempt fails at the
    # damping floor, after three backtracks in its last iteration
    cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": "alpha = 20*sin(x1)*cos(x2)"})
    assert main(["solve", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    rejected = summary["rejected"]
    assert summary["rejected_steps"] == len(rejected) > 0
    assert (rejected[0]["t"], rejected[0]["dt"]) == (1.0, 1.0)
    assert summary["rejected_newton_iterations"] == sum(rec["newton_iters"] for rec in rejected)
    floored = [rec for rec in rejected if "damping below" in rec["note"]]
    assert floored and summary["damping_trials"] >= 3 * len(floored)


def test_solve_keeps_only_the_newest_accepted_u(tmp_path, monkeypatch):
    # a march of several accepted steps: when it ends, the newest accepted u,
    # which u_final.ksig holds, is the only one still alive
    steps = solver.continuation_steps
    refs, newest, alive_at_end = [], [], []

    def recording(*args):
        for rec in steps(*args):
            if rec.accepted:
                refs.append(weakref.ref(rec.u))
                newest[:] = [rec.u.copy()]
            yield rec
        alive_at_end.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(solver, "continuation_steps", recording)
    cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": "alpha = 20*sin(x1)*cos(x2)"})
    assert main(["solve", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["accepted_steps"] == len(refs) >= 3
    assert alive_at_end == [1]
    _, u = read_field(tmp_path / "out" / "u_final.ksig")
    assert u.tobytes() == newest[0].tobytes()


def test_solve_rerun_is_bit_identical(tmp_path, monkeypatch):
    cfg = default_config(tmp_path)
    outs = []
    for name in ("first", "second"):
        target = tmp_path / name
        monkeypatch.setenv("KSIG_OUTDIR", str(target))
        assert main(["solve", str(cfg)]) == 0
        outs.append(target)
    a, b = outs
    for name in ("u_final.ksig", "monitors.csv", *CHARTS):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    sa.pop("timings")
    sb.pop("timings")
    assert sa == sb


# The README problem at n = k = 3, N = 32 and at n = k = 5, N = 8, the
# manufacture-and-solve of the benchmark's u_star at n = k = 3, N = 20, and
# CI's hard row at n = k = 4, N = 8, and a row at tau = -0.5, k = 3 < n = 4,
# N = 16 with a per-l alpha_l on the space form B = -I, so that how c1, c2
# and beta read tau and alpha_l moves a digest; each with the first 16 hex
# digits of the SHA-256 of its artifacts.  A rerun is byte-identical within one tree (test
# above); these pin the answers across changes to the code
PINNED_RUNS = {
    "default-n3-N32": (
        "n = 3\nk = 3\nresolution = 32\nalpha = 0.2*sin(x1)\nalpha_l = 1.0\n",
        {"out/u_final.ksig": "1beff05aa6f27026", "out/monitors.csv": "39dfcc35d3aef81f"},
    ),
    "default-n5-N8": (
        "n = 5\nk = 5\nresolution = 8\nalpha = 0.2*sin(x1)\nalpha_l = 1.0\n",
        {"out/u_final.ksig": "b3ddcedba34b2fc3", "out/monitors.csv": "2c837843dd88ebad"},
    ),
    "manufactured-n3-N20": (
        "n = 3\nk = 3\nresolution = 20\nalpha_l = 1\nu_star = 0.1*sin(x1)*cos(x2) + 0.05*cos(x3)\n",
        {
            "out/alpha.ksig": "26f2298744365046",
            "manufactured-run/u_final.ksig": "707e391c2d03fced",
            "manufactured-run/monitors.csv": "22fd7cfe0af44fa5",
        },
    ),
    "hard-n4-N8": (
        "n = 4\nk = 4\nresolution = 8\nalpha = 10*sin(x1)*cos(x2)\n",
        {"out/u_final.ksig": "67f28a0ed429bdca", "out/monitors.csv": "52c8ae27abbcd6fd"},
    ),
    "tau-n4k3-N16": (
        "n = 4\nk = 3\ntau = -0.5\nresolution = 16\nbackground = spaceform:-1\n"
        "alpha = 0.3*sin(x1)*cos(x3)\nalpha_l = 1, 0.5 + 0.1*sin(x2)\n",
        {"out/u_final.ksig": "1f8a0a88e03fc916", "out/monitors.csv": "d95934a3593bcacd"},
    ),
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_workload_artifacts_are_pinned(tmp_path, monkeypatch, run):
    # the five take about 1 s together
    problem, pinned = PINNED_RUNS[run]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KSIG_OUTDIR", raising=False)
    Path("run.ini").write_text(f"[problem]\n{problem}\n[output]\ndirectory = out\n")
    if "u_star" in problem:
        assert main(["manufacture", "run.ini"]) == 0
        assert main(["solve", "out/manufactured.ini"]) == 0
    else:
        assert main(["solve", "run.ini"]) == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()[:16] for name in pinned}
    assert digests == pinned


# the solver constants that solver_section may patch, by the name it draws
SOLVER_CONSTANTS = {"max_newton": "_MAX_NEWTON", "dt_init": "_DT_INIT", "dt_min": "_DT_MIN"}


@st.composite
def solver_section(draw):
    """(text, constants): a [solver] section, and a value for each solver
    constant of SOLVER_CONSTANTS, with 0 < minimum step < first step <= 1;
    each key may be left at its default."""
    dt_min = draw(log_uniform(-12, -1))
    values = {
        "residual_tol": draw(log_uniform(-16, 0)),
        "max_newton": draw(st.integers(1, 30)),
        "dt_init": draw(st.floats(dt_min, 1.0, exclude_min=True)),
        "dt_min": dt_min,
    }
    keys = draw(st.sets(st.sampled_from(sorted(values))))
    if keys & {"dt_min", "dt_init"}:  # either alone may pass the other's default
        keys |= {"dt_min", "dt_init"}
    text = f"residual_tol = {values['residual_tol']!r}\n" if "residual_tol" in keys else ""
    # a constant that is not drawn keeps its value
    constants = {name: values[key] if key in keys else getattr(solver, name) for key, name in SOLVER_CONSTANTS.items()}
    return text, constants


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    tau=signed_log_uniform(-300, 300),
    alpha=signed_log_uniform(-300, 300),
    alpha_l=signed_log_uniform(-300, 300),
    background=st.sampled_from(["hyperbolic-like", "spaceform:{b!r}", "file:bg"]),
    b=signed_log_uniform(-300, 300),
    solver_draw=solver_section(),
)
def test_solve_ends_in_a_documented_exit_code(tau, alpha, alpha_l, background, b, solver_draw):
    # drawn problems at n = k = 3, N = 8, each under drawn solver constants:
    # solve reaches t = 1 (exit 0) or stalls (exit 3) with a consistent
    # artifact set, or refuses with one error line and nothing written
    # (exit 2); never a traceback, no warning, and each example within 10 s.
    # About three in four examples are refused at gating; the 100 take
    # about 5 s, and the slowest of 2 300 examples, a large-|tau| stall at a
    # minimum step of 1e-12, took 4.5 s
    solver_text, constants = solver_draw
    with tempfile.TemporaryDirectory() as tmp:
        write_diagonal_background(tmp, b)
        outdir = Path(tmp, "out")
        text = BASE_CONFIG.format(outdir=outdir)
        for old, new in (
            ("tau = 0.0", f"tau = {tau!r}"),
            ("alpha = 0.2*sin(x1)", f"alpha = {alpha!r}*sin(x1)"),
            ("alpha_l = 1.0", f"alpha_l = {alpha_l!r}"),
            ("background = hyperbolic-like", f"background = {background.format(b=b)}"),
            ("[output]", f"[solver]\n{solver_text}\n[output]"),
        ):
            text = text.replace(old, new)
        cfg = write_config(Path(tmp), text)
        err = io.StringIO()
        start = time.perf_counter()
        with (
            mock.patch.multiple(solver, **constants),
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            code = main(["solve", str(cfg)])
        assert time.perf_counter() - start < 10.0
        assert code in (0, 2, 3)
        if code == 2:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert not outdir.exists()
        else:
            summary = json.loads((outdir / "summary.json").read_text())
            assert summary["accepted_steps"] == len(monitors.read_monitor_csv(outdir / "monitors.csv"))
            read_field(outdir / "u_final.ksig", PeriodicGrid(dim=3, resolution=8))


SPACE = st.sampled_from(["", " ", "  "])
DIGITS = st.text("0123456789", min_size=1, max_size=3)
NUMBER = st.tuples(
    st.one_of(
        st.tuples(DIGITS, st.sampled_from(["", "."]), st.text("0123456789", max_size=3)).map("".join),
        DIGITS.map(lambda d: "." + d),
    ),
    st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), DIGITS).map("".join)),
).map("".join)


@st.composite
def field_expression(draw, n, bad=None):
    """(text, terms) of an expression of the fieldexpr grammar in x1..xn,
    with the text `bad` in place of one of its factors when given.  terms
    holds each term's (coeff, factors) as the grammar reads them: coeff is
    the sign times each number in turn, factors the (sin or cos, 0-based
    axis) of each wave in turn."""
    pieces, terms = [], []
    for index in range(draw(st.integers(1, 4))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=min(index, 1), max_size=3))
        coeff, factors, texts = -1.0 if signs.count("-") % 2 else 1.0, [], []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                texts.append(draw(NUMBER))
                coeff *= float(texts[-1])
            else:
                kind, axis = draw(st.sampled_from(["sin", "cos"])), draw(st.integers(1, n))
                texts.append(f"{kind}({draw(SPACE)}x{axis}{draw(SPACE)})")
                factors.append((kind, axis - 1))
        pieces.append(("".join(draw(SPACE) + sign for sign in signs), texts))
        terms.append((coeff, factors))
    if bad is not None:
        _, texts = draw(st.sampled_from(pieces))
        texts[draw(st.integers(0, len(texts) - 1))] = bad
    text = ""
    for signs, texts in pieces:
        text += signs + draw(SPACE) + texts[0]
        for factor in texts[1:]:
            text += draw(SPACE) + "*" + draw(SPACE) + factor
    return text + draw(SPACE), terms


@st.composite
def near_miss_expression(draw, n):
    """An expression in x1..xn one mistake away from the grammar: a bad
    factor, a trailing operator, or no term at all."""
    miss = draw(st.sampled_from(["sin(x0)", f"cos(x{n + 1})", "cos(2*x1)", "sin(x1", "+", "*", ""]))
    if miss in ("+", "*"):
        return draw(field_expression(n))[0] + miss + draw(SPACE)
    if not miss:
        return draw(SPACE)
    return draw(field_expression(n, bad=miss))[0]


def expression_reference(terms, grid):
    """The full-grid values of `terms`: each term's coefficient times its
    waves in turn, the terms summed in turn."""
    out = np.zeros(grid.shape)
    for coeff, factors in terms:
        acc = np.full(grid.shape, coeff)
        for kind, axis in factors:
            acc = acc * np.broadcast_to(getattr(np, kind)(grid.coordinate(axis)), grid.shape)
        out = out + acc
    return out


@settings(max_examples=50, derandomize=True, deadline=None)
@given(n=st.integers(3, 5), data=st.data())
def test_drawn_expressions_evaluate_at_their_own_rank(n, data):
    # a drawn expression is held on the axes its waves read, and its values
    # are, bit for bit, those of its terms summed on the full grid, as is
    # analytic_jet's value; each example within 5 s
    grid = PeriodicGrid(dim=n, resolution=8)
    text, terms = data.draw(field_expression(n))
    start = time.perf_counter()
    value = fieldexpr.evaluate(text, grid)
    jet_value = fieldexpr.analytic_jet(text, grid).value
    assert time.perf_counter() - start < 5.0
    read = {axis for _, factors in terms for _, axis in factors}
    assert value.shape == tuple(8 if axis in read else 1 for axis in range(n)), text
    with np.errstate(over="ignore", invalid="ignore"):  # a number such as 1e400 is inf
        want = expression_reference(terms, grid).tobytes()
    assert np.broadcast_to(value, grid.shape).tobytes() == want, text
    assert jet_value.tobytes() == want, text


@settings(max_examples=50, derandomize=True, deadline=None)
@given(n=st.integers(3, 5), data=st.data())
def test_near_miss_expressions_are_refused(n, data):
    # a near-miss of the grammar raises InputError, and as alpha it makes
    # solve exit 2 with one error line and nothing written, within 5 s
    text = data.draw(near_miss_expression(n))
    with pytest.raises(InputError):
        fieldexpr.evaluate(text, PeriodicGrid(dim=n, resolution=8))
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp, "out")
        config = BASE_CONFIG.format(outdir=outdir).replace("n = 3", f"n = {n}").replace("0.2*sin(x1)", text)
        cfg = write_config(Path(tmp), config)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", str(cfg)])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
        assert not outdir.exists()


@st.composite
def damaged_field(draw, data, header):
    """`data`, the bytes of a field file whose header is `header` bytes long,
    damaged in one drawn way: cut at a drawn byte of the header or the
    payload, one header byte changed, or one payload float set to NaN or
    +-inf."""
    damage = draw(st.sampled_from(["cut", "header", "value"]))
    if damage == "cut":
        return data[: draw(st.one_of(st.integers(0, header - 1), st.integers(header, len(data) - 1)))]
    if damage == "header":
        at = draw(st.integers(0, header - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[at]))
        return data[:at] + bytes([byte]) + data[at + 1 :]
    at = header + 8 * draw(st.integers(0, (len(data) - header) // 8 - 1))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return data[:at] + np.array(value, dtype="<f8").tobytes() + data[at + 8 :]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_solve_refuses_a_damaged_file_field(data):
    # a field file with a torn or altered header, or a non-finite value, as
    # alpha makes solve exit 2 with one error line that names the file and
    # nothing written, within 5 s
    grid = PeriodicGrid(dim=3, resolution=8)
    with tempfile.TemporaryDirectory() as tmp:
        field = Path(tmp).resolve() / "alpha.ksig"
        write_field(field, grid, np.broadcast_to(0.2 * np.sin(grid.coordinate(0)), grid.shape))
        valid = field.read_bytes()
        field.write_bytes(data.draw(damaged_field(valid, len(valid) - 8 * grid.node_count)))
        outdir = Path(tmp, "out")
        cfg = write_config(Path(tmp), BASE_CONFIG.format(outdir=outdir).replace("0.2*sin(x1)", "file:alpha.ksig"))
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", str(cfg)])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        (line,) = err.getvalue().splitlines()
        assert line.startswith(f"error: {field}")
        assert not outdir.exists()


ARTIFACTS = ("u_final.ksig", "monitors.csv", *CHARTS, "summary.json")


def artifact_set(out):
    """Digests of the run directory's artifacts, and summary.json without
    its timings."""
    names = [name for name in ARTIFACTS if name != "summary.json"]
    files = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("timings")
    return files, summary


@pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
def test_summary_marks_a_complete_artifact_set(tmp_path, monkeypatch, error):
    # run a, then run b with another forcing, into one directory; b's write
    # number `at` fails.  After each failure either no summary.json exists or
    # every artifact comes from one run
    real_replace = os.replace
    refs, order = {}, []

    def recording(src, dst):
        order.append(Path(dst).name)
        return real_replace(src, dst)

    for name, alpha in (("a", "0.2*sin(x1)"), ("b", "0.3*sin(x1)")):
        cfg = default_config(tmp_path, **{"alpha = 0.2*sin(x1)": f"alpha = {alpha}"})
        monkeypatch.setenv("KSIG_OUTDIR", str(tmp_path / name))
        order.clear()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", recording)
            assert main(["solve", str(cfg)]) == 0
        refs[name] = artifact_set(tmp_path / name)
    assert sorted(order) == sorted(ARTIFACTS) and order[-1] == "summary.json"
    assert refs["a"][0]["u_final.ksig"] != refs["b"][0]["u_final.ksig"]

    for at in range(len(ARTIFACTS)):
        out = tmp_path / f"fault{at}"
        shutil.copytree(tmp_path / "a", out)
        monkeypatch.setenv("KSIG_OUTDIR", str(out))
        writes = []

        def failing(src, dst):
            writes.append(dst)
            if len(writes) == at + 1:
                raise error(f"write {at} failed")
            return real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing)
            with pytest.raises(error, match=f"write {at} failed"):
                main(["solve", str(cfg)])
        assert len(writes) == at + 1
        names = sorted(p.name for p in out.iterdir())
        assert set(names) <= set(ARTIFACTS), names  # no temporary file left
        if (out / "summary.json").exists():
            assert artifact_set(out) in (refs["a"], refs["b"]), at


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_writes_json(tmp_path, capsys):
    assert main(["verify", "--n", "3", "--k", "3", "--samples", "500", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "lemmas.json").read_text())
    assert data["all_passed"] is True
    assert data["seed"] == 42
    assert "properties passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, k, extra, needle",
    [
        ("3", "4", [], "3 <= k <= n <= 5"),
        ("6", "3", [], "3 <= k <= n <= 5"),
        ("3", "2", [], "3 <= k <= n <= 5"),
        ("3", "3", ["--samples", "0"], "samples must be >= 1"),
    ],
    ids=["n3-k4", "n6-k3", "n3-k2", "samples0"],
)
def test_verify_usage_error_on_bad_cone_index(tmp_path, capsys, n, k, extra, needle):
    assert main(["verify", "--n", n, "--k", k, *extra, "--out", str(tmp_path)]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "lemmas.json").exists()


def test_verify_rejects_negative_seed_as_usage_error(tmp_path, capsys):
    # exit 1 means "property violation"; a seed the RNG cannot take is bad input
    assert main(["verify", "--n", "3", "--k", "3", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_reports_violations_with_exit_1(tmp_path, monkeypatch, capsys):
    # plumbing check: force one failing property through a stub suite
    from ksig import cli as cli_mod
    from ksig.monitors import LemmaSuiteResult, PropertyCheck

    fake = LemmaSuiteResult(
        n=3,
        k=3,
        seed=42,
        requested_samples=10,
        checks=(
            PropertyCheck("quotient_superadditivity", 10, 3e-4, 1e-10, False),
        ),
    )
    monkeypatch.setattr(cli_mod.monitors, "run_lemma_suite", lambda *a, **kw: fake)
    assert main(["verify", "--n", "3", "--k", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "quotient_superadditivity" in err and "3.000e-04" in err
    assert (tmp_path / "lemmas.json").is_file()  # the evidence is still written


def test_verify_respects_outdir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("KSIG_OUTDIR", str(tmp_path / "v"))
    assert main(["verify", "--n", "3", "--k", "3", "--samples", "200"]) == 0
    assert (tmp_path / "v" / "lemmas.json").is_file()


# ---------------------------------------------------------------------------
# manufacture


MANU_CONFIG = """\
[problem]
n = 3
k = 3
tau = 0.0
resolution = 8
background = hyperbolic-like
alpha_l = 1.0
u_star = 0.1*sin(x1)*cos(x2)

[output]
directory = {outdir}
"""


def test_manufacture_writes_solvable_package(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "manu"
    cfg = write_config(tmp_path, MANU_CONFIG.format(outdir=outdir))
    assert main(["manufacture", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "manufactured residual at t=1" in out
    for name in ("u_star.ksig", "alpha.ksig", "alpha_l_0.ksig", "alpha_l_1.ksig", "manufactured.ini"):
        assert (outdir / name).is_file(), name
    # the emitted config must solve as-is (file: paths resolve next to it)
    monkeypatch.setenv("KSIG_OUTDIR", str(tmp_path / "solved"))
    assert main(["solve", str(outdir / "manufactured.ini")]) == 0
    summary = json.loads((tmp_path / "solved" / "summary.json").read_text())
    assert summary["residual_sup"] <= 1e-9


def test_manufactured_ini_marks_a_complete_package(tmp_path, monkeypatch):
    # manufacture one u_star into pkg, then another whose write of
    # alpha_l_0.ksig fails: the first run's manufactured.ini must not stay
    # beside the second run's u_star.ksig and alpha.ksig
    outdir = tmp_path / "pkg"
    assert main(["manufacture", str(write_config(tmp_path, MANU_CONFIG.format(outdir=outdir)))]) == 0
    first = (outdir / "u_star.ksig").read_bytes()
    real_write = cli.write_field

    def failing(path, grid, values):
        if Path(path).name == "alpha_l_0.ksig":
            raise OSError("write failed")
        return real_write(path, grid, values)

    monkeypatch.setattr(cli, "write_field", failing)
    text = MANU_CONFIG.format(outdir=outdir).replace("0.1*sin(x1)*cos(x2)", "0.05*cos(x3)")
    with pytest.raises(OSError, match="write failed"):
        main(["manufacture", str(write_config(tmp_path, text, "other.ini"))])
    assert (outdir / "u_star.ksig").read_bytes() != first
    assert not (outdir / "manufactured.ini").exists()


def test_manufacture_from_a_file_u_star_is_an_exact_discrete_root(tmp_path, capsys, monkeypatch):
    # a file: u_star is manufactured against the stencil jet, so its discrete
    # residual is zero to machine precision and solve recovers it
    grid = PeriodicGrid(3, 12)
    u_star = grid.zeros() + 0.1 * np.sin(grid.coordinate(0)) * np.cos(grid.coordinate(1))
    write_field(tmp_path / "u_star_in.ksig", grid, u_star)
    outdir = tmp_path / "manu"
    text = MANU_CONFIG.format(outdir=outdir).replace("resolution = 8", "resolution = 12")
    text = text.replace("u_star = 0.1*sin(x1)*cos(x2)", "u_star = file:u_star_in.ksig")
    assert main(["manufacture", str(write_config(tmp_path, text))]) == 0
    out = capsys.readouterr().out
    res = float(re.search(r"manufactured residual at t=1: (\S+)", out).group(1))
    assert res <= 1e-14
    monkeypatch.setenv("KSIG_OUTDIR", str(tmp_path / "solved"))
    assert main(["solve", str(outdir / "manufactured.ini")]) == 0
    _, u = read_field(tmp_path / "solved" / "u_final.ksig")
    assert np.abs(u - u_star).max() <= 1e-9


def test_manufacture_package_keeps_the_solver_settings(tmp_path, monkeypatch):
    outdir = tmp_path / "manu"
    text = MANU_CONFIG.format(outdir=outdir).replace("[output]", "[solver]\nresidual_tol = 1e-11\n\n[output]")
    assert main(["manufacture", str(write_config(tmp_path, text))]) == 0
    monkeypatch.setenv("KSIG_OUTDIR", str(tmp_path / "solved"))
    assert main(["solve", str(outdir / "manufactured.ini")]) == 0
    summary = json.loads((tmp_path / "solved" / "summary.json").read_text())
    assert summary["config"]["solver"]["residual_tol"] == 1e-11
    assert summary["residual_sup"] <= 1e-11


def test_manufacture_rejects_non_finite_u_star(tmp_path, capsys):
    # 1e999 parses as inf, and inf * sin(0) is nan
    outdir = tmp_path / "manu"
    cfg = write_config(
        tmp_path, MANU_CONFIG.format(outdir=outdir).replace("0.1*sin(x1)*cos(x2)", "1e999*sin(x1)")
    )
    assert main(["manufacture", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: input data must be finite, but u_star = nan at node (0, 0, 0)\n"
    assert not outdir.exists()


def test_manufacture_rejects_huge_u_star_without_warnings(tmp_path, capsys):
    # finite but huge: U* overflows to a NaN cone margin, rejected with no
    # warning before the error line (the suite turns warnings into errors)
    outdir = tmp_path / "manu"
    cfg = write_config(
        tmp_path, MANU_CONFIG.format(outdir=outdir).replace("0.1*sin(x1)*cos(x2)", "1e300*sin(x1)")
    )
    assert main(["manufacture", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: u_star rejected: cone margin nan")
    assert err.count("\n") == 1
    assert not outdir.exists()


def test_manufacture_rejects_a_u_star_with_a_non_finite_U(tmp_path, capsys):
    # U* overflows to inf and nan at the worst node, which eigvalsh cannot
    # factor: the error line reports U's entries there instead
    outdir = tmp_path / "manu"
    u_star = "sin(x1)+sin(x1)+sin(x2)*.1e160"
    cfg = write_config(tmp_path, MANU_CONFIG.format(outdir=outdir).replace("0.1*sin(x1)*cos(x2)", u_star))
    assert main(["manufacture", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: u_star rejected: cone margin nan <= 0.000e+00 at node (0, 0, 0); ")
    assert "U there is not finite: [[inf, " in line
    assert not outdir.exists()


def test_manufacture_rejects_a_u_star_on_the_cone_boundary_without_warnings(tmp_path, capsys):
    # U* = diag(-1, 0, 0) at x1 = pi/2: sigma_2 = 0 there, and the quotient's
    # division by it must not warn before the error line
    outdir = tmp_path / "manu"
    cfg = write_config(tmp_path, MANU_CONFIG.format(outdir=outdir).replace("0.1*sin(x1)*cos(x2)", "sin(x1)"))
    assert main(["manufacture", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: u_star rejected: cone margin -1.000e+00 <= 0.000e+00 at node (2, 0, 0)")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "u_star, alpha_l, value",
    # e^{-2u*} overflows; e^{6u*} alpha_0 overflows in the back-solve
    [("-400", "1.0", "-inf"), ("300", "1e300", "inf")],
)
def test_manufacture_refuses_an_alpha_that_is_not_finite(tmp_path, capsys, u_star, alpha_l, value):
    # the manufactured Problem checks its alpha as solve checks its input:
    # one error line, no warning before it, and no package
    outdir = tmp_path / "manu"
    text = MANU_CONFIG.format(outdir=outdir).replace("0.1*sin(x1)*cos(x2)", u_star)
    cfg = write_config(tmp_path, text.replace("alpha_l = 1.0", f"alpha_l = {alpha_l}"))
    assert main(["manufacture", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: input data must be finite, but alpha = {value} at node (0, 0, 0)\n"
    assert not outdir.exists()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    form=st.sampled_from(["{a}", "{a}*sin(x1)"]),
    amplitude=log_uniform(-3, 3),
    sign=st.sampled_from([1.0, -1.0]),
    alpha_l=log_uniform(-300, 300),
    tau=signed_log_uniform(-3, 3),
    background=st.one_of(
        st.just("hyperbolic-like"),
        signed_log_uniform(-300, 300).map(lambda kappa: f"spaceform:{kappa!r}"),
    ),
)
def test_manufacture_ends_in_a_documented_exit_code(form, amplitude, sign, alpha_l, tau, background):
    # drawn u_star, alpha_l, tau and background: manufacture writes its
    # package (exit 0) or refuses with one error line and nothing written
    # (exit 2), never a traceback, and raises no warning (the suite turns
    # warnings into errors)
    edits = {
        "0.1*sin(x1)*cos(x2)": form.format(a=sign * amplitude),
        "alpha_l = 1.0": f"alpha_l = {alpha_l!r}",
        "tau = 0.0": f"tau = {tau!r}",
        "hyperbolic-like": background,
    }
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp, "manu")
        text = MANU_CONFIG.format(outdir=outdir)
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = write_config(Path(tmp), text)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["manufacture", str(cfg)])
        assert time.perf_counter() - start < 5.0
        assert code in (0, 2)
        if code == 0:
            assert (outdir / "manufactured.ini").is_file()
        else:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert not outdir.exists()


@pytest.mark.parametrize("key", ["alpha_l", "u_star"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.integers(3, 5), data=st.data())
def test_manufacture_of_drawn_expressions_ends_in_a_documented_exit_code(key, n, data):
    # alpha_l as one or k-1 = 2 drawn expressions of the fieldexpr grammar,
    # each perhaps lifted by a constant term so that some are positive, or
    # u_star as one, at n = 3..5: manufacture writes its package (exit 0) or
    # refuses with one error line and nothing written (exit 2), within 5 s
    if key == "alpha_l":
        entries = [data.draw(field_expression(n))[0] + data.draw(st.sampled_from(["", "+ 1000"]))
                   for _ in range(data.draw(st.integers(1, 2)))]
        text = ", ".join(entries)
    else:
        text = data.draw(field_expression(n))[0]
    old = {"alpha_l": "alpha_l = 1.0", "u_star": "u_star = 0.1*sin(x1)*cos(x2)"}[key]
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp, "manu")
        config = MANU_CONFIG.format(outdir=outdir).replace("n = 3", f"n = {n}").replace(old, f"{key} = {text}")
        cfg = write_config(Path(tmp), config)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["manufacture", str(cfg)])
        assert time.perf_counter() - start < 5.0
        assert code in (0, 2), text
        if code == 0:
            assert (outdir / "manufactured.ini").is_file()
        else:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert not outdir.exists()


@pytest.mark.parametrize("absolute", [False, True])
def test_manufacture_package_finds_a_file_background(tmp_path, monkeypatch, absolute):
    # B = -I as component files beside the config; the package lies in
    # another directory and resolves file: paths against that one
    confdir = tmp_path / "conf"
    confdir.mkdir()
    grid = PeriodicGrid(dim=3, resolution=8)
    for i in range(3):
        for j in range(i, 3):
            write_field(confdir / f"bg_B{i}{j}.ksig", grid, np.full(grid.shape, -float(i == j)))
    prefix = confdir / "bg" if absolute else "bg"
    outdir = tmp_path / "manu"
    text = MANU_CONFIG.format(outdir=outdir).replace("hyperbolic-like", f"file:{prefix}")
    assert main(["manufacture", str(write_config(confdir, text))]) == 0
    package = configparser.ConfigParser(interpolation=None)
    package.read(outdir / "manufactured.ini")
    # a relative prefix is rewritten to resolve from the package, an absolute one kept
    assert package["problem"]["background"] == f"file:{prefix if absolute else '../conf/bg'}"
    monkeypatch.setenv("KSIG_OUTDIR", str(tmp_path / "solved"))
    assert main(["solve", str(outdir / "manufactured.ini")]) == 0
    summary = json.loads((tmp_path / "solved" / "summary.json").read_text())
    assert summary["residual_sup"] <= 1e-9


def test_manufacture_rejects_inadmissible_amplitude(tmp_path, capsys):
    outdir = tmp_path / "manu"
    cfg = write_config(
        tmp_path, MANU_CONFIG.format(outdir=outdir).replace("0.1*sin", "5*sin")
    )
    assert main(["manufacture", str(cfg)]) == 2
    assert "node" in capsys.readouterr().err
    assert not outdir.exists()


def test_manufacture_rejects_tau_at_gating(tmp_path, capsys):
    outdir = tmp_path / "manu"
    cfg = write_config(
        tmp_path, MANU_CONFIG.format(outdir=outdir).replace("tau = 0.0", "tau = 1.5")
    )
    assert main(["manufacture", str(cfg)]) == 2
    assert "tau" in capsys.readouterr().err
    assert not outdir.exists()


def test_manufacture_does_not_report_a_bug_as_invalid_config(tmp_path, monkeypatch):
    # a plain ValueError (say, a broadcast error) from the back-solve is a
    # programming error: it must propagate, not exit 2 as "invalid config"
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(operator, "manufacture_alpha", broken)
    outdir = tmp_path / "manu"
    cfg = write_config(tmp_path, MANU_CONFIG.format(outdir=outdir))
    with pytest.raises(ValueError, match="broadcast"):
        main(["manufacture", str(cfg)])
    assert not outdir.exists()


def test_manufacture_requires_u_star(tmp_path, capsys):
    cfg = default_config(tmp_path)
    assert main(["manufacture", str(cfg)]) == 2
    assert "u_star" in capsys.readouterr().err


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["solve", "manufacture", "verify"])
def test_output_path_that_cannot_be_created_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, under_file
):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    outdir = blocker / "out" if under_file else blocker
    if command == "verify":
        def never(*args, **kwargs):
            raise AssertionError("the lemma suite ran")

        monkeypatch.setattr(monitors, "run_lemma_suite", never)
        argv = ["verify", "--n", "3", "--k", "3", "--out", str(outdir)]
    else:
        text = MANU_CONFIG if command == "manufacture" else BASE_CONFIG
        argv = [command, str(write_config(tmp_path, text.format(outdir=outdir)))]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [lines[0]] and lines[0].startswith("error: cannot create output directory")
    assert str(outdir) in lines[0]
    assert blocker.read_text() == "not a directory"
    assert {p.name for p in tmp_path.iterdir()} <= {"blocker", "run.ini"}  # nothing written


# ---------------------------------------------------------------------------
# report


def solved_run(tmp_path):
    cfg = default_config(tmp_path)
    assert main(["solve", str(cfg)]) == 0
    return tmp_path / "out"


def test_report_renders_three_charts(tmp_path):
    rundir = solved_run(tmp_path)
    assert main(["report", str(rundir)]) == 0
    blobs = {name: (rundir / name).read_bytes() for name in CHARTS}
    for name, blob in blobs.items():
        assert blob.startswith(b"<svg"), name
    # idempotent: rerunning reproduces every byte
    assert main(["report", str(rundir)]) == 0
    for name in CHARTS:
        assert (rundir / name).read_bytes() == blobs[name], name


def test_report_reproduces_the_charts_of_solve(tmp_path):
    # solve draws from its in-memory reports, report from the saved CSV
    # alone; both go through one renderer, so the bytes agree
    rundir = solved_run(tmp_path)
    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / "monitors.csv").write_bytes((rundir / "monitors.csv").read_bytes())
    assert main(["report", str(copy)]) == 0
    for name in CHARTS:
        assert (copy / name).read_bytes() == (rundir / name).read_bytes(), name


def test_report_missing_csv(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "monitors.csv" in capsys.readouterr().err


def test_report_empty_csv(tmp_path, capsys):
    (tmp_path / "monitors.csv").write_text("")
    assert main(["report", str(tmp_path)]) == 2
    assert "no data" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make, needle",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"t,\xff\n"), "codec can't decode"),
        (lambda path: path.write_text(""), "no data rows"),
        (lambda path: path.write_text(",".join(CSV_FIELDS) + "\n\n"), "no data rows"),
    ],
    ids=["missing", "directory", "not-utf8", "empty", "header-only"],
)
def test_report_refuses_an_unreadable_or_empty_monitors_csv(tmp_path, capsys, make, needle):
    # read_monitor_csv is the one gate on the file: each of these is bad
    # input, named on one error line, and no chart is written
    csv_path = tmp_path / "monitors.csv"
    make(csv_path)
    assert main(["report", str(tmp_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(csv_path) in line and needle in line
    assert not list(tmp_path.glob("*.svg"))


def test_report_malformed_csv(tmp_path, capsys):
    (tmp_path / "monitors.csv").write_text("bogus,header\n1,2\n")
    assert main(["report", str(tmp_path)]) == 2
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        "0.0,0.0,0.0,3",
        ",".join(["0.0"] * len(CSV_FIELDS)) + ",3",
        ",".join(["x"] + ["0.0"] * (len(CSV_FIELDS) - 2)) + ",3",
        ",".join(["0.0"] * (len(CSV_FIELDS) - 1)) + ",1.5",
    ],
    ids=["short", "long", "float", "int"],
)
def test_report_torn_csv_row(tmp_path, capsys, row):
    (tmp_path / "monitors.csv").write_text(f"{','.join(CSV_FIELDS)}\n{row}\n")
    assert main(["report", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("line", [1, 2])
def test_report_csv_field_over_the_csv_size_limit(tmp_path, capsys, line):
    # csv refuses a field of more than 131072 characters, in the header or
    # in a row: bad input, named with its file and line
    huge = "1" * 200_000
    row = ",".join([huge] + ["0.0"] * (len(CSV_FIELDS) - 1))
    csv_path = tmp_path / "monitors.csv"
    csv_path.write_text(f"{huge}\n" if line == 1 else f"{','.join(CSV_FIELDS)}\n{row}\n")
    assert main(["report", str(tmp_path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"error: {csv_path}: line {line}: field larger than field limit (131072)"
    assert not list(tmp_path.glob("*.svg"))


def test_report_csv_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "monitors.csv").write_bytes(b"\xff\xfe garbage\n")
    assert main(["report", str(tmp_path)]) == 2
    assert "codec can't decode" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg"))


def test_report_does_not_report_a_bug_as_invalid_input(tmp_path, monkeypatch):
    # only an InputError is bad input; a plain ValueError from the reader
    # is a programming error and must propagate
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(monitors, "read_monitor_csv", broken)
    (tmp_path / "monitors.csv").write_text(f"{','.join(CSV_FIELDS)}\n")
    with pytest.raises(ValueError, match="broadcast"):
        main(["report", str(tmp_path)])
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("value", ["9007199254740996.0", "1e308"])
def test_report_charts_one_row_of_values_past_the_flat_pad(tmp_path, value):
    # one row makes every axis flat, and a flat axis is padded by 1 on both
    # sides; 2**53 + 4 +- 1 rounds back to 2**53 + 4, and the chart divided
    # by a zero span
    row = ",".join([value] * (len(CSV_FIELDS) - 1) + ["3"])
    (tmp_path / "monitors.csv").write_text(f"{','.join(CSV_FIELDS)}\n{row}\n")
    assert main(["report", str(tmp_path)]) == 0
    for name in CHARTS:
        assert "nan" not in (tmp_path / name).read_text(), name


@pytest.mark.parametrize(
    "columns",
    [[["1.7976931348623157e308"]], [["-1e308"], ["1e308"]]],
    ids=["float-max", "across-the-float-range"],
)
def test_report_charts_values_near_the_float_limit_with_finite_coordinates(tmp_path, columns):
    # an axis span hi - lo, or a flat axis's padded end, past the float range
    # gave inf / inf = nan coordinates and tick labels
    rows = [",".join(value * (len(CSV_FIELDS) - 1) + ["3"]) for value in columns]
    (tmp_path / "monitors.csv").write_text("\n".join([",".join(CSV_FIELDS), *rows]) + "\n")
    assert main(["report", str(tmp_path)]) == 0
    for name in CHARTS:
        text = (tmp_path / name).read_text()
        assert "nan" not in text and "inf" not in text, name


# numbers at the edges of the float range and past it; fields that are no
# number: text, blanks, NUL and digits past int()'s 4300-digit limit
_csv_number = st.one_of(
    st.floats().map(repr), st.sampled_from(["1e308", "-1e308", "1e999", "nan", "-inf", "5e-324", "9" * 400])
)
_csv_field = st.one_of(
    _csv_number, st.integers().map(str), st.text(max_size=6), st.sampled_from(["", " ", "\x00", "7" * 5000])
)
# the shape of a MonitorReport row, whose numbers may still be anything
_csv_report_row = st.tuples(*[_csv_number] * (len(CSV_FIELDS) - 1), st.integers(0, 50).map(str)).map(list)
_csv_any_row = st.lists(_csv_field, max_size=len(CSV_FIELDS) + 1)


@st.composite
def monitor_csv_bytes(draw):
    """monitors.csv bytes: the header, then rows that may hold the wrong
    number of fields, NUL bytes, huge numbers or text that is not UTF-8,
    and the whole maybe torn or spliced with drawn bytes."""
    row_strategy = _csv_report_row if draw(st.booleans()) else st.one_of(_csv_report_row, _csv_any_row)
    rows = [list(CSV_FIELDS), *draw(st.lists(row_strategy, max_size=5))]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # a lone surrogate encodes to bytes that are not UTF-8
    data = newline.join(",".join(row) for row in rows).encode("utf-8", "surrogatepass")
    damage = draw(st.sampled_from(["none", "none", "tear", "splice"]))
    if damage == "none":
        return data
    at = draw(st.integers(0, len(data)))
    return data[:at] if damage == "tear" else data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=monitor_csv_bytes())
def test_report_ends_in_a_documented_exit_code(data):
    # drawn monitors.csv bytes: report draws its three charts (exit 0) or
    # refuses with one error line and no chart written (exit 2), never a
    # traceback, and raises no warning; every coordinate and tick label of
    # a chart is finite; 150 examples take about 2 s
    with tempfile.TemporaryDirectory() as tmp:
        rundir = Path(tmp)
        (rundir / "monitors.csv").write_bytes(data)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", str(rundir)])
        assert time.perf_counter() - start < 2.0
        assert code in (0, 2)
        if code == 0:
            for name in CHARTS:
                text = (rundir / name).read_text()
                assert "nan" not in text and "inf" not in text, name
        else:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert not list(rundir.glob("*.svg"))


def test_report_without_summary_still_renders(tmp_path):
    rundir = solved_run(tmp_path)
    (rundir / "summary.json").unlink()
    (rundir / "residual.svg").unlink()
    assert main(["report", str(rundir)]) == 0
    assert (rundir / "residual.svg").is_file()


# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ksig" in capsys.readouterr().out


def test_main_keeps_the_heap_before_the_command_runs(tmp_path, monkeypatch):
    # main first asks the C library for mallopt(M_TRIM_THRESHOLD, -1) and
    # mallopt(M_MMAP_THRESHOLD, 32 MiB), then runs the command
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name):
        assert name is None
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append("verify") or 0)
    assert main(["verify", "--n", "3", "--k", "3", "--out", str(tmp_path)]) == 0
    assert calls == [(-1, -1), (-3, 32 << 20), "verify"]


def library_without_mallopt(name):
    return types.SimpleNamespace()


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


def library_without_a_name(name):  # as CDLL(None) on Windows
    raise TypeError("argument of type 'NoneType' is not iterable")


@pytest.mark.parametrize(
    "cdll",
    [library_without_mallopt, no_library, library_without_a_name],
    ids=["no-mallopt", "no-library", "no-name"],
)
def test_main_runs_without_glibc_mallopt(tmp_path, capsys, monkeypatch, cdll):
    # where the C library has no mallopt, main runs as before: the command
    # succeeds with nothing on stderr, bad input still exits 2, and a
    # program error still propagates
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["verify", "--n", "3", "--k", "3", "--samples", "50", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", "--n", "6", "--k", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: need 3 <= k <= n <= 5")

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(monitors, "run_lemma_suite", broken)
    with pytest.raises(RuntimeError, match="boom"):
        main(["verify", "--n", "3", "--k", "3", "--out", str(tmp_path)])


def test_main_lets_other_library_errors_propagate(tmp_path, monkeypatch):
    # only a library that cannot be opened or has no mallopt is a platform
    # without it
    def broken(name):
        raise RuntimeError("boom")

    monkeypatch.setattr(ctypes, "CDLL", broken)
    with pytest.raises(RuntimeError, match="boom"):
        main(["verify", "--n", "3", "--k", "3", "--out", str(tmp_path)])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_later_solves_in_one_process_reuse_the_heap(tmp_path):
    # the README problem at n = k = 3, N = 32, solved three times by main in
    # a fresh interpreter: the second and third solves reuse the heap the
    # first grew.  A heap returned to the system after every Newton step and
    # faulted back by the next reads about 3 500 minor faults a solve (the
    # second alone can read a dozen, by the layout the first leaves), a kept
    # one a handful; the whole test takes about 1 s
    cfg = default_config(tmp_path, **{"resolution = 8": "resolution = 32"})
    code = (
        "import contextlib, io, resource\n"
        "from ksig.cli import main\n"
        "def solve():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(['solve', {str(cfg)!r}]) == 0\n"
        "solve()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "solve()\n"
        "solve()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        timeout=60,
    )
    assert int(out.stdout) < 1000


SMOKE = Path(__file__).parents[1] / ".github" / "smoke.sh"
SMOKE_CALLS = [
    "--version",
    "verify --n 3 --k 3 --samples 200 --out {out}/v33",
    "verify --n 5 --k 5 --samples 200 --out {out}/v55",
    "solve {out}/spaceform.ini",
    "report {out}/s",
    "solve {out}/hard.ini",
    "report {out}/h",
    "manufacture {out}/manufacture.ini",
    "solve manufactured.ini",
    "report manufactured-run",
    "manufacture stencil.ini",
    "solve manufactured.ini",
    "report manufactured-run",
]


@pytest.mark.parametrize("failing", [None, "solve"])
def test_smoke_script_runs_every_step_and_stops_at_a_failing_one(tmp_path, failing):
    # CI's console-script steps, through a `ksig` on PATH that runs
    # python -m ksig and logs its arguments; with `failing`, that subcommand
    # exits 3, and the script must exit non-zero with no later call
    bin_dir, log, out = tmp_path / "bin", tmp_path / "calls.log", tmp_path / "out"
    bin_dir.mkdir()
    shim = bin_dir / "ksig"
    fail = f'[ "$1" = {failing} ] && exit 3\n' if failing else ""
    shim.write_text(f'#!/bin/sh\necho "$*" >> "{log}"\n{fail}exec "{sys.executable}" -m ksig "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        "PYTHONPATH": str(Path(cli.__file__).parents[1]),
    }
    done = subprocess.run(
        ["sh", str(SMOKE), str(out)], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    calls = log.read_text().splitlines()
    expected = [c.format(out=out) for c in SMOKE_CALLS]
    if failing is None:
        assert done.returncode == 0, done.stderr
        assert calls == expected
        for run in ("s", "h", "m/manufactured-run", "m/stencil/manufactured-run"):
            assert json.loads((out / run / "summary.json").read_text())["t_final"] == 1.0
            assert all((out / run / chart).is_file() for chart in CHARTS)
    else:
        assert done.returncode != 0
        assert calls == expected[: expected.index(f"solve {out}/spaceform.ini") + 1]


def test_workflow_runs_ksig_only_through_the_smoke_script():
    # both CI jobs run the smoke script, and no other step calls ksig
    workflow = (SMOKE.parent / "workflows" / "tier1.yml").read_text()
    assert workflow.count('- run: sh .github/smoke.sh "$RUNNER_TEMP/smoke"') == 2
    steps = [line for line in workflow.splitlines() if not line.lstrip().startswith("#")]
    assert not [line for line in steps if re.search(r"\bksig\b", line)]
