"""End-to-end command-line tests: exit codes, artifact layout, gating with
no partial output, and byte-level reproducibility of reruns."""

import configparser
import json
import re
from dataclasses import fields
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from ksig import geometry, runconfig, solver
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
    assert set(config["solver"]) == {"residual_tol", "max_newton", "dt_init", "dt_min"}
    assert set(config["output"]) == {"directory"}
    assert "version" in summary
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
    ],
)
def test_solve_gating_rejects_and_writes_nothing(tmp_path, capsys, edit, needle):
    # no warning is raised on the way: stderr is the error line alone
    cfg = default_config(tmp_path, **edit)
    assert main(["solve", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and needle in line
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
max_newton = 7
dt_init = 0.3
dt_min = 0.001

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
        (
            "[problem]\nn = 3\nk = 3\n[solver]\nmax_newton = 2.5\n",
            "[solver] max_newton = '2.5': invalid literal for int() with base 10: '2.5'",
        ),
        (
            "[problem]\nn = 3\nk = 3\n[solver]\ndt_init = 1e-5\n",
            "[solver]: need 0 < dt_min < dt_init <= 1",
        ),
    ],
)
def test_config_errors_name_the_section_and_key(tmp_path, text, message):
    cfg = write_config(tmp_path, text)
    with pytest.raises(runconfig.ConfigError) as exc:
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

    monkeypatch.setattr(geometry, "validate_hypotheses", broken)
    cfg = default_config(tmp_path)
    with pytest.raises(ValueError, match="broadcast"):
        main(["solve", str(cfg)])
    assert not (tmp_path / "out").exists()


def test_solve_validates_hypotheses_once(tmp_path, monkeypatch):
    calls = []
    validate = geometry.validate_hypotheses

    def counted(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    # also any binding the solver may import under the same name
    monkeypatch.setattr(geometry, "validate_hypotheses", counted)
    monkeypatch.setattr(solver, "validate_hypotheses", counted, raising=False)
    assert main(["solve", str(default_config(tmp_path))]) == 0
    assert len(calls) == 1


def test_solve_stall_exits_3_and_persists_state(tmp_path, capsys):
    cfg = default_config(
        tmp_path,
        **{
            "[output]": "[solver]\nmax_newton = 1\ndt_init = 0.2\ndt_min = 0.15\n\n[output]",
        },
    )
    assert main(["solve", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "continuation stalled at t=0.0: step below dt_min=0.15" in err
    assert "iteration limit 1 at t=0.2" in err  # the last rejected step's note
    out = tmp_path / "out"
    assert (out / "u_final.ksig").is_file()  # the anchor state was kept
    for name in ("monitors.csv", *CHARTS):  # a stall writes the full artifact set
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stalled"] is True
    assert summary["t_final"] == 0.0
    # the whole-path attempt, then one step of dt_init, each spending its
    # one allowed Newton iteration
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
    assert lines[0].startswith("error: continuation stalled at t=0.0: step below dt_min=0.0001")
    assert "2-norm overflows" in lines[0]
    assert lines[1] == f"last accepted state written to {out}"
    _, u = read_field(out / "u_final.ksig")
    assert not u.any()  # the anchor u = 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stalled"] is True and summary["t_final"] == 0.0
    assert summary["rejected_steps"] == len(summary["rejected"]) > 1
    assert all("2-norm overflows" in rec["note"] for rec in summary["rejected"])
    assert summary["linear_iterations"] == 0


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

    monkeypatch.setattr(solver, "manufacture_alpha", broken)
    outdir = tmp_path / "manu"
    cfg = write_config(tmp_path, MANU_CONFIG.format(outdir=outdir))
    with pytest.raises(ValueError, match="broadcast"):
        main(["manufacture", str(cfg)])
    assert not outdir.exists()


def test_manufacture_requires_u_star(tmp_path, capsys):
    cfg = default_config(tmp_path)
    assert main(["manufacture", str(cfg)]) == 2
    assert "u_star" in capsys.readouterr().err


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


def test_report_malformed_csv(tmp_path, capsys):
    (tmp_path / "monitors.csv").write_text("bogus,header\n1,2\n")
    assert main(["report", str(tmp_path)]) == 2
    assert "header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row", ["0.0,0.0,0.0,3", ",".join(["0.0"] * len(CSV_FIELDS)) + ",3"], ids=["short", "long"]
)
def test_report_torn_csv_row(tmp_path, capsys, row):
    (tmp_path / "monitors.csv").write_text(f"{','.join(CSV_FIELDS)}\n{row}\n")
    assert main(["report", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.svg"))


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
