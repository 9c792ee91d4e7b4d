"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured numbers.  Tolerances and runtime budgets
are part of the criteria and asserted, not advisory."""

import json
import time
from textwrap import dedent

import numpy as np

from conftest import admissible_state, l2_norm, linearize, make_problem, trivial_problem
from ksig import geometry, monitors, operator, solver
from ksig.cli import main
from ksig.fieldexpr import analytic_jet
from ksig.grid import PeriodicGrid, read_field, sup_norm, write_field

CONE_PAIRS = ((3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5))


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def make_grid(n=3, N=16):
    return PeriodicGrid(dim=n, resolution=N)


def coordinate_field(grid, axis):
    return grid.coordinate(axis) + np.zeros(grid.shape)


def default_problem(grid, k=3):
    return make_problem(grid, k=k, alpha=0.2 * np.sin(coordinate_field(grid, 0)))


def test_criterion_1_inequality_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    failed = []
    for n, k in CONE_PAIRS:
        result = monitors.run_lemma_suite(n, k, samples=10_000, seed=42)
        worst = max(worst, max(c.max_violation for c in result.checks))
        failed += [f"({n},{k}):{c.name}" for c in result.checks if not c.passed]
    elapsed = time.perf_counter() - t0
    ok = not failed and worst <= 1e-10 and elapsed <= 60.0
    verdict(
        capsys, 1, "inequality suite", ok,
        f"6 cone pairs x 10000 samples, worst violation {worst:.2e}, {elapsed:.1f}s",
    )
    assert not failed, failed
    assert worst <= 1e-10
    assert elapsed <= 60.0


def test_criterion_2_linearization(capsys):
    t0 = time.perf_counter()
    grid = make_grid(3, 16)
    problem = default_problem(grid)
    rng = np.random.default_rng(2024)
    eps = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        u = rng.uniform(0.01, 0.08) * np.sin(coordinate_field(grid, 0)) * np.cos(
            rng.integers(1, 3) * coordinate_field(grid, 1)
        )
        t = float(rng.uniform(0.0, 1.0))
        v = rng.standard_normal(grid.shape)
        lin = linearize(u, t, v, problem)
        fd = (
            admissible_state(u + eps * v, t, problem).residual
            - admissible_state(u - eps * v, t, problem).residual
        ) / (2.0 * eps)
        worst_rel = max(worst_rel, l2_norm(grid, lin - fd) / max(1.0, l2_norm(grid, fd)))
    # constant direction at the anchor: pure zeroth-order response, known exactly
    const = linearize(grid.zeros(), 0.0, np.ones(grid.shape), trivial_problem(grid, 3))
    const_dev = float(np.abs(const + 1.5).max())
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and const_dev <= 1e-12 and elapsed <= 30.0
    verdict(
        capsys, 2, "linearization", ok,
        f"20 states worst rel {worst_rel:.2e}, constant-direction dev {const_dev:.1e}, {elapsed:.1f}s",
    )
    assert worst_rel <= 1e-5
    assert const_dev <= 1e-12
    assert elapsed <= 30.0


def test_criterion_3_trivial_anchor(capsys):
    rot = np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    grid = make_grid(3, 16)
    wiggle = -(1.0 + 0.2 * np.sin(coordinate_field(grid, 0)))
    backgrounds = [
        trivial_problem(grid, 3, tau=0.0),
        trivial_problem(grid, 3, tau=0.5),
        trivial_problem(grid, 3, tau=0.2, B=rot @ np.diag([-1.3, -0.9, -0.7]) @ rot.T),
        trivial_problem(grid, 3, tau=0.0, B=geometry.spaceform_schouten(-1.0, 3, 0.0)),
        trivial_problem(grid, 3, tau=0.0, B=wiggle[..., None, None] * np.eye(3)),
    ]
    cfg = solver.SolverConfig()
    worst_anchor = 0.0
    for problem in backgrounds:
        r = admissible_state(grid.zeros(), 0.0, problem).residual
        worst_anchor = max(worst_anchor, sup_norm(r))
    # perturb off the root and watch Newton walk back
    res = solver.newton_solve_at_t(
        0.01 * np.sin(coordinate_field(grid, 0)), 0.0, trivial_problem(grid, 3), cfg
    )
    returned = sup_norm(res.u)
    ok = worst_anchor <= 1e-12 and returned <= 1e-8
    verdict(
        capsys, 3, "trivial anchor", ok,
        f"{len(backgrounds)} backgrounds worst residual {worst_anchor:.1e}, "
        f"Newton returns to sup|u| = {returned:.1e} in {res.iterations} iters",
    )
    assert worst_anchor <= 1e-12
    assert returned <= 1e-8


def test_criterion_4_manufactured_convergence(capsys):
    t0 = time.perf_counter()
    cfg = solver.SolverConfig()
    errs = {}
    for N in (16, 32):
        grid = make_grid(3, N)
        jet = analytic_jet("0.1*sin(x1)*cos(x2)", grid)
        problem = operator.manufacture_alpha(jet.value, make_problem(grid), jet=jet)
        res = solver.newton_solve_at_t(jet.value, 1.0, problem, cfg)
        errs[N] = sup_norm(res.u - jet.value)
    order = float(np.log2(errs[16] / errs[32]))
    elapsed = time.perf_counter() - t0
    ok = 1.8 <= order <= 2.2 and elapsed <= 300.0
    verdict(
        capsys, 4, "manufactured convergence", ok,
        f"sup errors N16 {errs[16]:.3e} / N32 {errs[32]:.3e}, order {order:.3f}, {elapsed:.1f}s",
    )
    assert 1.8 <= order <= 2.2, errs
    assert elapsed <= 300.0


def test_criterion_5_continuation_to_t1(capsys, march):
    t0 = time.perf_counter()
    grid = make_grid(3, 16)
    problem = default_problem(grid)  # B = -identity
    cfg = solver.SolverConfig()
    _, last, reports = march(problem, cfg)
    elapsed = time.perf_counter() - t0
    # the cone margin is the node-wise minimum over sigma_1..sigma_{k-1},
    # so margin >= 1e-10 bounds sigma_{k-1} away from zero as well
    margins = min(r.cone_margin for r in reports)
    eigs = min(r.min_eig_Gij for r in reports)
    slack = min(r.eq33_slack for r in reports)
    ok = (
        last.t == 1.0
        and last.residual_norm <= 1e-9
        and margins >= 1e-10
        and eigs > 0.0
        and slack >= -1e-8
        and elapsed <= 180.0
    )
    verdict(
        capsys, 5, "continuation to t=1", ok,
        f"{len(reports)} steps, final residual {last.residual_norm:.2e}, "
        f"min margin {margins:.2e}, min eig {eigs:.2e}, min slack {slack:.2e}, {elapsed:.1f}s",
    )
    assert last.t == 1.0
    assert last.residual_norm <= 1e-9
    assert margins > 0.0 and margins >= 1e-10
    assert eigs > 0.0
    assert slack >= -1e-8
    assert elapsed <= 180.0


GATING_CONFIG = """\
[problem]
n = 3
k = 3
tau = {tau}
resolution = 8
background = {background}
alpha = 0
alpha_l = {alpha_l}

[output]
directory = {outdir}
"""


def test_criterion_6_hypothesis_gating(capsys, tmp_path):
    cases = [
        ({"tau": "1.5", "background": "hyperbolic-like", "alpha_l": "1"}, "tau"),
        ({"tau": "0.0", "background": "hyperbolic-like", "alpha_l": "0.0, 1.0"}, "alpha_0"),
        ({"tau": "0.0", "background": "spaceform:1.0", "alpha_l": "1"}, "Gamma_3"),
    ]
    results = []
    for i, (fields, needle) in enumerate(cases):
        outdir = tmp_path / f"case{i}"
        cfg = tmp_path / f"case{i}.ini"
        cfg.write_text(dedent(GATING_CONFIG.format(outdir=outdir, **fields)))
        code = main(["solve", str(cfg)])
        err = capsys.readouterr().err
        results.append((code == 2, needle in err, not outdir.exists()))
    ok = all(all(flags) for flags in results)
    verdict(
        capsys, 6, "hypothesis gating", ok,
        "3 invalid configs -> exit 2, named hypothesis, no partial output"
        if ok else f"flags {results}",
    )
    for flags, (_, needle) in zip(results, cases):
        code_ok, msg_ok, clean_ok = flags
        assert code_ok and msg_ok and clean_ok, (needle, flags)


def test_criterion_7_determinism_and_io(capsys, tmp_path, monkeypatch):
    cfgtext = dedent(
        GATING_CONFIG.format(
            tau="0.0", background="hyperbolic-like", alpha_l="1", outdir=tmp_path / "unused"
        )
    ).replace("alpha = 0", "alpha = 0.2*sin(x1)")
    cfg = tmp_path / "run.ini"
    cfg.write_text(cfgtext)
    dirs = []
    for name in ("a", "b"):
        target = tmp_path / name
        monkeypatch.setenv("KSIG_OUTDIR", str(target))
        assert main(["solve", str(cfg)]) == 0
        assert main(["verify", "--n", "3", "--k", "3", "--samples", "2000"]) == 0
        dirs.append(target)
    capsys.readouterr()
    a, b = dirs
    same = {}
    for name in ("u_final.ksig", "monitors.csv", "residual.svg", "estimates.svg", "cone_margin.svg", "lemmas.json"):
        same[name] = (a / name).read_bytes() == (b / name).read_bytes()
    # timings are measured wall-clock and the one field reruns may not repeat;
    # everything else in the summary must serialize identically
    summaries = []
    for d in dirs:
        blob = json.loads((d / "summary.json").read_text())
        blob.pop("timings")
        summaries.append(json.dumps(blob, sort_keys=True))
    same["summary.json"] = summaries[0] == summaries[1]
    # round-trip: bytes -> array -> bytes with nothing lost
    grid, values = read_field(a / "u_final.ksig")
    copy_path = tmp_path / "copy.ksig"
    write_field(copy_path, grid, values)
    same["round-trip"] = copy_path.read_bytes() == (a / "u_final.ksig").read_bytes()
    ok = all(same.values())
    verdict(
        capsys, 7, "determinism and field I/O", ok,
        "rerun byte-identical, round-trip exact" if ok
        else f"mismatches: {[k for k, v in same.items() if not v]}",
    )
    assert all(same.values()), same
