"""Monitor snapshots, the CSV trace format and the randomized lemma suite."""

import warnings

import numpy as np
import pytest

from conftest import make_problem
from ksig import InputError, cones, monitors, operator, sampling, solver
from ksig.grid import PeriodicGrid

EXPECTED_CHECKS = {
    "sigma_recursion_vs_enumeration",
    "cone_nesting",
    "gamma2_pinching",
    "quotient_monotone_add_psd",
    "power_ratio_monotone_add_psd",
    "quotient_monotone_subtract_psd",
    "power_ratio_monotone_subtract_psd",
    "quotient_midpoint_concavity",
    "quotient_superadditivity",
    "newton_maclaurin_bound",
    "newton_maclaurin_equality_at_e",
    "weighted_gradient_spd",
    "quotient_trace_lower_bound",
    "quotient_euler_identity",
}


def anchor_setup(n=3, k=3, N=8):
    grid = PeriodicGrid(dim=n, resolution=N)
    c = cones.homotopy_constant(n, k)
    return grid, make_problem(grid, k=k, alpha_l=np.full((k - 1,) + grid.shape, c))


# ---------------------------------------------------------------------------
# snapshot


def test_anchor_snapshot_frozen_values():
    # at u=0, t=0, n=k=3: U=I, beta=c=1/4, so
    #   margin  = min(sigma_1, sigma_2)(e) = 3
    #   G^{ij}  = (T_2 - c T_0)/sigma_2 = (1 - 1/4)/3 I = I/4
    #   quotient gradient trace = (3*3 - 1*6)/9 = 1/3 = (n-k+1)/k -> slack 0
    #   ratios  = {sigma_0, sigma_1}/sigma_2 = {1/3, 1} -> max 1
    #   eq33    = trace(G) + 0 = 3/4
    grid, problem = anchor_setup()
    state = operator.evaluate(grid.zeros(), 0.0, problem)
    rep = monitors.snapshot_point(state, problem, newton_iters=2)
    assert rep.t == 0.0
    assert rep.sup_u == 0.0 and rep.sup_grad_u == 0.0 and rep.sup_lap_u == 0.0
    assert rep.cone_margin == 3.0
    assert abs(rep.min_eig_Gij - 0.25) <= 1e-14
    assert abs(rep.trace_slack) <= 1e-12
    assert abs(rep.max_sigma_ratio - 1.0) <= 1e-14
    assert abs(rep.eq33_slack - 0.75) <= 1e-14
    assert rep.residual == 0.0
    assert rep.newton_iters == 2


def test_snapshot_no_warning_on_admissible_run():
    grid, problem = anchor_setup()
    state = operator.evaluate(grid.zeros(), 0.0, problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monitors.snapshot_point(state, problem, 0)


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)])
def test_quotient_trace_identity_matches_explicit_gradient(n, k):
    # tr T_j = (n-j) sigma_j turns the trace of the quotient gradient into sigmas
    rng = sampling.generator(900 + 10 * n + k)
    M = sampling.gamma_matrices(rng, 2000, n, k - 1, margin=1e-6)
    ev = cones.quotient_eval(M, k, 0.0)
    explicit = np.trace(ev.grad, axis1=-2, axis2=-1)
    got = monitors._quotient_trace(ev.sigma, n, k)
    assert np.all(np.abs(got - explicit) <= 1e-12 * np.maximum(1.0, np.abs(explicit)))


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_header_is_stable():
    assert (
        ",".join(monitors.CSV_FIELDS)
        == "t,sup_u,sup_grad_u,sup_lap_u,cone_margin,min_eig_Gij,trace_slack,"
        "max_sigma_ratio,eq33_slack,residual,newton_iters"
    )


def test_monitor_csv_roundtrip(tmp_path, march):
    grid = PeriodicGrid(dim=3, resolution=8)
    cfg = solver.SolverConfig()
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    reports = march(make_problem(grid, alpha=0.2 * np.sin(x1)), cfg).reports
    path = tmp_path / "monitors.csv"
    monitors.write_monitor_csv(path, reports)
    back = monitors.read_monitor_csv(path)
    assert back == list(reports)  # repr round-trips doubles exactly
    # rewriting must be byte-identical
    path2 = tmp_path / "again.csv"
    monitors.write_monitor_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_monitor_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        monitors.read_monitor_csv(path)


def test_monitor_csv_empty_file_gives_no_reports(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InputError, match="no data rows"):
        monitors.read_monitor_csv(path)


# ---------------------------------------------------------------------------
# lemma suite


def test_lemma_suite_passes_and_lists_all_checks():
    result = monitors.run_lemma_suite(3, 3, samples=2000, seed=42)
    assert {c.name for c in result.checks} == EXPECTED_CHECKS
    assert result.all_passed
    for check in result.checks:
        assert check.max_violation <= check.tolerance, check


def test_lemma_suite_equality_at_e_is_exact():
    result = monitors.run_lemma_suite(3, 3, samples=100, seed=1)
    by_name = {c.name: c for c in result.checks}
    assert by_name["newton_maclaurin_equality_at_e"].max_violation == 0.0


def test_lemma_suite_includes_boundary_pool():
    result = monitors.run_lemma_suite(3, 3, samples=2000, seed=3)
    by_name = {c.name: c for c in result.checks}
    # pools that concatenate adversarial draws report more samples than asked
    assert by_name["newton_maclaurin_bound"].samples > 2000
    assert by_name["weighted_gradient_spd"].samples > 2000


def test_lemma_suite_reproducible():
    a = monitors.run_lemma_suite(4, 3, samples=1500, seed=99)
    b = monitors.run_lemma_suite(4, 3, samples=1500, seed=99)
    assert a.to_dict() == b.to_dict()
    c = monitors.run_lemma_suite(4, 3, samples=1500, seed=100)
    assert a.to_dict() != c.to_dict()


def test_lemma_suite_result_serializes():
    result = monitors.run_lemma_suite(3, 3, samples=100, seed=5)
    d = result.to_dict()
    assert d["n"] == 3 and d["k"] == 3 and d["seed"] == 5
    assert d["all_passed"] is True
    assert len(d["checks"]) == len(EXPECTED_CHECKS)
    import json

    json.dumps(d)  # must be JSON-clean
