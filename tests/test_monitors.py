"""Monitor snapshots, the CSV trace format and the randomized lemma suite."""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_state, make_problem, trivial_problem
from ksig import InputError, cones, monitors, operator, runconfig, sampling, solver
from ksig.grid import PeriodicGrid, mirror

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


# ---------------------------------------------------------------------------
# snapshot


def test_anchor_snapshot_frozen_values():
    # at u=0, t=0, n=k=3: U=I, beta=c=1/4, so
    #   margin  = min(sigma_1, sigma_2)(e) = 3
    #   G^{ij}  = (T_2 - c T_0)/sigma_2 = (1 - 1/4)/3 I = I/4
    #   quotient gradient trace = (3*3 - 1*6)/9 = 1/3 = (n-k+1)/k -> slack 0
    #   ratios  = {sigma_0, sigma_1}/sigma_2 = {1/3, 1} -> max 1
    #   eq33    = trace(G) + 0 = 3/4
    grid = PeriodicGrid(dim=3, resolution=8)
    problem = trivial_problem(grid, 3)
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


def test_residual_and_eq33_add_the_forcing_term():
    # at t > 0 both F and eq33's contraction G^{ij} U_ij gain t alpha e^{2u},
    # written out here for eq33
    grid = PeriodicGrid(dim=3, resolution=8)
    x1 = grid.coordinate(0)
    alpha = 0.3 * np.sin(x1)
    problem = make_problem(grid, alpha=alpha)
    u = grid.zeros() + 0.1 * np.sin(x1) * np.cos(grid.coordinate(1))
    state = admissible_state(u, 0.5, problem)
    assert state.residual.tobytes() == (state.value + operator.forcing(problem, u, 0.5)).tobytes()
    eq33 = np.einsum("...ij,...ij->...", state.grad, state.U) + 0.5 * alpha * np.exp(2.0 * u)
    assert monitors.snapshot_point(state, problem, 0).eq33_slack == float(eq33.min())


def test_snapshot_no_warning_on_admissible_run():
    grid = PeriodicGrid(dim=3, resolution=8)
    problem = trivial_problem(grid, 3)
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
# the smallest eigenvalue of G^{ij} over the grid


def full_min_eigenvalue(grad):
    """The grid minimum from eigvalsh at every node."""
    return float(np.linalg.eigvalsh(grad)[..., 0].min())


def node_major(planes):
    """Component planes (n, n, *shape), upper triangle mirrored onto the
    lower, seen as (*shape, n, n), the layout quotient_eval leaves G in."""
    mirror(planes)
    return np.moveaxis(planes, (0, 1), (-2, -1))


@st.composite
def matrix_field(draw):
    """Symmetric n x n matrices on a 4^n grid, n = 3..5, of a drawn kind,
    scaled by 10^-8..10^8: one constant matrix; the same with one node's
    entry moved by one ulp; a matrix per x1 slice, so that many nodes are
    bitwise equal; a diagonally dominant constant plus small noise per node;
    independent indefinite matrices; or zeros, a few of them -0.0."""
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["constant", "one ulp", "x1 only", "near-constant", "indefinite", "zero"]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, n) + (4,) * n
    if kind == "zero":
        planes = np.where(rng.uniform(size=shape) < 0.01, -0.0, 0.0)
    elif kind == "indefinite":
        planes = rng.uniform(-1.0, 1.0, shape)
    elif kind == "x1 only":
        planes = np.broadcast_to(rng.uniform(-1.0, 1.0, (n, n, 4) + (1,) * (n - 1)), shape).copy()
    else:
        base = np.eye(n) + 0.1 * rng.uniform(-1.0, 1.0, (n, n))
        planes = np.broadcast_to(base.reshape((n, n) + (1,) * n), shape).copy()
        if kind == "near-constant":
            planes += 1e-6 * rng.uniform(-1.0, 1.0, shape)
    planes *= scale
    if kind == "one ulp":
        a, b = sorted(rng.integers(0, n, 2))
        at = (a, b) + tuple(rng.integers(0, 4, n))
        planes[at] = np.nextafter(planes[at], draw(st.sampled_from([-np.inf, np.inf])))
    return node_major(planes)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(grad=matrix_field())
def test_min_eigenvalue_is_the_full_grid_minimum(grad):
    # eigvalsh on the pruned nodes gives the float eigvalsh on every node gives
    want = full_min_eigenvalue(grad)
    got = monitors._min_eigenvalue(grad)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert repr(got) == repr(want)


def outcome(min_eigenvalue, grad):
    """repr of min_eigenvalue(grad), or of the exception it raises."""
    try:
        return repr(min_eigenvalue(grad))
    except np.linalg.LinAlgError as exc:
        return repr(exc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (1, 2), (2, 1)], ids=["diagonal", "upper", "lower"])
def test_min_eigenvalue_of_a_non_finite_entry_is_the_full_grid_one(value, entry):
    # one entry, not mirrored, set to NaN or +-inf at one node of a field the
    # bound would otherwise prune: the same float, or the same LinAlgError
    # ("Eigenvalues did not converge"), as eigvalsh on every node.  eigvalsh
    # reads the lower triangle alone, so an upper entry leaves a finite minimum
    rng = np.random.default_rng(7)
    planes = np.eye(3)[:, :, None, None, None] + 1e-3 * rng.uniform(-1.0, 1.0, (3, 3, 4, 4, 4))
    grad = node_major(planes)
    grad[(2, 3, 1) + entry] = value
    assert outcome(monitors._min_eigenvalue, grad) == outcome(full_min_eigenvalue, grad)
    if entry == (1, 2):
        assert np.isfinite(monitors._min_eigenvalue(grad))


def test_default_march_factors_a_handful_of_nodes(monkeypatch):
    # the README problem at n = k = 3, N = 32, as the CLI builds it: the
    # constant anchor G needs one matrix factored, and t = 1 no more than
    # the 1024 of 32768 nodes whose Gershgorin bound is at or below the
    # grid's smallest diagonal entry (one matrix, as it happens)
    cfg = runconfig.RunConfig(
        problem=runconfig.ProblemConfig(n=3, k=3, resolution=32, alpha="0.2*sin(x1)"),
        solver=solver.SolverConfig(),
        output=runconfig.OutputConfig(),
    )
    problem = runconfig.build_problem(cfg, ".")
    factored = []  # (t, nodes, matrices handed to eigvalsh) per snapshot
    eigvalsh, snapshot_point = np.linalg.eigvalsh, monitors.snapshot_point

    def counting_eigvalsh(a):
        factored[-1][-1] += int(np.prod(a.shape[:-2]))
        return eigvalsh(a)

    def counted_snapshot(state, *args):
        factored.append([state.t, state.u.size, 0])
        return snapshot_point(state, *args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(monitors, "snapshot_point", counted_snapshot)
    log = list(solver.continuation_steps(problem, cfg.solver))
    assert log[-1].accepted and log[-1].t == 1.0
    anchor, *_, final = factored
    assert anchor == [0.0, 32768, 1]
    assert final[:2] == [1.0, 32768] and final[2] <= 1024


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
    json.dumps(d)  # must be JSON-clean


# the first 16 hex digits of the SHA-256 of lemmas.json at samples=10_000, seed=42
LEMMA_DIGESTS = {
    (3, 3): "ed712bee0b14410b",
    (4, 3): "bfed5c8b70542b0d",
    (4, 4): "bc459b4e92ca6cf1",
    (5, 3): "7641018d6f14a971",
    (5, 4): "06bb239231cd6e82",
    (5, 5): "9369b00ad5e27eff",
}


@pytest.mark.parametrize("n, k", list(LEMMA_DIGESTS))
def test_lemma_suite_output_is_pinned(n, k):
    result = monitors.run_lemma_suite(n, k, samples=10_000, seed=42)
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == LEMMA_DIGESTS[n, k]


def test_cone_nesting_fails_on_a_wrong_reduced_sigma(monkeypatch):
    # the check reads the sigmas of lambda with one entry removed: negating
    # sigma_1 of every (n-1)-entry vector puts none of them in Gamma_{kk-1}
    n = 4
    real = cones.all_elementary_symmetric

    def negated(lam):
        sig = real(lam)
        if sig.shape[-1] == n:  # sigma_0..sigma_{n-1}
            sig = sig.copy()
            sig[..., 1] = -sig[..., 1]
        return sig

    monkeypatch.setattr(cones, "all_elementary_symmetric", negated)
    result = monitors.run_lemma_suite(n, 3, samples=200, seed=42)
    nesting = next(c for c in result.checks if c.name == "cone_nesting")
    assert nesting.max_violation == 1.0 and not nesting.passed
    assert not result.all_passed
