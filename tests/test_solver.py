"""Solver checks: exact anchors, the linearization against difference
quotients of the residual, Newton/damping behavior, adaptive continuation,
and manufactured problems."""

import math
import tracemalloc
import weakref
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import admissible_state, l2_norm, linearize, make_problem, trivial_problem
from ksig import InputError, geometry, monitors, operator, runconfig, solver
from ksig import fieldexpr
from ksig.fieldexpr import analytic_jet
from ksig.grid import PeriodicGrid, sup_norm, write_field
from ksig.operator import compute_jet


def make_grid(n=3, N=8):
    return PeriodicGrid(dim=n, resolution=N)


def default_problem(grid, k=3, amplitude=0.2, **background):
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    return make_problem(grid, k=k, alpha=amplitude * np.sin(x1), **background)


def hard_problem(grid):
    """alpha = 20 sin x1 cos x2, alpha_l = 1, k = 3: a forcing 100x the
    default's, so a march from u = 0 rejects steps."""
    return make_problem(grid, alpha=smooth_u(grid, 20.0))

def manufactured(expr, grid, k=3, **background):
    """u_star from `expr` and the problem built around it from its analytic
    jet, with alpha_l = 1."""
    jet = analytic_jet(expr, grid)
    return jet.value, operator.manufacture_alpha(jet.value, make_problem(grid, k=k, **background), jet=jet)


def residual(u, t, problem):
    """F(u; t) per node at an admissible u."""
    return admissible_state(u, t, problem).residual


def smooth_u(grid, amp=0.05):
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    x2 = grid.coordinate(1) + np.zeros(grid.shape)
    return amp * np.sin(x1) * np.cos(x2)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_step_bounds():
    with pytest.raises(ValueError):
        solver.SolverConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(residual_tol=math.inf)


# ---------------------------------------------------------------------------
# residual anchors


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)])
def test_anchor_residual_zero(n, k):
    # at t=0 the background drops out, U = identity, and the homotopy
    # constant is defined so sigma_k(e) = c * sum sigma_l(e) exactly
    grid = make_grid(n, 8 if n < 5 else 8)
    problem = trivial_problem(grid, k)
    r = residual(grid.zeros(), 0.0, problem)
    assert sup_norm(r) <= 1e-12


def test_anchor_independent_of_background():
    grid = make_grid()
    rot = np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    B = rot @ np.diag([-1.3, -0.9, -0.7]) @ rot.T
    problem = trivial_problem(grid, 3, tau=0.2, B=B)
    assert sup_norm(residual(grid.zeros(), 0.0, problem)) <= 1e-12


def test_anchor_t1_with_matching_coefficients():
    # u = 0, t = 1, B = -g0, alpha_l = c, alpha = 0: same cancellation at t=1
    grid = make_grid()
    problem = trivial_problem(grid, 3)
    assert sup_norm(residual(grid.zeros(), 1.0, problem)) <= 1e-12


# ---------------------------------------------------------------------------
# linearization


def test_linearize_constant_direction_exact_value():
    # at (u,t)=(0,0), n=k=3: second-order terms vanish for constant v and the
    # zeroth order is -c * sum_l 2(k-l) sigma_l(e)/sigma_2(e)
    #   = -(1/4) * (2*3*(1/3) + 2*2*(3/3)) = -(1/4)*(2 + 4) = -3/2
    for N in (8, 16):
        grid = make_grid(3, N)
        problem = trivial_problem(grid, 3)
        out = linearize(grid.zeros(), 0.0, np.ones(grid.shape), problem)
        assert np.abs(out + 1.5).max() <= 1e-12


def test_linearize_zero_direction():
    grid = make_grid()
    problem = default_problem(grid)
    out = linearize(smooth_u(grid), 0.5, np.zeros(grid.shape), problem)
    assert np.array_equal(out, np.zeros(grid.shape))


def test_linearize_is_linear_in_direction():
    grid = make_grid()
    problem = default_problem(grid)
    rng = np.random.default_rng(11)
    u = smooth_u(grid)
    v = rng.standard_normal(grid.shape)
    w = rng.standard_normal(grid.shape)
    lv = linearize(u, 0.7, v, problem)
    lw = linearize(u, 0.7, w, problem)
    combo = linearize(u, 0.7, 2.0 * v - 3.0 * w, problem)
    assert np.abs(combo - (2.0 * lv - 3.0 * lw)).max() <= 1e-10 * max(1.0, np.abs(combo).max())


def test_linearize_matches_difference_quotient():
    grid = make_grid(3, 8)
    problem = default_problem(grid)
    rng = np.random.default_rng(5)
    eps = 1e-6
    for trial in range(6):
        u = smooth_u(grid, amp=rng.uniform(0.01, 0.08))
        v = rng.standard_normal(grid.shape)
        t = rng.uniform(0.0, 1.0)
        lin = linearize(u, t, v, problem)
        fd = (
            residual(u + eps * v, t, problem)
            - residual(u - eps * v, t, problem)
        ) / (2.0 * eps)
        rel = l2_norm(grid, lin - fd) / max(1.0, l2_norm(grid, fd))
        assert rel <= 1e-5, f"trial {trial}: rel {rel:.3e}"


def rotated_background(grid):
    """B = Q D(x) Q^T: a fixed rotation Q conjugating a diagonal with entries
    that vary over the grid, so every entry of B does; -B is positive
    definite."""
    n = grid.dim
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    x2 = grid.coordinate(1) + np.zeros(grid.shape)
    Q, _ = np.linalg.qr(np.random.default_rng(100 + n).standard_normal((n, n)))
    d = np.stack([-(1.0 + 0.3 * np.sin(x1 + i) * np.cos(x2)) for i in range(n)], axis=-1)
    return (Q * d[..., None, :]) @ Q.T


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["minus-identity", "per-node", "rotated"])
def test_linearize_is_exact_derivative_of_discrete_residual(n, tau, kind):
    # U^t is quadratic in the stencil jet, so the central difference of
    # assemble_U along v is its exact derivative for any step; contracted
    # with G^{ij} and joined by the pointwise derivative in u of
    # beta_l = w_l e^{2(k-l)u} and t alpha e^{2u} it is dF[v], which the
    # stencil weights must reproduce to round-off, for every 3 <= k <= n
    grid = make_grid(n, 8)
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    t = 0.7
    if kind == "minus-identity":
        B = None
    elif kind == "per-node":
        B = -(1.0 + 0.2 * np.sin(x1))[..., None, None] * np.eye(n)
    else:
        B = rotated_background(grid)
        # every off-diagonal entry is nonzero somewhere and varies over the grid
        assert all(np.ptp(B[..., i, j]) > 0.01 for i in range(n) for j in range(i + 1, n))
    u = smooth_u(grid)
    v = np.random.default_rng(n).standard_normal(grid.shape)
    dU = central_dU(u, v, t, make_problem(grid, tau=tau, B=B))
    for k in range(3, n + 1):
        problem = default_problem(grid, k=k, tau=tau, B=B)
        state = admissible_state(u, t, problem)
        rel = jacobian_error(state, v, dU, problem)
        assert rel <= 1e-12, f"k={k}: relative sup error {rel:.3e}"


def central_dU(u, v, t, problem):
    """The central difference of assemble_U along v: U^t is quadratic in the
    stencil jet, so this is its exact derivative for any step."""
    grid = problem.grid
    return 0.5 * (
        operator.assemble_U(compute_jet(grid, u + v), problem, t)
        - operator.assemble_U(compute_jet(grid, u - v), problem, t)
    )


def jacobian_error(state, v, dU, problem):
    """Relative sup error of operator.jacobian's apply(v) against dF[v]: dU
    contracted with G^{ij}, plus the pointwise derivative in u of
    beta_l = w_l e^{2(k-l)u} and t alpha e^{2u}."""
    k, u, t = problem.k, state.u, state.t
    dbeta = 2.0 * (k - np.arange(k - 1)) * operator.beta_weights(problem, u, t)
    gl = -state.sigma[..., : k - 1] / state.sigma[..., k - 1 : k]
    pointwise = np.sum(dbeta * gl, axis=-1) + 2.0 * t * problem.alpha * np.exp(2.0 * u)
    exact = np.einsum("...ij,...ij->...", state.grad, dU) + pointwise * v
    apply, _ = operator.jacobian(state, problem)
    return sup_norm(apply(v) - exact) / sup_norm(exact)


def random_field(grid, rng, amplitude):
    """amplitude times a random trigonometric polynomial of degree 1 in each axis."""
    field = grid.zeros()
    for i in range(grid.dim):
        for j in range(grid.dim):
            xi = grid.coordinate(i)
            xj = grid.coordinate(j)
            a, b = rng.uniform(-1.0, 1.0, 2)
            field = field + a * np.sin(xi + b * np.pi) * np.cos(xj)
    return amplitude * field / grid.dim


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=5),
    tau=st.floats(min_value=-0.5, max_value=0.9, exclude_max=True),
    t=st.floats(min_value=0.0, max_value=1.0),
    amplitude=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_linearize_is_exact_derivative_on_random_states(n, tau, t, amplitude, seed, data):
    # the exact-derivative identity above, on random admissible states: a
    # random per-node B with lambda(-B) in Gamma_k, random alpha, alpha_l and
    # u, any tau < 1 and t in [0, 1]
    k = data.draw(st.integers(min_value=3, max_value=n), label="k")
    grid = make_grid(n, 8)
    rng = np.random.default_rng(seed)
    # -B = I + E with |E_ij| <= 0.16, so -B is positive definite (Gershgorin)
    E = rng.uniform(-0.08, 0.08, grid.shape + (n, n))
    problem = make_problem(
        grid,
        k=k,
        tau=tau,
        B=-(np.eye(n) + E + E.swapaxes(-1, -2)),
        alpha=random_field(grid, rng, 1.0),
        alpha_l=rng.uniform(0.5, 2.0, (k - 1,) + grid.shape),
    )
    u = random_field(grid, rng, amplitude)
    state = operator.evaluate(u, t, problem)
    assume(state.margin.min() > solver._CONE_MARGIN)
    v = rng.standard_normal(grid.shape)
    rel = jacobian_error(state, v, central_dU(u, v, t, problem), problem)
    assert rel <= 1e-12, f"relative sup error {rel:.3e}"


@pytest.mark.parametrize("n", [3, 5])
def test_evaluate_leaves_its_inputs_untouched(n):
    # quotient_eval builds the gradient in its own copy of U's planes; the
    # stored U, gradient and Laplacian of u must survive it, G must not
    # alias U, and the state keeps no Hessian of u beside U and G
    grid = make_grid(n, 8)
    problem = default_problem(grid, k=n, tau=0.3)
    u = smooth_u(grid)
    t = 0.6
    state = operator.evaluate(u, t, problem)
    fresh = compute_jet(grid, u)
    assert state.grad_u.tobytes() == fresh.grad_planes.tobytes()
    assert state.lap_u.tobytes() == fresh.laplacian.tobytes()
    assert np.array_equal(state.U, operator.assemble_U(fresh, problem, t))
    assert not np.shares_memory(state.U, state.grad)
    hessian_shaped = [
        f.name
        for f in fields(state)
        if np.shape(getattr(state, f.name)) in {fresh.hess_planes.shape, state.U.shape}
    ]
    assert sorted(hessian_shaped) == ["U", "grad"]


# ---------------------------------------------------------------------------
# Newton at fixed t


def test_newton_at_anchor_zero_iterations():
    grid = make_grid()
    problem = trivial_problem(grid, 3)
    cfg = solver.SolverConfig()
    res = solver.newton_solve_at_t(grid.zeros(), 0.0, problem, cfg)
    assert res.iterations == 0
    assert res.residual_norm <= 1e-12


def test_newton_returns_to_zero():
    # the t=0 problem has u=0 as its only root; Newton must find its way back
    grid = make_grid(3, 16)
    problem = trivial_problem(grid, 3)
    cfg = solver.SolverConfig()
    u0 = 0.01 * np.sin(grid.coordinate(0) + np.zeros(grid.shape))
    res = solver.newton_solve_at_t(u0, 0.0, problem, cfg)
    assert sup_norm(res.u) <= 1e-8
    assert res.iterations <= 6


def test_newton_quadratic_tail():
    grid = make_grid(3, 16)
    problem = trivial_problem(grid, 3)
    cfg = solver.SolverConfig()
    u0 = 0.01 * np.sin(grid.coordinate(0) + np.zeros(grid.shape))
    res = solver.newton_solve_at_t(u0, 0.0, problem, cfg)
    rs = res.history
    assert len(rs) >= 3
    # observed contraction constants sit near 1.1; 50 leaves slack for
    # rounding in the final, nearly-converged step
    for j in (len(rs) - 3, len(rs) - 2):
        assert rs[j + 1] <= 50.0 * rs[j] ** 2, f"step {j}: {rs[j + 1]:.3e} vs {rs[j]:.3e}"


def test_newton_rejects_inadmissible_start():
    grid = make_grid()
    problem = trivial_problem(grid, 3)
    cfg = solver.SolverConfig()
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    res = solver.newton_solve_at_t(5.0 * np.sin(x1), 0.0, problem, cfg)
    assert "initial guess" in res.note
    assert res.u is None and res.report is None
    assert res.iterations == 0 and res.damping_trials == 0


def test_newton_reports_a_non_finite_U_at_an_inadmissible_start():
    # |grad u|^2 overflows, so U is not finite at the worst node: the note
    # gives U's entries there, which eigvalsh could not factor
    grid = make_grid()
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    res = solver.newton_solve_at_t(1e160 * np.sin(x1), 0.0, trivial_problem(grid, 3), solver.SolverConfig())
    assert res.note.startswith("initial guess at t=0.0: cone margin nan")
    assert "U there is not finite: [[" in res.note
    assert res.u is None and res.iterations == 0


def test_newton_iteration_limit_reported(monkeypatch):
    grid = make_grid()
    problem = default_problem(grid)
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, problem, solver.SolverConfig())
    assert "limit" in res.note
    assert res.residual_norm is not None and res.residual_norm > 0
    assert res.u is None and res.report is None


def test_newton_nan_residual_is_not_converged(monkeypatch):
    # NaN compares False against any tolerance: the solve must fail on it,
    # not report convergence after 0 iterations, and before any linear solve.
    # A Problem holds finite data only, so the NaN comes from evaluate.
    grid = make_grid()
    problem = make_problem(grid)
    evaluate = operator.evaluate

    def nan_residual(*args, **kwargs):
        state = evaluate(*args, **kwargs)
        return replace(state, residual=np.full(grid.shape, np.nan))

    linear_solves = []
    monkeypatch.setattr(operator, "evaluate", nan_residual)
    monkeypatch.setattr(solver, "_gmres", lambda *args: linear_solves.append(args))
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, problem, solver.SolverConfig())
    assert np.isnan(res.residual_norm)
    assert "non-finite residual" in res.note
    assert res.u is None and res.report is None
    assert linear_solves == []
    assert res.iterations == 0 and res.linear_iterations == 0


def test_newton_fails_fast_at_the_damping_floor(monkeypatch):
    # the reversed Newton direction raises the residual for every damping
    # factor: three halvings, four trial evaluations, then the solve fails
    grid = make_grid()
    problem = default_problem(grid)
    gmres, evaluate = solver._gmres, operator.evaluate
    calls = []

    def uphill(*args):
        delta, iters, note = gmres(*args)
        return -delta, iters, note

    def counting(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "_gmres", uphill)
    monkeypatch.setattr(operator, "evaluate", counting)
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, problem, solver.SolverConfig())
    assert "damping" in res.note
    # the first call evaluates the start, then s = 1, 1/2, 1/4, 1/8
    assert len(calls) - 1 == 4
    assert res.history == (res.residual_norm,)
    assert res.damping_trials == len(calls) - 2


def test_newton_fails_fast_on_a_stalled_iteration(monkeypatch):
    # a twentieth of the Newton step cuts the residual by about 5%: the first
    # iteration may do that, the second may not
    grid = make_grid()
    problem = default_problem(grid)
    gmres = solver._gmres

    def timid(*args):
        delta, iters, note = gmres(*args)
        return 0.05 * delta, iters, note

    monkeypatch.setattr(solver, "_gmres", timid)
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, problem, solver.SolverConfig())
    assert "stalled" in res.note
    r0, r1, r2 = res.history
    assert r2 < r1 < r0
    assert r2 > 0.9 * r1 and res.residual_norm == r2


# ---------------------------------------------------------------------------
# the linear solver, against dense solves


def dense_gmres(A, b, rtol):
    return solver._gmres(lambda v: A @ v, np.diag(A).copy(), b, rtol)


def test_gmres_restarts_to_the_dense_solution():
    # a nonsymmetric tridiagonal system with a small perturbation: about
    # twice the restart length of iterations, so at least one restart
    n = 100
    rng = np.random.default_rng(0)
    A = np.diag(np.full(n, 2.2)) + np.diag(np.full(n - 1, -1.3), 1) + np.diag(np.full(n - 1, -0.7), -1)
    A += 0.01 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    x, iters, note = dense_gmres(A, b, 1e-10)
    assert note == ""
    assert solver._LINEAR_RESTART < iters < solver._LINEAR_MAXITER
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    exact = np.linalg.solve(A, b)
    assert np.abs(x - exact).max() <= np.linalg.cond(A) * 1e-10 * np.abs(exact).max()


def test_gmres_breakdown_is_an_exact_solve():
    # A maps e_0 -> 2 e_1 -> 3 e_2 -> 5 e_0 and leaves span(e_0, e_1, e_2)
    # invariant, so Arnoldi from b = e_0 breaks down exactly at its third
    # iteration, inside the first cycle: the step has its exact solution
    # and nothing is divided by the zero norm
    n = 60
    rng = np.random.default_rng(1)
    A = 4.0 * np.eye(n) + rng.standard_normal((n, n))
    A[:, :3] = 0.0
    A[1, 0], A[2, 1], A[0, 2] = 2.0, 3.0, 5.0
    b = np.zeros(n)
    b[0] = 1.0
    with np.errstate(all="raise"):
        x, iters, note = dense_gmres(A, b, 1e-12)
    assert (iters, note) == (3, "")
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=0.0, atol=1e-15)


def test_gmres_reports_failure_after_the_iteration_limit():
    # the cyclic shift: GMRES(50) gains nothing on e_0 until its Krylov
    # space spans all 60 dimensions, which no cycle reaches
    n = 60
    P = np.roll(np.eye(n), 1, axis=0)
    b = np.zeros(n)
    b[0] = 1.0
    x, iters, note = dense_gmres(P, b, 1e-8)
    assert iters == solver._LINEAR_MAXITER
    assert f"after {solver._LINEAR_MAXITER} iterations" in note
    assert np.linalg.norm(b - P @ x) == pytest.approx(1.0)


def test_gmres_fails_on_an_overflowing_norm():
    # every entry is finite, but the 2-norm is not: no zero step may pass
    # as converged, and no overflow warning may escape
    A = 4.0 * np.eye(8) + np.ones((8, 8))
    with np.errstate(all="raise"):
        _, iters, note = dense_gmres(A, np.full(8, 1e300), 1e-2)
    assert iters == 0 and "overflows" in note


def test_gmres_fails_on_a_singular_krylov_matrix():
    # the zero operator maps the first Krylov vector to 0, so the first
    # Givens rotation has nothing to rotate: a note, with no 0/0 warning,
    # no singular triangular solve and no endless restart
    b = np.arange(1.0, 9.0)
    with np.errstate(all="raise"):
        x, iters, note = solver._gmres(lambda v: np.zeros_like(v), np.ones(8), b, 1e-2)
    assert iters == 0 and "singular" in note
    assert not x.any()


def test_gmres_fails_when_the_preconditioned_residual_underflows():
    # every entry of r / diagonal is subnormal, so the squares in its 2-norm
    # underflow to 0 although b is not 0: a note, and no division by the norm
    b = 1e-20 * np.arange(1.0, 9.0)
    diagonal = np.full(8, 1e300)
    with np.errstate(all="raise"):
        x, iters, note = solver._gmres(lambda v: diagonal * v, diagonal, b, 1e-2)
    assert iters == 0 and "preconditioned residual" in note
    assert not x.any()


# ---------------------------------------------------------------------------
# continuation


def test_continuation_stationary_path_stays_at_zero(march):
    grid = make_grid()
    problem = trivial_problem(grid, 3)
    cfg = solver.SolverConfig()
    log, last, reports = march(problem, cfg)
    assert last.t == 1.0
    assert np.array_equal(last.u, np.zeros(grid.shape))
    assert sum(rec.iterations for rec in log) == 0
    assert all(r.sup_u == 0.0 for r in reports)


def test_continuation_default_problem(march):
    grid = make_grid(3, 8)
    problem = default_problem(grid)
    cfg = solver.SolverConfig()
    log, last, reports = march(problem, cfg)
    assert last.t == 1.0
    assert last.residual_norm <= 1e-9
    assert sup_norm(last.u) > 0.1  # honest deformation, not a no-op
    accepted = [rec for rec in log if rec.accepted]
    assert len(reports) == len(accepted)
    # each report carries its step's final residual, bit for bit
    assert [(r.t, r.residual) for r in reports] == [(rec.t, rec.residual_norm) for rec in accepted]
    assert accepted[0].t == 0.0 and accepted[-1].t == 1.0
    ts = [rec.t for rec in accepted]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    # the whole path is one step: fixed 0.1-steps took 34 Newton iterations
    # on this problem, the doubling controller 16, the t = 1 attempt 6
    assert ts == [0.0, 1.0]
    assert len(accepted) == len(log)
    assert any(rec.dt > solver._DT_INIT for rec in accepted)
    assert sum(rec.iterations for rec in accepted) <= 8
    # each record holds the step taken, the last one clamped to t = 1
    assert [rec.dt for rec in accepted[1:]] == [b - a for a, b in zip(ts, ts[1:])]
    for rep in reports:
        assert rep.cone_margin > 1e-10
        assert rep.min_eig_Gij > 0.0
        assert rep.eq33_slack >= -1e-8


def test_continuation_stall_carries_last_state(march, monkeypatch):
    grid = make_grid()
    problem = default_problem(grid)
    # one Newton iteration is never enough at t = 1 nor at t = 0.2, and
    # the minimum step forbids halving below 0.15, so the march stalls at
    # the anchor
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    monkeypatch.setattr(solver, "_DT_INIT", 0.2)
    monkeypatch.setattr(solver, "_DT_MIN", 0.15)
    log, last, reports = march(problem, solver.SolverConfig())
    assert last is not None
    assert last.t == 0.0
    assert np.array_equal(last.u, np.zeros(grid.shape))
    assert len(reports) == 1  # the anchor was still monitored
    # the anchor is the first record, and it holds its root and report
    assert log[0] is last and (last.t, last.dt, last.accepted) == (0.0, 0.0, True)
    assert last.report is reports[0]
    rejected = [rec for rec in log if not rec.accepted]
    # the whole-path attempt, then the first step
    assert [(rec.t, rec.dt) for rec in rejected] == [(1.0, 1.0), (0.2, 0.2)]
    assert all(rec.note for rec in rejected)
    # a rejected step logs the Newton iterations it spent, not zero
    assert all(rec.iterations == 1 for rec in rejected)
    # a rejected record holds neither a state nor a report
    assert all(rec.u is None and rec.report is None for rec in rejected)
    # the run ends on the step that fell below the minimum step: nothing is
    # yielded after the stall record
    assert log[-1] is rejected[-1]
    assert [rec.t for rec in log] == [0.0, 1.0, 0.2] and 0.5 * log[-1].dt < solver._DT_MIN


def test_continuation_raises_on_a_failed_anchor(monkeypatch):
    # u = 0 is the exact root at t = 0, so a failed anchor is a program
    # error, not a stall: the march raises before it yields any record
    failed = solver.StepRecord(t=0.0, history=(1.0,), damping_trials=0, linear_iterations=0, note="broken anchor")
    monkeypatch.setattr(solver, "newton_solve_at_t", lambda *args: failed)
    steps = solver.continuation_steps(default_problem(make_grid()), solver.SolverConfig())
    with pytest.raises(RuntimeError, match="^broken anchor$"):
        next(steps)


def test_continuation_recovers_after_rejected_enlarged_step(march, monkeypatch):
    # with three Newton iterations allowed, a doubled step fails and has to
    # be halved again, more than once along the path
    grid = make_grid(3, 8)
    problem = default_problem(grid)
    monkeypatch.setattr(solver, "_MAX_NEWTON", 3)
    cfg = solver.SolverConfig()
    log, last, _ = march(problem, cfg)
    assert last.t == 1.0
    assert last.residual_norm <= cfg.residual_tol
    accepted = [rec for rec in log if rec.accepted]
    rejected = [rec for rec in log if not rec.accepted]
    ts = [rec.t for rec in accepted]
    assert ts[-1] == 1.0 and all(a < b for a, b in zip(ts, ts[1:]))
    assert rejected and all(rec.note for rec in rejected)
    assert all(rec.iterations == 3 for rec in rejected)
    # the whole path is tried first and hands over to the first step
    whole, after = log[1:3]
    assert (whole.t, whole.dt, whole.accepted) == (1.0, 1.0, False)
    assert after.dt == solver._DT_INIT
    # doubling after every accepted step oscillates between a failing step
    # and its half: 12 rejections here, 7 when only the first accepted step
    # after a rejection keeps dt, 6 with the two steps of the controller
    assert len(rejected[1:]) <= 6
    for prev, rec in zip(log[2:], log[3:]):
        # dt is the step actually tried: the rejected one is halved, not retried
        if not prev.accepted:
            assert rec.dt == pytest.approx(0.5 * prev.dt)


def test_continuation_falls_back_after_the_whole_path_fails(march):
    # a forcing 100x the default's: t = 1 is out of Newton's reach from
    # u = 0, so the attempt fails fast and the controller takes the path
    grid = make_grid(3, 8)
    problem = hard_problem(grid)
    cfg = solver.SolverConfig()
    log, last, _ = march(problem, cfg)
    assert last.t == 1.0
    assert last.residual_norm <= cfg.residual_tol
    rejected = [rec for rec in log if not rec.accepted]
    assert (rejected[0].t, rejected[0].dt) == (1.0, 1.0)
    assert log[2].dt == solver._DT_INIT
    # Newton iterations, accepted + rejected: 28 + 0 with the doubling
    # controller alone; 36 + 5 measured with the whole-path attempt, whose
    # damping floor also rejects the first step of 0.1
    assert sum(rec.iterations for rec in log) <= 41


def test_continuation_records_hold_no_evaluated_state(march):
    # no record, rejected ones included, holds an evaluated state, and an
    # accepted record's report is the snapshot of its root evaluated afresh,
    # field for field
    grid = make_grid(3, 8)
    problem = hard_problem(grid)
    log, _, _ = march(problem, solver.SolverConfig())
    assert any(not rec.accepted for rec in log)
    for rec in log:
        for f in fields(rec):
            assert not isinstance(getattr(rec, f.name), operator.PointState), f.name
    for rec in (rec for rec in log if rec.accepted):
        state = operator.evaluate(rec.u, rec.t, problem)
        fresh = monitors.snapshot_point(state, problem, rec.iterations)
        assert astuple(rec.report) == astuple(fresh)
        assert rec.report.residual == rec.residual_norm and rec.report.t == rec.t


@pytest.mark.parametrize("n, hard", [(5, False), (3, True)], ids=["default-n5", "hard-n3"])
def test_newton_holds_one_evaluated_state_at_a_time(monkeypatch, n, hard):
    # an evaluated state is about 24 MiB at n = k = 5, N = 8: each one,
    # rejected trials included, is gone before the next is evaluated, and
    # none is alive while GMRES, which reads only dF and b, runs
    grid = make_grid(n, 8)
    problem = hard_problem(grid) if hard else default_problem(grid, k=n)
    states = []
    evaluate, gmres = operator.evaluate, solver._gmres

    def alive():
        return sum(ref() is not None for ref in states)

    def tracked_evaluate(*args, **kwargs):
        assert alive() == 0, "an earlier state is alive at evaluate"
        state = evaluate(*args, **kwargs)
        states.append(weakref.ref(state))
        return state

    def tracked_gmres(*args):
        assert alive() == 0, "a state is alive during GMRES"
        return gmres(*args)

    monkeypatch.setattr(operator, "evaluate", tracked_evaluate)
    monkeypatch.setattr(solver, "_gmres", tracked_gmres)
    log = list(solver.continuation_steps(problem, solver.SolverConfig()))
    assert log[-1].accepted and log[-1].t == 1.0
    assert len(states) > len(log)
    if hard:
        assert sum(rec.damping_trials for rec in log) > 0


def test_march_frees_the_anchor_u_once_replaced():
    # continuation_steps keeps no field of its start past the whole-path
    # attempt: in a log that, like cmd_solve's, keeps only the newest
    # accepted u, the anchor's u is gone once a newer accepted record is in
    grid = make_grid(3, 8)
    log, newest, anchor_u, checked = [], None, None, 0
    for rec in solver.continuation_steps(hard_problem(grid), solver.SolverConfig()):
        if newest:  # the anchor's record is no longer the newest accepted one
            assert anchor_u() is None, f"the anchor's u is alive at record {len(log) + 1}"
            checked += 1
        log.append(rec)
        if rec.accepted:
            if newest is None:
                anchor_u = weakref.ref(rec.u)
            else:
                log[newest] = replace(log[newest], u=None)
            newest = len(log) - 1
    assert log[-1].accepted and log[-1].t == 1.0
    assert checked >= 3 and anchor_u() is None


def test_default_n5_march_peak_memory():
    # numpy reports its buffers to tracemalloc, whose counts, unlike the
    # resident set, do not depend on the C heap's layout: the n = k = 5,
    # N = 8 march peaks at about one evaluated state plus dF's weights,
    # on top of the problem's data, built as the CLI builds them
    cfg = runconfig.RunConfig(
        problem=runconfig.ProblemConfig(n=5, k=5, resolution=8, alpha="0.2*sin(x1)"),
        solver=solver.SolverConfig(),
        output=runconfig.OutputConfig(),
    )
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        problem = runconfig.build_problem(cfg, ".")
        log = list(solver.continuation_steps(problem, cfg.solver))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log[-1].accepted and log[-1].t == 1.0
    assert (peak - start) / 2**20 <= 26.0, f"peak {(peak - start) / 2**20:.1f} MiB above the start"


def test_newton_forcing_terms(monkeypatch):
    # inexact Newton: GMRES is asked for eta_0 = 0.01 first, then for
    # Eisenstat-Walker terms, never for less than _LINEAR_RTOL or than what
    # reaching residual_tol needs
    grid = make_grid(3, 8)
    problem = default_problem(grid)
    rtols = []
    linear_iters = []

    def recording_gmres(apply, diagonal, b, rtol):
        rtols.append(rtol)
        out = gmres(apply, diagonal, b, rtol)
        linear_iters.append(out[1])
        return out

    gmres = solver._gmres
    monkeypatch.setattr(solver, "_gmres", recording_gmres)
    cfg = solver.SolverConfig()
    res = solver.newton_solve_at_t(grid.zeros(), 0.3, problem, cfg)
    assert res.residual_norm <= cfg.residual_tol
    assert len(rtols) == res.iterations >= 3
    assert rtols[0] == 0.01
    for eta, r_prev, r in zip(rtols[1:], res.history, res.history[1:]):
        floor = max(0.5 * cfg.residual_tol / r, solver._LINEAR_RTOL)
        assert eta == max(min(0.01, 0.9 * (r / r_prev) ** 2), floor)
    assert min(rtols) < 1e-3  # the forcing term tightens as Newton converges
    assert rtols[-1] > 0.01  # the last solve stops at what residual_tol needs
    assert res.linear_iterations == sum(linear_iters) > 0

    rtols.clear()
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 0.05)
    res = solver.newton_solve_at_t(grid.zeros(), 0.3, problem, cfg)
    assert res.residual_norm <= cfg.residual_tol
    assert rtols and min(rtols) >= 0.05


def test_continuation_is_deterministic(march):
    grid = make_grid(3, 8)
    problem = default_problem(grid)
    cfg = solver.SolverConfig()
    runs = []
    for _ in range(2):
        log, last, reports = march(problem, cfg)
        runs.append(
            (
                last.u.tobytes(),
                tuple((rec.t, rec.residual_norm, rec.iterations) for rec in log),
                tuple(astuple(rep) for rep in reports),
            )
        )
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# nested grids: the whole-path attempt starts from the root on N/2


@pytest.mark.parametrize("n, coarse_N", [(3, 16), (3, 10), (4, 8), (5, 8)])
def test_prolongation_keeps_the_coarse_values(n, coarse_N):
    u = np.random.default_rng(coarse_N + n).standard_normal((coarse_N,) * n)
    fine = solver._prolong(u)
    assert fine.shape == (2 * coarse_N,) * n
    assert np.abs(fine[(slice(None, None, 2),) * n] - u).max() <= 1e-14


@pytest.mark.parametrize("n, coarse_N", [(3, 8), (3, 10), (4, 8)])
def test_prolongation_is_exact_on_resolved_trig_polynomials(n, coarse_N):
    # every mode is below the coarse Nyquist frequency coarse_N / 2
    top = (coarse_N - 1) // 2

    def field(grid):
        x = [grid.coordinate(a) for a in range(grid.dim)]
        return (
            0.3 + np.sin(top * x[0]) * np.cos(x[1])
            - 0.5 * np.cos(2 * x[1]) * np.sin(top * x[2])
            + 0.2 * np.sin(x[0] + top * x[n - 1])
        )

    fine = solver._prolong(field(make_grid(n, coarse_N)))
    assert np.abs(fine - field(make_grid(n, 2 * coarse_N))).max() <= 1e-13


def expression_problem(n, N):
    """A problem with every datum a non-constant expression field."""
    grid = make_grid(n, N)
    B = np.zeros(grid.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            spec = f"{-1.0 if i == j else 0.0} + 0.1*sin(x{i + 1})*cos(x{j + 1})"
            B[..., i, j] = fieldexpr.evaluate(spec, grid)
    alpha_l = ["1 + 0.2*cos(x2)", "2 - 0.3*sin(x1)*sin(x3)", "1.5 + 0.1*cos(x1)"][: n - 1]
    return make_problem(
        grid,
        k=n,
        tau=0.25,
        B=B,
        alpha=fieldexpr.evaluate("0.3*sin(x1)*cos(x2) - 0.1*cos(x3)", grid),
        alpha_l=np.stack(np.broadcast_arrays(*(fieldexpr.evaluate(spec, grid) for spec in alpha_l))),
    )


@pytest.mark.parametrize("n, N", [(3, 16), (3, 20), (4, 16)])
def test_injected_problem_is_the_problem_built_on_the_coarse_grid(n, N):
    coarse = solver._coarse_problem(expression_problem(n, N))
    problem = expression_problem(n, N // 2)
    assert coarse.grid == problem.grid
    assert coarse.tau == problem.tau and coarse.k == problem.k
    assert coarse.B_planes.tobytes() == problem.B_planes.tobytes()
    assert coarse.alpha.tobytes() == problem.alpha.tobytes()
    assert coarse.alpha_l.tobytes() == problem.alpha_l.tobytes()


def test_injected_problem_holds_views_of_the_fine_data(tmp_path):
    # a file: alpha is a full grid, and the N/2 grid reads every other node
    # of it in place, as it does B's planes and alpha_l
    grid = make_grid(3, 16)
    write_field(tmp_path / "alpha.ksig", grid, analytic_jet("0.1*sin(x1)*cos(x2)", grid).value)
    cfg = runconfig.RunConfig(
        problem=runconfig.ProblemConfig(n=3, k=3, resolution=16, alpha="file:alpha.ksig"),
        solver=solver.SolverConfig(),
        output=runconfig.OutputConfig(),
    )
    problem = runconfig.build_problem(cfg, tmp_path)
    coarse = solver._coarse_problem(problem)
    assert problem.alpha.shape == grid.shape and coarse.alpha.shape == (8, 8, 8)
    for name in ("B_planes", "alpha", "alpha_l"):
        assert np.shares_memory(getattr(coarse, name), getattr(problem, name)), name


def test_continuation_starts_the_whole_path_from_the_coarse_root(march):
    grid = make_grid(3, 32)
    problem = default_problem(grid)
    cfg = solver.SolverConfig()
    log, last, _ = march(problem, cfg)
    assert [(rec.t, rec.accepted) for rec in log] == [(0.0, True), (1.0, True)]
    whole = log[1]
    # the coarse record is the N = 16 problem's own whole-path solve, bit
    # for bit, with its root and report dropped
    coarse_grid = make_grid(3, 16)
    direct = solver.newton_solve_at_t(
        coarse_grid.zeros(), 1.0, default_problem(coarse_grid), cfg,
    )
    assert whole.coarse.accepted and whole.coarse.history == direct.history
    assert (whole.coarse.iterations, whole.coarse.linear_iterations) == (direct.iterations, direct.linear_iterations)
    assert whole.coarse.u is None and whole.coarse.report is None
    assert log[0].coarse is None and whole.coarse.coarse is None
    # from u = 0 this step took 6 Newton iterations
    assert whole.iterations <= 3
    from_zero = solver.newton_solve_at_t(grid.zeros(), 1.0, problem, cfg)
    assert sup_norm(last.u - from_zero.u) <= 100 * cfg.residual_tol


def test_continuation_falls_back_to_the_anchor_when_the_coarse_solve_fails(march):
    # on N/2 = 8 the hard forcing is out of reach from u = 0 as well, so the
    # whole-path attempt starts from the anchor and the march is the one
    # that runs without a coarse solve
    grid = make_grid(3, 16)
    problem = hard_problem(grid)
    log, last, _ = march(problem, solver.SolverConfig())
    assert log[1].coarse.note and log[1].coarse.u is None
    assert all(rec.coarse is None for rec in log[:1] + log[2:])
    accepted = [rec for rec in log if rec.accepted]
    rejected = [rec for rec in log if not rec.accepted]
    assert last.t == 1.0 and len(accepted) == 8
    assert sum(rec.iterations for rec in accepted) == 39
    assert sum(rec.iterations for rec in rejected) == 0
    assert len(rejected) == 2
    assert sum(rec.linear_iterations for rec in log) == 612


@pytest.mark.parametrize("N", [8, 12])
def test_continuation_without_a_coarse_grid(march, N):
    # N/2 = 4 and 6 are not grids
    grid = make_grid(3, N)
    problem = default_problem(grid)
    assert solver._coarse_problem(problem) is None
    log, last, _ = march(problem, solver.SolverConfig())
    assert last.t == 1.0
    assert all(rec.coarse is None for rec in log)


# The hard panel: alpha = A sin x1 (first row) or A sin x1 cos x2, alpha_l = 1,
# k = n, B = -I, SolverConfig().  Newton iterations (accepted and rejected
# steps) and GMRES iterations are summed over the records the march yields, a
# coarse N/2 solve's own not included; evaluations and node-evaluations count
# every operator.evaluate call, coarse solves included.  Totals: 320 Newton,
# 16 rejected, 3641 GMRES, 550 evaluations and 1 580 800 node-evaluations.
HARD_PANEL = [
    # A, cos x2 factor, tau, n, N: Newton, rejected, GMRES, evaluations, node-evaluations
    ((0.2, False, 0.0, 3, 8), (6, 0, 22, 8, 4096)),
    ((20.0, True, 0.0, 3, 8), (41, 2, 329, 74, 37888)),
    ((20.0, True, 0.0, 3, 16), (39, 2, 612, 85, 269312)),
    ((40.0, True, 0.0, 3, 8), (61, 4, 518, 98, 50176)),
    ((40.0, True, 0.0, 3, 16), (61, 4, 1127, 111, 418816)),
    ((10.0, True, 0.5, 3, 12), (29, 1, 331, 48, 82944)),
    ((10.0, True, -0.5, 3, 12), (23, 1, 255, 36, 62208)),
    ((10.0, True, 0.0, 4, 8), (24, 1, 170, 36, 147456)),
    ((20.0, True, -0.5, 4, 8), (28, 1, 230, 44, 180224)),
    ((5.0, True, 0.0, 5, 8), (8, 0, 47, 10, 327680)),
]


@pytest.mark.parametrize("case, counts", HARD_PANEL, ids=["-".join(map(str, p)) for p, _ in HARD_PANEL])
def test_hard_panel_counts(monkeypatch, case, counts):
    amplitude, cos_x2, tau, n, N = case
    grid = make_grid(n, N)
    alpha = amplitude * np.sin(grid.coordinate(0)) + grid.zeros()
    if cos_x2:
        alpha *= np.cos(grid.coordinate(1))
    problem = make_problem(grid, k=n, tau=tau, alpha=alpha)
    nodes = []
    evaluate = operator.evaluate

    def counted(u, *args, **kwargs):
        nodes.append(np.size(u))
        return evaluate(u, *args, **kwargs)

    # every accepted state's min_eig_Gij, coarse ones too, is the float
    # eigvalsh gives at every node
    snapshot_point = monitors.snapshot_point
    reported = []

    def checked(state, *args):
        report = snapshot_point(state, *args)
        reported.append((report.min_eig_Gij, float(np.linalg.eigvalsh(state.grad)[..., 0].min())))
        return report

    monkeypatch.setattr(operator, "evaluate", counted)
    monkeypatch.setattr(monitors, "snapshot_point", checked)
    log = list(solver.continuation_steps(problem, solver.SolverConfig()))
    assert log[-1].accepted and log[-1].t == 1.0
    newton = sum(rec.iterations for rec in log)
    rejected = sum(not rec.accepted for rec in log)
    gmres = sum(rec.linear_iterations for rec in log)
    assert (newton, rejected, gmres, len(nodes), sum(nodes)) == counts
    assert len(reported) >= sum(rec.accepted for rec in log)
    assert [repr(pruned) for pruned, _ in reported] == [repr(full) for _, full in reported]


# ---------------------------------------------------------------------------
# manufactured problems


def test_manufacture_trivial_field_gives_zero_alpha():
    grid = make_grid()
    problem = operator.manufacture_alpha(grid.zeros(), trivial_problem(grid, 3))
    assert np.array_equal(problem.alpha, np.zeros(grid.shape))


def test_manufactured_residual_is_stencil_sized():
    # construction used the analytic jet, so the discrete residual at u_star
    # is the O(h^2) consistency error - nonzero, and shrinking with N
    sups = {}
    for N in (8, 16):
        grid = make_grid(3, N)
        u_star, problem = manufactured("0.1*sin(x1)*cos(x2)", grid)
        sups[N] = sup_norm(residual(u_star, 1.0, problem))
    assert 1e-6 < sups[16] < sups[8] < 1e-1
    assert 2.0 < sups[8] / sups[16] < 8.0  # about 4x per halving of h


def test_manufacture_with_stencil_jet_is_exact_at_grid_level():
    # same field, but alpha built from the stencil jet: u_star is then an
    # exact discrete root and Newton has nothing to do
    grid = make_grid(3, 8)
    u_star = analytic_jet("0.1*sin(x1)*cos(x2)", grid).value
    problem = operator.manufacture_alpha(u_star, default_problem(grid))  # jet defaults to stencil
    assert sup_norm(residual(u_star, 1.0, problem)) <= 1e-12


def test_manufacture_rejects_large_amplitude():
    grid = make_grid(3, 16)
    with pytest.raises(InputError, match="node"):
        manufactured("5*sin(x1)*cos(x2)", grid)


def test_manufacture_checks_alpha_l_shape():
    # manufacture takes its alpha_l from the Problem, which refuses a
    # stack of the wrong length
    grid = make_grid()
    with pytest.raises(ValueError, match="^alpha_l of shape") as exc:
        bad = make_problem(grid, alpha_l=np.ones((3,) + grid.shape))
        operator.manufacture_alpha(grid.zeros(), bad)
    assert not isinstance(exc.value, InputError)


def test_manufactured_newton_from_interpolant():
    grid = make_grid(3, 16)
    u_star, problem = manufactured("0.1*sin(x1)*cos(x2)", grid)
    cfg = solver.SolverConfig()
    res = solver.newton_solve_at_t(u_star, 1.0, problem, cfg)
    assert res.residual_norm <= cfg.residual_tol
    assert res.iterations <= 6
    assert sup_norm(res.u - u_star) < 5e-3  # discrete root lies O(h^2) away


def test_manufactured_convergence_order_coarse():
    # the acceptance run measures N=16 -> 32; this coarser 8 -> 16 version
    # keeps unit runtime low, with a window widened for pre-asymptotic h
    errs = {}
    cfg = solver.SolverConfig()
    for N in (8, 16):
        grid = make_grid(3, N)
        u_star, problem = manufactured("0.1*sin(x1)*cos(x2)", grid)
        res = solver.newton_solve_at_t(u_star, 1.0, problem, cfg)
        errs[N] = sup_norm(res.u - u_star)
    order = np.log2(errs[8] / errs[16])
    assert 1.6 <= order <= 2.4, f"order {order:.3f} from errors {errs}"


@pytest.mark.parametrize(
    "n, resolutions, k, tau, background",
    [
        pytest.param(4, (8, 16), 4, 0.0, "hyperbolic-like", id="4-0.0-hyperbolic-like"),
        pytest.param(4, (8, 16), 3, 0.5, "hyperbolic-like", id="3-0.5-hyperbolic-like"),
        pytest.param(4, (8, 16), 4, 0.0, "spaceform:-1", id="4-0.0-spaceform:-1"),
        pytest.param(4, (8, 16), 4, 0.0, "rotated", id="4-0.0-rotated"),
        pytest.param(5, (8, 12), 5, 0.0, "hyperbolic-like", id="n5-5-0.0-hyperbolic-like"),
    ],
)
def test_manufactured_convergence_order_n4(n, resolutions, k, tau, background):
    # criterion 4's construction and order window at n = 4: B = -I with
    # k = n and k < n, the modified Schouten tensor of a hyperbolic form,
    # and a per-node B whose every entry varies over the grid; and at
    # n = k = 5, where N = 16 would cost 16^5 nodes, from N = 8 to 12
    errs = {}
    cfg = solver.SolverConfig()
    for N in resolutions:
        grid = make_grid(n, N)
        if background == "rotated":
            B = rotated_background(grid)
        else:
            B = geometry.spaceform_schouten(-1.0, n, tau) if background == "spaceform:-1" else None
        u_star, problem = manufactured("0.1*sin(x1)*cos(x2)", grid, k=k, tau=tau, B=B)
        res = solver.newton_solve_at_t(u_star, 1.0, problem, cfg)
        assert res.residual_norm <= cfg.residual_tol
        errs[N] = sup_norm(res.u - u_star)
    coarse, fine = resolutions
    order = np.log(errs[coarse] / errs[fine]) / np.log(fine / coarse)
    assert 1.8 <= order <= 2.2, f"order {order:.3f} from errors {errs}"
