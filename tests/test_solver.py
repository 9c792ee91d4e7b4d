"""Solver checks: exact anchors, the linearization against difference
quotients of the residual, Newton/damping behavior, adaptive continuation,
and manufactured problems."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ksig import cones, geometry, operator, solver
from ksig.fieldexpr import analytic_jet
from ksig.grid import PeriodicGrid, compute_jet, sup_norm


def l2_norm(grid, values):
    """sqrt(h^n * sum f^2): the discrete L2 norm of the torus."""
    return float(np.sqrt(grid.spacing**grid.dim * np.sum(np.square(values))))


def make_grid(n=3, N=8):
    return PeriodicGrid(dim=n, resolution=N)


def trivial_coeff(grid, k):
    """alpha = 0, alpha_l = c: the homotopy is stationary at u = 0."""
    c = cones.homotopy_constant(grid.dim, k)
    return geometry.CoefficientData(
        grid=grid, k=k, alpha=np.zeros(grid.shape), alpha_l=np.full((k - 1,) + grid.shape, c)
    )


def default_coeff(grid, k=3, amplitude=0.2):
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    return geometry.CoefficientData(
        grid=grid,
        k=k,
        alpha=amplitude * np.sin(x1),
        alpha_l=np.ones((k - 1,) + grid.shape),
    )


def manufactured(expr, bg, k=3):
    """u_star from `expr` and coefficients built around it from its analytic
    jet, with alpha_l = 1."""
    grid = bg.grid
    jet = analytic_jet(expr, grid)
    coeff = geometry.CoefficientData(
        grid=grid, k=k, alpha=grid.zeros(), alpha_l=np.ones((k - 1,) + grid.shape)
    )
    return jet.value, solver.manufacture_alpha(jet.value, bg, coeff, jet=jet)


def admissible_state(u, t, bg, coeff):
    state = operator.evaluate(u, t, bg, coeff)
    assert state.margin.min() > solver._CONE_MARGIN
    return state


def residual(u, t, bg, coeff):
    """F(u; t) per node at an admissible u."""
    return admissible_state(u, t, bg, coeff).residual


def linearize(u, t, v, bg, coeff):
    """dF[v] at an admissible (u, t) through solver.jacobian, the operator
    GMRES applies."""
    apply, _ = solver.jacobian(admissible_state(u, t, bg, coeff), bg)
    return apply(v)


def smooth_u(grid, amp=0.05):
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    x2 = grid.coordinate(1) + np.zeros(grid.shape)
    return amp * np.sin(x1) * np.cos(x2)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_step_bounds():
    with pytest.raises(ValueError):
        solver.SolverConfig(dt_init=0.1, dt_min=0.1)
    with pytest.raises(ValueError):
        solver.SolverConfig(dt_init=1.5)
    with pytest.raises(ValueError):
        solver.SolverConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(max_newton=0)
    with pytest.raises(ValueError):
        solver.SolverConfig(residual_tol=math.inf)


# ---------------------------------------------------------------------------
# residual anchors


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)])
def test_anchor_residual_zero(n, k):
    # at t=0 the background drops out, U = identity, and the homotopy
    # constant is defined so sigma_k(e) = c * sum sigma_l(e) exactly
    grid = make_grid(n, 8 if n < 5 else 8)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, k)
    r = residual(grid.zeros(), 0.0, bg, coeff)
    assert sup_norm(r) <= 1e-12


def test_anchor_independent_of_background():
    grid = make_grid()
    rot = np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    B = rot @ np.diag([-1.3, -0.9, -0.7]) @ rot.T
    bg = geometry.flat_background(grid, tau=0.2, B=B)
    coeff = trivial_coeff(grid, 3)
    assert sup_norm(residual(grid.zeros(), 0.0, bg, coeff)) <= 1e-12


def test_anchor_t1_with_matching_coefficients():
    # u = 0, t = 1, B = -g0, alpha_l = c, alpha = 0: same cancellation at t=1
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, 3)
    assert sup_norm(residual(grid.zeros(), 1.0, bg, coeff)) <= 1e-12


# ---------------------------------------------------------------------------
# linearization


def test_linearize_constant_direction_exact_value():
    # at (u,t)=(0,0), n=k=3: second-order terms vanish for constant v and the
    # zeroth order is -c * sum_l 2(k-l) sigma_l(e)/sigma_2(e)
    #   = -(1/4) * (2*3*(1/3) + 2*2*(3/3)) = -(1/4)*(2 + 4) = -3/2
    for N in (8, 16):
        grid = make_grid(3, N)
        bg = geometry.flat_background(grid, tau=0.0)
        coeff = trivial_coeff(grid, 3)
        out = linearize(grid.zeros(), 0.0, np.ones(grid.shape), bg, coeff)
        assert np.abs(out + 1.5).max() <= 1e-12


def test_linearize_zero_direction():
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    out = linearize(smooth_u(grid), 0.5, np.zeros(grid.shape), bg, coeff)
    assert np.array_equal(out, np.zeros(grid.shape))


def test_linearize_is_linear_in_direction():
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    rng = np.random.default_rng(11)
    u = smooth_u(grid)
    v = rng.standard_normal(grid.shape)
    w = rng.standard_normal(grid.shape)
    lv = linearize(u, 0.7, v, bg, coeff)
    lw = linearize(u, 0.7, w, bg, coeff)
    combo = linearize(u, 0.7, 2.0 * v - 3.0 * w, bg, coeff)
    assert np.abs(combo - (2.0 * lv - 3.0 * lw)).max() <= 1e-10 * max(1.0, np.abs(combo).max())


def test_linearize_matches_difference_quotient():
    grid = make_grid(3, 8)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    rng = np.random.default_rng(5)
    eps = 1e-6
    for trial in range(6):
        u = smooth_u(grid, amp=rng.uniform(0.01, 0.08))
        v = rng.standard_normal(grid.shape)
        t = rng.uniform(0.0, 1.0)
        lin = linearize(u, t, v, bg, coeff)
        fd = (
            residual(u + eps * v, t, bg, coeff)
            - residual(u - eps * v, t, bg, coeff)
        ) / (2.0 * eps)
        rel = l2_norm(grid, lin - fd) / max(1.0, l2_norm(grid, fd))
        assert rel <= 1e-5, f"trial {trial}: rel {rel:.3e}"


def rotated_background(grid, tau):
    """B = Q D(x) Q^T: a fixed rotation Q conjugating a diagonal with entries
    that vary over the grid, so every entry of B does; -B is positive
    definite."""
    n = grid.dim
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    x2 = grid.coordinate(1) + np.zeros(grid.shape)
    Q, _ = np.linalg.qr(np.random.default_rng(100 + n).standard_normal((n, n)))
    d = np.stack([-(1.0 + 0.3 * np.sin(x1 + i) * np.cos(x2)) for i in range(n)], axis=-1)
    return geometry.flat_background(grid, tau=tau, B=(Q * d[..., None, :]) @ Q.T)


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
        bg = geometry.flat_background(grid, tau=tau)
    elif kind == "per-node":
        bg = geometry.flat_background(grid, tau=tau, B=-(1.0 + 0.2 * np.sin(x1))[..., None, None] * np.eye(n))
    else:
        bg = rotated_background(grid, tau)
        # every off-diagonal entry is nonzero somewhere and varies over the grid
        assert all(np.ptp(bg.B_planes[i, j]) > 0.01 for i in range(n) for j in range(i + 1, n))
    u = smooth_u(grid)
    v = np.random.default_rng(n).standard_normal(grid.shape)
    dU = central_dU(u, v, t, bg)
    for k in range(3, n + 1):
        coeff = default_coeff(grid, k=k)
        if kind == "rotated":
            geometry.validate_hypotheses(bg, coeff)
        state = admissible_state(u, t, bg, coeff)
        rel = jacobian_error(state, v, dU, bg, coeff)
        assert rel <= 1e-12, f"k={k}: relative sup error {rel:.3e}"


def central_dU(u, v, t, bg):
    """The central difference of assemble_U along v: U^t is quadratic in the
    stencil jet, so this is its exact derivative for any step."""
    grid = bg.grid
    return 0.5 * (
        geometry.assemble_U(compute_jet(grid, u + v), bg, t)
        - geometry.assemble_U(compute_jet(grid, u - v), bg, t)
    )


def jacobian_error(state, v, dU, bg, coeff):
    """Relative sup error of solver.jacobian's apply(v) against dF[v]: dU
    contracted with G^{ij}, plus the pointwise derivative in u of
    beta_l = w_l e^{2(k-l)u} and t alpha e^{2u}."""
    k, u, t = coeff.k, state.u, state.t
    dbeta = 2.0 * (k - np.arange(k - 1)) * geometry.beta_weights(coeff, u, t)
    gl = -state.sigma[..., : k - 1] / state.sigma[..., k - 1 : k]
    pointwise = np.sum(dbeta * gl, axis=-1) + 2.0 * t * coeff.alpha * np.exp(2.0 * u)
    exact = np.einsum("...ij,...ij->...", state.grad, dU) + pointwise * v
    apply, _ = solver.jacobian(state, bg)
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
    bg = geometry.flat_background(grid, tau=tau, B=-(np.eye(n) + E + E.swapaxes(-1, -2)))
    coeff = geometry.CoefficientData(
        grid=grid,
        k=k,
        alpha=random_field(grid, rng, 1.0),
        alpha_l=rng.uniform(0.5, 2.0, (k - 1,) + grid.shape),
    )
    geometry.validate_hypotheses(bg, coeff)
    u = random_field(grid, rng, amplitude)
    state = operator.evaluate(u, t, bg, coeff)
    assume(state.margin.min() > solver._CONE_MARGIN)
    v = rng.standard_normal(grid.shape)
    rel = jacobian_error(state, v, central_dU(u, v, t, bg), bg, coeff)
    assert rel <= 1e-12, f"relative sup error {rel:.3e}"


@pytest.mark.parametrize("n", [3, 5])
def test_evaluate_leaves_its_inputs_untouched(n):
    # quotient_eval builds the gradient in its own copy of U's planes; the
    # stored U and jet must survive it, and G must not alias U
    grid = make_grid(n, 8)
    bg = geometry.flat_background(grid, tau=0.3)
    coeff = default_coeff(grid, k=n)
    u = smooth_u(grid)
    t = 0.6
    state = operator.evaluate(u, t, bg, coeff)
    fresh = compute_jet(grid, u)
    assert np.array_equal(state.jet.hess_planes, fresh.hess_planes)
    assert np.array_equal(state.U, geometry.assemble_U(fresh, bg, t))
    assert not np.shares_memory(state.U, state.grad)


# ---------------------------------------------------------------------------
# Newton at fixed t


def test_newton_at_anchor_zero_iterations():
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, 3)
    cfg = solver.SolverConfig()
    res = solver.newton_solve_at_t(grid.zeros(), 0.0, bg, coeff, cfg)
    assert res.iterations == 0
    assert res.residual_norm <= 1e-12


def test_newton_returns_to_zero():
    # the t=0 problem has u=0 as its only root; Newton must find its way back
    grid = make_grid(3, 16)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, 3)
    cfg = solver.SolverConfig()
    u0 = 0.01 * np.sin(grid.coordinate(0) + np.zeros(grid.shape))
    res = solver.newton_solve_at_t(u0, 0.0, bg, coeff, cfg)
    assert sup_norm(res.u) <= 1e-8
    assert res.iterations <= 6


def test_newton_quadratic_tail():
    grid = make_grid(3, 16)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, 3)
    cfg = solver.SolverConfig()
    u0 = 0.01 * np.sin(grid.coordinate(0) + np.zeros(grid.shape))
    res = solver.newton_solve_at_t(u0, 0.0, bg, coeff, cfg)
    rs = res.history
    assert len(rs) >= 3
    # observed contraction constants sit near 1.1; 50 leaves slack for
    # rounding in the final, nearly-converged step
    for j in (len(rs) - 3, len(rs) - 2):
        assert rs[j + 1] <= 50.0 * rs[j] ** 2, f"step {j}: {rs[j + 1]:.3e} vs {rs[j]:.3e}"


def test_newton_rejects_inadmissible_start():
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, 3)
    cfg = solver.SolverConfig()
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    res = solver.newton_solve_at_t(5.0 * np.sin(x1), 0.0, bg, coeff, cfg)
    assert "initial guess" in res.note
    assert res.state is None and res.iterations == 0 and res.damping_trials == 0


def test_newton_iteration_limit_reported():
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    cfg = solver.SolverConfig(max_newton=1)
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, bg, coeff, cfg)
    assert "limit" in res.note
    assert res.residual_norm is not None and res.residual_norm > 0
    assert res.state is None


def test_newton_nan_residual_is_not_converged(monkeypatch):
    # NaN compares False against any tolerance: the solve must fail on it,
    # not report convergence after 0 iterations, and before any linear solve
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = geometry.CoefficientData(
        grid=grid, k=3, alpha=np.full(grid.shape, np.nan), alpha_l=np.ones((2,) + grid.shape)
    )
    linear_solves = []
    monkeypatch.setattr(solver, "_gmres", lambda *args: linear_solves.append(args))
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, bg, coeff, solver.SolverConfig())
    assert np.isnan(res.residual_norm)
    assert "non-finite residual" in res.note
    assert res.state is None
    assert linear_solves == []
    assert res.iterations == 0 and res.linear_iterations == 0


def test_newton_fails_fast_at_the_damping_floor(monkeypatch):
    # the reversed Newton direction raises the residual for every damping
    # factor: three halvings, four trial evaluations, then the solve fails
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
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
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, bg, coeff, solver.SolverConfig())
    assert "damping" in res.note
    # the first call evaluates the start, then s = 1, 1/2, 1/4, 1/8
    assert len(calls) - 1 == 4
    assert res.history == (res.residual_norm,)
    assert res.damping_trials == len(calls) - 2


def test_newton_fails_fast_on_a_stalled_iteration(monkeypatch):
    # a twentieth of the Newton step cuts the residual by about 5%: the first
    # iteration may do that, the second may not
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    gmres = solver._gmres

    def timid(*args):
        delta, iters, note = gmres(*args)
        return 0.05 * delta, iters, note

    monkeypatch.setattr(solver, "_gmres", timid)
    res = solver.newton_solve_at_t(grid.zeros(), 0.6, bg, coeff, solver.SolverConfig())
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


# ---------------------------------------------------------------------------
# continuation


def test_continuation_stationary_path_stays_at_zero(march):
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = trivial_coeff(grid, 3)
    cfg = solver.SolverConfig()
    log, last, reports = march(bg, coeff, cfg)
    assert last.t == 1.0
    assert np.array_equal(last.u, np.zeros(grid.shape))
    assert sum(rec.newton_iters for rec in log) == 0
    assert all(r.sup_u == 0.0 for r in reports)


def test_continuation_default_problem(march):
    grid = make_grid(3, 8)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    cfg = solver.SolverConfig()
    log, last, reports = march(bg, coeff, cfg)
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
    assert any(rec.dt > cfg.dt_init for rec in accepted)
    assert sum(rec.newton_iters for rec in accepted) <= 8
    # each record holds the step taken, the last one clamped to t = 1
    assert [rec.dt for rec in accepted[1:]] == [b - a for a, b in zip(ts, ts[1:])]
    for rep in reports:
        assert rep.cone_margin > 1e-10
        assert rep.min_eig_Gij > 0.0
        assert rep.eq33_slack >= -1e-8


def test_continuation_stall_carries_last_state(march):
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    # one Newton iteration is never enough at t = 1 nor at t = 0.2, and
    # dt_min forbids halving below 0.15, so the march stalls at the anchor
    cfg = solver.SolverConfig(max_newton=1, dt_init=0.2, dt_min=0.15)
    log, last, reports = march(bg, coeff, cfg)
    assert last is not None
    assert last.t == 0.0
    assert np.array_equal(last.u, np.zeros(grid.shape))
    assert len(reports) == 1  # the anchor was still monitored
    # the anchor is the first record, and it holds its root and report
    assert log[0] is last and (last.t, last.dt, last.accepted) == (0.0, 0.0, True)
    assert last.report is reports[0]
    rejected = [rec for rec in log if not rec.accepted]
    # the whole-path attempt, then dt_init
    assert [(rec.t, rec.dt) for rec in rejected] == [(1.0, 1.0), (0.2, 0.2)]
    assert all(rec.note for rec in rejected)
    # a rejected step logs the Newton iterations it spent, not zero
    assert all(rec.newton_iters == 1 for rec in rejected)
    # a rejected record holds neither a state nor a report
    assert all(rec.u is None and rec.report is None for rec in rejected)
    # the run ends on the step that fell below dt_min: nothing is yielded
    # after the stall record
    assert log[-1] is rejected[-1]
    assert [rec.t for rec in log] == [0.0, 1.0, 0.2] and 0.5 * log[-1].dt < cfg.dt_min


def test_continuation_recovers_after_rejected_enlarged_step(march):
    # with three Newton iterations allowed, a doubled step fails and has to
    # be halved again, more than once along the path
    grid = make_grid(3, 8)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    cfg = solver.SolverConfig(max_newton=3)
    log, last, _ = march(bg, coeff, cfg)
    assert last.t == 1.0
    assert last.residual_norm <= cfg.residual_tol
    accepted = [rec for rec in log if rec.accepted]
    rejected = [rec for rec in log if not rec.accepted]
    ts = [rec.t for rec in accepted]
    assert ts[-1] == 1.0 and all(a < b for a, b in zip(ts, ts[1:]))
    assert rejected and all(rec.note for rec in rejected)
    assert all(rec.newton_iters == cfg.max_newton for rec in rejected)
    # the whole path is tried first and hands over to dt_init
    whole, after = log[1:3]
    assert (whole.t, whole.dt, whole.accepted) == (1.0, 1.0, False)
    assert after.dt == cfg.dt_init
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
    bg = geometry.flat_background(grid, tau=0.0)
    x1 = grid.coordinate(0) + np.zeros(grid.shape)
    x2 = grid.coordinate(1) + np.zeros(grid.shape)
    coeff = geometry.CoefficientData(
        grid=grid, k=3, alpha=20.0 * np.sin(x1) * np.cos(x2), alpha_l=np.ones((2,) + grid.shape)
    )
    cfg = solver.SolverConfig()
    log, last, _ = march(bg, coeff, cfg)
    assert last.t == 1.0
    assert last.residual_norm <= cfg.residual_tol
    rejected = [rec for rec in log if not rec.accepted]
    assert (rejected[0].t, rejected[0].dt) == (1.0, 1.0)
    assert log[2].dt == cfg.dt_init
    # Newton iterations, accepted + rejected: 28 + 0 with the doubling
    # controller alone; 36 + 5 measured with the whole-path attempt, whose
    # damping floor also rejects the first step of dt_init
    assert sum(rec.newton_iters for rec in log) <= 41


def test_newton_forcing_terms(monkeypatch):
    # inexact Newton: GMRES is asked for eta_0 = 0.01 first, then for
    # Eisenstat-Walker terms, never for less than _LINEAR_RTOL or than what
    # reaching residual_tol needs
    grid = make_grid(3, 8)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
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
    res = solver.newton_solve_at_t(grid.zeros(), 0.3, bg, coeff, cfg)
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
    res = solver.newton_solve_at_t(grid.zeros(), 0.3, bg, coeff, cfg)
    assert res.residual_norm <= cfg.residual_tol
    assert rtols and min(rtols) >= 0.05


def test_continuation_is_deterministic(march):
    grid = make_grid(3, 8)
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = default_coeff(grid)
    cfg = solver.SolverConfig()
    runs = []
    for _ in range(2):
        log, last, reports = march(bg, coeff, cfg)
        runs.append(
            (
                last.u.tobytes(),
                tuple((rec.t, rec.residual_norm, rec.newton_iters) for rec in log),
                tuple(astuple(rep) for rep in reports),
            )
        )
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# manufactured problems


def test_manufacture_trivial_field_gives_zero_alpha():
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    coeff = solver.manufacture_alpha(grid.zeros(), bg, trivial_coeff(grid, 3))
    assert np.array_equal(coeff.alpha, np.zeros(grid.shape))


def test_manufactured_residual_is_stencil_sized():
    # construction used the analytic jet, so the discrete residual at u_star
    # is the O(h^2) consistency error - nonzero, and shrinking with N
    sups = {}
    for N in (8, 16):
        grid = make_grid(3, N)
        bg = geometry.flat_background(grid, tau=0.0)
        u_star, coeff = manufactured("0.1*sin(x1)*cos(x2)", bg)
        sups[N] = sup_norm(residual(u_star, 1.0, bg, coeff))
    assert 1e-6 < sups[16] < sups[8] < 1e-1
    assert 2.0 < sups[8] / sups[16] < 8.0  # about 4x per halving of h


def test_manufacture_with_stencil_jet_is_exact_at_grid_level():
    # same field, but alpha built from the stencil jet: u_star is then an
    # exact discrete root and Newton has nothing to do
    grid = make_grid(3, 8)
    bg = geometry.flat_background(grid, tau=0.0)
    u_star = analytic_jet("0.1*sin(x1)*cos(x2)", grid).value
    coeff = solver.manufacture_alpha(u_star, bg, default_coeff(grid))  # jet defaults to stencil
    assert sup_norm(residual(u_star, 1.0, bg, coeff)) <= 1e-12


def test_manufacture_rejects_large_amplitude():
    grid = make_grid(3, 16)
    bg = geometry.flat_background(grid, tau=0.0)
    with pytest.raises(cones.InadmissibleStateError, match="node"):
        manufactured("5*sin(x1)*cos(x2)", bg)


def test_manufacture_checks_alpha_l_shape():
    # manufacture takes its alpha_l from CoefficientData, which refuses a
    # stack of the wrong length
    grid = make_grid()
    bg = geometry.flat_background(grid, tau=0.0)
    with pytest.raises(ValueError, match="k-1"):
        bad = geometry.CoefficientData(
            grid=grid, k=3, alpha=grid.zeros(), alpha_l=np.ones((3,) + grid.shape)
        )
        solver.manufacture_alpha(grid.zeros(), bg, bad)


def test_manufactured_newton_from_interpolant():
    grid = make_grid(3, 16)
    bg = geometry.flat_background(grid, tau=0.0)
    u_star, coeff = manufactured("0.1*sin(x1)*cos(x2)", bg)
    cfg = solver.SolverConfig()
    res = solver.newton_solve_at_t(u_star, 1.0, bg, coeff, cfg)
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
        bg = geometry.flat_background(grid, tau=0.0)
        u_star, coeff = manufactured("0.1*sin(x1)*cos(x2)", bg)
        res = solver.newton_solve_at_t(u_star, 1.0, bg, coeff, cfg)
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
            bg = rotated_background(grid, tau)
        else:
            B = geometry.spaceform_schouten(-1.0, n, tau) if background == "spaceform:-1" else None
            bg = geometry.flat_background(grid, tau=tau, B=B)
        u_star, coeff = manufactured("0.1*sin(x1)*cos(x2)", bg, k=k)
        res = solver.newton_solve_at_t(u_star, 1.0, bg, coeff, cfg)
        assert res.residual_norm <= cfg.residual_tol
        errs[N] = sup_norm(res.u - u_star)
    coarse, fine = resolutions
    order = np.log(errs[coarse] / errs[fine]) / np.log(fine / coarse)
    assert 1.8 <= order <= 2.2, f"order {order:.3f} from errors {errs}"
