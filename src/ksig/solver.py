"""Damped inexact Newton-GMRES homotopy continuation for the deformed
quotient equation.

The path follows the explicit one-parameter family: coefficient weights
(1-t) c + t alpha_l and background blend -t B + (1-t) g0, anchored at the
exactly known root u = 0 at t = 0.  Each t-step solves F(u; t) = 0 with a
damped inexact Newton iteration: its linear systems are matrix-free
restarted GMRES with diagonal preconditioning, solved only to an
Eisenstat-Walker forcing term; damping keeps every iterate strictly inside
Gamma_{k-1}.

The a priori estimates keep the whole path closed, so the run first tries
t = 1 in one step from the anchor.  Newton gives up on a step as soon as
its own contraction shows the step has left the convergence region
(Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004, ch. 5):
when damping needs a factor below _DAMPING_FLOOR, or when an iteration
after the first cuts the residual by less than 1 - _STALL_RATIO.  If the
whole-path attempt fails, the march restarts from t = 0 with dt_init (at
most half the failed step) and an adaptive controller: the t-step doubles
after every step that Newton takes in few iterations and halves on a
failure.  A run that needs a step below dt_min stalls: it returns its last
accepted state, with t < 1, the same way a finished run returns t = 1.
A failed Newton solve is an expected outcome of the march, not an error: it
returns a NewtonResult whose note gives the reason.

A run sets only the residual tolerance, the Newton limit and the step
controls (SolverConfig); damping, the cone margin and the GMRES limits are
the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import monitors, operator
from .grid import shift, sup_norm

# Step-length control from the corrector's iteration count (Allgower &
# Georg, Introduction to Numerical Continuation Methods, SIAM 2003): an
# accepted step that took at most this many Newton iterations doubles dt,
# except for the first _HOLD_AFTER_REJECT accepted steps after a rejection,
# which keep dt so that a step just halved is not at once retried.
_GROW_NEWTON = 5
_HOLD_AFTER_REJECT = 2
# Fail fast on a step outside Newton's convergence region: damping shrinks
# the step by _DAMPING_SHRINK per trial and stops below _DAMPING_FLOOR (three
# halvings), and from the second iteration on an iterate whose residual
# sup-norm exceeds _STALL_RATIO times the previous one ends the solve.
_DAMPING_SHRINK = 0.5
_DAMPING_FLOOR = 0.125
_STALL_RATIO = 0.9
# Every iterate, damped trials included, keeps min_j sigma_j(U) above this
# margin at every node.
_CONE_MARGIN = 1e-10
# Eisenstat-Walker forcing term "choice 2" (SIAM J. Sci. Comput. 17, 1996):
# eta = gamma (|F_k| / |F_{k-1}|)^2, capped at eta_max, which is also eta_0,
# and never below _LINEAR_RTOL.  One linear solve takes at most
# _LINEAR_MAXITER GMRES iterations.
_EW_GAMMA = 0.9
_EW_ETA_MAX = 0.01
_LINEAR_RTOL = 1e-10
_LINEAR_MAXITER = 400

__all__ = [
    "SolverConfig",
    "NewtonResult",
    "StepRecord",
    "ContinuationState",
    "jacobian",
    "newton_solve_at_t",
    "continuation_run",
    "manufacture_alpha",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and step controls for one continuation run.

    k and tau are not settings here: the solver reads coeff.k and
    background.tau.
    """

    residual_tol: float = 1e-9
    max_newton: int = 30
    dt_init: float = 0.1
    dt_min: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError("residual_tol must be positive and finite")
        if not 0.0 < self.dt_min < self.dt_init <= 1.0:
            raise ValueError("need 0 < dt_min < dt_init <= 1")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")


@dataclass(frozen=True)
class NewtonResult:
    u: np.ndarray  # the last iterate reached, converged or not
    iterations: int
    residual_norm: float
    history: tuple  # residual sup-norms, one per iterate including the start
    state: operator.PointState | None  # u evaluated; None when the solve failed
    damping_trials: int  # trial evaluations at a damping factor below 1
    note: str  # empty when the solve converged, else why it failed


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    accepted: bool
    newton_iters: int
    residual_norm: float
    damping_trials: int
    note: str = ""


@dataclass
class ContinuationState:
    t: float
    u: np.ndarray
    residual_norm: float
    newton_iters: int
    step_log: list = field(default_factory=list)


def jacobian(state, background):
    """dF at `state`, an operator.evaluate result, as per-node weights on
    compute_jet's stencil, built once.

    dF[v] = A^{ij} D_ij v + b^i D_i v + c v with A = G + c1 tr(G) I,
    b = (2-tau) tr(G) grad u - 2 G grad u, c = zeroth, G = G^{ij} and
    c1 = (1-tau)/(n-2), all on the flat chart.  Returns (apply, diagonal):
    apply(v) is dF[v] for a grid field v, summed from the weights of v(x),
    of v(x +- h e_i) and of the four-point cross differences; diagonal is
    the weight of v(x), dF's diagonal.
    """
    grid = background.grid
    n = grid.dim
    h = grid.spacing
    c1 = (1.0 - background.tau) / (n - 2.0)
    # G^{ij} as component planes: quotient_eval builds the gradient on
    # contiguous planes and mirrors its upper triangle, so it is exactly symmetric
    G = np.moveaxis(state.grad, (-2, -1), (0, 1))
    trace_g = np.trace(G)
    g = state.jet.grad_planes
    b = (2.0 - background.tau) * trace_g * g - 2.0 * np.einsum("ij...,j...->i...", G, g)
    # A^{ii} and A^{ij} (i != j) are the diagonal and off-diagonal of G + c1 tr(G) I
    diag_g = np.moveaxis(np.diagonal(G), -1, 0)
    # weights multiply by the reciprocal of the stencil denominators; dividing
    # instead rounds differently and moves the stored solutions' last bits
    axial = (diag_g + c1 * trace_g) * (1.0 / (h * h))
    drift = b * (1.0 / (2.0 * h))
    centre = state.zeroth - 2.0 * axial.sum(axis=0)
    plus = axial + drift
    minus = axial - drift
    cross = [(i, j, G[i, j] * (1.0 / (2.0 * h * h))) for i in range(n) for j in range(i + 1, n)]
    fwd, back = grid.zeros(), grid.zeros()  # v shifted by +-1 node, reused by every apply

    def apply(v):
        out = centre * v
        diffs = []
        for i in range(n):
            shift(v, 1, i, fwd)
            shift(v, -1, i, back)
            out += plus[i] * fwd + minus[i] * back
            diffs.append(fwd - back)
        for i, j, w in cross:
            np.subtract(shift(diffs[i], 1, j, fwd), shift(diffs[i], -1, j, back), out=fwd)
            out += np.multiply(w, fwd, out=fwd)
        return out

    return apply, centre


def _solve_linear(state, background, rtol):
    """GMRES for dF[delta] = -F to relative residual rtol; returns (delta, info)."""
    shape = state.u.shape
    nflat = state.u.size
    apply, diagonal = jacobian(state, background)

    def matvec(x):
        return apply(x.reshape(shape)).ravel()

    A = LinearOperator((nflat, nflat), matvec=matvec, dtype=np.float64)
    centre = diagonal.ravel()
    diag = np.where(np.abs(centre) < 1e-12, 1.0, centre)  # Jacobi on the stencil centre
    M = LinearOperator((nflat, nflat), matvec=lambda x: x / diag, dtype=np.float64)
    b = -state.residual.ravel()
    restart = min(50, nflat)
    cycles = math.ceil(_LINEAR_MAXITER / restart)
    x, info = gmres(A, b, rtol=rtol, atol=0.0, restart=restart, maxiter=cycles, M=M)
    return x.reshape(shape), info


def _forcing_term(rnorm, prev_rnorm, config):
    """The relative GMRES tolerance for the Newton step at residual rnorm.

    Eisenstat-Walker choice 2 capped at _EW_ETA_MAX, but never below
    0.5 residual_tol / rnorm (a step that only has to reach residual_tol is
    not solved past it) nor below _LINEAR_RTOL.
    """
    eta = _EW_ETA_MAX
    if prev_rnorm is not None:
        eta = min(eta, _EW_GAMMA * (rnorm / prev_rnorm) ** 2)
    return max(eta, 0.5 * config.residual_tol / rnorm, _LINEAR_RTOL)


def newton_solve_at_t(u0, t, background, coeff, config):
    """Damped Newton at fixed t; returns a NewtonResult, converged or not.

    Each linear solve stops at the forcing term of _forcing_term.  Damping
    shrinks the step until the trial iterate keeps every node inside
    Gamma_{k-1} with margin _CONE_MARGIN and strictly decreases the
    residual sup-norm; a factor below _DAMPING_FLOOR fails.  From the second
    iteration on, an iterate above tolerance whose residual exceeds
    _STALL_RATIO times the previous one fails as a stall.  The solve also
    fails at the iteration limit, on a stuck linear solve and on an
    inadmissible starting iterate.  A residual that is not <= residual_tol,
    NaN included, is never converged.  A failed solve returns its reason in
    `note` and no `state`.
    """
    u = np.array(u0, dtype=np.float64, copy=True)
    state = operator.evaluate(u, t, background, coeff)
    rnorm = sup_norm(state.residual)
    history = [rnorm]
    iters = 0
    backtracks = 0
    note = ""
    if not state.margin.min() > _CONE_MARGIN:
        note = str(operator.admissibility_failure(state, _CONE_MARGIN, f"initial guess at t={t}"))

    def failure(reason):
        return f"{reason} at t={t} (residual {rnorm:.3e})"

    while not (note or rnorm <= config.residual_tol):
        if iters >= config.max_newton:
            note = failure(f"Newton iteration limit {config.max_newton}")
            break
        eta = _forcing_term(rnorm, history[-2] if iters else None, config)
        delta, info = _solve_linear(state, background, eta)
        del state  # the trials need only u and rnorm; free its arrays for theirs
        if info != 0:
            note = failure(f"linear solver stagnated (info={info})")
            break
        s = 1.0
        while True:
            trial_u = u + s * delta
            # overshooting trials may overflow exp or leave the cone; NaNs
            # compare False below and the step is simply rejected
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                trial = operator.evaluate(trial_u, t, background, coeff)
                ok = bool(
                    trial.margin.min() > _CONE_MARGIN
                    and np.isfinite(trial.residual).all()
                    and sup_norm(trial.residual) < rnorm
                )
            if ok:
                break
            s *= _DAMPING_SHRINK
            if s < _DAMPING_FLOOR:
                note = failure(f"damping below {_DAMPING_FLOOR}")
                break
            backtracks += 1
        if note:
            break
        u, state = trial_u, trial
        prev, rnorm = rnorm, sup_norm(state.residual)
        history.append(rnorm)
        iters += 1
        if iters >= 2 and rnorm > config.residual_tol and rnorm > _STALL_RATIO * prev:
            note = failure(f"Newton stalled (contraction {rnorm / prev:.3f})")
    return NewtonResult(
        u=u,
        iterations=iters,
        residual_norm=rnorm,
        history=tuple(history),
        state=None if note else state,
        damping_trials=backtracks,
        note=note,
    )


def continuation_run(background, coeff, config):
    """March t from 0 to 1 with adaptive steps; returns (state, reports).

    Callers validate the hypotheses (geometry.validate_hypotheses) first;
    this routine does not repeat the check.  The first step is the whole
    path, t = 1 from the anchor.  If it fails, the next step is dt_init, or
    half the failed step if that is smaller, and from there an accepted step
    that took at most _GROW_NEWTON Newton iterations doubles dt, unless it is
    one of the first _HOLD_AFTER_REJECT accepted steps after a later
    rejection; the last step is clamped to t = 1.  A failed step halves the
    step it tried.  When dt falls below dt_min the march stops and the
    state returned is the last accepted one, so state.t < 1 marks a stall
    and the last StepRecord, the rejected step, gives the reason in its
    note.  Each StepRecord is built from the step's NewtonResult: the step
    actually tried, the Newton iterations, final residual and damping
    backtracks spent on it, and the note of a rejected step.  One
    MonitorReport is emitted per accepted step, including the t = 0 anchor;
    a failed anchor raises RuntimeError.
    """
    log = []
    reports = []

    def record(res, t, step):
        """Log a step from its Newton result, and monitor it if accepted."""
        accepted = not res.note
        log.append(
            StepRecord(t, step, accepted, res.iterations, res.residual_norm, res.damping_trials, res.note)
        )
        if accepted:
            reports.append(monitors.snapshot_point(res.state, background, coeff, res.iterations))

    anchor = newton_solve_at_t(background.grid.zeros(), 0.0, background, coeff, config)
    record(anchor, 0.0, 0.0)
    if anchor.note:
        raise RuntimeError(anchor.note)
    u, last_rnorm, total_iters = anchor.u, anchor.residual_norm, anchor.iterations
    del anchor  # a NewtonResult holds a whole evaluated state

    t = 0.0
    dt = 1.0  # the whole path first
    hold = 0  # accepted steps still to take before dt may grow again
    while t < 1.0:
        t_try = t + dt
        if t_try >= 1.0 - 1e-12:  # snap: accumulated steps may land at 1 - ulp
            t_try = 1.0
        step = t_try - t
        res = newton_solve_at_t(u, t_try, background, coeff, config)
        record(res, t_try, step)
        if res.note:
            if step == 1.0:  # the whole-path attempt: hand over to the controller
                dt, hold = min(config.dt_init, 0.5 * step), 0
            else:
                dt, hold = 0.5 * step, _HOLD_AFTER_REJECT
            if dt < config.dt_min:
                break
            continue
        t = t_try
        u, last_rnorm, iters = res.u, res.residual_norm, res.iterations
        del res  # free its evaluated state before the next step builds one
        total_iters += iters
        if hold:
            hold -= 1
        elif iters <= _GROW_NEWTON:
            dt *= 2.0
    state = ContinuationState(
        t=t, u=u, residual_norm=last_rnorm, newton_iters=total_iters, step_log=log
    )
    return state, reports


def manufacture_alpha(u_star, background, coeff, *, jet=None):
    """Back-solve the t=1 equation for alpha so u_star is its exact root.

        alpha = -e^{-2 u*} [sigma_k/sigma_{k-1}(U*) - sum_l alpha_l e^{2(k-l)u*}
                            sigma_l/sigma_{k-1}(U*)]

    Returns `coeff` with alpha replaced; its alpha_l enter the equation and
    its own alpha is ignored.  alpha carries no sign constraint.  Pass the
    analytic `jet` of u_star to manufacture against exact derivatives
    (convergence studies); otherwise the stencil jet is used and the
    construction residual is identically zero at this resolution.  Rejects
    u_star whose U* leaves Gamma_{k-1}.
    """
    # at t = 1 the weights (1-t) c + t alpha_l are alpha_l exactly
    state = operator.evaluate(u_star, 1.0, background, coeff, jet=jet)
    if not state.margin.min() > 0.0:
        raise operator.admissibility_failure(state, 0.0, "u_star rejected")
    return replace(coeff, alpha=-np.exp(-2.0 * state.u) * state.value)
