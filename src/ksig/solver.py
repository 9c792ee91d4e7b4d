"""Damped inexact Newton-GMRES homotopy continuation for the deformed
quotient equation.

The path follows the explicit one-parameter family: coefficient weights
(1-t) c + t alpha_l and background blend -t B + (1-t) g0, anchored at the
exactly known root u = 0 at t = 0.  Each t-step solves F(u; t) = 0 with a
damped inexact Newton iteration: its linear systems are solved by the
module's own matrix-free restarted GMRES (_gmres), left-preconditioned by
the Jacobian's diagonal, only to an Eisenstat-Walker forcing term; damping
keeps every iterate strictly inside Gamma_{k-1}.  A residual that is not
finite, or whose 2-norm overflows, fails the Newton solve before GMRES
iterates.

The a priori estimates keep the whole path closed, so the run first tries
t = 1 in one step from the anchor.  Newton gives up on a step as soon as
its own contraction shows the step has left the convergence region
(Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004, ch. 5):
when damping needs a factor below _DAMPING_FLOOR, or when an iteration
after the first cuts the residual by less than 1 - _STALL_RATIO.  If the
whole-path attempt fails, the march restarts from t = 0 with dt_init (at
most half the failed step) and an adaptive controller: the t-step doubles
after every step that Newton takes in few iterations and halves on a
failure.  A run that needs a step below dt_min stalls: its last record is
that rejected step, and its last accepted state has t < 1, the same way a
finished run ends on its accepted step at t = 1.
A failed Newton solve is an expected outcome of the march, not an error: it
returns a NewtonResult whose note gives the reason.

A run sets only the residual tolerance, the Newton limit and the step
controls (SolverConfig); damping, the cone margin and the GMRES limits are
the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
# _LINEAR_MAXITER GMRES iterations, restarted every _LINEAR_RESTART.
_EW_GAMMA = 0.9
_EW_ETA_MAX = 0.01
_LINEAR_RTOL = 1e-10
_LINEAR_MAXITER = 400
_LINEAR_RESTART = 50

__all__ = [
    "SolverConfig",
    "NewtonResult",
    "StepRecord",
    "jacobian",
    "newton_solve_at_t",
    "continuation_steps",
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
    linear_iterations: int  # GMRES iterations over all its linear solves
    note: str  # empty when the solve converged, else why it failed


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float  # the step tried: t minus the last accepted t
    newton_iters: int
    residual_norm: float
    damping_trials: int
    linear_iters: int
    note: str = ""  # empty when the step was accepted, else why it failed
    u: np.ndarray | None = None  # the accepted root; None on a rejected step
    report: monitors.MonitorReport | None = None  # likewise

    @property
    def accepted(self):
        return not self.note


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


def _gmres(apply, diagonal, b, rtol):
    """Restarted GMRES(_LINEAR_RESTART) for apply(x) = b, left-preconditioned
    by the Jacobi `diagonal`, with modified Gram-Schmidt Arnoldi and Givens
    rotations (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986; Kelley,
    Iterative Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 3).

    Returns (x, iterations, note).  x has converged when |b - apply(x)|_2
    <= rtol |b|_2, and note is then empty; otherwise it says why the solve
    failed: _LINEAR_MAXITER iterations, or a |b|_2 that overflows.  A cycle
    ends once its preconditioned residual has shrunk by the factor the true
    residual at the cycle's start still needs, or on breakdown.
    """
    x = np.zeros_like(b)
    with np.errstate(over="ignore"):
        bnorm = np.linalg.norm(b)
    if not math.isfinite(bnorm):
        return x, 0, "the right-hand side's 2-norm overflows"
    target = rtol * bnorm
    d = np.where(np.abs(diagonal) < 1e-12, 1.0, diagonal)
    m = min(_LINEAR_RESTART, b.size)
    V = np.empty((m + 1,) + b.shape)
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    iters = 0
    r, rnorm = b, bnorm
    while rnorm > target and iters < _LINEAR_MAXITER:
        V[0] = r / d
        beta = np.linalg.norm(V[0])
        V[0] *= 1.0 / beta
        tol = beta * (target / rnorm)
        g = np.zeros(m + 1)
        g[0] = beta
        j = 0
        while j < m and iters < _LINEAR_MAXITER:
            w = apply(V[j]) / d
            h0 = np.linalg.norm(w)
            for i in range(j + 1):
                H[i, j] = np.vdot(V[i], w)
                w -= H[i, j] * V[i]
            h1 = H[j + 1, j] = np.linalg.norm(w)
            breakdown = h1 <= np.finfo(float).eps * h0  # the Krylov space holds the solution
            if not breakdown:
                np.multiply(w, 1.0 / h1, out=V[j + 1])
            for i in range(j):  # the earlier rotations, then this column's own
                a, c = H[i, j], H[i + 1, j]
                H[i, j], H[i + 1, j] = cs[i] * a + sn[i] * c, cs[i] * c - sn[i] * a
            mag = math.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / mag, H[j + 1, j] / mag
            H[j, j], H[j + 1, j] = mag, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            j += 1
            iters += 1
            if abs(g[j]) <= tol or breakdown:
                break
        y = np.linalg.solve(H[:j, :j], g[:j])  # H[:j, :j] is upper triangular now
        x += np.tensordot(y, V[:j], axes=1)
        r = b - apply(x)
        rnorm = np.linalg.norm(r)
    if rnorm <= target:
        return x, iters, ""
    return x, iters, f"GMRES residual {rnorm / bnorm:.3e} above {rtol:.3e} after {iters} iterations"


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
    fails at the iteration limit, on a failed linear solve, on an
    inadmissible starting iterate and on a non-finite starting residual,
    before any linear solve.  A residual that is not <= residual_tol, NaN
    included, is never converged.  A failed solve returns its reason in
    `note` and no `state`.
    """
    u = np.array(u0, dtype=np.float64, copy=True)
    state = operator.evaluate(u, t, background, coeff)
    rnorm = sup_norm(state.residual)
    history = [rnorm]
    iters = 0
    backtracks = 0
    linear_iters = 0
    note = ""

    def failure(reason):
        return f"{reason} at t={t} (residual {rnorm:.3e})"

    if not state.margin.min() > _CONE_MARGIN:
        note = str(operator.admissibility_failure(state, _CONE_MARGIN, f"initial guess at t={t}"))
    elif not math.isfinite(rnorm):
        note = failure("non-finite residual")

    while not (note or rnorm <= config.residual_tol):
        if iters >= config.max_newton:
            note = failure(f"Newton iteration limit {config.max_newton}")
            break
        eta = _forcing_term(rnorm, history[-2] if iters else None, config)
        delta, lin_iters, lin_note = _gmres(*jacobian(state, background), -state.residual, eta)
        del state  # the trials need only u and rnorm; free its arrays for theirs
        linear_iters += lin_iters
        if lin_note:
            note = failure(f"linear solve failed: {lin_note}")
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
        linear_iterations=linear_iters,
        note=note,
    )


def continuation_steps(background, coeff, config):
    """March t from 0 to 1 with adaptive steps, yielding one StepRecord per
    Newton solve, the t = 0 anchor first.

    Callers validate the hypotheses (geometry.validate_hypotheses) first;
    this routine does not repeat the check.  The first step after the anchor
    is the whole path, t = 1.  If it fails, the next step is dt_init, or
    half the failed step if that is smaller, and from there an accepted step
    that took at most _GROW_NEWTON Newton iterations doubles dt, unless it is
    one of the first _HOLD_AFTER_REJECT accepted steps after a later
    rejection; the last step is clamped to t = 1.  A failed step halves the
    step it tried.  The march ends after the step that reaches t = 1, or
    after the rejected step that leaves dt below dt_min: a log that ends on a
    rejected record is a stall, and its note gives the reason.  Each record
    holds the step actually tried, the Newton iterations, final residual,
    damping backtracks and GMRES iterations spent on it, and the note of a
    rejected step; an accepted record also holds its root u and its
    MonitorReport.  A failed anchor raises RuntimeError.
    """

    def step(u, t, dt):
        """The record of one Newton solve; its NewtonResult, which holds a
        whole evaluated state, is freed on return, before the next solve."""
        res = newton_solve_at_t(u, t, background, coeff, config)
        if res.note:
            return StepRecord(t, dt, res.iterations, res.residual_norm, res.damping_trials,
                              res.linear_iterations, res.note)
        report = monitors.snapshot_point(res.state, background, coeff, res.iterations)
        return StepRecord(t, dt, res.iterations, res.residual_norm, res.damping_trials,
                          res.linear_iterations, "", res.u, report)

    last = step(background.grid.zeros(), 0.0, 0.0)  # the last accepted record
    if last.note:
        raise RuntimeError(last.note)
    yield last
    dt = 1.0  # the whole path first
    hold = 0  # accepted steps still to take before dt may grow again
    while last.t < 1.0:
        t_try = last.t + dt
        if t_try >= 1.0 - 1e-12:  # snap: accumulated steps may land at 1 - ulp
            t_try = 1.0
        rec = step(last.u, t_try, t_try - last.t)
        yield rec
        if rec.accepted:
            last = rec
            if hold:
                hold -= 1
            elif rec.newton_iters <= _GROW_NEWTON:
                dt *= 2.0
            continue
        if rec.dt == 1.0:  # the whole-path attempt: hand over to the controller
            dt, hold = min(config.dt_init, 0.5 * rec.dt), 0
        else:
            dt, hold = 0.5 * rec.dt, _HOLD_AFTER_REJECT
        if dt < config.dt_min:
            return


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
    # at t = 1 the weights (1-t) c + t alpha_l are alpha_l exactly; a huge
    # u_star may overflow to a NaN margin, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        state = operator.evaluate(u_star, 1.0, background, coeff, jet=jet)
    if not state.margin.min() > 0.0:
        raise operator.admissibility_failure(state, 0.0, "u_star rejected")
    return replace(coeff, alpha=-np.exp(-2.0 * state.u) * state.value)
