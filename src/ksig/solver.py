"""Damped inexact Newton-GMRES homotopy continuation for the deformed
quotient equation.

The path follows the explicit one-parameter family: coefficient weights
(1-t) c + t alpha_l and background blend -t B + (1-t) g0, anchored at the
exactly known root u = 0 at t = 0.  Each t-step solves F(u; t) = 0 with a
damped inexact Newton iteration: its linear systems, dF from
operator.jacobian at the current iterate, are solved by the module's own
matrix-free restarted GMRES (_gmres), left-preconditioned by dF's diagonal,
only to an Eisenstat-Walker forcing term; damping keeps every iterate
strictly inside Gamma_{k-1}.  A residual that is not finite or whose 2-norm
overflows, and a dF diagonal that is not finite, fail before GMRES iterates.

The a priori estimates keep the whole path closed, so the run first tries
t = 1 in one step.  Those estimates do not depend on the grid either, so on
a resolved problem the t = 1 root on the N/2 grid lies within O(h^2) of the
root on N (nested iteration: Hackbusch, Multi-Grid Methods and
Applications, Springer 1985).  Whenever N/2 is a grid itself, the whole-path
attempt therefore starts from the prolonged root of one Newton solve at
t = 1 on the data injected onto N/2, and from the anchor when that solve
fails.  Newton gives up on a step as soon as
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
returns a StepRecord whose note gives the reason.

A run sets only the residual tolerance, the Newton limit and the step
controls (SolverConfig); damping, the cone margin and the GMRES limits are
the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import InputError, monitors, operator
from .grid import PeriodicGrid, sup_norm

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
# The smallest t-step: it moves every float t <= 1 (whose spacing is at most
# 2.2e-16), so a step can never round back to the t it started from; a step
# that ends within it of t = 1 lands on 1.
_DT_FLOOR = 1e-12
# The step budget: a march that has made this many Newton solves, the anchor
# and the whole-path attempt included, stalls at its next accepted step,
# however far from t = 1 (a cap on steps, like AUTO's NMX).  At dt_min =
# _DT_FLOOR a march could otherwise creep for up to 1e12 steps.
_MAX_STEPS = 1000

__all__ = [
    "SolverConfig",
    "StepRecord",
    "newton_solve_at_t",
    "continuation_steps",
    "manufacture_alpha",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and step controls for one continuation run.

    k and tau are not settings here: the solver reads problem.k and
    problem.tau.  dt_min is at least _DT_FLOOR, the smallest step that
    moves t.
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
        if not self.dt_min >= _DT_FLOOR:
            raise ValueError(f"dt_min must be >= {_DT_FLOOR}, the smallest step that moves t")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """One Newton solve at fixed t, converged or not: a continuation step."""

    t: float
    iterations: int
    residual_norm: float
    history: tuple  # residual sup-norms, one per iterate including the start
    damping_trials: int  # trial evaluations at a damping factor below 1
    linear_iterations: int  # GMRES iterations over all its linear solves
    note: str = ""  # empty when the solve converged, else why it failed
    u: np.ndarray | None = None  # the root; None when the solve failed
    report: monitors.MonitorReport | None = None  # the root's monitors; likewise
    dt: float = 0.0  # the step tried: t minus the last accepted t
    # the whole-path attempt's N/2 solve that chose its start, without its u
    # and report; None on every other record and where N/2 is not a grid
    coarse: StepRecord | None = None

    @property
    def accepted(self):
        return not self.note


# a dF or residual far from 1 overflows here, silently: x has converged only
# on a finite true residual, and every other end returns a note
@np.errstate(over="ignore", invalid="ignore", under="ignore")
def _gmres(apply, diagonal, b, rtol):
    """Restarted GMRES(_LINEAR_RESTART) for apply(x) = b, left-preconditioned
    by the Jacobi `diagonal`, with modified Gram-Schmidt Arnoldi and Givens
    rotations (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986; Kelley,
    Iterative Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 3).

    Returns (x, iterations, note).  x has converged when |b - apply(x)|_2
    <= rtol |b|_2, and note is then empty; otherwise it says why the solve
    failed: _LINEAR_MAXITER iterations, a |b|_2 that overflows or a diagonal
    that is not finite, a preconditioned residual r / diagonal whose 2-norm
    underflows to 0 or overflows, or a singular Krylov matrix (apply maps
    the Krylov space into a smaller one, e.g. the start vector to 0).  A
    cycle ends once its preconditioned residual has shrunk by the factor
    the true residual at the cycle's start still needs, or on breakdown.
    """
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if not math.isfinite(bnorm):
        return x, 0, "the right-hand side's 2-norm overflows"
    if not np.isfinite(diagonal).all():
        return x, 0, "non-finite Jacobian diagonal"
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
        if not 0.0 < beta < math.inf:
            return x, iters, f"the preconditioned residual's 2-norm is {beta} after {iters} iterations"
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
            if mag == 0.0:  # H[:j+1, :j+1] is singular, and a restart would start over
                return x, iters, f"GMRES breakdown: the Krylov matrix is singular after {iters} iterations"
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


def newton_solve_at_t(u0, t, problem, config):
    """Damped Newton at fixed t; returns its StepRecord, converged or not.

    Each linear solve stops at the forcing term of _forcing_term.  Damping
    shrinks the step until the trial iterate keeps every node inside
    Gamma_{k-1} with margin _CONE_MARGIN and strictly decreases the
    residual sup-norm; a factor below _DAMPING_FLOOR fails.  From the second
    iteration on, an iterate above tolerance whose residual exceeds
    _STALL_RATIO times the previous one fails as a stall.  The solve also
    fails at the iteration limit, on a failed linear solve, on an
    inadmissible starting iterate and on a non-finite starting residual,
    before any linear solve.  A residual that is not <= residual_tol, NaN
    included, is never converged.  A converged solve returns its root `u`
    and the MonitorReport of its final evaluated state, which does not
    outlive the call; a failed one returns its reason in `note` and neither.
    """
    u = np.array(u0, dtype=np.float64, copy=True)
    state = operator.evaluate(u, t, problem)
    rnorm = sup_norm(state.residual)
    history = [rnorm]
    iters = 0
    backtracks = 0
    linear_iters = 0
    note = ""

    def failure(reason):
        return f"{reason} at t={t} (residual {rnorm:.3e})"

    if not state.margin.min() > _CONE_MARGIN:
        note = operator.admissibility_failure(state, _CONE_MARGIN, f"initial guess at t={t}")
    elif not math.isfinite(rnorm):
        note = failure("non-finite residual")

    while not (note or rnorm <= config.residual_tol):
        if iters >= config.max_newton:
            note = failure(f"Newton iteration limit {config.max_newton}")
            break
        eta = _forcing_term(rnorm, history[-2] if iters else None, config)
        delta, lin_iters, lin_note = _gmres(*operator.jacobian(state, problem), -state.residual, eta)
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
            trial = operator.evaluate(trial_u, t, problem)
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
    return StepRecord(
        t=t,
        iterations=iters,
        residual_norm=rnorm,
        history=tuple(history),
        damping_trials=backtracks,
        linear_iterations=linear_iters,
        note=note,
        u=None if note else u,
        report=None if note else monitors.snapshot_point(state, problem, iters),
    )


def _coarse_problem(problem):
    """The problem injected onto the N/2 grid, or None when N/2 is not a
    grid.  The coarse nodes are every other fine node."""
    grid = problem.grid
    if grid.resolution % 4 or grid.resolution < 16:
        return None
    every_other = (Ellipsis,) + (slice(None, None, 2),) * grid.dim
    return replace(
        problem,
        grid=PeriodicGrid(dim=grid.dim, resolution=grid.resolution // 2),
        B_planes=np.ascontiguousarray(problem.B_planes[every_other]),
        alpha=np.ascontiguousarray(problem.alpha[every_other]),
        alpha_l=np.ascontiguousarray(problem.alpha_l[every_other]),
    )


def _prolong(u):
    """Trigonometric interpolation of the periodic field u onto twice its
    resolution, one axis at a time: the coarse Nyquist mode is split evenly
    between its two frequencies, so the result takes u's values at the
    coarse nodes.  numpy.fft is loaded here, on first use."""
    for axis in range(u.ndim):
        m = u.shape[axis]
        c = np.fft.rfft(u, axis=axis)
        c[(slice(None),) * axis + (m // 2,)] *= 0.5
        u = np.fft.irfft(c, n=2 * m, axis=axis) * 2.0
    return u


def continuation_steps(problem, config):
    """March t from 0 to 1 with adaptive steps, yielding one StepRecord per
    Newton solve, the t = 0 anchor first.

    The first step after the anchor is the whole path, t = 1.  Where N/2 is
    a grid, it starts from the prolonged root of a Newton solve at t = 1
    from u = 0 on the data injected onto N/2, and from the anchor if that
    solve fails; its record carries that solve's record in `coarse`.  If the
    whole-path attempt fails, the next step is dt_init, or half the failed
    step if that is smaller, and from there an accepted step that took at
    most _GROW_NEWTON Newton iterations doubles dt, unless it is one of the
    first _HOLD_AFTER_REJECT accepted steps after a later rejection; the
    last step is clamped to t = 1.  A failed step halves the step it tried.
    The march ends after the step that reaches t = 1, after the rejected
    step that leaves dt below dt_min, or after the first accepted step once
    _MAX_STEPS records are out: a log that ends on a rejected record, or on
    an accepted one short of t = 1, is a stall.  Each record is
    newton_solve_at_t's own with dt, the step actually tried, filled in: the
    Newton iterations, final residual, damping backtracks and GMRES
    iterations spent on it, and the note of a rejected step; an accepted
    record also holds its root u and its MonitorReport.  A failed anchor
    raises RuntimeError.
    """
    # the anchor, and from then on the last accepted record
    last = newton_solve_at_t(problem.grid.zeros(), 0.0, problem, config)
    if last.note:
        raise RuntimeError(last.note)
    yield last
    start, coarse = last.u, None
    coarse_problem = _coarse_problem(problem)
    if coarse_problem is not None:
        coarse = newton_solve_at_t(coarse_problem.grid.zeros(), 1.0, coarse_problem, config)
        if coarse.accepted:
            start = _prolong(coarse.u)
        coarse = replace(coarse, u=None, report=None)
    rec = replace(newton_solve_at_t(start, 1.0, problem, config), dt=1.0, coarse=coarse)
    yield rec
    if rec.accepted:
        return
    dt = min(config.dt_init, 0.5)  # at most half the failed whole path
    hold = 0  # accepted steps still to take before dt may grow again
    steps = 2  # the records out so far
    while last.t < 1.0 and dt >= config.dt_min:
        t_try = last.t + dt
        if t_try >= 1.0 - _DT_FLOOR:  # snap: accumulated steps may land at 1 - ulp
            t_try = 1.0
        rec = newton_solve_at_t(last.u, t_try, problem, config)
        rec = replace(rec, dt=t_try - last.t)
        yield rec
        steps += 1
        if rec.accepted:
            last = rec
            if steps >= _MAX_STEPS:
                return
            if hold:
                hold -= 1
            elif rec.iterations <= _GROW_NEWTON:
                dt *= 2.0
        else:
            dt, hold = 0.5 * rec.dt, _HOLD_AFTER_REJECT


def manufacture_alpha(u_star, problem, *, jet=None):
    """Back-solve the t=1 equation for alpha so u_star is its exact root.

        alpha = -e^{-2 u*} [sigma_k/sigma_{k-1}(U*) - sum_l alpha_l e^{2(k-l)u*}
                            sigma_l/sigma_{k-1}(U*)]

    Returns `problem` with alpha replaced; its alpha_l enter the equation
    and its own alpha is ignored.  alpha carries no sign constraint.  Pass the
    analytic `jet` of u_star to manufacture against exact derivatives
    (convergence studies); otherwise the stencil jet is used and the
    construction residual is identically zero at this resolution.  A u_star
    whose U* leaves Gamma_{k-1} is bad input: InputError names the worst
    node and the eigenvalues of U* there; so is an alpha that is not
    finite, which the returned Problem refuses as it refuses any input.
    """
    # at t = 1 the weights (1-t) c + t alpha_l are alpha_l exactly.  A huge
    # u_star may overflow to a NaN margin, and a U* on the cone's boundary
    # divides by sigma_{k-1} = 0: the margin check below rejects both.  The
    # returned Problem rejects an alpha that overflows.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = operator.evaluate(u_star, 1.0, problem, jet=jet)
        alpha = -np.exp(-2.0 * state.u) * state.value
    if not state.margin.min() > 0.0:
        raise InputError(operator.admissibility_failure(state, 0.0, "u_star rejected"))
    return replace(problem, alpha=alpha)
