"""Fixtures and the problem factory shared by the test modules."""

from typing import NamedTuple

import numpy as np
import pytest

from ksig import cones, geometry, operator, solver
from ksig.grid import mirror


def as_planes(M):
    """Matrices (*batch, n, n) as the component planes (n, n, *batch) that
    ksig computes on: a view."""
    return np.moveaxis(M, (-2, -1), (0, 1))


def as_matrices(P):
    """Component planes (n, n, *batch) as the matrices (*batch, n, n) that
    the oracles' numpy.linalg and matmul read: a view."""
    return np.moveaxis(P, (0, 1), (-2, -1))


def make_problem(grid, k=3, tau=0.0, B=None, alpha=None, alpha_l=None):
    """geometry.Problem with defaults for what is not given: B = -I,
    alpha = 0 and alpha_l = 1, each at its own rank as the CLI builds them.
    B is a constant (n, n) matrix, stored as (n, n, 1, ..., 1), or a per-node
    (*grid.shape, n, n) field stored as full planes; its upper triangle
    becomes B's planes."""
    n = grid.dim
    B = np.asarray(-np.eye(n) if B is None else B, dtype=np.float64)
    B = B.reshape((B.shape[:-2] or (1,) * n) + B.shape[-2:])
    # a copy: the moved axes of a (1, ..., 1, n, n) B can be a contiguous
    # view, and mirroring that would write into the caller's array
    B_planes = as_planes(B).copy()
    mirror(B_planes)
    return geometry.Problem(
        grid=grid,
        k=k,
        tau=tau,
        B_planes=B_planes,
        alpha=np.zeros((1,) * n) if alpha is None else alpha,
        alpha_l=np.ones((1,) * (n + 1)) if alpha_l is None else alpha_l,
    )


def trivial_problem(grid, k, **background):
    """alpha = 0, alpha_l = c: the homotopy is stationary at u = 0."""
    c = cones.homotopy_constant(grid.dim, k)
    return make_problem(grid, k=k, alpha_l=np.full((k - 1,) + grid.shape, c), **background)


def admissible_state(u, t, problem):
    """operator.evaluate at (u, t), refusing a state within the solver's cone
    margin of the cone boundary."""
    state = operator.evaluate(u, t, problem)
    if not state.margin.min() > solver._CONE_MARGIN:
        pytest.fail(operator.admissibility_failure(state, solver._CONE_MARGIN, f"test state at t={t}"))
    return state


def linearize(u, t, v, problem):
    """dF[v] at an admissible (u, t) through operator.jacobian, the operator
    GMRES applies."""
    apply, _ = operator.jacobian(admissible_state(u, t, problem), problem)
    return apply(v)


def l2_norm(grid, values):
    """sqrt(h^n * sum f^2): the discrete L2 norm of the torus."""
    return float(np.sqrt(grid.spacing**grid.dim * np.sum(np.square(values))))


class March(NamedTuple):
    log: list  # the StepRecord of every Newton solve, the t = 0 anchor first
    last: solver.StepRecord  # the last accepted record, holding its u and report
    reports: list  # the MonitorReport of each accepted record, in t order


@pytest.fixture
def march():
    """Run solver.continuation_steps to its end; returns a March."""

    def run(problem, config):
        log = list(solver.continuation_steps(problem, config))
        accepted = [rec for rec in log if rec.accepted]
        return March(log, accepted[-1], [rec.report for rec in accepted])

    return run
