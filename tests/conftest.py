"""Fixtures and the problem factory shared by the test modules."""

from typing import NamedTuple

import numpy as np
import pytest

from ksig import geometry, solver
from ksig.grid import mirror


def make_problem(grid, k=3, tau=0.0, B=None, alpha=None, alpha_l=None):
    """geometry.Problem with defaults for what is not given: B = -I,
    alpha = 0 and alpha_l = 1.  B is a constant (n, n) matrix, stored at its
    own rank (n, n, 1, ..., 1) as the CLI stores it, or a per-node
    (*grid.shape, n, n) field stored as full planes; its upper triangle
    becomes B's planes."""
    B = -np.eye(grid.dim) if B is None else np.asarray(B)
    if B.ndim == 2:
        B_planes = np.array(B, dtype=np.float64).reshape(B.shape + (1,) * grid.dim)
        mirror(B_planes)
    else:
        B_planes = geometry.background_planes(grid, lambda i, j: B[..., i, j])
    return geometry.Problem(
        grid=grid,
        k=k,
        tau=tau,
        B_planes=B_planes,
        alpha=grid.zeros() if alpha is None else alpha,
        alpha_l=np.ones((k - 1,) + grid.shape) if alpha_l is None else alpha_l,
    )


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
