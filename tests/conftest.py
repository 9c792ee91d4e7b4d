"""Fixtures shared by the test modules."""

from typing import NamedTuple

import pytest

from ksig import solver


class March(NamedTuple):
    log: list  # every StepRecord, the t = 0 anchor first
    last: solver.StepRecord  # the last accepted record
    reports: list  # the MonitorReport of each accepted record


@pytest.fixture
def march():
    """Run solver.continuation_steps to its end; returns a March."""

    def run(background, coeff, config):
        log = list(solver.continuation_steps(background, coeff, config))
        accepted = [rec for rec in log if rec.accepted]
        return March(log, accepted[-1], [rec.report for rec in accepted])

    return run
