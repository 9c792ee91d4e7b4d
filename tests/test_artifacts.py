"""Atomic artifacts: a writer that raises part-way leaves the previous file
unchanged and no temporary file beside it."""

import numpy as np
import pytest

from ksig import monitors
from ksig.artifacts import replacing
from ksig.cli import _dump_json
from ksig.grid import PeriodicGrid, read_field, write_field


def good_report(t):
    return monitors.MonitorReport(
        t=t,
        sup_u=0.0,
        sup_grad_u=0.0,
        sup_lap_u=0.0,
        cone_margin=3.0,
        min_eig_Gij=0.25,
        trace_slack=0.0,
        max_sigma_ratio=1.0,
        eq33_slack=0.75,
        residual=0.0,
        newton_iters=0,
    )


def torn_csv(path):
    # enough rows to flush past any write buffer before the bad one raises
    rows = [good_report(t / 1000) for t in range(1000)]
    rows.append(good_report("not a number"))
    monitors.write_monitor_csv(path, rows)


def torn_json(path):
    _dump_json(path, {"a": list(range(10_000)), "b": object()})


def torn_bytes(path):
    with replacing(path) as tmp:
        tmp.write_bytes(b"partial")
        raise RuntimeError("writer died")


@pytest.mark.parametrize(
    "writer, error",
    [(torn_csv, ValueError), (torn_json, TypeError), (torn_bytes, RuntimeError)],
    ids=["csv", "json", "bytes"],
)
def test_failed_write_keeps_previous_artifact(tmp_path, writer, error):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(error):
        writer(path)
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_successful_write_replaces_the_artifact(tmp_path):
    grid = PeriodicGrid(3, 8)
    path = tmp_path / "u.ksig"
    write_field(path, grid, np.zeros(grid.shape))
    write_field(path, grid, np.ones(grid.shape))
    assert np.array_equal(read_field(path, grid)[1], np.ones(grid.shape))
    assert [p.name for p in tmp_path.iterdir()] == ["u.ksig"]
