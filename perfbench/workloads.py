"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload has a `name`, the by-hand Newton iteration and matvec
counts at seed 0 (`expected_counts`, or None), `prepare(rundir, seed)`,
which writes the inputs and returns the commands to run, and
`check(rundir, seed, grid_module)`, which returns the failed checks and any
accuracy figures.

Seed 0 reproduces the reference problems exactly.  Other seeds scale the
forcing (default workloads) or the u_star amplitudes (manufactured) by one
of five factors in a +-2% band, and set `verify --seed` within 42..57.
make_reference.py ran every input a seed can produce, so no seed reaches an
untested input.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from tracer import LEMMA_PAIRS

AMPLITUDE_FACTORS = (1.0, 0.99, 1.01, 0.98, 1.02)
VERIFY_SEEDS = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# a converged field may move by a small multiple of the Newton tolerance
# (the linearization's zeroth-order coefficient is O(1)); 100x covers it
FIELD_TOL_FACTOR = 100.0
LEMMA_PROPERTIES = 14


def amplitude_index(seed):
    return seed % len(AMPLITUDE_FACTORS)


def load_reference(name, seed):
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    return data[str(amplitude_index(seed))]


def _ini(sections):
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def check_solve(outdir, grid_module):
    """Checks shared by solve runs; returns (failures, residual_tol, u_final or None)."""
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        _, u = grid_module.read_field(outdir / "u_final.ksig")
        rows = (outdir / "monitors.csv").read_text().splitlines()[1:]
    except (OSError, ValueError) as exc:
        return [f"solve artifacts unreadable: {exc}"], None, None
    failures = []
    tol = summary["config"]["solver"]["residual_tol"]
    if summary["t_final"] != 1.0:
        failures.append(f"t_final = {summary['t_final']}, not 1.0")
    if summary["stalled"] is not False:
        failures.append("continuation stalled")
    if not summary["residual_sup"] <= tol:
        failures.append(f"residual_sup {summary['residual_sup']:.3e} > residual_tol {tol:.1e}")
    if len(rows) != summary["accepted_steps"]:
        failures.append(f"monitors.csv has {len(rows)} rows for {summary['accepted_steps']} accepted steps")
    return failures, tol, u


class DefaultSolve:
    """`ksig solve` of the README problem: B = -I, alpha = A sin(x1), alpha_l = 1."""

    def __init__(self, n, resolution, stride, expected_counts):
        self.n = n
        self.resolution = resolution
        self.stride = stride  # subsampling of the stored reference field
        self.name = f"default-n{n}-N{resolution}"
        self.expected_counts = expected_counts

    def prepare(self, rundir, seed):
        amplitude = 0.2 * AMPLITUDE_FACTORS[amplitude_index(seed)]
        config = {
            "problem": {
                "n": self.n,
                "k": self.n,
                "resolution": self.resolution,
                "background": "hyperbolic-like",
                "alpha": f"{amplitude!r}*sin(x1)",
                "alpha_l": "1.0",
            },
            "output": {"directory": "run-out"},
        }
        (rundir / "problem.ini").write_text(_ini(config))
        return [{"argv": ["solve", "problem.ini"], "cwd": str(rundir), "outdir": str(rundir / "out")}]

    def fingerprint(self, u):
        return {
            "sample": u[(slice(None, None, self.stride),) * u.ndim].ravel(),
            "sup": float(np.abs(u).max()),
            "mean": float(u.mean()),
        }

    def check(self, rundir, seed, grid_module):
        failures, tol, u = check_solve(rundir / "out", grid_module)
        if u is None:
            return failures, {}
        ref = load_reference(self.name, seed)
        got = self.fingerprint(u)
        deviation = max(
            float(np.abs(got["sample"] - np.array(ref["sample"])).max()),
            abs(got["sup"] - ref["sup"]),
            abs(got["mean"] - ref["mean"]),
        )
        if not deviation <= FIELD_TOL_FACTOR * tol:
            failures.append(f"u_final differs from the reference by {deviation:.3e} > {FIELD_TOL_FACTOR * tol:.1e}")
        return failures, {"reference_deviation": deviation}

    def reference_record(self, rundir, seed, grid_module):
        _, _, u = check_solve(rundir / "out", grid_module)
        record = self.fingerprint(u)
        record["sample"] = record["sample"].tolist()
        return record


class ManufacturedSolve:
    """`ksig manufacture` of a known u_star, then `ksig solve` of its package."""

    name = "manufactured-n3-N20"
    expected_counts = (34, 2059)
    resolution = 20

    def terms(self, seed):
        factor = AMPLITUDE_FACTORS[amplitude_index(seed)]
        return 0.1 * factor, 0.05 * factor

    def prepare(self, rundir, seed):
        a, b = self.terms(seed)
        config = {
            "problem": {
                "n": 3,
                "k": 3,
                "resolution": self.resolution,
                "alpha_l": "1",
                "u_star": f"{a!r}*sin(x1)*cos(x2) + {b!r}*cos(x3)",
            },
            "output": {"directory": "package-out"},
        }
        (rundir / "manufacture.ini").write_text(_ini(config))
        package = rundir / "package"
        return [
            {"argv": ["manufacture", "manufacture.ini"], "cwd": str(rundir), "outdir": str(package)},
            {"argv": ["solve", "manufactured.ini"], "cwd": str(package), "outdir": str(rundir / "out")},
        ]

    def solution_error(self, u, seed):
        """sup |u - u_star|, with u_star evaluated here, not read from the package."""
        a, b = self.terms(seed)
        x = 2.0 * math.pi * np.arange(self.resolution) / self.resolution
        x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
        return float(np.abs(u - (a * np.sin(x1) * np.cos(x2) + b * np.cos(x3))).max())

    def check(self, rundir, seed, grid_module):
        failures, tol, u = check_solve(rundir / "out", grid_module)
        if u is None:
            return failures, {}
        error = self.solution_error(u, seed)
        reference = load_reference(self.name, seed)["solution_error"]
        if not error <= reference + FIELD_TOL_FACTOR * tol:
            failures.append(f"solution_error {error:.6e} is worse than the reference {reference:.6e}")
        return failures, {"solution_error": error}

    def reference_record(self, rundir, seed, grid_module):
        _, _, u = check_solve(rundir / "out", grid_module)
        return {"solution_error": self.solution_error(u, seed)}


class VerifyAllPairs:
    """`ksig verify` for every cone pair 3 <= k <= n <= 5 at 10 000 samples."""

    name = "verify-all-pairs"
    expected_counts = None

    def verify_seed(self, seed):
        return 42 + seed % VERIFY_SEEDS

    def prepare(self, rundir, seed):
        return [
            {
                "argv": ["verify", "--n", str(n), "--k", str(k), "--seed", str(self.verify_seed(seed))],
                "cwd": str(rundir),
                "outdir": str(rundir / f"n{n}k{k}"),
            }
            for n, k in LEMMA_PAIRS
        ]

    def check(self, rundir, seed, grid_module):
        failures = []
        for n, k in LEMMA_PAIRS:
            try:
                checks = json.loads((rundir / f"n{n}k{k}" / "lemmas.json").read_text())["checks"]
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"lemmas.json for n={n}, k={k} unreadable: {exc}")
                continue
            passed = sum(1 for c in checks if c.get("passed") is True)
            if len(checks) != LEMMA_PROPERTIES or passed != LEMMA_PROPERTIES:
                failures.append(f"n={n}, k={k}: {passed} of {len(checks)} properties passed")
        return failures, {}


WORKLOADS = {
    w.name: w
    for w in (
        DefaultSolve(3, 32, stride=4, expected_counts=(34, 552)),
        DefaultSolve(5, 8, stride=2, expected_counts=(37, 222)),
        ManufacturedSolve(),
        VerifyAllPairs(),
    )
}
