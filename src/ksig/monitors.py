"""Per-step estimate traces and a randomized algebraic property suite.

Monitors report the quantities the a priori estimates control (sup-norms,
cone margins, ellipticity eigenvalues, ratio bounds) as observed values
along the homotopy; nothing here asserts the non-explicit constants, and
diagnostics warn instead of aborting a solve.  The lemma suite re-checks
the cone algebra on random and adversarially boundary-biased samples with
a counter-based generator so results are reproducible from the seed alone.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import cones, sampling
from .artifacts import replacing
from .grid import dot_planes, sup_norm

__all__ = [
    "MonitorReport",
    "snapshot_point",
    "write_monitor_csv",
    "read_monitor_csv",
    "PropertyCheck",
    "LemmaSuiteResult",
    "run_lemma_suite",
    "TraceSummary",
    "estimate_trace_series",
]

@dataclass(frozen=True)
class MonitorReport:
    """One accepted continuation step, reduced to its estimate traces.

    trace_slack and max_sigma_ratio are properties of the pure quotient
    sigma_k/sigma_{k-1} (the trace lower bound (n-k+1)/k and the ratio
    family sigma_l/sigma_{k-1}, l <= k-2); cone_margin, min_eig_Gij and
    eq33_slack use the full weighted operator at the step's beta.  residual
    is the sup-norm of the step's final Newton residual.
    """

    t: float
    sup_u: float
    sup_grad_u: float
    sup_lap_u: float
    cone_margin: float
    min_eig_Gij: float
    trace_slack: float
    max_sigma_ratio: float
    eq33_slack: float
    residual: float
    newton_iters: int


CSV_FIELDS = tuple(f.name for f in fields(MonitorReport))


def snapshot_point(state, background, coeff, newton_iters):
    """Build a MonitorReport from a PointState (operator.evaluate)."""
    k = coeff.k
    sig = state.sigma
    grad_norm = np.sqrt(dot_planes(state.jet.grad_planes, state.jet.grad_planes))

    eigs = np.linalg.eigvalsh(state.grad)
    min_eig = float(eigs[..., 0].min())

    n = background.grid.dim
    trace_slack = float((_quotient_trace(sig, n, k) - (n - k + 1) / k).min())

    ratios = sig[..., :k - 1] / sig[..., k - 1:k]
    max_ratio = float(ratios.max())

    contraction = np.einsum("...ij,...ij->...", state.grad, state.U)
    forcing = state.t * coeff.alpha * np.exp(2.0 * state.u)
    eq33 = float((contraction + forcing).min())

    _warn_ratio_branch(sig, k, n)

    return MonitorReport(
        t=float(state.t),
        sup_u=sup_norm(state.u),
        sup_grad_u=float(grad_norm.max()),
        sup_lap_u=sup_norm(state.jet.laplacian),
        cone_margin=float(state.margin.min()),
        min_eig_Gij=min_eig,
        trace_slack=trace_slack,
        max_sigma_ratio=max_ratio,
        eq33_slack=eq33,
        residual=sup_norm(state.residual),
        newton_iters=int(newton_iters),
    )


def _quotient_trace(sig, n, k):
    """tr d(sigma_k/sigma_{k-1})/dM from sigma_{k-2}, sigma_{k-1}, sigma_k.

    With tr T_j = (n-j) sigma_j the quotient rule gives
    [(n-k+1) sigma_{k-1}^2 - (n-k+2) sigma_k sigma_{k-2}] / sigma_{k-1}^2.
    """
    skm1 = sig[..., k - 1]
    return ((n - k + 1) * skm1**2 - (n - k + 2) * sig[..., k] * sig[..., k - 2]) / skm1**2


def _warn_ratio_branch(sig, k, n):
    """Where sigma_k/sigma_{k-1} > 1 the ratio family must obey the
    Newton-MacLaurin power bound; report (never raise) any excess."""
    quotient = sig[..., k] / sig[..., k - 1]
    branch = quotient > 1.0
    if not branch.any():
        return
    worst = 0.0
    count = 0
    for l in range(k - 1):
        excess = _newton_maclaurin_excess(sig, n, k, l)
        bad = branch & (excess > 1e-8)
        if bad.any():
            count += int(bad.sum())
            worst = max(worst, float(excess[bad].max()))
    if count:
        warnings.warn(
            f"ratio bound exceeds the Newton-MacLaurin branch at {count} node(s), "
            f"max excess {worst:.3e}",
            RuntimeWarning,
            stacklevel=3,
        )


def _newton_maclaurin_excess(sig, n, k, l):
    """(sigma_l sigma_k^{k-1-l} - K sigma_{k-1}^{k-l}) / max(1, |lhs|, |rhs|)
    with K = newton_maclaurin_constant(n, k, l): the power bound's excess,
    normalised per entry of the sigma table."""
    lhs = sig[..., l] * sig[..., k] ** (k - 1 - l)
    rhs = cones.newton_maclaurin_constant(n, k, l) * sig[..., k - 1] ** (k - l)
    return (lhs - rhs) / _norm_scale(lhs, rhs)


def write_monitor_csv(path, reports):
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rep in reports:
            row = astuple(rep)
            writer.writerow([repr(float(v)) for v in row[:-1]] + [str(int(row[-1]))])


def read_monitor_csv(path):
    reports = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if tuple(header) != CSV_FIELDS:
            raise ValueError(f"unexpected monitor CSV header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_FIELDS):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"expected {len(CSV_FIELDS)}"
                )
            vals = [float(v) for v in row[:-1]]
            reports.append(MonitorReport(*vals, newton_iters=int(row[-1])))
    return reports


# ---------------------------------------------------------------------------
# randomized property suite


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    samples: int
    max_violation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class LemmaSuiteResult:
    n: int
    k: int
    seed: int
    requested_samples: int
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "requested_samples": self.requested_samples,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _norm_scale(*arrays):
    out = 1.0
    for a in arrays:
        out = np.maximum(out, np.abs(a))
    return out


def _quotient_values(mats, k):
    sig = cones.matrix_sigmas(mats, k)
    return sig[..., k] / sig[..., k - 1], sig


def _power_family(sig, k):
    """(sigma_{k-1}/sigma_l)^{1/(k-1-l)} for l = 0..k-2, stacked on axis 0."""
    rows = []
    for l in range(k - 1):
        rows.append((sig[..., k - 1] / sig[..., l]) ** (1.0 / (k - 1 - l)))
    return np.stack(rows)


def _shrink_until_admissible(base, probe, k, floor=1e-12, rounds=60):
    """Largest s (by halving from 1) with base - s*probe still in Gamma_k.

    Each round re-checks only the rows that were still outside the cone:
    a row that was inside keeps its s, so its margin cannot change.
    """
    s = np.ones(base.shape[0])
    active = np.arange(base.shape[0])
    for _ in range(rounds):
        trial = base[active] - s[active, None, None] * probe[active]
        active = active[cones.matrix_cone_margin(trial, k) <= floor]
        if not active.size:
            break
        s[active] *= 0.5
    trial = base - s[:, None, None] * probe
    keep = cones.matrix_cone_margin(trial, k) > floor
    return trial, keep


def run_lemma_suite(n, k, samples=10_000, seed=42, tolerance=1e-10):
    """Re-check the cone algebra on `samples` random draws plus adversarial
    near-boundary draws and the equality point e; returns per-property
    maxima.  Failures are recorded in the result, never raised.

    The draw order is fixed, so (n, k, samples, seed) fully determine the
    result.  The caller checks 3 <= k <= n <= 5 and samples >= 1.
    """
    rng = sampling.generator(seed)
    n_boundary = min(500, max(1, samples // 10))
    checks = []

    def eigenvalue_pool(j):
        """`samples` eigenvalue vectors in Gamma_j, then `n_boundary` near its boundary."""
        return np.concatenate(
            [
                sampling.gamma_eigenvalues(rng, samples, n, j),
                sampling.boundary_biased_eigenvalues(rng, n_boundary, n, j),
            ]
        )

    def matrix_pool(j):
        """`samples` matrices in Gamma_j, then `n_boundary` near its boundary."""
        return np.concatenate(
            [
                sampling.gamma_matrices(rng, samples, n, j),
                sampling.boundary_biased_matrices(rng, n_boundary, n, j),
            ]
        )

    def record(name, count, violation, tol=tolerance):
        violation = float(violation)
        checks.append(
            PropertyCheck(
                name=name,
                samples=int(count),
                max_violation=violation,
                tolerance=tol,
                passed=violation <= tol,
            )
        )

    # --- sigma recursion vs subset enumeration, through rotations
    lam = rng.uniform(-2.0, 2.0, size=(samples, n))
    mats = sampling.conjugate_by_rotations(rng, lam)
    sig_mat = cones.matrix_sigmas(mats, n)
    sig_enum = np.zeros((samples, n + 1))
    sig_enum[:, 0] = 1.0
    from itertools import combinations

    for j in range(1, n + 1):
        acc = np.zeros(samples)
        for combo in combinations(range(n), j):
            acc += np.prod(lam[:, combo], axis=1)
        sig_enum[:, j] = acc
    viol = np.abs(sig_mat - sig_enum) / _norm_scale(sig_enum)
    record("sigma_recursion_vs_enumeration", samples, viol.max())

    # --- cone nesting: membership at k implies membership at every j < k
    lam = rng.uniform(-1.0, 2.0, size=(samples, n))
    sig = cones.all_elementary_symmetric(lam)
    worst = 0.0
    for kk in range(2, n + 1):
        inside = (sig[:, 1:kk + 1] > 0.0).all(axis=1)
        for j in range(1, kk):
            lower = (sig[:, 1:j + 1] > 0.0).all(axis=1)
            if (inside & ~lower).any():
                worst = 1.0
    record("cone_nesting", samples, worst)

    # --- Gamma_2 pinching: max |lambda_i| < sigma_1
    lam2 = eigenvalue_pool(2)
    viol = (np.abs(lam2).max(axis=1) - lam2.sum(axis=1)) / _norm_scale(lam2.sum(axis=1))
    record("gamma2_pinching", lam2.shape[0], viol.max())

    # --- monotonicity along PSD perturbations (base pool includes
    #     near-boundary draws; probes stay O(1) so the true gap dominates)
    base = matrix_pool(k - 1)
    total = base.shape[0]
    probe = sampling.psd_matrices(rng, total, n, eig_low=0.1, eig_high=1.0)
    up = base + probe
    q_base, sig_base = _quotient_values(base, k)
    q_up, sig_up = _quotient_values(up, k)
    viol = (q_base - q_up) / _norm_scale(q_base, q_up)
    record("quotient_monotone_add_psd", total, viol.max())
    f_base = _power_family(sig_base, k)
    f_up = _power_family(sig_up, k)
    viol = (f_base - f_up) / _norm_scale(f_base, f_up)
    record("power_ratio_monotone_add_psd", total, viol.max())

    down, keep = _shrink_until_admissible(base, probe, k - 1)
    q_down, sig_down = _quotient_values(down, k)
    viol = ((q_down - q_base) / _norm_scale(q_base, q_down))[keep]
    record("quotient_monotone_subtract_psd", int(keep.sum()), viol.max())
    f_down = _power_family(sig_down, k)
    viol = ((f_down - f_base) / _norm_scale(f_base, f_down))[:, keep]
    record("power_ratio_monotone_subtract_psd", int(keep.sum()), viol.max())

    # --- concavity of the quotient on Gamma_{k-1}
    left = matrix_pool(k - 1)
    right = matrix_pool(k - 1)
    q_l, _ = _quotient_values(left, k)
    q_r, _ = _quotient_values(right, k)
    q_mid, _ = _quotient_values(0.5 * (left + right), k)
    viol = (0.5 * (q_l + q_r) - q_mid) / _norm_scale(q_l, q_r, q_mid)
    record("quotient_midpoint_concavity", left.shape[0], viol.max())
    q_sum, _ = _quotient_values(left + right, k)
    viol = (q_l + q_r - q_sum) / _norm_scale(q_l, q_r, q_sum)
    record("quotient_superadditivity", left.shape[0], viol.max())

    # --- Newton-MacLaurin power bound on Gamma_k, polynomial form
    lam_k = eigenvalue_pool(k)
    sig = cones.all_elementary_symmetric(lam_k)
    worst = -np.inf
    for l in range(k - 1):
        worst = max(worst, float(_newton_maclaurin_excess(sig, n, k, l).max()))
    record("newton_maclaurin_bound", lam_k.shape[0], worst)

    e_sig = cones.all_elementary_symmetric(np.ones((1, n)))
    worst = 0.0
    for l in range(k - 1):
        const = cones.newton_maclaurin_constant(n, k, l)
        lhs = float(e_sig[0, l] * e_sig[0, k] ** (k - 1 - l))
        rhs = float(const * e_sig[0, k - 1] ** (k - l))
        worst = max(worst, abs(lhs - rhs))
    record("newton_maclaurin_equality_at_e", 1, worst)

    # --- ellipticity: weighted gradient SPD, quotient trace bound, Euler
    mats = matrix_pool(k - 1)
    total = mats.shape[0]
    beta = rng.uniform(0.0, 2.0, size=(total, k - 1))
    ev = cones.quotient_eval(mats, k, beta)
    eigs = np.linalg.eigvalsh(ev.grad)
    scale = np.abs(ev.grad).max(axis=(-2, -1))
    viol = -eigs[:, 0] / np.maximum(1.0, scale)
    record("weighted_gradient_spd", total, viol.max())

    quot = cones.quotient_eval(mats, k, None)
    trace = np.trace(quot.grad, axis1=-2, axis2=-1)
    bound = (n - k + 1) / k
    viol = (bound - trace) / np.maximum(1.0, np.abs(trace))
    record("quotient_trace_lower_bound", total, viol.max())

    contraction = np.einsum("...ij,...ij->...", quot.grad, mats)
    inner_scale = np.einsum("...ij,...ij->...", np.abs(quot.grad), np.abs(mats))
    viol = np.abs(contraction - quot.value) / np.maximum(
        1.0, np.maximum(np.abs(quot.value), inner_scale)
    )
    record("quotient_euler_identity", total, viol.max())

    return LemmaSuiteResult(
        n=n, k=k, seed=seed, requested_samples=samples, checks=tuple(checks)
    )


# ---------------------------------------------------------------------------
# series summaries


@dataclass(frozen=True)
class TraceSummary:
    maxima: dict
    minima: dict
    blow_up: dict
    warnings: tuple

    def to_dict(self):
        return {
            "maxima": self.maxima,
            "minima": self.minima,
            "blow_up": self.blow_up,
            "warnings": list(self.warnings),
        }


_GROWING = ("sup_u", "sup_grad_u", "sup_lap_u", "max_sigma_ratio")
_SHRINKING = ("cone_margin", "min_eig_Gij", "trace_slack", "eq33_slack")


def estimate_trace_series(reports):
    """Maxima/minima of each traced quantity across the homotopy, with a
    blow-up flag when a growing trace jumps by more than 10x in one step."""
    if not reports:
        raise ValueError("need at least one monitor report")
    maxima = {}
    minima = {}
    blow_up = {}
    notes = []
    for name in _GROWING:
        series = np.array([getattr(r, name) for r in reports])
        maxima[name] = float(series.max())
        flag = False
        for i in range(len(series) - 1):
            # a ratio only means something from a nonzero baseline: the t=0
            # anchor rows are exactly 0.0 and any lift-off would trip it
            if series[i] > 1e-9 and series[i + 1] > 10.0 * series[i]:
                flag = True
        blow_up[name] = flag
        if flag:
            notes.append(f"{name} grew by more than 10x across one continuation step")
    for name in _SHRINKING:
        series = np.array([getattr(r, name) for r in reports])
        minima[name] = float(series.min())
    return TraceSummary(
        maxima=maxima, minima=minima, blow_up=blow_up, warnings=tuple(notes)
    )

