"""Per-step estimate traces and a randomized algebraic property suite.

Monitors report the quantities the a priori estimates control (sup-norms,
cone margins, ellipticity eigenvalues, ratio bounds) once per accepted
step, read off an operator.evaluate state and F's operator.forcing term, in
monitors.csv and nowhere else; nothing here asserts the non-explicit
constants, and nothing here aborts a solve.  This module alone knows the
columns: it writes and reads monitors.csv and charts them (write_charts).
The lemma suite re-checks the cone algebra on random and adversarially
boundary-biased samples with a counter-based generator so results are
reproducible from the seed alone.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, astuple, dataclass, fields
from itertools import combinations

import numpy as np

from . import InputError, cones, operator, sampling, svgplot
from .artifacts import replacing
from .grid import dot_planes, sup_norm

__all__ = [
    "MonitorReport",
    "snapshot_point",
    "write_monitor_csv",
    "read_monitor_csv",
    "write_charts",
    "PropertyCheck",
    "LemmaSuiteResult",
    "run_lemma_suite",
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


def snapshot_point(state, problem, newton_iters):
    """Build a MonitorReport from a PointState (operator.evaluate)."""
    k = problem.k
    sig = state.sigma
    min_eig = _min_eigenvalue(state.grad)

    n = problem.grid.dim
    trace_slack = float((_quotient_trace(sig, n, k) - (n - k + 1) / k).min())

    ratios = sig[:k - 1] / sig[k - 1]
    max_ratio = float(ratios.max())

    contraction = np.einsum("ij...,ij...->...", state.grad, state.U)
    eq33 = float((contraction + operator.forcing(problem, state.u, state.t)).min())

    return MonitorReport(
        t=float(state.t),
        sup_u=sup_norm(state.u),
        # sqrt is monotone and correctly rounded: the root of the sup is the sup of the roots
        sup_grad_u=float(np.sqrt(dot_planes(state.grad_u, state.grad_u).max())),
        sup_lap_u=sup_norm(state.lap_u),
        cone_margin=float(state.margin.min()),
        min_eig_Gij=min_eig,
        trace_slack=trace_slack,
        max_sigma_ratio=max_ratio,
        eq33_slack=eq33,
        residual=sup_norm(state.residual),
        newton_iters=int(newton_iters),
    )


# the rounding allowance of _min_eigenvalue's pruning, in units of n * eps
# times the largest row norm of G (which bounds its 2-norm): it covers the
# Gershgorin bound's own rounding, under n such units, and LAPACK's backward
# error on an n <= 5 matrix with room to spare
_GERSHGORIN_SLACK = 16.0


# a non-finite or huge entry may turn a bound into inf - inf; such a node is kept
@np.errstate(over="ignore", invalid="ignore")
def _min_eigenvalue(grad):
    """float(eigvalsh(G)[..., 0].min()) for G^{ij} as planes `grad` (n, n,
    *shape), with eigvalsh run only on the nodes that can hold it.

    Like eigvalsh, it reads each matrix's lower triangle alone.  Gershgorin
    bounds a node's smallest eigenvalue below by
    lb = min_a (G_aa - sum_{b != a} |G_ab|), built one row at a time on the
    planes.  eigvalsh runs on the node of the smallest lb, giving
    lam_ref, and then on the nodes that are not bitwise copies of that node
    and do not have lb > lam_ref + mu, where
    mu = _GERSHGORIN_SLACK * n * (eps * max_a (|G_aa| + sum_{b != a} |G_ab|)
    + the smallest subnormal): eigvalsh would give a node left out lam_ref
    itself, or more.  A non-finite entry makes mu non-finite, and a NaN bound
    or threshold keeps its nodes.  A minimum of zero is taken from every
    node, since which sign numpy's min returns depends on where 0.0 and -0.0
    sit in the grid.  eigvalsh reads a (nodes, n, n) view of the planes.
    """
    n = grad.shape[0]
    G = grad.reshape(n, n, -1)  # the nodes flattened: a view of quotient_eval's planes
    lb = np.full(G.shape[-1], np.inf)
    radius, term = np.empty_like(lb), np.empty_like(lb)
    row_norms = []
    for a in range(n):
        radius.fill(0.0)
        for b in range(n):
            if b != a:
                radius += np.abs(G[max(a, b), min(a, b)], out=term)
        np.minimum(lb, np.subtract(G[a, a], radius, out=term), out=lb)
        row_norms.append(np.add(np.abs(G[a, a], out=term), radius, out=term).max())
    ref = int(np.argmin(lb))
    lam_ref = np.linalg.eigvalsh(G[:, :, ref])[0]
    fl = np.finfo(float)
    mu = _GERSHGORIN_SLACK * n * (fl.eps * np.max(row_norms) + fl.smallest_subnormal)
    skip = np.greater(lb, lam_ref + mu)  # False at a NaN bound or threshold: the node stays
    # bits, not ==: -0.0 and 0.0 may give eigenvalues of either sign
    bits = G.view(np.int64)
    same, equal = np.ones_like(skip), np.empty_like(skip)
    for a in range(n):
        for b in range(a + 1):
            same &= np.equal(bits[a, b], bits[a, b, ref], out=equal)
    skip |= same
    nodes = np.flatnonzero(~skip)
    lam = np.linalg.eigvalsh(np.moveaxis(G[:, :, nodes], -1, 0))[:, 0].min(initial=lam_ref)
    if lam == 0.0:  # numpy's min picks 0.0 or -0.0 by their place in the whole grid
        return float(np.linalg.eigvalsh(np.moveaxis(G, -1, 0))[:, 0].min())
    return float(lam)


def _quotient_trace(sig, n, k):
    """tr d(sigma_k/sigma_{k-1})/dM from sigma_{k-2}, sigma_{k-1}, sigma_k.

    With tr T_j = (n-j) sigma_j the quotient rule gives
    [(n-k+1) sigma_{k-1}^2 - (n-k+2) sigma_k sigma_{k-2}] / sigma_{k-1}^2.
    """
    skm1 = sig[k - 1]
    return ((n - k + 1) * skm1**2 - (n - k + 2) * sig[k] * sig[k - 2]) / skm1**2


def write_monitor_csv(path, reports):
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rep in reports:
            row = astuple(rep)
            writer.writerow([repr(float(v)) for v in row[:-1]] + [str(int(row[-1]))])


def read_monitor_csv(path):
    """The MonitorReports of a monitors.csv, at least one.  The file's one gate:
    unreadable, not UTF-8, no data rows, a line csv refuses, a foreign header or
    a bad row each raise InputError naming `path`, and a bad row's line."""
    reports = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)  # None: an empty file, refused below
            if header not in (None, list(CSV_FIELDS)):
                raise InputError(f"{path}: unexpected monitor CSV header: {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(CSV_FIELDS):
                    raise InputError(
                        f"{path}: line {reader.line_num} has {len(row)} fields, "
                        f"expected {len(CSV_FIELDS)}"
                    )
                try:
                    reports.append(MonitorReport(*map(float, row[:-1]), newton_iters=int(row[-1])))
                except ValueError as exc:
                    raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    if not reports:
        raise InputError(f"{path} contains no data rows")
    return reports


# file name -> title, y label, log y, and a (legend, MonitorReport field) per line
_CHARTS = {
    "residual.svg": ("final Newton residual per accepted step", "residual", True, [("residual sup-norm", "residual")]),
    "estimates.svg": (
        "solution estimates along the homotopy",
        "sup-norm",
        False,
        [("sup |u|", "sup_u"), ("sup |grad u|", "sup_grad_u"), ("sup |lap u|", "sup_lap_u")],
    ),
    "cone_margin.svg": (
        "admissibility and ellipticity margins",
        "margin",
        True,
        [("cone margin", "cone_margin"), ("min eig G^ij", "min_eig_Gij")],
    ),
}


def write_charts(rundir, reports):
    """residual.svg, estimates.svg and cone_margin.svg in the directory
    `rundir`: columns of the reports, one row per accepted step, against t."""
    ts = [r.t for r in reports]
    for name, (title, y_label, log_y, lines) in _CHARTS.items():
        series = [(legend, [getattr(r, field) for r in reports]) for legend, field in lines]
        svgplot.write_chart(rundir / name, title, ts, series, y_label, log_y)


# ---------------------------------------------------------------------------
# randomized property suite

_TOLERANCE = 1e-10  # the largest normalised violation a property passes with
_ADMISSIBLE_FLOOR = 1e-12  # the cone margin base - s*probe must keep
_SHRINK_ROUNDS = 60  # halvings of s before _shrink_until_admissible drops a row


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
        return {**asdict(self), "all_passed": self.all_passed}


def _norm_scale(*arrays):
    out = 1.0
    for a in arrays:
        out = np.maximum(out, np.abs(a))
    return out


def _quotient_values(mats, k):
    sig = cones.matrix_sigmas(mats, k)
    return sig[k] / sig[k - 1], sig


def _power_family(sig, k):
    """(sigma_{k-1}/sigma_l)^{1/(k-1-l)} for l = 0..k-2, stacked on axis 0."""
    rows = []
    for l in range(k - 1):
        rows.append((sig[k - 1] / sig[l]) ** (1.0 / (k - 1 - l)))
    return np.stack(rows)


def _newton_maclaurin_excess(sig, n, k, l):
    """(sigma_l sigma_k^{k-1-l} - K sigma_{k-1}^{k-l}) / max(1, |lhs|, |rhs|)
    with K = newton_maclaurin_constant(n, k, l): the power bound's excess,
    normalised per entry of the sigma table."""
    lhs = sig[l] * sig[k] ** (k - 1 - l)
    rhs = cones.newton_maclaurin_constant(n, k, l) * sig[k - 1] ** (k - l)
    return (lhs - rhs) / _norm_scale(lhs, rhs)


def _shrink_until_admissible(base, probe, k):
    """Largest s (by halving from 1) with base - s*probe still in Gamma_k.

    Each round re-checks only the rows that were still outside the cone:
    a row that was inside keeps its s, so its margin cannot change.
    """
    s = np.ones(base.shape[-1])
    active = np.arange(base.shape[-1])
    for _ in range(_SHRINK_ROUNDS):
        trial = base[..., active] - s[active] * probe[..., active]
        active = active[cones.matrix_cone_margin(trial, k) <= _ADMISSIBLE_FLOOR]
        if not active.size:
            break
        s[active] *= 0.5
    trial = base - s * probe
    keep = cones.matrix_cone_margin(trial, k) > _ADMISSIBLE_FLOOR
    return trial, keep


def run_lemma_suite(n, k, samples, seed):
    """Re-check the cone algebra on `samples` random draws plus adversarial
    near-boundary draws and the equality point e; returns per-property
    maxima, each passing at or below _TOLERANCE.  Failures are recorded in
    the result, never raised.

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
        """`samples` matrices in Gamma_j, then `n_boundary` near its boundary, as planes."""
        inner = sampling.gamma_matrices(rng, samples, n, j)
        near = sampling.boundary_biased_eigenvalues(rng, n_boundary, n, j)
        return np.concatenate([inner, sampling.conjugate_by_rotations(rng, near)], axis=-1)

    def record(name, count, violation):
        violation = float(violation)
        checks.append(PropertyCheck(name, int(count), violation, _TOLERANCE, violation <= _TOLERANCE))

    # --- sigma recursion vs subset enumeration, through rotations
    lam = rng.uniform(-2.0, 2.0, size=(samples, n))
    mats = sampling.conjugate_by_rotations(rng, lam)
    sig_mat = cones.matrix_sigmas(mats, n)
    sig_enum = np.zeros((n + 1, samples))
    sig_enum[0] = 1.0
    for j in range(1, n + 1):
        acc = np.zeros(samples)
        for combo in combinations(range(n), j):
            acc += np.prod(lam[:, combo], axis=1)
        sig_enum[j] = acc
    viol = np.abs(sig_mat - sig_enum) / _norm_scale(sig_enum)
    record("sigma_recursion_vs_enumeration", samples, viol.max())

    # --- cone nesting: lambda in Gamma_kk, with any one entry removed, is in
    #     Gamma_{kk-1} of dimension n-1
    lam = rng.uniform(-1.0, 2.0, size=(samples, n))
    sig = cones.all_elementary_symmetric(lam)
    worst = 0.0
    for kk in range(2, n + 1):
        inside = lam[(sig[1:kk + 1] > 0.0).all(axis=0)]
        for i in range(n):
            reduced = cones.all_elementary_symmetric(np.delete(inside, i, axis=1))
            if not (reduced[1:kk] > 0.0).all():
                worst = 1.0
    record("cone_nesting", samples, worst)

    # --- Gamma_2 pinching: max |lambda_i| < sigma_1
    lam2 = eigenvalue_pool(2)
    viol = (np.abs(lam2).max(axis=1) - lam2.sum(axis=1)) / _norm_scale(lam2.sum(axis=1))
    record("gamma2_pinching", lam2.shape[0], viol.max())

    # --- monotonicity along PSD perturbations (base pool includes
    #     near-boundary draws; probes stay O(1) so the true gap dominates)
    base = matrix_pool(k - 1)
    total = base.shape[-1]
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
    record("quotient_midpoint_concavity", left.shape[-1], viol.max())
    q_sum, _ = _quotient_values(left + right, k)
    viol = (q_l + q_r - q_sum) / _norm_scale(q_l, q_r, q_sum)
    record("quotient_superadditivity", left.shape[-1], viol.max())

    # --- Newton-MacLaurin power bound on Gamma_k, polynomial form
    lam_k = eigenvalue_pool(k)
    sig = cones.all_elementary_symmetric(lam_k)
    worst = -np.inf
    for l in range(k - 1):
        worst = max(worst, float(_newton_maclaurin_excess(sig, n, k, l).max()))
    record("newton_maclaurin_bound", lam_k.shape[0], worst)

    e_sig = cones.all_elementary_symmetric(np.ones((1, n)))
    worst = max(np.abs(_newton_maclaurin_excess(e_sig, n, k, l)).max() for l in range(k - 1))
    record("newton_maclaurin_equality_at_e", 1, worst)

    # --- ellipticity: weighted gradient SPD, quotient trace bound, Euler
    mats = matrix_pool(k - 1)
    total = mats.shape[-1]
    beta = rng.uniform(0.0, 2.0, size=(total, k - 1))
    ev = cones.quotient_eval(mats, k, beta.T)
    eigs = np.linalg.eigvalsh(np.moveaxis(ev.grad, -1, 0))
    scale = np.abs(ev.grad).max(axis=(0, 1))
    viol = -eigs[:, 0] / _norm_scale(scale)
    record("weighted_gradient_spd", total, viol.max())

    quot = cones.quotient_eval(mats, k, 0.0)
    trace = np.trace(quot.grad)
    bound = (n - k + 1) / k
    viol = (bound - trace) / _norm_scale(trace)
    record("quotient_trace_lower_bound", total, viol.max())

    contraction = np.einsum("ij...,ij...->...", quot.grad, mats)
    inner_scale = np.einsum("ij...,ij...->...", np.abs(quot.grad), np.abs(mats))
    viol = np.abs(contraction - quot.value) / _norm_scale(quot.value, inner_scale)
    record("quotient_euler_identity", total, viol.max())

    return LemmaSuiteResult(
        n=n, k=k, seed=seed, requested_samples=samples, checks=tuple(checks)
    )
