"""Background data and pointwise assembly of the deformed conformal tensor.

The reference metric g0 is the flat torus chart and the tensor B playing the
modified-Schouten role is prescribed: the builtin "hyperbolic-like" choice
B = -I reproduces the structure of a negatively curved space form, and a
constant or per-node B may be supplied directly.  Since g0 is the identity
in the chart, g0^{-1} U is the coordinate matrix of U, so all cone tests and
sigma evaluations act on plain symmetric matrices.  Per-node tensors (B, U)
are stored as contiguous component planes (n, n, *grid.shape), entry (i, j)
of every node in one plane, and handed out as zero-copy (*grid.shape, n, n)
views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .grid import PeriodicGrid, dot_planes, mirror, worst_node

__all__ = [
    "HypothesisViolation",
    "BackgroundField",
    "CoefficientData",
    "spaceform_schouten",
    "flat_background",
    "beta_weights",
    "assemble_U",
    "require_finite",
    "validate_hypotheses",
]


class HypothesisViolation(ValueError):
    """A solvability hypothesis on the input data fails; nothing was computed."""


@dataclass(frozen=True)
class BackgroundField:
    """Reference geometry on the flat chart: tau and the tensor B per node.

    B is stored as exactly symmetric contiguous component planes
    B_planes[i, j], shape (n, n, *grid.shape); B is the zero-copy
    (*grid.shape, n, n) view of them.
    """

    grid: PeriodicGrid
    tau: float
    B_planes: np.ndarray

    @property
    def B(self):
        return np.moveaxis(self.B_planes, (0, 1), (-2, -1))


def spaceform_schouten(kappa, n, tau):
    """The modified Schouten tensor of a space form of curvature kappa.

    Ric = (n-1) kappa g and R = n(n-1) kappa give
    (kappa/(n-2)) (n-1 - tau*n/2) * I.
    """
    factor = (kappa / (n - 2.0)) * ((n - 1.0) - tau * n / 2.0)
    return factor * np.eye(n)


def flat_background(grid, tau=0.0, B=None):
    """Prescribed-tensor background on the flat torus chart.

    B may be None (hyperbolic-like default -I), a constant (n, n) matrix, or
    a full per-node field (*shape, n, n).  Only its symmetric part
    (B + B^T)/2 is kept, which is B itself, bit for bit, when B is symmetric.
    """
    n = grid.dim
    if B is None:
        B = -np.eye(n)
    B = np.asarray(B, dtype=np.float64)
    if B.shape == (n, n):
        B = np.broadcast_to(B, grid.shape + (n, n))
    if B.shape != grid.shape + (n, n):
        raise ValueError(f"background tensor shape {B.shape} does not match grid")
    P = np.moveaxis(B, (-2, -1), (0, 1))
    planes = np.empty((n, n) + grid.shape)
    np.add(P, P.swapaxes(0, 1), out=planes)
    planes *= 0.5
    return BackgroundField(grid=grid, tau=float(tau), B_planes=planes)


@dataclass(frozen=True)
class CoefficientData:
    """Right-hand-side data: alpha (any sign) and the k-1 positive alpha_l.

    alpha_l is stacked with the l index first: shape (k-1, *grid.shape).
    """

    grid: PeriodicGrid
    k: int
    alpha: np.ndarray
    alpha_l: np.ndarray

    def __post_init__(self):
        if not 3 <= self.k <= self.grid.dim:
            raise ValueError(f"cone index k={self.k} outside [3, n={self.grid.dim}]")
        if self.alpha.shape != self.grid.shape:
            raise ValueError("alpha shape does not match grid")
        if self.alpha_l.shape != (self.k - 1,) + self.grid.shape:
            raise ValueError(
                f"alpha_l must stack k-1={self.k - 1} fields, got {self.alpha_l.shape}"
            )


def beta_weights(coeff, u, t):
    """beta_l = [(1-t) c + t alpha_l(x)] e^{2(k-l) u}, last axis l = 0..k-2."""
    n = coeff.grid.dim
    k = coeff.k
    c = cones.homotopy_constant(n, k)
    al = np.moveaxis(coeff.alpha_l, 0, -1)
    ls = np.arange(k - 1)
    u = np.asarray(u, dtype=np.float64)
    return ((1.0 - t) * c + t * al) * np.exp(2.0 * (k - ls) * u[..., None])


def assemble_U(jet, background, t):
    """The matrix of U^t at every node, a (*shape, n, n) view of contiguous
    component planes (n, n, *shape).

    U^t = Hess u + ((1-tau)/(n-2)) Lap u I + ((2-tau)/2) |grad u|^2 I
          - du (x) du - t B + (1-t) I

    on the flat chart.  Each upper-triangle entry is formed once, the scalar
    terms are added on the diagonal only, and the lower triangle is a copy,
    so the result is exactly symmetric.
    """
    n = background.grid.dim
    tau = background.tau
    g = jet.grad_planes
    hess = jet.hess_planes
    B = background.B_planes
    U = np.empty((n, n) + g.shape[1:])
    c1_lap = ((1.0 - tau) / (n - 2.0)) * jet.laplacian
    c2_g2 = 0.5 * (2.0 - tau) * dot_planes(g, g)
    for a in range(n):
        diag = U[a, a]
        np.add(hess[a, a], c1_lap, out=diag)
        diag += c2_g2
        diag -= g[a] * g[a]
        for b in range(a + 1, n):
            np.subtract(hess[a, b], g[a] * g[b], out=U[a, b])
    for a in range(n):
        for b in range(a, n):
            U[a, b] -= t * B[a, b]
        U[a, a] += 1.0 - t
    mirror(U)
    return np.moveaxis(U, (0, 1), (-2, -1))


def require_finite(name, values):
    """Raise HypothesisViolation naming the first node where the input field
    `values` is not finite."""
    node, finite = worst_node(np.isfinite(values))
    if not finite:
        raise HypothesisViolation(
            f"input data must be finite, but {name} = {values[node]} at node {node}"
        )


def validate_hypotheses(background, coeff):
    """Check the solvability hypotheses; raise HypothesisViolation naming the
    first one that fails.

    Checks, in order: tau, alpha, every alpha_l and every entry B_ij finite
    at every node; tau < 1; alpha_l > 0 at every node for every l;
    lambda(-B) in Gamma_k at every node.
    """
    if not np.isfinite(background.tau):
        raise HypothesisViolation(f"input data must be finite, but tau = {background.tau}")
    n = background.grid.dim
    named = [("alpha", coeff.alpha), *((f"alpha_{l}", a) for l, a in enumerate(coeff.alpha_l))]
    named += [(f"B_{i}{j}", background.B_planes[i, j]) for i in range(n) for j in range(i, n)]
    for name, values in named:
        require_finite(name, values)
    if not background.tau < 1.0:
        raise HypothesisViolation(
            f"hypothesis violated: tau < 1 required, got tau={background.tau}"
        )
    k = coeff.k
    for l in range(k - 1):
        node, low = worst_node(coeff.alpha_l[l])
        if not low > 0.0:
            raise HypothesisViolation(
                f"hypothesis violated: alpha_l > 0 required everywhere, but "
                f"alpha_{l} = {low} at node {node}"
            )
    node, worst = worst_node(cones.matrix_cone_margin(-background.B, k))
    if not worst > 0.0:
        raise HypothesisViolation(
            f"hypothesis violated: lambda(-B) in Gamma_{k} required everywhere, "
            f"worst cone margin {worst} at node {node}"
        )
    return worst
