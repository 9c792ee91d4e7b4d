"""Background data and pointwise assembly of the deformed conformal tensor.

Two background modes:

* prescribed-tensor: the reference metric is the flat torus chart and the
  tensor B playing the modified-Schouten role is supplied directly.  The
  builtin "hyperbolic-like" choice B = -I reproduces the structure of a
  negatively curved space form.
* conformally-flat: the reference metric is g0 = e^{2 phi} * flat and B is
  computed from phi via the conformal transformation of the flat chart.

All cone tests and sigma evaluations act on g0^{-1} U represented in an
orthonormal frame of g0, so downstream code only ever sees plain symmetric
matrices (in conformally-flat mode that is e^{-2 phi} times the coordinate
matrix).  Per-node tensors (B, U) are stored as contiguous component planes
(n, n, *grid.shape), entry (i, j) of every node in one plane, and handed out
as zero-copy (*grid.shape, n, n) views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .grid import PeriodicGrid, compute_jet, dot_planes, mirror

__all__ = [
    "HypothesisViolation",
    "BackgroundField",
    "CoefficientData",
    "spaceform_schouten",
    "flat_background",
    "background_from_phi",
    "beta_weights",
    "assemble_U",
    "validate_hypotheses",
]


class HypothesisViolation(ValueError):
    """A solvability hypothesis on the input data fails; nothing was computed."""


@dataclass(frozen=True)
class BackgroundField:
    """Reference geometry: tau, the tensor B per node, optional conformal phi.

    B is stored in flat-chart coordinates as exactly symmetric contiguous
    component planes B_planes[i, j], shape (n, n, *grid.shape); B is the
    zero-copy (*grid.shape, n, n) view of them.  phi_jet holds the
    flat-chart jet of phi in conformally-flat mode (None in prescribed
    mode), and scale = e^{-2 phi} is the frame factor.
    """

    grid: PeriodicGrid
    tau: float
    B_planes: np.ndarray
    phi: np.ndarray | None = None
    phi_jet: object | None = None

    @property
    def B(self):
        return np.moveaxis(self.B_planes, (0, 1), (-2, -1))

    def frame_scale(self):
        """e^{-2 phi} per node, or None in prescribed (flat) mode."""
        if self.phi is None:
            return None
        return np.exp(-2.0 * self.phi)

    def frame_B(self):
        """B as seen by the orthonormal frame of g0: e^{-2 phi} B."""
        if self.phi is None:
            return self.B
        return np.moveaxis(self.frame_scale() * self.B_planes, (0, 1), (-2, -1))


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


def _core(hess, lap, g, tau, out):
    """Upper triangle of Hess + c1 Lap I + c2 |grad|^2 I - grad (x) grad, with
    c1 = (1-tau)/(n-2) and c2 = (2-tau)/2, on component planes into `out`.

    `hess` may be `out` itself.  The scalar terms touch the diagonal only.
    """
    n = len(g)
    c1_lap = ((1.0 - tau) / (n - 2.0)) * lap
    c2_g2 = 0.5 * (2.0 - tau) * dot_planes(g, g)
    for a in range(n):
        diag = out[a, a]
        np.add(hess[a, a], c1_lap, out=diag)
        diag += c2_g2
        diag -= g[a] * g[a]
        for b in range(a + 1, n):
            np.subtract(hess[a, b], g[a] * g[b], out=out[a, b])


def background_from_phi(grid, phi, tau):
    """Conformally-flat background g0 = e^{2 phi} * flat.

    With the flat chart as reference, the modified Schouten tensor of g0 is

        B = -[ Hess(phi) + ((1-tau)/(n-2)) Lap(phi) I
               + ((2-tau)/2) |grad phi|^2 I - dphi (x) dphi ]

    with flat-chart derivatives.  Adding a constant to phi rescales the
    metric but leaves B unchanged.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != grid.shape:
        raise ValueError(f"phi shape {phi.shape} does not match grid {grid.shape}")
    n = grid.dim
    jet = compute_jet(grid, phi)
    planes = np.empty((n, n) + grid.shape)
    _core(jet.hess_planes, jet.laplacian, jet.grad_planes, tau, planes)
    mirror(planes)
    np.negative(planes, out=planes)
    return BackgroundField(grid=grid, tau=float(tau), B_planes=planes, phi=phi, phi_jet=jet)


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
    """The frame matrix of g0^{-1} U^t at every node, a (*shape, n, n) view of
    contiguous component planes (n, n, *shape).

    U^t = Hess u + ((1-tau)/(n-2)) Lap u g0 + ((2-tau)/2) |grad u|^2 g0
          - du (x) du - t B + (1-t) g0,

    all covariant with respect to g0.  In conformally-flat mode the
    covariant Hessian picks up the Christoffel correction

        Hc_ij = H_ij - phi_i u_j - phi_j u_i + <grad phi, grad u> delta_ij

    and the frame matrix is e^{-2 phi} times the coordinate core plus
    (1-t) I.  Each upper-triangle entry is formed once, the scalar terms are
    added on the diagonal only, and the lower triangle is a copy, so the
    result is exactly symmetric.
    """
    n = background.grid.dim
    g = jet.grad_planes
    U = np.empty((n, n) + g.shape[1:])
    if background.phi is None:
        hess = jet.hess_planes
        lap = jet.laplacian
        scale = None
    else:
        pg = background.phi_jet.grad_planes
        inner = dot_planes(pg, g)
        hess = U  # the covariant Hessian's upper triangle; _core adds to it in place
        for a in range(n):
            for b in range(a, n):
                np.subtract(jet.hess_planes[a, b], pg[a] * g[b], out=U[a, b])
                U[a, b] -= pg[b] * g[a]
            U[a, a] += inner
        lap = np.trace(U)
        scale = background.frame_scale()
    _core(hess, lap, g, background.tau, U)
    B = background.B_planes
    for a in range(n):
        for b in range(a, n):
            entry = U[a, b]
            entry -= t * B[a, b]
            if scale is not None:
                entry *= scale
        U[a, a] += 1.0 - t
    mirror(U)
    return np.moveaxis(U, (0, 1), (-2, -1))


def validate_hypotheses(background, coeff):
    """Check the solvability hypotheses; raise HypothesisViolation naming the
    first one that fails.

    Checks, in order: tau < 1; alpha_l > 0 at every node for every l;
    lambda(-B) in Gamma_k at every node (with respect to g0, i.e. on the
    frame matrix).
    """
    if not background.tau < 1.0:
        raise HypothesisViolation(
            f"hypothesis violated: tau < 1 required, got tau={background.tau}"
        )
    k = coeff.k
    for l in range(k - 1):
        field = coeff.alpha_l[l]
        low = field.min()
        if not low > 0.0:
            node = np.unravel_index(int(np.argmin(field)), field.shape)
            raise HypothesisViolation(
                f"hypothesis violated: alpha_l > 0 required everywhere, but "
                f"alpha_{l} = {low} at node {tuple(int(i) for i in node)}"
            )
    minusB = -background.frame_B()
    margin = cones.matrix_cone_margin(minusB, k)
    worst = margin.min()
    if not worst > 0.0:
        node = np.unravel_index(int(np.argmin(margin)), margin.shape)
        raise HypothesisViolation(
            f"hypothesis violated: lambda(-B) in Gamma_{k} required everywhere, "
            f"worst cone margin {worst} at node {tuple(int(i) for i in node)}"
        )
    return float(worst)
