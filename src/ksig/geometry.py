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
matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .grid import PeriodicGrid, compute_jet

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

    B is stored in flat-chart coordinates with shape (*grid.shape, n, n).
    phi_jet holds the flat-chart jet of phi in conformally-flat mode (None
    in prescribed mode), and scale = e^{-2 phi} is the frame factor.
    """

    grid: PeriodicGrid
    tau: float
    B: np.ndarray
    phi: np.ndarray | None = None
    phi_jet: object | None = None

    @property
    def mode(self):
        return "conformally-flat" if self.phi is not None else "prescribed-tensor"

    def frame_scale(self):
        """e^{-2 phi} per node, or None in prescribed (flat) mode."""
        if self.phi is None:
            return None
        return np.exp(-2.0 * self.phi)

    def frame_B(self):
        """B as seen by the orthonormal frame of g0: e^{-2 phi} B."""
        if self.phi is None:
            return self.B
        return self.frame_scale()[..., None, None] * self.B


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
    a full per-node field (*shape, n, n).
    """
    n = grid.dim
    if B is None:
        B = -np.eye(n)
    B = np.asarray(B, dtype=np.float64)
    if B.shape == (n, n):
        B = np.broadcast_to(B, grid.shape + (n, n)).copy()
    if B.shape != grid.shape + (n, n):
        raise ValueError(f"background tensor shape {B.shape} does not match grid")
    return BackgroundField(grid=grid, tau=float(tau), B=B)


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
    eye = np.eye(n)
    g2 = np.einsum("...i,...i->...", jet.gradient, jet.gradient)
    B = -(
        jet.hessian
        + ((1.0 - tau) / (n - 2.0)) * jet.laplacian[..., None, None] * eye
        + 0.5 * (2.0 - tau) * g2[..., None, None] * eye
        - jet.gradient[..., :, None] * jet.gradient[..., None, :]
    )
    return BackgroundField(grid=grid, tau=float(tau), B=B, phi=phi, phi_jet=jet)


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
    """The frame matrix of g0^{-1} U^t at every node, shape (*shape, n, n).

    U^t = Hess u + ((1-tau)/(n-2)) Lap u g0 + ((2-tau)/2) |grad u|^2 g0
          - du (x) du - t B + (1-t) g0,

    all covariant with respect to g0.  In conformally-flat mode the
    covariant Hessian picks up the Christoffel correction

        Hc_ij = H_ij - phi_i u_j - phi_j u_i + <grad phi, grad u> delta_ij

    and the frame matrix is e^{-2 phi} times the coordinate core plus
    (1-t) I.  The result is exactly symmetric.
    """
    n = background.grid.dim
    tau = background.tau
    eye = np.eye(n)
    g = jet.gradient
    if background.phi is None:
        hess = jet.hessian
        lap = jet.laplacian
        scale = None
        pg = None
    else:
        pg = background.phi_jet.gradient
        mixed = pg[..., :, None] * g[..., None, :]
        inner = np.einsum("...i,...i->...", pg, g)
        hess = jet.hessian - mixed - mixed.swapaxes(-1, -2) + inner[..., None, None] * eye
        lap = np.trace(hess, axis1=-2, axis2=-1)
        scale = background.frame_scale()
    g2 = np.einsum("...i,...i->...", g, g)
    core = (
        hess
        + ((1.0 - tau) / (n - 2.0)) * lap[..., None, None] * eye
        + 0.5 * (2.0 - tau) * g2[..., None, None] * eye
        - g[..., :, None] * g[..., None, :]
        - t * background.B
    )
    if scale is None:
        return core + (1.0 - t) * eye
    return scale[..., None, None] * core + (1.0 - t) * eye


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
