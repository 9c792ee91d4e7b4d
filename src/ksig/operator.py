"""One canonical pointwise evaluation of the deformed equation.

Both the solver and the monitors go through `evaluate`, so residuals,
gradients, cone margins and inequality slacks always come from the same
arithmetic.  Every evaluation builds, with the residual, the gradient G^{ij}
and the zeroth-order coefficient of the linearization.  The residual
convention is

    F(u; t) = G(U^t) + t alpha e^{2u},

which vanishes exactly at a solution of the t-member of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .geometry import assemble_U, beta_weights
from .grid import JetField, compute_jet, worst_node

__all__ = ["PointState", "evaluate", "admissibility_failure"]


@dataclass(frozen=True)
class PointState:
    """Everything the solver and monitors need at one (u, t)."""

    u: np.ndarray
    t: float
    jet: JetField
    U: np.ndarray  # U^t per node, (*shape, n, n) view of planes
    sigma: np.ndarray  # (*shape, k+1)
    value: np.ndarray  # G(U^t)
    margin: np.ndarray  # min_{1<=j<=k-1} sigma_j(U^t)
    residual: np.ndarray  # F(u; t)
    grad: np.ndarray  # G^{ij}, (*shape, n, n) view of planes
    zeroth: np.ndarray  # zeroth-order linearization coefficient


def evaluate(u, t, background, coeff, jet=None):
    """Assemble U^t from the jet of u and evaluate the quotient operator.

    No cone check is performed here; `margin` carries min sigma_j so callers
    apply their own policy.  Pass a precomputed (e.g. analytic) `jet` to
    bypass the stencil.
    """
    u = np.asarray(u, dtype=np.float64)
    k = coeff.k
    if jet is None:
        jet = compute_jet(background.grid, u)
    U = assemble_U(jet, background, t)
    beta = beta_weights(coeff, u, t)
    ev = cones.quotient_eval(U, k, beta)
    margin = ev.sigma[..., 1:k].min(axis=-1)
    exp2u = np.exp(2.0 * u)
    residual = ev.value + t * coeff.alpha * exp2u
    ls = np.arange(k - 1)
    zeroth = np.sum(2.0 * (k - ls) * beta * ev.gl, axis=-1) + 2.0 * t * coeff.alpha * exp2u
    return PointState(
        u=u,
        t=t,
        jet=jet,
        U=U,
        sigma=ev.sigma,
        value=ev.value,
        margin=margin,
        residual=residual,
        grad=ev.grad,
        zeroth=zeroth,
    )


def admissibility_failure(state, floor, context):
    """Build the error for a state whose margin dips to `floor` or below."""
    node, value = worst_node(state.margin)
    eigs = np.linalg.eigvalsh(state.U[node])
    return cones.InadmissibleStateError(
        f"{context}: cone margin {value:.3e} <= {floor:.3e} at node {node}; "
        f"eigenvalues of U there: {eigs.tolist()}",
        sigma=state.sigma[node],
        node=node,
    )
