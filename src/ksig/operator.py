"""The discrete operator F and its exact derivative dF, in one module.

`evaluate` builds F at one (u, t), with the cone margin and the gradient
G^{ij}; both the solver and the monitors go through it, so residuals,
gradients, cone margins and inequality slacks always come from the same
arithmetic.  `jacobian` builds dF at an evaluated state, once per Newton
step.  The residual convention is

    F(u; t) = G(U^t) + t alpha e^{2u},

which vanishes exactly at a solution of the t-member of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .geometry import assemble_U, beta_weights
from .grid import JetField, compute_jet, shift, worst_node

__all__ = ["PointState", "evaluate", "jacobian", "admissibility_failure"]


@dataclass(frozen=True)
class PointState:
    """Everything the solver and monitors need at one (u, t)."""

    u: np.ndarray
    t: float
    jet: JetField
    U: np.ndarray  # U^t per node, (*shape, n, n) view of planes
    beta: np.ndarray  # beta_l per node, (*shape, k-1)
    sigma: np.ndarray  # (*shape, k+1)
    value: np.ndarray  # G(U^t)
    margin: np.ndarray  # min_{1<=j<=k-1} sigma_j(U^t)
    residual: np.ndarray  # F(u; t)
    grad: np.ndarray  # G^{ij}, (*shape, n, n) view of planes


# a state may leave the float range (a huge forcing, an overshooting trial);
# callers check the margin, the residual and dF's diagonal for finiteness
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate(u, t, problem, jet=None):
    """Assemble U^t from the jet of u and evaluate the quotient operator.

    No cone check is performed here; `margin` carries min sigma_j so callers
    apply their own policy.  Pass a precomputed (e.g. analytic) `jet` to
    bypass the stencil.
    """
    u = np.asarray(u, dtype=np.float64)
    k = problem.k
    if jet is None:
        jet = compute_jet(problem.grid, u)
    U = assemble_U(jet, problem, t)
    beta = beta_weights(problem, u, t)
    ev = cones.quotient_eval(U, k, beta)
    margin = ev.sigma[..., 1:k].min(axis=-1)
    residual = ev.value + t * problem.alpha * np.exp(2.0 * u)
    return PointState(
        u=u,
        t=t,
        jet=jet,
        U=U,
        beta=beta,
        sigma=ev.sigma,
        value=ev.value,
        margin=margin,
        residual=residual,
        grad=ev.grad,
    )


# a tau far below 0 overflows the weights; solver._gmres refuses a non-finite diagonal
@np.errstate(over="ignore", invalid="ignore")
def jacobian(state, problem):
    """dF at `state`, an evaluate result, as per-node weights on
    compute_jet's stencil, built once.

    dF[v] = A^{ij} D_ij v + b^i D_i v + c v with A = G + c1 tr(G) I,
    b = (2-tau) tr(G) grad u - 2 G grad u, G = G^{ij}, c1 = (1-tau)/(n-2)
    and c = sum_l 2(k-l) beta_l G_l + 2 t alpha e^{2u}, where
    G_l = -sigma_l/sigma_{k-1}; all on the flat chart.  Returns
    (apply, diagonal): apply(v) is dF[v] for a grid field v, summed from the
    weights of v(x), of v(x +- h e_i) and of the four-point cross
    differences; diagonal is the weight of v(x), dF's diagonal.
    """
    grid = problem.grid
    n = grid.dim
    h = grid.spacing
    k, t, tau = problem.k, state.t, problem.tau
    c1 = (1.0 - tau) / (n - 2.0)
    # G^{ij} as component planes: quotient_eval builds the gradient on
    # contiguous planes and mirrors its upper triangle, so it is exactly symmetric
    G = np.moveaxis(state.grad, (-2, -1), (0, 1))
    trace_g = np.trace(G)
    g = state.jet.grad_planes
    b = (2.0 - tau) * trace_g * g - 2.0 * np.einsum("ij...,j...->i...", G, g)
    # A^{ii} and A^{ij} (i != j) are the diagonal and off-diagonal of G + c1 tr(G) I
    diag_g = np.moveaxis(np.diagonal(G), -1, 0)
    # weights multiply by the reciprocal of the stencil denominators; dividing
    # instead rounds differently and moves the stored solutions' last bits
    axial = (diag_g + c1 * trace_g) * (1.0 / (h * h))
    drift = b * (1.0 / (2.0 * h))
    gl = -state.sigma[..., : k - 1] / state.sigma[..., k - 1 : k]  # G_l, l = 0..k-2
    zeroth = np.sum(2.0 * (k - np.arange(k - 1)) * state.beta * gl, axis=-1)
    zeroth += 2.0 * t * problem.alpha * np.exp(2.0 * state.u)
    centre = zeroth - 2.0 * axial.sum(axis=0)
    plus = axial + drift
    minus = axial - drift
    cross = [(i, j, G[i, j] * (1.0 / (2.0 * h * h))) for i in range(n) for j in range(i + 1, n)]
    fwd, back = grid.zeros(), grid.zeros()  # v shifted by +-1 node, reused by every apply

    def apply(v):
        out = centre * v
        diffs = []
        for i in range(n):
            shift(v, 1, i, fwd)
            shift(v, -1, i, back)
            out += plus[i] * fwd + minus[i] * back
            diffs.append(fwd - back)
        for i, j, w in cross:
            np.subtract(shift(diffs[i], 1, j, fwd), shift(diffs[i], -1, j, back), out=fwd)
            out += np.multiply(w, fwd, out=fwd)
        return out

    return apply, centre


def admissibility_failure(state, floor, context):
    """The message for a state whose margin dips to `floor` or below: the
    worst node and the eigenvalues of U there."""
    node, value = worst_node(state.margin)
    eigs = np.linalg.eigvalsh(state.U[node])
    return (
        f"{context}: cone margin {value:.3e} <= {floor:.3e} at node {node}; "
        f"eigenvalues of U there: {eigs.tolist()}"
    )
