"""The discrete operator F and its exact derivative dF, in one module.

`compute_jet` takes a field's second-order central-difference jet with
periodic wraparound, by `_shift`'s two slice copies, so the stencil is
exact at the wrap seam; dF's apply differences v the same way.  `evaluate`
builds F at one (u, t) from U^t (`assemble_U`), beta_l (`beta_weights`)
and the forcing term (`forcing`), with the cone margin and the gradient
G^{ij}; the solver, the monitors and `manufacture_alpha` go through it, so
residuals, gradients, cone margins and inequality slacks always come from
the same arithmetic.  `jacobian` builds dF at an evaluated state, once per
Newton step; F and dF read their coefficients and their stencil from one
definition.  The residual convention is

    F(u; t) = G(U^t) + t alpha e^{2u},

which vanishes exactly at a solution of the t-member of the family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import InputError, cones
from .grid import JetField, dot_planes, mirror, worst_node

__all__ = [
    "PointState", "beta_weights", "forcing", "compute_jet", "assemble_U", "evaluate", "jacobian",
    "admissibility_failure", "manufacture_alpha",
]


@dataclass(frozen=True)
class PointState:
    """Everything the solver and monitors read at one (u, t); the Hessian of
    u is gone once U^t is assembled from it."""

    u: np.ndarray
    t: float
    grad_u: np.ndarray  # D_i u as component planes, (n, *shape)
    lap_u: np.ndarray  # Laplacian of u, the trace of its stencil Hessian
    U: np.ndarray  # U^t per node, (*shape, n, n) view of planes
    beta: np.ndarray  # beta_l per node, (*shape, k-1)
    sigma: np.ndarray  # (*shape, k+1)
    value: np.ndarray  # G(U^t)
    margin: np.ndarray  # min_{1<=j<=k-1} sigma_j(U^t)
    residual: np.ndarray  # F(u; t)
    grad: np.ndarray  # G^{ij}, (*shape, n, n) view of planes


def _coefficients(problem):
    """U^t's c1 = (1-tau)/(n-2) and c2 = (2-tau)/2, and beta_l's exponents 2(k-l), l = 0..k-2."""
    n, k, tau = problem.grid.dim, problem.k, problem.tau
    return (1.0 - tau) / (n - 2.0), 0.5 * (2.0 - tau), 2.0 * (k - np.arange(k - 1))


def beta_weights(problem, u, t):
    """beta_l = [(1-t) c + t alpha_l(x)] e^{2(k-l) u}, last axis l = 0..k-2;
    alpha_l broadcasts from its own rank, a single row over l included."""
    _, _, exponents = _coefficients(problem)
    c = cones.homotopy_constant(problem.grid.dim, problem.k)
    al = np.moveaxis(problem.alpha_l, 0, -1)
    u = np.asarray(u, dtype=np.float64)
    return ((1.0 - t) * c + t * al) * np.exp(exponents * u[..., None])


def forcing(problem, u, t):
    """F's forcing term t alpha e^{2u}."""
    return t * problem.alpha * np.exp(2.0 * u)


def _shift(a, steps, axis, out):
    """a(x + steps h e_axis), numpy's roll of `a` by -steps along axis, as two
    slice copies into `out`, which must not share memory with `a`."""
    size = a.shape[axis]
    s = steps % size
    lead = (slice(None),) * axis
    out[lead + (slice(0, size - s),)] = a[lead + (slice(s, size),)]
    out[lead + (slice(size - s, size),)] = a[lead + (slice(0, s),)]
    return out


def compute_jet(grid, values):
    """Second-order central-difference jet with periodic wraparound."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    n = grid.dim
    h = grid.spacing
    grad = np.empty((n,) + values.shape)
    hess = np.empty((n, n) + values.shape)
    fwd, back = np.empty_like(values), np.empty_like(values)
    for i in range(n):
        _shift(values, 1, i, fwd)
        _shift(values, -1, i, back)
        np.subtract(fwd, back, out=grad[i])
        d2 = np.multiply(values, 2.0, out=hess[i, i])
        np.subtract(fwd, d2, out=d2)
        d2 += back
        d2 /= h * h
    # as in dF's apply, the cross terms difference grad before it is scaled
    for i in range(n):
        for j in range(i + 1, n):
            cross = hess[i, j]
            np.subtract(_shift(grad[i], 1, j, fwd), _shift(grad[i], -1, j, back), out=cross)
            cross /= 4.0 * h * h
            hess[j, i] = cross
    grad /= 2.0 * h
    lap = np.trace(hess)
    return JetField(value=values, grad_planes=grad, hess_planes=hess, laplacian=lap)


def assemble_U(jet, problem, t):
    """The matrix of U^t at every node, a (*shape, n, n) view of contiguous
    component planes (n, n, *shape).

    U^t = Hess u + ((1-tau)/(n-2)) Lap u I + ((2-tau)/2) |grad u|^2 I
          - du (x) du - t B + (1-t) I

    on the flat chart.  Each upper-triangle entry is formed once, the scalar
    terms are added on the diagonal only, and the lower triangle is a copy,
    so the result is exactly symmetric.
    """
    n = problem.grid.dim
    c1, c2, _ = _coefficients(problem)
    g = jet.grad_planes
    hess = jet.hess_planes
    B = problem.B_planes
    U = np.empty((n, n) + g.shape[1:])
    c1_lap = c1 * jet.laplacian
    c2_g2 = c2 * dot_planes(g, g)
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
    # only the gradient and Laplacian are read from here on: free the
    # Hessian before quotient_eval allocates G^{ij} and its workspace
    grad_u, lap_u = jet.grad_planes, jet.laplacian
    del jet
    beta = beta_weights(problem, u, t)
    ev = cones.quotient_eval(U, k, beta)
    margin = ev.sigma[..., 1:k].min(axis=-1)
    residual = ev.value + forcing(problem, u, t)
    return PointState(
        u=u,
        t=t,
        grad_u=grad_u,
        lap_u=lap_u,
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
    b = 2 c2 tr(G) grad u - 2 G grad u, G = G^{ij}, c1 and c2 as in U^t
    and c = sum_l 2(k-l) beta_l G_l + 2 t alpha e^{2u}, twice the forcing,
    where G_l = -sigma_l/sigma_{k-1}; all on the flat chart.  Returns
    (apply, diagonal): apply(v) is dF[v] for a grid field v, summed from the
    weights of v(x), of v(x +- h e_i) and of compute_jet's cross
    differences; diagonal is the weight of v(x), dF's diagonal.  Of the
    state it reads G^{ij}, grad u, sigma, beta and u.
    """
    grid = problem.grid
    n = grid.dim
    h = grid.spacing
    k, t = problem.k, state.t
    c1, c2, exponents = _coefficients(problem)
    # G^{ij} as component planes: quotient_eval builds the gradient on
    # contiguous planes and mirrors its upper triangle, so it is exactly symmetric
    G = np.moveaxis(state.grad, (-2, -1), (0, 1))
    trace_g = np.trace(G)
    g = state.grad_u
    b = 2.0 * c2 * trace_g * g
    b -= 2.0 * np.einsum("ij...,j...->i...", G, g)
    # A^{ii} and A^{ij} (i != j) are the diagonal and off-diagonal of G + c1 tr(G) I
    diag_g = np.moveaxis(np.diagonal(G), -1, 0)
    # weights multiply by the reciprocal of the stencil denominators; dividing
    # instead rounds differently and moves the stored solutions' last bits.
    # Each weight is built in place over what it is built from, and only
    # centre, plus, minus and cross outlive their build
    axial = diag_g + c1 * trace_g
    axial *= 1.0 / (h * h)
    drift = b
    drift *= 1.0 / (2.0 * h)
    gl = -state.sigma[..., : k - 1] / state.sigma[..., k - 1 : k]  # G_l, l = 0..k-2
    zeroth = np.sum(exponents * state.beta * gl, axis=-1)
    zeroth += 2.0 * forcing(problem, state.u, t)
    centre = zeroth - 2.0 * axial.sum(axis=0)
    minus = axial - drift
    plus = axial
    plus += drift
    del zeroth, gl, drift, b, axial
    cross = [(i, j, G[i, j] * (1.0 / (2.0 * h * h))) for i in range(n) for j in range(i + 1, n)]
    fwd, back = grid.zeros(), grid.zeros()  # v shifted by +-1 node, reused by every apply

    def apply(v):
        out = centre * v
        diffs = []
        for i in range(n):
            _shift(v, 1, i, fwd)
            _shift(v, -1, i, back)
            out += plus[i] * fwd + minus[i] * back
            diffs.append(fwd - back)
        for i, j, w in cross:
            np.subtract(_shift(diffs[i], 1, j, fwd), _shift(diffs[i], -1, j, back), out=fwd)
            out += np.multiply(w, fwd, out=fwd)
        return out

    return apply, centre


def admissibility_failure(state, floor, context):
    """The message for a state whose margin dips to `floor` or below: the
    worst node and the eigenvalues of U there, or U's entries where any is
    not finite, since eigvalsh cannot factor such a U."""
    node, value = worst_node(state.margin)
    U = state.U[node]
    there = f"U there is not finite: {U.tolist()}"
    if np.isfinite(U).all():
        there = f"eigenvalues of U there: {np.linalg.eigvalsh(U).tolist()}"
    return f"{context}: cone margin {value:.3e} <= {floor:.3e} at node {node}; {there}"


def manufacture_alpha(u_star, problem, *, jet=None):
    """Back-solve the t=1 equation for alpha so u_star is its exact root.

        alpha = -e^{-2 u*} [sigma_k/sigma_{k-1}(U*) - sum_l alpha_l e^{2(k-l)u*}
                            sigma_l/sigma_{k-1}(U*)]

    Returns `problem` with alpha replaced; its alpha_l enter the equation
    and its own alpha is ignored.  alpha carries no sign constraint.  Pass the
    analytic `jet` of u_star to manufacture against exact derivatives
    (convergence studies); otherwise the stencil jet is used and the
    construction residual is identically zero at this resolution.  A u_star
    whose U* leaves Gamma_{k-1} is bad input: InputError names the worst
    node and U*'s eigenvalues there, or its entries where U* is not finite;
    so is a non-finite alpha, which the returned Problem refuses as any input.
    """
    # at t = 1 the weights (1-t) c + t alpha_l are alpha_l exactly.  A huge
    # u_star may overflow to a NaN margin, and a U* on the cone's boundary
    # divides by sigma_{k-1} = 0: the margin check below rejects both.  The
    # returned Problem rejects an alpha that overflows.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = evaluate(u_star, 1.0, problem, jet=jet)
        alpha = -np.exp(-2.0 * state.u) * state.value
    if not state.margin.min() > 0.0:
        raise InputError(admissibility_failure(state, 0.0, "u_star rejected"))
    return replace(problem, alpha=alpha)
