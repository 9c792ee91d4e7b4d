"""One problem's data (Problem), checked against the solvability hypotheses.

The reference metric g0 is the flat torus chart and the tensor B playing the
modified-Schouten role is prescribed: the builtin "hyperbolic-like" choice
B = -I reproduces the structure of a negatively curved space form, and a
constant or per-node B may be supplied directly.  Since g0 is the identity
in the chart, g0^{-1} U is the coordinate matrix of U, so all cone tests and
sigma evaluations act on plain symmetric matrices.  B is stored as
component planes (n, n, ...), entry (i, j) of every node in one plane, the
layout `cones` reads; a Problem stores a constant B as one (n, n, 1, ..., 1)
matrix, not n^2 grid planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InputError, cones
from .grid import PeriodicGrid, worst_node

__all__ = [
    "Problem",
    "spaceform_schouten",
    "require_finite",
]


# an infinite factor leaves nan off the diagonal, which the gating of the inputs names
@np.errstate(invalid="ignore")
def spaceform_schouten(kappa, n, tau):
    """The modified Schouten tensor of a space form of curvature kappa.

    Ric = (n-1) kappa g and R = n(n-1) kappa give
    (kappa/(n-2)) (n-1 - tau*n/2) * I.
    """
    factor = (kappa / (n - 2.0)) * ((n - 1.0) - tau * n / 2.0)
    return factor * np.eye(n)


@dataclass(frozen=True)
class Problem:
    """One equation of the family on the flat chart: the grid, the cone index
    k, tau, the tensor B, alpha (any sign) and the k-1 positive alpha_l.

    B_planes holds B as exactly symmetric component planes and alpha_l stacks
    l first.  Each of B_planes, alpha and alpha_l may have any shape that
    broadcasts to its full one, (n, n, *grid.shape), grid.shape and
    (k-1, *grid.shape), axis for axis: a constant B is one (n, n, 1, ..., 1)
    matrix, a constant alpha_l one (1, 1, ..., 1) number for every l and
    node, and an alpha that varies with x1 alone one (N, 1, ..., 1) line.

    Every Problem, one built by dataclasses.replace included, meets the
    solvability hypotheses; construction raises InputError naming the first
    that fails, in order: k in [3, n]; tau, alpha, every alpha_l and every
    entry B_ij finite at every node; tau < 1; alpha_l > 0 at every node for
    every l; sigma_1..sigma_k of -B and sigma_{k-1}(-B)^2 finite and
    lambda(-B) in Gamma_k at every node of its own rank.  A field of another
    shape is a program error, a plain ValueError.
    """

    grid: PeriodicGrid
    k: int
    tau: float
    B_planes: np.ndarray
    alpha: np.ndarray
    alpha_l: np.ndarray

    def __post_init__(self):
        n, k, tau, shape = self.grid.dim, self.k, self.tau, self.grid.shape
        if not 3 <= k <= n:
            raise InputError(f"cone index k={k} outside [3, n={n}]")
        for name, full in (("B_planes", (n, n) + shape), ("alpha", shape), ("alpha_l", (k - 1,) + shape)):
            got = getattr(self, name).shape
            if len(got) != len(full) or any(g not in (1, f) for g, f in zip(got, full)):
                raise ValueError(f"{name} of shape {got} does not broadcast to {full}")
        if not np.isfinite(tau):
            raise InputError(f"input data must be finite, but tau = {tau}")
        named = [("alpha", self.alpha), *((f"alpha_{l}", a) for l, a in enumerate(self.alpha_l))]
        named += [(f"B_{i}{j}", self.B_planes[i, j]) for i in range(n) for j in range(i, n)]
        for name, values in named:
            require_finite(name, values)
        if not tau < 1.0:
            raise InputError(f"hypothesis violated: tau < 1 required, got tau={tau}")
        for l, alpha_l in enumerate(self.alpha_l):
            node, low = worst_node(alpha_l)
            if not low > 0.0:
                raise InputError(
                    f"hypothesis violated: alpha_l > 0 required everywhere, but "
                    f"alpha_{l} = {low} at node {node}"
                )
        with np.errstate(over="ignore", invalid="ignore"):  # a huge -B overflows; named below
            sig = cones.matrix_sigmas(-self.B_planes, k)[1:]
            skm1_squared = sig[k - 2] ** 2  # F's gradient divides by it
        node, finite = worst_node(np.isfinite(sig).all(axis=0))
        if not finite:
            raise InputError(f"hypothesis check overflows: sigma_j(-B) is not finite at node {node}")
        node, finite = worst_node(np.isfinite(skm1_squared))
        if not finite:
            raise InputError(f"hypothesis check overflows: sigma_{k - 1}(-B)^2 is not finite at node {node}")
        node, worst = worst_node(sig.min(axis=0))
        if not worst > 0.0:
            raise InputError(
                f"hypothesis violated: lambda(-B) in Gamma_{k} required everywhere, "
                f"worst cone margin {worst} at node {node}"
            )


def require_finite(name, values):
    """Raise InputError naming the first node where the input field
    `values` is not finite."""
    node, finite = worst_node(np.isfinite(values))
    if not finite:
        raise InputError(
            f"input data must be finite, but {name} = {values[node]} at node {node}"
        )

