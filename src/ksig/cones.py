"""Elementary symmetric polynomials, Garding cones, and Newton transforms.

Everything here is batched: eigenvalue arrays have shape (..., n), symmetric
matrices have shape (..., n, n), and results carry the batch shape (...).
Matrix invariants sigma_k are computed with the Faddeev-LeVerrier trace
recursion rather than eigendecomposition, so repeated eigenvalues need no
special treatment and the gradient tensors fall out of the same recursion.

Conventions:
    sigma_0 = 1 exactly.
    Gamma_k = {lambda : sigma_j(lambda) > 0 for all 1 <= j <= k} (strict).
    G_l(M)  = -sigma_l(M) / sigma_{k-1}(M).
    G(M)    = sigma_k/sigma_{k-1}(M) + sum_{l=0}^{k-2} beta_l G_l(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "InadmissibleStateError",
    "all_elementary_symmetric",
    "sigma_and_transforms",
    "cone_margin",
    "matrix_cone_margin",
    "QuotientEval",
    "quotient_eval",
    "homotopy_constant",
    "newton_maclaurin_constant",
]


class InadmissibleStateError(ValueError):
    """An eigenvalue vector or matrix left the required Garding cone.

    Carries the sigma values at the worst offending element (and the grid
    node, when the caller knows it) so drivers can decide whether to damp,
    reject the input, or abort.
    """

    def __init__(self, message, *, sigma=None, node=None):
        super().__init__(message)
        self.sigma = sigma
        self.node = node


def _check_order(k, n):
    if not 0 <= k <= n:
        raise ValueError(f"symmetric polynomial order k={k} outside [0, {n}]")


def all_elementary_symmetric(lam):
    """All sigma_0..sigma_n of the last axis of `lam`, shape (..., n+1).

    Incremental recurrence over the entries; exact in floating point for
    small-integer inputs, which the enumeration-oracle tests rely on.
    """
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[-1]
    sig = np.zeros(lam.shape[:-1] + (n + 1,), dtype=np.float64)
    sig[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i : i + 1]
        # e_j <- e_j + x * e_{j-1} for the first i+1 entries, done in one slice
        sig[..., 1 : i + 2] = sig[..., 1 : i + 2] + x * sig[..., 0 : i + 1]
    return sig


def sigma_and_transforms(M, kmax):
    """sigma_0..sigma_kmax and Newton transforms T_0..T_kmax of M.

    Faddeev-LeVerrier recursion:

        T_0 = I,   sigma_j = trace(M T_{j-1}) / j,   T_j = sigma_j I - M T_{j-1}.

    Parameters
    ----------
    M : array (..., n, n), symmetric
    kmax : highest order needed, 0 <= kmax <= n

    Returns
    -------
    sig : array (..., kmax+1)
    T : array (kmax+1, ..., n, n); T[j] is the gradient of sigma_{j+1} wrt M
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[-1]
    if M.ndim < 2 or M.shape[-2] != n:
        raise ValueError("expected square matrices in the trailing two axes")
    _check_order(kmax, n)
    batch = M.shape[:-2]
    eye = np.eye(n)
    sig = np.zeros(batch + (kmax + 1,))
    T = np.zeros((kmax + 1,) + batch + (n, n))
    sig[..., 0] = 1.0
    T[0] = eye
    for j in range(1, kmax + 1):
        MT = M @ T[j - 1]
        sj = np.trace(MT, axis1=-2, axis2=-1) / j
        sig[..., j] = sj
        T[j] = sj[..., None, None] * eye - MT
    return sig, T


def cone_margin(lam, k):
    """min_{1<=j<=k} sigma_j for eigenvalue vectors: > 0 iff inside Gamma_k."""
    lam = np.asarray(lam, dtype=np.float64)
    _check_order(k, lam.shape[-1])
    if k == 0:
        return np.full(lam.shape[:-1], np.inf)
    sig = all_elementary_symmetric(lam)
    return sig[..., 1 : k + 1].min(axis=-1)


def matrix_cone_margin(M, k):
    """min_{1<=j<=k} sigma_j(M) via the trace recursion."""
    M = np.asarray(M, dtype=np.float64)
    _check_order(k, M.shape[-1])
    if k == 0:
        return np.full(M.shape[:-2], np.inf)
    sig, _ = sigma_and_transforms(M, k)
    return sig[..., 1 : k + 1].min(axis=-1)


@dataclass(frozen=True)
class QuotientEval:
    """One batched evaluation of G and, optionally, its matrix gradient.

    sigma : (..., k+1) sigma_0..sigma_k
    value : (...) G(M)
    gl : (..., k-1) the quotients G_l = -sigma_l/sigma_{k-1}, l = 0..k-2
    grad : (..., n, n) dG/dM, or None if not requested
    """

    sigma: np.ndarray
    value: np.ndarray
    gl: np.ndarray
    grad: np.ndarray | None


def _raise_inadmissible(sig, k, context):
    skmin = sig[..., 1:k].min(axis=-1)
    flat = int(np.argmin(skmin))
    idx = np.unravel_index(flat, skmin.shape) if skmin.shape else ()
    values = sig[idx]
    raise InadmissibleStateError(
        f"{context}: Gamma_{k - 1} violated at batch element {idx}: "
        f"sigma_1..sigma_{k - 1} = {values[1:k].tolist()}",
        sigma=values,
        node=idx if idx else None,
    )


def quotient_eval(M, k, beta=None, want_grad=False, check=True):
    """Evaluate G(M) = sigma_k/sigma_{k-1} + sum_l beta_l G_l and its gradient.

    beta is None (treated as zero) or an array broadcastable to (..., k-1);
    entries are the nonnegative weights multiplying G_l = -sigma_l/sigma_{k-1}.
    With check=True a Gamma_{k-1} violation anywhere in the batch raises
    InadmissibleStateError; solvers that keep their own margins pass
    check=False and read the sigmas directly.

    The gradient uses dsigma_a/dM = T_{a-1}(M) and the quotient rule

        d(sigma_a/sigma_{k-1}) = [T_{a-1} sigma_{k-1} - sigma_a T_{k-2}] / sigma_{k-1}^2

    with T_{-1} = 0, assembled once for the weighted numerator.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"quotient order k={k} outside [1, {n}]")
    sig, T = sigma_and_transforms(M, k)
    if check and k >= 2:
        worst = sig[..., 1:k].min(axis=-1).min()
        if not worst > 0.0:
            _raise_inadmissible(sig, k, "quotient evaluation")
    skm1 = sig[..., k - 1]
    gl = -sig[..., : k - 1] / skm1[..., None]
    if beta is None:
        num = sig[..., k]
    else:
        beta = np.asarray(beta, dtype=np.float64)
        num = sig[..., k] - np.sum(beta * sig[..., : k - 1], axis=-1)
    value = num / skm1
    grad = None
    if want_grad:
        grad_num = T[k - 1].copy()
        if beta is not None:
            for l in range(1, k - 1):
                grad_num -= beta[..., l, None, None] * T[l - 1]
        grad = grad_num / skm1[..., None, None]
        if k >= 2:
            grad -= (num / skm1**2)[..., None, None] * T[k - 2]
    return QuotientEval(sigma=sig, value=value, gl=gl, grad=grad)


def homotopy_constant(n, k):
    """C(n,k) / sum_{l=0}^{k-2} C(n,l).

    The weight c that makes the all-ones vector a root of the t=0 member of
    the deformation family: sigma_k(e) = c * sum_l sigma_l(e).
    """
    if not 3 <= k <= n:
        raise ValueError(f"homotopy constant needs 3 <= k <= n, got k={k}, n={n}")
    denom = sum(math.comb(n, l) for l in range(k - 1))
    return float(Fraction(math.comb(n, k), denom))


def newton_maclaurin_constant(n, k, l):
    """(C_n^k)^(k-1-l) * C_n^l / (C_n^{k-1})^(k-l).

    Sharp constant in the bound sigma_l/sigma_{k-1} <= K * (sigma_{k-1}/sigma_k)^(k-1-l)
    on Gamma_k, with equality at the all-ones vector.
    """
    if not (0 <= l <= k - 2 <= n - 2):
        raise ValueError(f"need 0 <= l <= k-2 <= n-2, got n={n}, k={k}, l={l}")
    num = Fraction(math.comb(n, k)) ** (k - 1 - l) * math.comb(n, l)
    den = Fraction(math.comb(n, k - 1)) ** (k - l)
    return float(num / den)
