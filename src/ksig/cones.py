"""Elementary symmetric polynomials, Garding cones, and Newton transforms.

Everything here is batched: eigenvalue arrays have shape (..., n), symmetric
matrices have shape (..., n, n), and results carry the batch shape (...).
Matrix invariants sigma_k are computed with the Faddeev-LeVerrier trace
recursion rather than eigendecomposition, so repeated eigenvalues need no
special treatment and the gradient tensors fall out of the same recursion.

The recursion runs in one private kernel on component planes: the input is
copied once into a contiguous (n, n, ...) array, so entry (a, b) of every
matrix in the batch is one contiguous plane and each step is a handful of
whole-plane operations.  Three products of the textbook recursion are
skipped.  Every T_j is a polynomial in M, so M T_{j-1} is symmetric and only
its upper triangle is formed (n^2 (n+1)/2 multiply-adds instead of n^3) and
then mirrored (grid.mirror).  M T_0 = M needs no product.  T_k is never
formed: sigma_k = sum_ab M_ab (T_{k-1})_ab / k.  The public
functions take and return (..., n, n) arrays.  On the evaluate path the input
U is already a view of contiguous planes (geometry.assemble_U), so the copy
is a straight memory copy with no transpose, and quotient_eval's gradient is
likewise a (..., n, n) view of planes.  quotient_eval always builds that
gradient, from the stack T_1..T_{k-1}; the sigma-only functions
(matrix_sigmas, matrix_cone_margin) keep two T buffers instead.

Conventions:
    sigma_0 = 1 exactly.
    Gamma_k = {lambda : sigma_j(lambda) > 0 for all 1 <= j <= k} (strict).
    G_l(M)  = -sigma_l(M) / sigma_{k-1}(M).
    G(M)    = sigma_k/sigma_{k-1}(M) + sum_{l=0}^{k-2} beta_l G_l(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import mirror

__all__ = [
    "InadmissibleStateError",
    "all_elementary_symmetric",
    "matrix_sigmas",
    "cone_margin",
    "matrix_cone_margin",
    "QuotientEval",
    "quotient_eval",
    "homotopy_constant",
    "newton_maclaurin_constant",
]


class InadmissibleStateError(ValueError):
    """An eigenvalue vector or matrix left the required Garding cone."""


def _check_order(k, n):
    if not 0 <= k <= n:
        raise ValueError(f"symmetric polynomial order k={k} outside [0, {n}]")


def _square(M):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("expected square matrices in the trailing two axes")
    return M


def all_elementary_symmetric(lam):
    """All sigma_0..sigma_n of the last axis of `lam`, shape (..., n+1).

    Incremental recurrence over the entries, run on contiguous planes
    (n+1, ...) and returned as a (..., n+1) view of them; exact in floating
    point for small-integer inputs, which the enumeration-oracle tests rely
    on.
    """
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[-1]
    sig = np.zeros((n + 1,) + lam.shape[:-1], dtype=np.float64)
    sig[0] = 1.0
    for i in range(n):
        # e_j <- e_j + x * e_{j-1} for the first i+1 planes, done in one slice
        sig[1 : i + 2] = sig[1 : i + 2] + lam[..., i] * sig[0 : i + 1]
    return np.moveaxis(sig, 0, -1)


def _planes(M):
    """Component planes (n, n, ...) of the matrices M (..., n, n), in a new
    contiguous array that never shares memory with M."""
    return np.moveaxis(M, (-2, -1), (0, 1)).copy()


def _product(P, T, out):
    """Upper triangle of the planes of M T into `out`; T is None for T_0 = I.

    T is a polynomial in M, so M T is symmetric and its upper triangle,
    row a being sum_c M_ac T_c[a:], is all of it.
    """
    if T is None:
        out[...] = P
        return
    for a in range(P.shape[0]):
        np.einsum("c...,cb...->b...", P[a], T[:, a:], out=out[a, a:])


def _transform(out, sj):
    """T_j = sigma_j I - M T_{j-1} from the upper triangle of M T_{j-1} in `out`."""
    for a in range(out.shape[0]):
        row = out[a, a:]
        np.negative(row, out=row)
        row[0] += sj
    mirror(out)


def _recursion(P, kmax, T=None):
    """Faddeev-LeVerrier on the component planes P of symmetric M.

        T_0 = I,   sigma_j = trace(M T_{j-1}) / j,   T_j = sigma_j I - M T_{j-1}.

    Returns sigma_0..sigma_kmax, shape (kmax+1, ...).  T_j for 1 <= j < kmax
    is formed in T[j-1] when a stack T is given, else in two buffers that
    take turns.  M T_0 = M needs no product, and T_kmax is never formed:
    sigma_kmax = sum_ab M_ab (T_{kmax-1})_ab / kmax.
    """
    sig = np.empty((kmax + 1,) + P.shape[2:])
    sig[0] = 1.0
    prev = spare = None  # T_{j-1} (None for T_0 = I) and a free buffer
    for j in range(1, kmax):
        if T is not None:
            out = T[j - 1]
        elif spare is not None:
            out = spare
        else:
            out = np.empty_like(P)
        _product(P, prev, out)
        sig[j] = np.einsum("aa...->...", out) / j
        _transform(out, sig[j])
        prev, spare = out, prev
    if kmax:
        last = np.einsum("aa...->...", P) if prev is None else np.einsum("ab...,ab...->...", P, prev)
        sig[kmax] = last / kmax
    return sig


def matrix_sigmas(M, kmax):
    """sigma_0..sigma_kmax of symmetric M, shape (..., kmax+1)."""
    M = _square(M)
    _check_order(kmax, M.shape[-1])
    return np.moveaxis(_recursion(_planes(M), kmax), 0, -1)


def cone_margin(lam, k):
    """min_{1<=j<=k} sigma_j for eigenvalue vectors: > 0 iff inside Gamma_k."""
    lam = np.asarray(lam, dtype=np.float64)
    _check_order(k, lam.shape[-1])
    if k == 0:
        return np.full(lam.shape[:-1], np.inf)
    sig = np.moveaxis(all_elementary_symmetric(lam), -1, 0)  # the planes
    return sig[1 : k + 1].min(axis=0)


def matrix_cone_margin(M, k):
    """min_{1<=j<=k} sigma_j(M) via the trace recursion."""
    M = _square(M)
    _check_order(k, M.shape[-1])
    if k == 0:
        return np.full(M.shape[:-2], np.inf)
    return _recursion(_planes(M), k)[1:].min(axis=0)


@dataclass(frozen=True)
class QuotientEval:
    """One batched evaluation of G and its matrix gradient.

    sigma : (..., k+1) sigma_0..sigma_k
    value : (...) G(M)
    gl : (..., k-1) the quotients G_l = -sigma_l/sigma_{k-1}, l = 0..k-2
    grad : (..., n, n) dG/dM
    """

    sigma: np.ndarray
    value: np.ndarray
    gl: np.ndarray
    grad: np.ndarray


def quotient_eval(M, k, beta=None):
    """Evaluate G(M) = sigma_k/sigma_{k-1} + sum_l beta_l G_l and its gradient.

    beta is None (treated as zero) or an array broadcastable to (..., k-1);
    entries are the nonnegative weights multiplying G_l = -sigma_l/sigma_{k-1}.
    Admissibility is not checked here: callers keep their own margins and
    read the returned sigmas.

    The gradient uses dsigma_a/dM = T_{a-1}(M) and the quotient rule

        d(sigma_a/sigma_{k-1}) = [T_{a-1} sigma_{k-1} - sigma_a T_{k-2}] / sigma_{k-1}^2

    with T_{-1} = 0, assembled once for the weighted numerator as one sum over
    T_0..T_{k-1} on the upper triangle of the component planes, then mirrored,
    so it is exactly symmetric.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"quotient order k={k} outside [1, {n}]")
    P = _planes(M)
    T = np.empty((k - 1,) + P.shape)  # T_1..T_{k-1}
    sig = _recursion(P, k, T)
    sigma = np.moveaxis(sig, 0, -1)
    skm1 = sig[k - 1]
    gl = np.moveaxis(-sig[: k - 1] / skm1, 0, -1)
    if beta is None:
        num = sig[k]
    else:
        beta = np.asarray(beta, dtype=np.float64)
        num = sig[k] - sum(beta[..., l] * sig[l] for l in range(k - 1))
    value = num / skm1
    # grad = sum_j coef_j T_j over j = 0..k-1, written over the planes of M
    coef = np.zeros_like(sig[:k])
    coef[k - 1] = 1.0 / skm1
    if k >= 2:
        coef[k - 2] = -num / skm1**2
    if beta is not None:
        for l in range(1, k - 1):
            coef[l - 1] = -beta[..., l] / skm1
    for a in range(n):
        row = P[a, a:]
        np.einsum("j...,jb...->b...", coef[1:], T[:, a, a:], out=row)
        row[0] += coef[0]
    mirror(P)
    grad = np.moveaxis(P, (0, 1), (-2, -1))
    return QuotientEval(sigma=sigma, value=value, gl=gl, grad=grad)


def homotopy_constant(n, k):
    """C(n,k) / sum_{l=0}^{k-2} C(n,l).

    The weight c that makes the all-ones vector a root of the t=0 member of
    the deformation family: sigma_k(e) = c * sum_l sigma_l(e).
    """
    if not 3 <= k <= n:
        raise ValueError(f"homotopy constant needs 3 <= k <= n, got k={k}, n={n}")
    denom = sum(math.comb(n, l) for l in range(k - 1))
    return math.comb(n, k) / denom  # int true division rounds correctly


def newton_maclaurin_constant(n, k, l):
    """(C_n^k)^(k-1-l) * C_n^l / (C_n^{k-1})^(k-l).

    Sharp constant in the bound sigma_l/sigma_{k-1} <= K * (sigma_{k-1}/sigma_k)^(k-1-l)
    on Gamma_k, with equality at the all-ones vector.
    """
    if not (0 <= l <= k - 2 <= n - 2):
        raise ValueError(f"need 0 <= l <= k-2 <= n-2, got n={n}, k={k}, l={l}")
    num = math.comb(n, k) ** (k - 1 - l) * math.comb(n, l)
    return num / math.comb(n, k - 1) ** (k - l)  # int true division rounds correctly
