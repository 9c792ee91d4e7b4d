"""Elementary symmetric polynomials, Garding cones, and Newton transforms.

Everything here is batched: eigenvalue arrays have shape (..., n), symmetric
matrices have shape (..., n, n), and results carry the batch shape (...).
Matrix invariants sigma_k are computed with the Faddeev-LeVerrier trace
recursion rather than eigendecomposition, so repeated eigenvalues need no
special treatment and the gradient tensors fall out of the same recursion.

The recursion runs in one private kernel on component planes, one block of
at most _BLOCK_NODES matrices at a time: each block is copied into a
contiguous (n, n, block) workspace, so entry (a, b) of every matrix in the
block is one contiguous plane and each step is a handful of whole-plane
operations.  One workspace, allocated per call and a block in size, serves
every block: the planes of M and either the stack T_1..T_{k-1}
(quotient_eval) or two T buffers that take turns (matrix_sigmas,
matrix_cone_margin).  No T stack of the whole batch is ever formed: each
block's sigmas, value and gradient are written straight into full-size
outputs while its T_j are in the workspace.  A node's arithmetic does not
depend on its block, so the bits do not either.  Three products of the
textbook recursion are skipped.  Every T_j is a polynomial in M, so
M T_{j-1} is symmetric and only its upper triangle is formed
(n^2 (n+1)/2 multiply-adds instead of n^3) and then mirrored
(grid.mirror).  M T_0 = M needs no product.  T_k is never formed:
sigma_k = sum_ab M_ab (T_{k-1})_ab / k.  The public functions take and
return (..., n, n) arrays.  On the evaluate path the input U is already a
view of contiguous planes (geometry.assemble_U), so each block's copy is a
straight memory copy with no transpose, and quotient_eval's gradient is
likewise a (..., n, n) view of planes.

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
    "all_elementary_symmetric",
    "matrix_sigmas",
    "cone_margin",
    "matrix_cone_margin",
    "QuotientEval",
    "quotient_eval",
    "homotopy_constant",
    "newton_maclaurin_constant",
]


def _check_order(k, n):
    if not 0 <= k <= n:
        raise ValueError(f"symmetric polynomial order k={k} outside [0, {n}]")


def _square(M):
    """M as float64; every matrix function refuses a batch that is not
    square in its trailing two axes, alike."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("expected square matrices in the trailing two axes")
    return M


def _symmetric_planes(lam, kmax):
    """sigma_0..sigma_kmax of the last axis of float64 `lam` as contiguous
    planes (kmax+1, ...), by the incremental recurrence over the entries.
    Each step reads only sigma_j and sigma_{j-1}, so stopping at kmax keeps
    the bits of the full recurrence."""
    sig = np.zeros((kmax + 1,) + lam.shape[:-1], dtype=np.float64)
    sig[0] = 1.0
    for i in range(lam.shape[-1]):
        top = min(i + 1, kmax)  # e_j <- e_j + x * e_{j-1} for j <= top, in one slice
        sig[1 : top + 1] = sig[1 : top + 1] + lam[..., i] * sig[0:top]
    return sig


def all_elementary_symmetric(lam):
    """All sigma_0..sigma_n of the last axis of `lam`, shape (..., n+1).

    A (..., n+1) view of the recurrence's planes; exact in floating point
    for small-integer inputs, which the enumeration-oracle tests rely on.
    """
    lam = np.asarray(lam, dtype=np.float64)
    return np.moveaxis(_symmetric_planes(lam, lam.shape[-1]), 0, -1)


_BLOCK_NODES = 4096  # matrices per block; at n = k = 5 the workspace is 3.9 MiB


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


def _recursion(P, kmax, sig, T):
    """Faddeev-LeVerrier on the component planes P of symmetric M.

        T_0 = I,   sigma_j = trace(M T_{j-1}) / j,   T_j = sigma_j I - M T_{j-1}.

    Writes sigma_0..sigma_kmax into sig, shape (kmax+1, ...).  T_j for
    1 <= j < kmax is formed in T[(j-1) % len(T)]: in T[j-1] of a stack
    T_1..T_{kmax-1}, or in two buffers that take turns.  M T_0 = M needs no
    product, and T_kmax is never formed:
    sigma_kmax = sum_ab M_ab (T_{kmax-1})_ab / kmax.
    """
    sig[0] = 1.0
    prev = None  # T_{j-1}, None for T_0 = I
    for j in range(1, kmax):
        out = T[(j - 1) % len(T)]
        _product(P, prev, out)
        sig[j] = np.einsum("aa...->...", out) / j
        _transform(out, sig[j])
        prev = out
    if kmax:
        last = np.einsum("aa...->...", P) if prev is None else np.einsum("ab...,ab...->...", P, prev)
        sig[kmax] = last / kmax


def _blocks(M, kmax, sig, stack):
    """Run the recursion over M (..., n, n) one block of at most _BLOCK_NODES
    matrices at a time, writing sigma_0..sigma_kmax into sig (kmax+1, count),
    count matrices in the batch's row-major order.

    One workspace serves every block: the block's component planes of M and
    either its stack T_1..T_{kmax-1} (`stack`) or two T buffers.  Yields
    (nodes, T) after each block's recursion: its slice of the batch and its
    T buffers, valid until the next block starts.
    """
    n = M.shape[-1]
    flat = M.reshape((-1, n, n))
    size = min(len(flat), _BLOCK_NODES)
    P = np.empty((n, n, size))
    depth = max(kmax - 1, 0)  # T_1..T_{kmax-1}
    T = np.empty((depth if stack else min(depth, 2), n, n, size))
    for lo in range(0, len(flat), _BLOCK_NODES):
        nodes = slice(lo, min(lo + _BLOCK_NODES, len(flat)))
        width = nodes.stop - lo
        p, t = P[..., :width], T[..., :width]
        np.copyto(p, flat[nodes].transpose(1, 2, 0))
        _recursion(p, kmax, sig[:, nodes], t)
        yield nodes, t


def _sigma_planes(M, kmax):
    """sigma_0..sigma_kmax of symmetric M as planes (kmax+1, ...)."""
    M = _square(M)
    _check_order(kmax, M.shape[-1])
    batch = M.shape[:-2]
    sig = np.empty((kmax + 1, math.prod(batch)))
    for _ in _blocks(M, kmax, sig, stack=False):
        pass
    return sig.reshape((kmax + 1,) + batch)


def matrix_sigmas(M, kmax):
    """sigma_0..sigma_kmax of symmetric M, shape (..., kmax+1)."""
    return np.moveaxis(_sigma_planes(M, kmax), 0, -1)


def cone_margin(lam, k):
    """min_{1<=j<=k} sigma_j for eigenvalue vectors (inf for k = 0): > 0 iff
    inside Gamma_k."""
    lam = np.asarray(lam, dtype=np.float64)
    _check_order(k, lam.shape[-1])
    return _symmetric_planes(lam, k)[1:].min(axis=0, initial=np.inf)


def matrix_cone_margin(M, k):
    """min_{1<=j<=k} sigma_j(M) via the trace recursion (inf for k = 0)."""
    return _sigma_planes(M, k)[1:].min(axis=0, initial=np.inf)


@dataclass(frozen=True)
class QuotientEval:
    """One batched evaluation of G and its matrix gradient.

    sigma : (..., k+1) sigma_0..sigma_k, from which G_l = -sigma_l/sigma_{k-1}
    value : (...) G(M)
    grad : (..., n, n) dG/dM
    """

    sigma: np.ndarray
    value: np.ndarray
    grad: np.ndarray


def quotient_eval(M, k, beta):
    """Evaluate G(M) = sigma_k/sigma_{k-1} + sum_l beta_l G_l and its gradient.

    beta is broadcastable to (..., k-1); entries are the nonnegative weights
    multiplying G_l = -sigma_l/sigma_{k-1}, and beta = 0 gives the plain
    quotient sigma_k/sigma_{k-1}.  Admissibility is not checked here:
    callers keep their own margins and read the returned sigmas.

    The gradient uses dsigma_a/dM = T_{a-1}(M) and the quotient rule

        d(sigma_a/sigma_{k-1}) = [T_{a-1} sigma_{k-1} - sigma_a T_{k-2}] / sigma_{k-1}^2

    with T_{-1} = 0, assembled once for the weighted numerator as one sum over
    T_0..T_{k-1} on the upper triangle of the component planes, then mirrored,
    so it is exactly symmetric.  Each block of matrices is finished, value
    and gradient included, while its T stack is in the workspace.
    """
    M = _square(M)
    n = M.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"quotient order k={k} outside [1, {n}]")
    batch = M.shape[:-2]
    count = math.prod(batch)
    beta = np.broadcast_to(np.asarray(beta, dtype=np.float64), batch + (k - 1,))
    beta = beta.reshape(count, k - 1)
    sig = np.empty((k + 1, count))
    value = np.empty(count)
    grad = np.empty((n, n, count))
    coef = np.empty((k, min(count, _BLOCK_NODES)))
    for nodes, T in _blocks(M, k, sig, stack=True):
        s = sig[:, nodes]
        skm1 = s[k - 1]
        b = beta[nodes]
        num = s[k] - sum(b[:, l] * s[l] for l in range(k - 1))
        np.divide(num, skm1, out=value[nodes])
        # grad = sum_j c_j T_j over j = 0..k-1, written into the planes of grad
        c = coef[:, : nodes.stop - nodes.start]
        c.fill(0.0)
        c[k - 1] = 1.0 / skm1
        if k >= 2:
            c[k - 2] = -num / skm1**2
        for l in range(1, k - 1):
            c[l - 1] = -b[:, l] / skm1
        G = grad[:, :, nodes]
        for a in range(n):
            row = G[a, a:]
            np.einsum("j...,jb...->b...", c[1:], T[:, a, a:], out=row)
            row[0] += c[0]
        mirror(G)
    return QuotientEval(
        sigma=np.moveaxis(sig.reshape((k + 1,) + batch), 0, -1),
        value=value.reshape(batch),
        grad=np.moveaxis(grad.reshape((n, n) + batch), (0, 1), (-2, -1)),
    )


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
