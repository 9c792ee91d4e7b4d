"""Seeded random sampling of Garding-cone eigenvalues and matrices.

All samplers take an explicit numpy Generator; `generator(seed)` builds one
on the counter-based Philox engine so identical seeds give identical streams
regardless of how many draws other code has made.

Batches of small matrices are built on component planes, as in `cones`:
rotations come from Gram-Schmidt run over the columns of a whole batch at
once, conjugation forms the upper triangle of Q diag(lambda) Q^T and mirrors
it, and the boundary bisection keeps its eigenvalue vectors as contiguous
rows.  Each step is a handful of whole-plane operations over the batch.
"""

from __future__ import annotations

import numpy as np

from . import cones
from .grid import mirror

__all__ = [
    "generator",
    "gamma_eigenvalues",
    "orthogonal_matrices",
    "conjugate_by_rotations",
    "gamma_matrices",
    "psd_matrices",
    "boundary_biased_eigenvalues",
]


_MAX_ROUNDS = 2000  # rejection chunks gamma_eigenvalues draws before it gives up
_BOUNDARY_LOW, _BOUNDARY_HIGH = 1e-9, 1e-6  # boundary_biased_eigenvalues' margin window


def generator(seed):
    """Counter-based RNG; reproducible and insensitive to draw interleaving."""
    return np.random.Generator(np.random.Philox(seed))


def gamma_eigenvalues(rng, count, n, k, margin=0.0):
    """Rejection-sample eigenvalue vectors uniform on [-1, 2]^n inside Gamma_k.

    `margin` shrinks the cone: kept samples satisfy min_j sigma_j > margin.
    The box [-1, 2]^n deliberately straddles the cone boundary so accepted
    samples cover it rather than clustering at the positive orthant.
    """
    out = np.empty((0, n))
    chunk = max(1024, 2 * count)
    for _ in range(_MAX_ROUNDS):
        lam = rng.uniform(-1.0, 2.0, size=(chunk, n))
        keep = lam[cones.cone_margin(lam, k) > margin]
        if keep.size:
            out = np.concatenate([out, keep])
        if len(out) >= count:
            return out[:count]
    raise RuntimeError(
        f"cone rejection sampler starved: Gamma_{k} in dimension {n} "
        f"with margin {margin} accepted {len(out)}/{count}"
    )


def orthogonal_matrices(rng, count, n):
    """Haar rotations, shape (count, n, n): the Q of Gaussian matrices with a
    positive R diagonal, by classical Gram-Schmidt run twice.

    The columns are orthonormalised on contiguous planes: the returned array
    is a view of C with C[j, i] = Q[:, i, j], so column j of every matrix in
    the batch is one contiguous (n, count) block and each projection is a
    whole-plane operation.  Gram-Schmidt yields the R diagonal positive, so
    this is the sign-fixed QR factor of the same draws (QR with a positive R
    diagonal is unique), and the second pass keeps it orthogonal to round-off
    at n <= 5.
    """
    a = rng.standard_normal((count, n, n))
    c = a.transpose(2, 1, 0).copy()
    for j in range(n):
        v = c[j]
        for _ in range(2):
            if j:
                r = np.einsum("jib,ib->jb", c[:j], v)
                v -= np.einsum("jb,jib->ib", r, c[:j])
        v /= np.sqrt(np.einsum("ib,ib->b", v, v))
    return c.transpose(2, 1, 0)


def conjugate_by_rotations(rng, lam):
    """Q diag(lam) Q^T for a fresh rotation per row; exactly symmetric.

    Only the upper triangle is formed, on the component planes of the
    result, and then mirrored (grid.mirror); the result is a (count, n, n)
    view of those planes.
    """
    count, n = lam.shape
    c = orthogonal_matrices(rng, count, n).transpose(2, 1, 0)  # the column planes
    scaled = c * lam.T[:, None, :]
    m = np.empty((n, n, count))
    for i in range(n):
        np.einsum("jb,jlb->lb", scaled[:, i], c[:, i:], out=m[i, i:])
    mirror(m)
    return np.moveaxis(m, (0, 1), (-2, -1))


def gamma_matrices(rng, count, n, k, margin=0.0):
    """Symmetric matrices with eigenvalues sampled from Gamma_k."""
    lam = gamma_eigenvalues(rng, count, n, k, margin=margin)
    return conjugate_by_rotations(rng, lam)


def psd_matrices(rng, count, n, eig_low, eig_high):
    """Symmetric positive semi-definite matrices with uniform eigenvalues."""
    lam = rng.uniform(eig_low, eig_high, size=(count, n))
    return conjugate_by_rotations(rng, lam)


def boundary_biased_eigenvalues(rng, count, n, k):
    """Eigenvalue vectors pulled to within [_BOUNDARY_LOW, _BOUNDARY_HIGH] of
    the Gamma_k boundary.

    Starts from comfortably interior samples and bisects along lambda - s*e
    (the all-ones ray exits every Gamma_k) until the cone margin lands near a
    per-sample log-uniform target.  Samples that miss the window, including
    anything below 1e-12 where limiting behavior is not specified, are
    dropped.
    """
    lam = gamma_eigenvalues(rng, count, n, k, margin=1e-3)
    target = 10.0 ** rng.uniform(np.log10(_BOUNDARY_LOW), np.log10(_BOUNDARY_HIGH), count)
    planes = lam.T.copy()  # lambda_i of every sample is one contiguous row

    def margins(s):
        return cones.cone_margin((planes - s).T, k)

    s_lo = np.zeros(count)
    s_hi = np.full(count, 1.0)
    for _ in range(30):  # sigma_1 drops by n*s, so s <= (sigma_1)/n <= 2n/n
        need = margins(s_hi) > target
        if not need.any():
            break
        s_hi[need] *= 2.0
    for _ in range(80):
        mid = 0.5 * (s_lo + s_hi)
        # s_lo only ever holds points above target and s_hi only points that
        # are not, so once every midpoint is an endpoint no halving moves one
        if ((mid == s_lo) | (mid == s_hi)).all():
            break
        above = margins(mid) > target
        s_lo = np.where(above, mid, s_lo)
        s_hi = np.where(above, s_hi, mid)
    pulled = (planes - s_lo).T
    m = cones.cone_margin(pulled, k)
    keep = (m > 1e-12) & (m < 10.0 * _BOUNDARY_HIGH)
    return pulled[keep]
