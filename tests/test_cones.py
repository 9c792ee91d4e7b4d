"""Cone algebra against independent oracles: subset enumeration, exact
fractions, eigendecomposition, and finite differences."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_matrices, as_planes, make_problem
from ksig import cones, operator, sampling
from ksig.grid import PeriodicGrid
from ksig.operator import compute_jet


def sigma_enum(lam, k):
    """Brute-force sum over k-subsets; exact on ints and Fractions."""
    if k == 0:
        return type(lam[0])(1) if lam else 1
    return sum(math.prod(c) for c in itertools.combinations(lam, k))


def packed_indices(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def sigma(lam, k):
    return cones.all_elementary_symmetric(lam)[k]


def matrix_sigma(M, k):
    return cones.matrix_sigmas(M, k)[k]


def transform(M, k):
    """Newton transform T_k(M), the gradient of sigma_{k+1}, from the reference recursion."""
    return reference_sigma_and_transforms(M, k)[1][k]


def g_value(M, k, beta=0.0):
    return cones.quotient_eval(M, k, beta).value


def g_grad(M, k, beta=0.0):
    return cones.quotient_eval(M, k, beta).grad


def perturb(M, i, j, eps):
    out = M.copy()
    out[i, j] += eps
    if i != j:
        out[j, i] += eps
    return out


# ---------------------------------------------------------------- sigma_k


def test_sigma_all_ones():
    assert sigma([1.0, 1.0, 1.0], 2) == 3.0


def test_sigma_constant_two():
    assert sigma([2.0, 2.0, 2.0], 3) == 8.0


def test_sigma_123_against_enumeration():
    lam = [1, 2, 3]
    expected = sigma_enum(lam, 2)
    assert expected == 11
    assert sigma(lam, 2) == expected


def test_sigma_zero_convention():
    assert sigma([5.0, -3.0, 2.0], 0) == 1.0


def test_sigma_domain_errors():
    with pytest.raises(ValueError):
        cones.cone_margin([1.0, 2.0, 3.0], 4)
    with pytest.raises(ValueError):
        cones.cone_margin([1.0, 2.0, 3.0], -1)
    with pytest.raises(ValueError):
        cones.matrix_sigmas(np.diag([1.0, 2.0, 3.0]), 4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=5),
    st.data(),
)
def test_sigma_matches_enumeration_exactly_on_integers(lam, data):
    k = data.draw(st.integers(min_value=0, max_value=len(lam)))
    assert sigma(lam, k) == float(sigma_enum(lam, k))


def reference_elementary_symmetric(lam):
    """The (..., n+1) recurrence over the trailing axis, one strided slice per entry."""
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[-1]
    sig = np.zeros(lam.shape[:-1] + (n + 1,))
    sig[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i : i + 1]
        sig[..., 1 : i + 2] = sig[..., 1 : i + 2] + x * sig[..., 0 : i + 1]
    return sig


@pytest.mark.parametrize("batch", [(), (7,), (4, 4, 4)], ids=["scalar", "7", "4x4x4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_elementary_symmetric_planes_match_reference_bitwise(n, batch):
    rng = np.random.default_rng(n + len(batch))
    for lam in (rng.uniform(-2.0, 2.0, batch + (n,)), rng.integers(-9, 10, batch + (n,)).astype(float)):
        out = cones.all_elementary_symmetric(lam)
        assert out.shape == (n + 1,) + batch
        assert np.array_equal(out, np.moveaxis(reference_elementary_symmetric(lam), -1, 0))
        # the margin's recurrence stops at sigma_k with the same bits
        for k in range(1, n + 1):
            assert np.array_equal(cones.cone_margin(lam, k), out[1 : k + 1].min(0))


def test_sigma_batched_shape():
    lam = np.arange(24.0).reshape(2, 4, 3)
    out = cones.all_elementary_symmetric(lam)
    assert out.shape == (4, 2, 4)
    assert np.all(out[0] == 1.0)
    assert np.allclose(out[:, 1, 2], [1.0] + [sigma_enum(list(lam[1, 2]), k) for k in (1, 2, 3)])


# ---------------------------------------------------------------- matrix path


def test_matrix_functions_reject_a_non_square_batch():
    M = as_planes(np.ones((4, 3, 2)))
    for call in (lambda: cones.matrix_sigmas(M, 2), lambda: cones.quotient_eval(M, 2, 0.0)):
        with pytest.raises(ValueError, match="expected square matrices in the leading two axes"):
            call()


def test_matrix_sigma_diag_123():
    M = np.diag([1.0, 2.0, 3.0])
    assert matrix_sigma(M, 2) == 11.0


def test_matrix_sigma_identity_n4():
    assert matrix_sigma(np.eye(4), 2) == 6.0


def test_matrix_sigma_rotation_invariance():
    rng = sampling.generator(101)
    lam = rng.uniform(-2.0, 2.0, size=(64, 4))
    M = sampling.conjugate_by_rotations(rng, lam)
    for k in range(5):
        want = sigma(lam, k)
        got = matrix_sigma(M, k)
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) / scale < 1e-10)


def test_matrix_sigma_vs_eigendecomposition():
    rng = sampling.generator(7)
    for n in (3, 4, 5):
        A = rng.standard_normal((32, n, n))
        M = 0.5 * (A + A.swapaxes(-1, -2))
        lam = np.linalg.eigvalsh(M)
        for k in range(n + 1):
            want = sigma(lam, k)
            got = matrix_sigma(as_planes(M), k)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_matrix_path_distinct_random_relative_1e12():
    # spec-level invariant: matrix path vs enumeration at 1e-12 relative
    rng = sampling.generator(2024)
    lam = np.sort(rng.uniform(-3.0, 3.0, size=(16, 5)), axis=-1)
    lam += 1e-3 * np.arange(5)  # force distinct entries
    M = sampling.conjugate_by_rotations(rng, lam)
    for k in range(6):
        want = np.array([float(sigma_enum(list(v), k)) for v in lam])
        got = matrix_sigma(M, k)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------- Newton transforms


def test_newton_transform_t0_is_identity():
    M = np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
    assert np.array_equal(transform(M, 0), np.eye(3))


def test_newton_transform_identity_matrix():
    for n in (3, 4, 5):
        for k in range(1, n):
            T = transform(np.eye(n), k)
            assert np.allclose(T, math.comb(n - 1, k) * np.eye(n))


def test_newton_transform_trace_identities():
    rng = sampling.generator(33)
    for n in (3, 4, 5):
        A = rng.standard_normal((20, n, n))
        M = 0.5 * (A + A.swapaxes(-1, -2))
        sig = cones.matrix_sigmas(as_planes(M), n)
        _, T = reference_sigma_and_transforms(M, n)
        for k in range(1, n + 1):
            tr_TM = np.trace(M @ T[k - 1], axis1=-2, axis2=-1)
            assert np.allclose(tr_TM, k * sig[k], rtol=1e-10, atol=1e-10)
            tr_T = np.trace(T[k - 1], axis1=-2, axis2=-1)
            assert np.allclose(tr_T, (n - k + 1) * sig[k - 1], rtol=1e-10, atol=1e-10)


def test_newton_transform_is_sigma_gradient():
    # d/d eps sigma_k(M + eps V) = trace(T_{k-1}(M) V), central differences
    rng = sampling.generator(5)
    n = 4
    A = rng.standard_normal((n, n))
    M = 0.5 * (A + A.T)
    V = rng.standard_normal((n, n))
    V = 0.5 * (V + V.T)
    eps = 1e-6
    for k in range(1, n + 1):
        fd = (matrix_sigma(M + eps * V, k) - matrix_sigma(M - eps * V, k)) / (2 * eps)
        want = np.sum(transform(M, k - 1) * V)
        assert abs(fd - want) <= 1e-6 * max(1.0, abs(want))


def test_newton_transform_order_bounds():
    # T_n vanishes (Cayley-Hamilton) and orders beyond n are refused
    _, T = reference_sigma_and_transforms(np.diag([1.0, 2.0, 3.0]), 3)
    assert np.allclose(T[3], 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        cones.matrix_sigmas(np.eye(3), 4)


# ---------------------------------------------------------------- cones


def test_in_gamma_cone_all_ones():
    lam = np.ones(4)
    for k in range(1, 5):
        assert cones.cone_margin(lam, k) > 0


def test_in_gamma_cone_mixed_example():
    lam = np.array([-1.0, 5.0, 5.0])
    assert sigma(lam, 1) == 9.0
    assert sigma(lam, 2) == 15.0
    assert cones.cone_margin(lam, 2) > 0
    assert not cones.cone_margin(lam, 3) > 0  # sigma_3 = -25


def test_in_gamma_cone_strictness_at_zero():
    lam = np.zeros(3)
    for k in range(1, 4):
        assert not cones.cone_margin(lam, k) > 0


def test_matrix_cone_matches_eigenvalue_cone():
    rng = sampling.generator(12)
    lam = rng.uniform(-1.0, 2.0, size=(200, 3))
    M = sampling.conjugate_by_rotations(rng, lam)
    for k in (1, 2, 3):
        a = cones.cone_margin(lam, k) > 1e-9
        b = cones.matrix_cone_margin(M, k) > 1e-9
        # near-boundary samples may flip under rotation roundoff; exclude them
        clear = np.abs(cones.cone_margin(lam, k) - 1e-9) > 1e-6
        assert np.array_equal(a[clear], b[clear])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=3, max_size=5),
    st.data(),
)
def test_cone_nesting(lam, data):
    n = len(lam)
    k = data.draw(st.integers(min_value=2, max_value=n))
    if cones.cone_margin(lam, k) > 0:
        for j in range(1, k):
            assert cones.cone_margin(lam, j) > 0
    # lambda in Gamma_k with any one entry removed is in Gamma_{k-1}; an
    # entry near underflow can round sigma_{k-1}(lambda|i) to 0 (lambda =
    # (1, 1, 2, 0.5, 5e-324), k = 5), so this half asks for a margin
    if cones.cone_margin(lam, k) > 1e-9:
        for i in range(n):
            assert cones.cone_margin(np.delete(lam, i), k - 1) > 0


def test_gamma2_pinching():
    # every lambda in Gamma_2 has max_i |lambda_i| < sigma_1
    rng = sampling.generator(77)
    for n in (3, 4, 5):
        lam = sampling.gamma_eigenvalues(rng, 2000, n, 2)
        assert np.all(np.abs(lam).max(axis=-1) < sigma(lam, 1))


def test_gamma_eigenvalues_reports_a_starved_sampler(monkeypatch):
    # no vector of [-1, 2]^3 has every sigma_j above 1e9: after its rounds
    # the sampler gives up with a message naming the cone and the count
    monkeypatch.setattr(sampling, "_MAX_ROUNDS", 1)
    message = "cone rejection sampler starved: Gamma_3 in dimension 3 with margin 1000000000.0 accepted 0/5"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        sampling.gamma_eigenvalues(sampling.generator(0), 5, 3, 3, margin=1e9)


# ---------------------------------------------------------------- operator G


def test_operator_G_identity_with_homotopy_weight_is_zero():
    for n, k in [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)]:
        c = cones.homotopy_constant(n, k)
        beta = np.full(k - 1, c)
        val = g_value(np.eye(n), k, beta)
        assert abs(val) < 1e-14


def test_operator_G_identity_beta_zero():
    assert abs(g_value(np.eye(3), 3) - 1.0 / 3.0) < 1e-15


def test_operator_G_k2_example():
    M = np.diag([2.0, 1.0, 1.0])
    val = g_value(M, 2, np.zeros(1))
    assert val == pytest.approx(5.0 / 4.0, abs=1e-15)


def test_operator_G_batched_beta_fields():
    rng = sampling.generator(3)
    M = sampling.gamma_matrices(rng, 50, 3, 2, margin=1e-3)
    beta = rng.uniform(0.0, 2.0, size=(50, 2))
    got = g_value(M, 3, beta.T)
    sig = np.stack([matrix_sigma(M, j) for j in range(4)], axis=-1)
    want = sig[:, 3] / sig[:, 2] - (beta[:, 0] * sig[:, 0] + beta[:, 1] * sig[:, 1]) / sig[:, 2]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------- grad G


def test_grad_G_identity_is_scaled_identity():
    for n, k in [(3, 3), (4, 3), (5, 3), (5, 5)]:
        g = g_grad(np.eye(n), k)
        tr = np.trace(g)
        assert np.allclose(g, (tr / n) * np.eye(n), atol=1e-14)
        assert tr >= (n - k + 1) / k - 1e-12


def test_grad_G_identity_trace_equality_beta_zero():
    # (n-k+1)/k with equality at the identity: arithmetic (3*3 - 1*6)/9 = 1/3
    g = g_grad(np.eye(3), 3)
    assert np.trace(g) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_grad_G_matches_finite_differences():
    rng = sampling.generator(91)
    for n, k in [(3, 3), (4, 3), (5, 4)]:
        M = as_matrices(sampling.gamma_matrices(rng, 6, n, k - 1, margin=0.2))
        beta = rng.uniform(0.0, 1.5, size=(6, k - 1))
        grad = as_matrices(g_grad(as_planes(M), k, beta.T))
        eps = 1e-6
        for b in range(6):
            for i, j in packed_indices(n):
                up = g_value(perturb(M[b], i, j, eps), k, beta[b])
                dn = g_value(perturb(M[b], i, j, -eps), k, beta[b])
                fd = (up - dn) / (2 * eps)
                want = grad[b, i, j] * (1.0 if i == j else 2.0)
                assert abs(fd - want) <= 1e-6 * max(1.0, abs(want))


def test_grad_G_positive_definite_on_samples():
    rng = sampling.generator(55)
    for n, k in [(3, 3), (4, 4), (5, 3)]:
        M = sampling.gamma_matrices(rng, 300, n, k - 1, margin=1e-6)
        beta = rng.uniform(0.0, 2.0, size=(300, k - 1))
        grad = as_matrices(g_grad(M, k, beta.T))
        assert np.allclose(grad, grad.swapaxes(-1, -2), atol=1e-12)
        eig = np.linalg.eigvalsh(grad)
        scale = np.maximum(1.0, np.abs(eig[..., -1]))
        assert np.all(eig[..., 0] / scale > -1e-12)
        assert np.all(eig[..., 0] > 0.0)


def test_operator_G_concavity_fd_hessian():
    # FD Hessian of G over packed coordinates stays below roundoff scale
    rng = sampling.generator(13)
    n, k = 3, 3
    M = as_matrices(sampling.gamma_matrices(rng, 10, n, k - 1, margin=0.3))
    beta = rng.uniform(0.0, 1.0, size=(10, k - 1))
    idx = packed_indices(n)
    h = 1e-3
    for b in range(10):
        d = len(idx)
        H = np.zeros((d, d))
        f0 = g_value(M[b], k, beta[b])
        for a, (i1, j1) in enumerate(idx):
            for c, (i2, j2) in enumerate(idx):
                pp = g_value(perturb(perturb(M[b], i1, j1, h), i2, j2, h), k, beta[b])
                pm = g_value(perturb(perturb(M[b], i1, j1, h), i2, j2, -h), k, beta[b])
                mp = g_value(perturb(perturb(M[b], i1, j1, -h), i2, j2, h), k, beta[b])
                mm = g_value(perturb(perturb(M[b], i1, j1, -h), i2, j2, -h), k, beta[b])
                H[a, c] = (pp - pm - mp + mm) / (4 * h * h)
        H = 0.5 * (H + H.T)
        top = np.linalg.eigvalsh(H)[-1]
        assert top <= 1e-6 * max(1.0, abs(f0), np.abs(H).max())


def test_euler_homogeneity_identity():
    # sum_ij d(sigma_k/sigma_{k-1})/dM_ij * M_ij = sigma_k/sigma_{k-1}
    rng = sampling.generator(4)
    for n, k in [(3, 3), (4, 3), (5, 5)]:
        M = sampling.gamma_matrices(rng, 100, n, k - 1, margin=1e-4)
        ev = cones.quotient_eval(M, k, 0.0)
        contraction = np.einsum("bij,bij->b", as_matrices(ev.grad), as_matrices(M))
        assert np.all(np.abs(contraction - ev.value) <= 1e-10 * np.maximum(1.0, np.abs(ev.value)))


def test_euler_homogeneity_per_gl():
    # grad of the single term G_l contracts to (l-k+1) G_l
    rng = sampling.generator(17)
    n, k = 4, 4
    M = sampling.gamma_matrices(rng, 60, n, k - 1, margin=1e-3)
    base = cones.quotient_eval(M, k, 0.0)
    for l in range(k - 1):
        onehot = np.zeros(k - 1)
        onehot[l] = 1.0
        withl = cones.quotient_eval(M, k, onehot[:, None])
        grad_gl = withl.grad - base.grad
        gl = -base.sigma[l] / base.sigma[k - 1]
        contraction = np.einsum("bij,bij->b", as_matrices(grad_gl), as_matrices(M))
        want = (l - k + 1) * gl
        assert np.all(np.abs(contraction - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------- plane kernel vs M @ T


def reference_sigma_and_transforms(M, kmax):
    """The textbook M @ T Faddeev-LeVerrier recursion, one matmul per order."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[-1]
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


def reference_quotient(M, k, beta):
    """(sigma, value, grad) of G from the reference recursion and the quotient rule."""
    sig, T = reference_sigma_and_transforms(M, k)
    skm1 = sig[..., k - 1]
    num = sig[..., k]
    grad_num = T[k - 1].copy()
    if beta is not None:
        num = num - np.sum(beta * sig[..., : k - 1], axis=-1)
        for l in range(1, k - 1):
            grad_num -= beta[..., l, None, None] * T[l - 1]
    grad = grad_num / skm1[..., None, None]
    if k >= 2:
        grad -= (num / skm1**2)[..., None, None] * T[k - 2]
    return sig, num / skm1, grad


def assert_oracle_close(got, want, rtol=1e-13):
    """Sup-norm error at most rtol times the reference's sup-norm (or 1)."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= rtol * scale


ORACLE_BATCHES = [(), (7,), (4, 4, 4)]


def symmetric_batch(rng, batch, n):
    A = rng.standard_normal(batch + (n, n))
    return 0.5 * (A + A.swapaxes(-1, -2))


def admissible_batch(rng, batch, n, k):
    """Matrices in Gamma_{k-1} with sigma_1..sigma_{k-1} > 0.1."""
    count = math.prod(batch)
    return as_matrices(sampling.gamma_matrices(rng, count, n, k - 1, margin=0.1)).reshape(batch + (n, n))


def check_sigmas(M, kmax):
    sig = cones.matrix_sigmas(as_planes(M), kmax)
    want = np.moveaxis(reference_sigma_and_transforms(M, kmax)[0], -1, 0)
    assert sig.shape == want.shape
    for j in range(kmax + 1):
        assert_oracle_close(sig[j], want[j])


def check_quotient(M, k, beta):
    before = M.copy()
    rows = np.moveaxis(np.broadcast_to(beta, M.shape[:-2] + (k - 1,)), -1, 0)
    ev = cones.quotient_eval(as_planes(M), k, rows)
    assert np.array_equal(M, before)  # the gradient is built in a copy
    sig, value, grad = reference_quotient(M, k, beta)
    for j in range(k + 1):
        assert_oracle_close(ev.sigma[j], sig[..., j])
    assert_oracle_close(ev.value, value)
    assert_oracle_close(as_matrices(ev.grad), grad)


@pytest.mark.parametrize("batch", ORACLE_BATCHES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sigma_and_transforms_match_reference_recursion(n, batch):
    rng = sampling.generator(500 + n)
    M = symmetric_batch(rng, batch, n)
    for kmax in range(n + 1):
        check_sigmas(M, kmax)


@pytest.mark.parametrize("batch", ORACLE_BATCHES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_eval_matches_reference_recursion(n, batch):
    rng = sampling.generator(600 + n)
    for k in range(1, n + 1):
        M = admissible_batch(rng, batch, n, k)
        check_quotient(M, k, np.zeros(k - 1))
        check_quotient(M, k, rng.uniform(0.0, 2.0, size=k - 1))
        check_quotient(M, k, rng.uniform(0.0, 2.0, size=batch + (k - 1,)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plane_kernel_reads_noncontiguous_inputs(n):
    rng = sampling.generator(700 + n)
    M = admissible_batch(rng, (12,), n, n)
    beta = rng.uniform(0.0, 2.0, size=(12, n - 1))
    # a view with batch axis in the middle of memory, the transposed view,
    # and every other matrix of the batch
    moved = np.ascontiguousarray(M.swapaxes(0, 1)).swapaxes(0, 1)
    views = [(moved, beta), (M.swapaxes(-1, -2), beta), (M[::2], beta[::2])]
    for view, b in views:
        assert not as_planes(view).flags.c_contiguous
        for kmax in range(n + 1):
            check_sigmas(view, kmax)
        for k in range(1, n + 1):
            check_quotient(view, k, b[..., : k - 1])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quotient_gradient_is_exactly_symmetric(n):
    rng = sampling.generator(800 + n)
    for k in range(3, n + 1):
        M = sampling.gamma_matrices(rng, 500, n, k - 1, margin=1e-3)
        beta = rng.uniform(0.0, 2.0, size=(500, k - 1))
        grad = as_matrices(cones.quotient_eval(M, k, beta.T).grad)
        assert np.array_equal(grad, grad.swapaxes(-1, -2))
        assert np.any(grad != np.diagonal(grad, axis1=-2, axis2=-1)[..., None] * np.eye(n))


# ---------------------------------------------------------------- node blocks

BLOCK = cones._BLOCK_NODES
# batch sizes around the block edges; None is a single matrix, a 0-d batch
BLOCK_SIZES = [0, 1, None, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def blocked_and_unblocked(monkeypatch, fn, M, *args):
    """fn(M, *args) as blocked, and again as one block holding the whole batch."""
    blocked = fn(M, *args)
    with monkeypatch.context() as patch:
        patch.setattr(cones, "_BLOCK_NODES", max(math.prod(M.shape[2:]), 1))
        return blocked, fn(M, *args)


@pytest.mark.parametrize("layout", ["samples", "planes"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_node_blocks_match_one_unblocked_pass_bitwise(monkeypatch, n, layout):
    rng = sampling.generator(1100 + n)
    for size in BLOCK_SIZES:
        batch = () if size is None else (size,)
        A = rng.standard_normal(batch + (n, n))
        M = as_planes(A @ A.swapaxes(-1, -2) / n + 0.5 * np.eye(n))  # positive definite: every k is admissible
        if layout == "planes":
            M = np.ascontiguousarray(M)
        for kmax in range(n + 1):
            got, want = blocked_and_unblocked(monkeypatch, cones.matrix_sigmas, M, kmax)
            assert same_bits(got, want), (size, kmax)
            got, want = blocked_and_unblocked(monkeypatch, cones.matrix_cone_margin, M, kmax)
            assert same_bits(got, want), (size, kmax)
        for k in range(1, n + 1):
            for beta in (0.0, rng.uniform(0.0, 2.0, size=k - 1), rng.uniform(0.0, 2.0, size=batch + (k - 1,))):
                beta = np.moveaxis(np.broadcast_to(beta, batch + (k - 1,)), -1, 0)
                got, want = blocked_and_unblocked(monkeypatch, cones.quotient_eval, M, k, beta)
                for name in ("sigma", "value", "grad"):
                    assert same_bits(getattr(got, name), getattr(want, name)), (size, k, name)
                # the gradient is contiguous component planes
                assert got.grad.flags.c_contiguous


def test_quotient_eval_transient_memory_is_block_sized():
    # n = k = 5, N = 8: 32768 nodes.  Outputs are 8.0 MiB; a full T stack
    # (k-1) n^2 N^n doubles would add 25 MiB
    grid = PeriodicGrid(dim=5, resolution=8)
    u = 0.05 * np.sin(grid.coordinate(0)) * np.cos(grid.coordinate(1)) + grid.zeros()
    U = operator.assemble_U(compute_jet(grid, u), make_problem(grid), 0.5)
    beta = np.full((4,) + grid.shape, 0.3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ev = cones.quotient_eval(U, 5, beta)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ev.grad.shape == (5, 5) + grid.shape
    assert peak < 16 * 2**20, peak / 2**20


def test_batches_of_matrices_are_component_planes():
    # one layout end to end: a batch of n x n matrices is its planes
    # (n, n, *batch), and a table over a batch, sigma or beta, is stacked first
    grid = PeriodicGrid(dim=4, resolution=8)
    n, k, shape = 4, 3, grid.shape
    problem = make_problem(grid, k=k, alpha=0.1 * np.sin(grid.coordinate(0)) + grid.zeros())
    state = operator.evaluate(0.05 * np.cos(grid.coordinate(1)) + grid.zeros(), 0.5, problem)
    for name in ("U", "grad"):
        planes = getattr(state, name)
        assert planes.shape == (n, n) + shape and planes.flags.c_contiguous, name
    assert state.sigma.shape == (k + 1,) + shape and state.beta.shape == (k - 1,) + shape
    rng = sampling.generator(0)
    M = sampling.conjugate_by_rotations(rng, rng.uniform(0.5, 1.5, (6, n)))
    assert M.shape == (n, n, 6)
    ev = cones.quotient_eval(M.reshape(n, n, 2, 3), k, np.ones((k - 1, 2, 3)))
    assert (ev.sigma.shape, ev.value.shape, ev.grad.shape) == ((k + 1, 2, 3), (2, 3), (n, n, 2, 3))
    assert cones.matrix_sigmas(M, 2).shape == (3, 6)
    assert cones.all_elementary_symmetric(np.ones((6, n))).shape == (n + 1, 6)
    assert not hasattr(problem, "B")


# ---------------------------------------------------------------- constants


def test_homotopy_constant_values():
    assert cones.homotopy_constant(3, 3) == 0.25
    assert cones.homotopy_constant(4, 3) == 0.8
    assert cones.homotopy_constant(5, 4) == 0.3125


def test_homotopy_constant_fraction_oracle():
    for n in (3, 4, 5):
        for k in range(3, n + 1):
            want = Fraction(math.comb(n, k), sum(math.comb(n, l) for l in range(k - 1)))
            assert cones.homotopy_constant(n, k) == float(want)


def test_newton_maclaurin_constant_values():
    assert cones.newton_maclaurin_constant(3, 3, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cones.newton_maclaurin_constant(3, 3, 0) == pytest.approx(1.0 / 27.0, rel=1e-15)


def test_newton_maclaurin_equality_at_all_ones_exact():
    # polynomial form sigma_l * sigma_k^(k-1-l) = K * sigma_{k-1}^(k-l) at e, in Fractions
    for n in (3, 4, 5):
        for k in range(3, n + 1):
            for l in range(k - 1):
                K = Fraction(math.comb(n, k)) ** (k - 1 - l) * math.comb(n, l)
                K /= Fraction(math.comb(n, k - 1)) ** (k - l)
                lhs = Fraction(math.comb(n, l)) * Fraction(math.comb(n, k)) ** (k - 1 - l)
                rhs = K * Fraction(math.comb(n, k - 1)) ** (k - l)
                assert lhs == rhs
                assert cones.newton_maclaurin_constant(n, k, l) == float(K)


def test_newton_maclaurin_bound_on_gamma_k_samples():
    rng = sampling.generator(2)
    for n, k in [(3, 3), (4, 4), (5, 3)]:
        lam = sampling.gamma_eigenvalues(rng, 2000, n, k)
        sig = cones.all_elementary_symmetric(lam)
        for l in range(k - 1):
            K = cones.newton_maclaurin_constant(n, k, l)
            lhs = sig[l] * sig[k] ** (k - 1 - l)
            rhs = K * sig[k - 1] ** (k - l)
            scale = np.maximum.reduce([np.ones_like(lhs), np.abs(lhs), np.abs(rhs)])
            assert np.all((lhs - rhs) / scale <= 1e-12)


# ---------------------------------------------------------------- lemma-style monotonicity


def test_quotient_increases_when_adding_psd():
    rng = sampling.generator(404)
    n, k = 4, 3
    B = sampling.gamma_matrices(rng, 400, n, k - 1, margin=1e-6)
    A = sampling.psd_matrices(rng, 400, n, 0.0, 1.0)
    S = A + B
    ok = cones.matrix_cone_margin(S, k - 1) > 1e-12
    assert ok.mean() > 0.95  # adding PSD should essentially never leave the cone
    fB = g_value(B[..., ok], k)
    fS = g_value(S[..., ok], k)
    scale = np.maximum.reduce([np.ones_like(fB), np.abs(fB), np.abs(fS)])
    assert np.all((fB - fS) / scale <= 1e-10)


def test_quotient_powers_increase_when_adding_psd():
    # (sigma_{k-1}/sigma_l)^(1/(k-1-l)) is also monotone along PSD additions
    rng = sampling.generator(405)
    n, k = 5, 4
    B = sampling.gamma_matrices(rng, 300, n, k - 1, margin=1e-6)
    A = sampling.psd_matrices(rng, 300, n, 0.0, 1.0)
    S = A + B
    ok = cones.matrix_cone_margin(S, k - 1) > 1e-12
    sigB = cones.matrix_sigmas(B[..., ok], k)
    sigS = cones.matrix_sigmas(S[..., ok], k)
    for l in range(k - 1):
        p = 1.0 / (k - 1 - l)
        qB = (sigB[k - 1] / sigB[l]) ** p
        qS = (sigS[k - 1] / sigS[l]) ** p
        scale = np.maximum.reduce([np.ones_like(qB), qB, qS])
        assert np.all((qB - qS) / scale <= 1e-10)


def test_quotient_decreases_when_subtracting_psd():
    rng = sampling.generator(406)
    n, k = 3, 3
    B = sampling.gamma_matrices(rng, 600, n, k - 1, margin=1e-4)
    A = -0.25 * sampling.psd_matrices(rng, 600, n, 0.0, 1.0)
    S = A + B
    ok = cones.matrix_cone_margin(S, k - 1) > 1e-12
    assert ok.mean() > 0.3
    fB = g_value(B[..., ok], k)
    fS = g_value(S[..., ok], k)
    scale = np.maximum.reduce([np.ones_like(fB), np.abs(fB), np.abs(fS)])
    assert np.all((fS - fB) / scale <= 1e-10)


def test_quotient_concavity_and_superadditivity():
    rng = sampling.generator(407)
    n, k = 4, 4
    P = sampling.gamma_matrices(rng, 500, n, k - 1, margin=1e-6)
    Q = sampling.gamma_matrices(rng, 500, n, k - 1, margin=1e-6)
    fP = g_value(P, k)
    fQ = g_value(Q, k)
    fM = g_value(0.5 * (P + Q), k)
    fS = g_value(P + Q, k)
    scale = np.maximum.reduce([np.ones_like(fP), np.abs(fP), np.abs(fQ), np.abs(fS)])
    assert np.all((0.5 * (fP + fQ) - fM) / scale <= 1e-10)
    assert np.all((fP + fQ - fS) / scale <= 1e-10)


# ---------------------------------------------------------------- samplers


def test_gamma_sampler_respects_margin():
    rng = sampling.generator(1)
    lam = sampling.gamma_eigenvalues(rng, 500, 4, 3, margin=1e-3)
    assert lam.shape == (500, 4)
    assert np.all(cones.cone_margin(lam, 3) > 1e-3)


def test_boundary_biased_sampler_lands_in_window():
    rng = sampling.generator(8)
    lam = sampling.boundary_biased_eigenvalues(rng, 400, 3, 2)
    assert len(lam) > 200
    m = cones.cone_margin(lam, 2)
    assert np.all(m > 1e-12)
    assert np.all(m < 1e-5)
    assert np.median(m) < 1e-6


def boundary_biased_reference(rng, count, n, k):
    """boundary_biased_eigenvalues with all 80 halvings of its bisection, on
    the same draws, pulled into the margin window [1e-9, 1e-6]."""
    lam = sampling.gamma_eigenvalues(rng, count, n, k, margin=1e-3)
    target = 10.0 ** rng.uniform(np.log10(1e-9), np.log10(1e-6), count)
    s_lo = np.zeros(count)
    s_hi = np.full(count, 1.0)
    for _ in range(30):
        need = cones.cone_margin(lam - s_hi[:, None], k) > target
        if not need.any():
            break
        s_hi[need] *= 2.0
    for _ in range(80):
        mid = 0.5 * (s_lo + s_hi)
        above = cones.cone_margin(lam - mid[:, None], k) > target
        s_lo = np.where(above, mid, s_lo)
        s_hi = np.where(above, s_hi, mid)
    pulled = lam - s_lo[:, None]
    m = cones.cone_margin(pulled, k)
    return pulled[(m > 1e-12) & (m < 10.0 * 1e-6)]


@pytest.mark.parametrize("n,k,seed", [(3, 2, 8), (3, 3, 42), (4, 3, 43), (5, 4, 44), (5, 5, 57)])
def test_boundary_bisection_stops_on_the_fixed_halving_result(n, k, seed):
    # the bisection ends once every midpoint is an endpoint; the samples are
    # bit for bit those of the full 80 halvings
    got = sampling.boundary_biased_eigenvalues(sampling.generator(seed), 300, n, k)
    want = boundary_biased_reference(sampling.generator(seed), 300, n, k)
    assert len(want) > 0
    assert np.array_equal(got, want)


def sign_fixed_qr(a):
    """Q of a batched QR with its R diagonal made positive: a Haar rotation of
    Gaussian a (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    return q * d[..., None, :]


@pytest.mark.parametrize("count", [1, 7, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rotations_are_sign_fixed_qr_of_the_same_draws(n, count):
    q = as_matrices(sampling.orthogonal_matrices(sampling.generator(5), count, n))
    a = sampling.generator(5).standard_normal((count, n, n))
    assert q.shape == (count, n, n)
    assert np.abs(q - sign_fixed_qr(a)).max() <= 1e-12
    assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(n)).max() <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjugation_is_exactly_symmetric_with_the_drawn_spectrum(n):
    rng = sampling.generator(6)
    lam = rng.uniform(-2.0, 2.0, (1000, n))
    M = as_matrices(sampling.conjugate_by_rotations(rng, lam))
    assert M.shape == (1000, n, n)
    assert np.array_equal(M, M.swapaxes(-1, -2))
    eig = np.linalg.eigvalsh(M)
    expected = np.sort(lam, axis=-1)
    assert np.all(np.abs(eig - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjugation_of_an_empty_batch_draws_nothing(n):
    # the lemma suite conjugates its near-boundary draws, which can all miss
    # their window
    rng = sampling.generator(7)
    M = sampling.conjugate_by_rotations(rng, np.empty((0, n)))
    assert M.shape == (n, n, 0)
    assert rng.random() == sampling.generator(7).random()


def test_sampler_reproducibility():
    a = sampling.gamma_eigenvalues(sampling.generator(99), 50, 3, 2)
    b = sampling.gamma_eigenvalues(sampling.generator(99), 50, 3, 2)
    assert np.array_equal(a, b)
