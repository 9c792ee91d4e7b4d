"""Prescribed backgrounds and tensor assembly: space forms, exact
identities, and the hypotheses every Problem meets."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import as_matrices, make_problem
from ksig import InputError, cones
from ksig.geometry import spaceform_schouten
from ksig.grid import PeriodicGrid
from ksig.operator import assemble_U, beta_weights, compute_jet


# ---------------------------------------------------------------- space forms


def test_spaceform_examples():
    assert np.array_equal(spaceform_schouten(-1.0, 3, 0.0), -2.0 * np.eye(3))
    assert np.array_equal(spaceform_schouten(0.0, 4, 0.3), np.zeros((4, 4)))
    assert np.allclose(spaceform_schouten(-1.0, 4, 0.5), -1.0 * np.eye(4))
    lam = np.linalg.eigvalsh(-spaceform_schouten(-1.0, 3, 0.0))
    assert cones.cone_margin(lam, 3) > 0


def test_spaceform_linear_in_kappa_affine_in_tau():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k1, k2, t1, t2, n = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 0.9), rng.uniform(-3, 0.9), 4
        a = spaceform_schouten(k1, n, t1) + spaceform_schouten(k2, n, t1)
        b = spaceform_schouten(k1 + k2, n, t1)
        assert np.allclose(a, b, atol=1e-13)
        lam = 0.3
        mix = spaceform_schouten(k1, n, lam * t1 + (1 - lam) * t2)
        sep = lam * spaceform_schouten(k1, n, t1) + (1 - lam) * spaceform_schouten(k1, n, t2)
        assert np.allclose(mix, sep, atol=1e-13)


# ---------------------------------------------------------------- beta weights


def default_problem(grid, k=3, alpha_l_value=1.0, **kw):
    return make_problem(grid, k=k, alpha_l=np.full((k - 1,) + grid.shape, alpha_l_value), **kw)


def test_beta_weights_endpoints():
    grid = PeriodicGrid(3, 8)
    problem = default_problem(grid, alpha_l_value=2.0)
    c = cones.homotopy_constant(3, 3)
    b0 = beta_weights(problem, grid.zeros(), t=0.0)
    assert np.all(b0 == c)
    b1 = beta_weights(problem, grid.zeros(), t=1.0)
    assert np.all(b1 == 2.0)


def test_beta_weights_midpoint_example():
    # t=0.5, u=0.1, n=3, k=3, l=1, alpha_1=2: (0.5*0.25 + 0.5*2) e^{0.4}
    grid = PeriodicGrid(3, 8)
    problem = default_problem(grid, alpha_l_value=2.0)
    b = beta_weights(problem, np.full(grid.shape, 0.1), t=0.5)
    assert np.allclose(b[1], 1.125 * np.exp(0.4), rtol=1e-15)
    assert np.allclose(b[0], 1.125 * np.exp(0.6), rtol=1e-15)


def test_beta_weights_nonnegative_on_unit_interval():
    grid = PeriodicGrid(3, 8)
    problem = default_problem(grid, alpha_l_value=0.3)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    for t in (0.0, 0.25, 0.9, 1.0):
        assert np.all(beta_weights(problem, u, t) >= 0.0)


def test_beta_weights_one_alpha_l_row_serves_every_l():
    # a Problem may hold one alpha_l row for every l; its weights equal,
    # bit for bit, those of the k-1 copies of that row
    grid = PeriodicGrid(5, 8)
    rng = np.random.default_rng(6)
    row = 1.0 + 0.5 * rng.uniform(size=(1,) + grid.shape)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    one = make_problem(grid, k=5, alpha_l=row)
    copies = make_problem(grid, k=5, alpha_l=np.repeat(row, 4, axis=0))
    for t in (0.0, 0.3, 1.0):
        assert beta_weights(one, u, t).tobytes() == beta_weights(copies, u, t).tobytes()


# ---------------------------------------------------------------- assemble_U


def test_assemble_identity_when_B_is_minus_metric():
    grid = PeriodicGrid(3, 8)
    problem = make_problem(grid)  # B = -I
    jet = compute_jet(grid, grid.zeros())
    for t in (0.0, 0.3, 1.0):
        U = as_matrices(assemble_U(jet, problem, t))
        assert np.array_equal(U, np.broadcast_to(np.eye(3), U.shape))


def admissible_background(grid, rng):
    """A per-node B that is not diagonal anywhere, with lambda(-B) in every
    Gamma_k: -B = I + E + E^T with |E_ij| <= 0.08 is positive definite
    (Gershgorin)."""
    E = rng.uniform(-0.08, 0.08, grid.shape + (grid.dim, grid.dim))
    return -(np.eye(grid.dim) + E + E.swapaxes(-1, -2))


def test_assemble_any_B_drops_out_at_t_zero():
    grid = PeriodicGrid(3, 8)
    B = admissible_background(grid, np.random.default_rng(2))
    problem = make_problem(grid, tau=0.3, B=B)
    U = as_matrices(assemble_U(compute_jet(grid, grid.zeros()), problem, t=0.0))
    assert np.array_equal(U, np.broadcast_to(np.eye(3), U.shape))


def test_assemble_constant_u_reduces_to_background():
    grid = PeriodicGrid(3, 8)
    B = admissible_background(grid, np.random.default_rng(4))
    problem = make_problem(grid, tau=0.1, B=B)
    jet = compute_jet(grid, np.full(grid.shape, 0.8))
    U = as_matrices(assemble_U(jet, problem, t=1.0))
    assert np.array_equal(U, -B)


def stacked_U(jet, problem, t):
    """assemble_U built in the (..., n, n) layout with broadcast identity terms
    and einsum contractions over contiguous gradients: the construction the
    plane assembly replaced."""
    n, tau = problem.grid.dim, problem.tau
    eye = np.eye(n)
    g = np.ascontiguousarray(np.moveaxis(jet.grad_planes, 0, -1))
    g2 = np.einsum("...i,...i->...", g, g)
    return (
        np.moveaxis(jet.hess_planes, (0, 1), (-2, -1))
        + ((1.0 - tau) / (n - 2.0)) * jet.laplacian[..., None, None] * eye
        + 0.5 * (2.0 - tau) * g2[..., None, None] * eye
        - g[..., :, None] * g[..., None, :]
        - t * as_matrices(problem.B_planes)
        + (1.0 - t) * eye
    )


def test_assemble_flat_matches_hand_formula():
    # bit for bit against the (..., n, n) construction, n = 3..5, for the
    # default B = -I and a per-node B
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        grid = PeriodicGrid(n, 8)
        B = admissible_background(grid, rng)
        problems = {
            "flat": make_problem(grid, k=3, tau=0.2),
            "per-node": make_problem(grid, k=3, tau=-0.4, B=B),
        }
        assert np.array_equal(as_matrices(problems["per-node"].B_planes), B)
        u = 0.1 * rng.standard_normal(grid.shape)
        jet = compute_jet(grid, u)
        for name, problem in problems.items():
            for t in (0.0, 0.6, 1.0):
                U = as_matrices(assemble_U(jet, problem, t))
                assert U.shape == grid.shape + (n, n)
                assert np.array_equal(U, U.swapaxes(-1, -2)), (n, name, t)
                assert np.array_equal(U, stacked_U(jet, problem, t)), (n, name, t)


# ---------------------------------------------------------------- hypotheses
# constructing a Problem, or replacing one of its fields, checks them


def test_validate_accepts_default_background():
    problem = default_problem(PeriodicGrid(3, 8))
    # -B = I has sigma = (3, 3, 1), well inside Gamma_3
    assert np.all(cones.matrix_cone_margin(-problem.B_planes, 3) == 1.0)


def test_validate_rejects_tau_at_one():
    grid = PeriodicGrid(3, 8)
    with pytest.raises(InputError, match=r"^hypothesis violated: tau < 1 required, got tau=1.0$"):
        default_problem(grid, tau=1.0)
    with pytest.raises(InputError, match="tau < 1"):
        replace(default_problem(grid), tau=1.0)


def test_validate_rejects_nonpositive_alpha_l():
    grid = PeriodicGrid(3, 8)
    alpha_l = np.ones((2,) + grid.shape)
    alpha_l[1, 0, 3, 2] = 0.0
    with pytest.raises(InputError, match=r"alpha_1 = 0.0 at node \(0, 3, 2\)"):
        make_problem(grid, alpha_l=alpha_l)
    with pytest.raises(InputError, match=r"alpha_1 = 0.0 at node \(0, 3, 2\)"):
        replace(make_problem(grid), alpha_l=alpha_l)


def test_validate_rejects_cone_failure():
    grid = PeriodicGrid(3, 8)
    with pytest.raises(InputError, match="lambda\\(-B\\) in Gamma_3 required everywhere"):
        default_problem(grid, B=np.eye(3))  # -B = -I, far outside Gamma_3


def test_validate_rejects_non_finite_data():
    # each non-finite field is named with its node, before any hypothesis
    grid = PeriodicGrid(3, 8)
    good = make_problem(grid)
    alpha = grid.zeros()
    alpha[1, 2, 3] = np.nan
    with pytest.raises(InputError, match=r"^input data must be finite, but alpha = nan at node \(1, 2, 3\)$"):
        replace(good, alpha=alpha)
    with pytest.raises(InputError, match="^input data must be finite, but tau = inf$"):
        replace(good, tau=np.inf)


def test_coefficient_data_validation():
    grid = PeriodicGrid(3, 8)
    # k outside [3, n] is bad input; a field that does not match the grid
    # is a program error, a plain ValueError
    with pytest.raises(InputError, match=r"^cone index k=2 outside \[3, n=3\]$"):
        make_problem(grid, k=2, alpha_l=np.ones((1,) + grid.shape))
    with pytest.raises(ValueError, match=r"^alpha_l of shape \(3, 8, 8, 8\) does not broadcast") as exc:
        make_problem(grid, k=3, alpha_l=np.ones((3,) + grid.shape))
    assert not isinstance(exc.value, InputError)
    # one rule for every field: each axis is its full length or 1, and no
    # axis is left out, though numpy would broadcast a shorter shape
    good, other = make_problem(grid), PeriodicGrid(3, 10)
    for field, value in (
        ("alpha", other.zeros()),
        ("alpha", np.zeros(grid.shape[1:])),
        ("alpha_l", np.ones((2,) + other.shape)),
        ("alpha_l", np.ones(grid.shape)),
        ("B_planes", np.zeros((3, 3) + other.shape)),
        ("B_planes", np.zeros(grid.shape + (3, 3))),  # the per-node layout, not planes
        ("B_planes", -np.eye(3)),
    ):
        with pytest.raises(ValueError, match=f"^{field} of shape") as exc:
            replace(good, **{field: value})
        assert not isinstance(exc.value, InputError), field
    # and a field at a lower rank is accepted as it is
    for field, value in (
        ("alpha", np.zeros((8, 1, 1))),
        ("alpha_l", np.ones((1, 1, 8, 1))),
        ("B_planes", np.broadcast_to(-np.eye(3)[..., None, None, None], (3, 3, 1, 8, 1))),
    ):
        assert getattr(replace(good, **{field: value}), field).shape == value.shape, field
