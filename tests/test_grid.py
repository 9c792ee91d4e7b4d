"""Grid jets against exact-derivative oracles, norms, and field file I/O."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from ksig import InputError, cones, fieldexpr
from ksig.grid import (
    PeriodicGrid,
    dot_planes,
    read_field,
    sup_norm,
    write_field,
)
from ksig.operator import compute_jet


def coords(grid):
    return [grid.coordinate(a) for a in range(grid.dim)]


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(2, 16)
    with pytest.raises(ValueError):
        PeriodicGrid(3, 6)
    with pytest.raises(ValueError):
        PeriodicGrid(3, 15)  # odd
    g = PeriodicGrid(3, 16)
    assert g.spacing * g.resolution == pytest.approx(2 * np.pi)
    assert g.node_count == 16**3


@pytest.mark.parametrize("n,first", [(3, 504104), (4, 16384), (5, 2152)])
def test_grid_refuses_hessian_planes_numpy_cannot_hold(n, first):
    # n^2 N^n doubles must fit numpy's intp: the largest even N below the
    # bound is a grid, and the first one above it is refused
    assert n * n * (first - 2) ** n * 8 <= np.iinfo(np.intp).max < n * n * first**n * 8
    assert PeriodicGrid(n, first - 2).resolution == first - 2
    with pytest.raises(ValueError, match=f"^grid resolution {first} is too large at n = {n}: "):
        PeriodicGrid(n, first)


GRID = PeriodicGrid(3, 8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda path: cones.quotient_eval(np.eye(3), 4, 0.0), "quotient order k=4 outside [1, 3]"),
        (lambda path: cones.homotopy_constant(3, 2), "homotopy constant needs 3 <= k <= n, got k=2, n=3"),
        (lambda path: cones.newton_maclaurin_constant(3, 3, 2), "need 0 <= l <= k-2 <= n-2, got n=3, k=3, l=2"),
        (lambda path: GRID.coordinate(3), "axis 3 outside [0, 3)"),
        (lambda path: write_field(path, GRID, np.zeros((4, 4, 4))), "field shape (4, 4, 4) does not match grid (8, 8, 8)"),
        (lambda path: compute_jet(GRID, np.zeros((8, 8))), "field shape (8, 8) does not match grid (8, 8, 8)"),
    ],
    ids=["quotient_eval", "homotopy_constant", "newton_maclaurin_constant", "coordinate", "write_field", "compute_jet"],
)
def test_guards_refuse_arguments_out_of_range(tmp_path, call, message):
    # each is a program error, never input: a plain ValueError naming the
    # argument, raised before any work, so write_field leaves no file
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path / "f.ksig")
    assert not any(tmp_path.iterdir())


def test_jet_of_constant_field():
    grid = PeriodicGrid(3, 8)
    jet = compute_jet(grid, np.full(grid.shape, 7.0))
    assert np.all(jet.grad_planes == 0.0)
    assert np.all(jet.hess_planes == 0.0)
    assert np.all(jet.laplacian == 0.0)


def test_jet_gradient_of_sine_second_order():
    errs = {}
    for N in (32, 64):
        grid = PeriodicGrid(3, N)
        x1 = coords(grid)[0]
        f = np.broadcast_to(np.sin(x1), grid.shape)
        jet = compute_jet(grid, f)
        errs[N] = np.abs(jet.grad_planes[0] - np.cos(x1)).max()
        assert errs[N] <= 1.1 * grid.spacing**2
    ratio = errs[32] / errs[64]
    assert 3.5 <= ratio <= 4.5


def test_jet_cross_derivative():
    grid = PeriodicGrid(3, 32)
    x1, x2, _ = coords(grid)
    f = np.sin(x1) * np.sin(x2) * np.ones(grid.shape)
    jet = compute_jet(grid, f)
    exact = np.cos(x1) * np.cos(x2) * np.ones(grid.shape)
    assert np.abs(jet.hess_planes[0, 1] - exact).max() <= 1.1 * grid.spacing**2
    # node nearest (pi/2, pi/2, ...): N/4 steps along both axes
    q = grid.resolution // 4
    assert jet.hess_planes[0, 1][q, q, 0] == pytest.approx(0.0, abs=grid.spacing**2)


def test_jet_laplacian_is_exact_trace():
    grid = PeriodicGrid(4, 8)
    rng = np.random.default_rng(0)
    jet = compute_jet(grid, rng.standard_normal(grid.shape))
    tr = np.trace(jet.hess_planes)
    assert np.array_equal(jet.laplacian, tr)


def test_jet_convergence_order_window():
    errors = []
    Ns = (16, 32, 64)
    for N in Ns:
        grid = PeriodicGrid(3, N)
        x1, x2, x3 = coords(grid)
        f = np.sin(x1) * np.cos(2 * x2) + 0.5 * np.sin(x3) * np.ones(grid.shape)
        jet = compute_jet(grid, f)
        exact_lap = (-1.0 - 4.0) * np.sin(x1) * np.cos(2 * x2) - 0.5 * np.sin(x3) * np.ones(grid.shape)
        errors.append(np.abs(jet.laplacian - exact_lap).max())
    for a, b in zip(errors, errors[1:]):
        order = np.log2(a / b)
        assert 1.8 <= order <= 2.2


def test_jet_translation_equivariance():
    grid = PeriodicGrid(3, 16)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    jet = compute_jet(grid, f)
    for axis in range(3):
        shifted = compute_jet(grid, np.roll(f, 5, axis=axis))
        assert np.array_equal(shifted.grad_planes, np.roll(jet.grad_planes, 5, axis=1 + axis))
        assert np.array_equal(shifted.hess_planes, np.roll(jet.hess_planes, 5, axis=2 + axis))


def stacked_jet(grid, values):
    """The jet built in the (..., n) / (..., n, n) layout, entry by entry with
    strided stores and np.trace: the construction the plane layout replaced."""
    n, h = grid.dim, grid.spacing
    grad = np.empty(values.shape + (n,))
    hess = np.empty(values.shape + (n, n))
    plus = [np.roll(values, -1, axis=i) for i in range(n)]
    minus = [np.roll(values, 1, axis=i) for i in range(n)]
    for i in range(n):
        grad[..., i] = (plus[i] - minus[i]) / (2.0 * h)
        hess[..., i, i] = (plus[i] - 2.0 * values + minus[i]) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            pp = np.roll(plus[i], -1, axis=j)
            pm = np.roll(plus[i], 1, axis=j)
            mp = np.roll(minus[i], -1, axis=j)
            mm = np.roll(minus[i], 1, axis=j)
            cross = ((pp - mp) - (pm - mm)) / (4.0 * h * h)
            hess[..., i, j] = cross
            hess[..., j, i] = cross
    return grad, hess, np.trace(hess, axis1=-2, axis2=-1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jet_planes_match_stacked_construction_bitwise(n):
    grid = PeriodicGrid(n, 8)
    values = np.random.default_rng(n).standard_normal(grid.shape)
    jet = compute_jet(grid, values)
    grad, hess, lap = stacked_jet(grid, values)
    assert np.array_equal(jet.grad_planes, np.moveaxis(grad, -1, 0))
    assert np.array_equal(jet.hess_planes, np.moveaxis(hess, (-2, -1), (0, 1)))
    assert np.array_equal(jet.laplacian, lap)
    # the derivatives are stored as contiguous planes
    assert jet.grad_planes.shape == (n,) + grid.shape and jet.grad_planes.flags.c_contiguous
    assert jet.hess_planes.shape == (n, n) + grid.shape and jet.hess_planes.flags.c_contiguous
    exact = fieldexpr.analytic_jet("0.1*sin(x1)*cos(x2)", grid)
    assert exact.grad_planes.shape == jet.grad_planes.shape
    assert exact.hess_planes.shape == jet.hess_planes.shape


def test_jet_transient_memory_is_its_outputs_and_three_fields():
    # n = 5, N = 8: the outputs are n + n^2 + 1 fields; the stencil itself
    # needs two neighbour buffers, and 2n shifted copies of u would add ten
    grid = PeriodicGrid(5, 8)
    values = np.random.default_rng(5).standard_normal(grid.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        jet = compute_jet(grid, values)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert jet.hess_planes.shape == (5, 5) + grid.shape
    assert peak <= (5 + 25 + 1 + 3) * grid.node_count * 8, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dot_planes_matches_einsum_on_stacked_layout_bitwise(n):
    rng = np.random.default_rng(10 + n)
    a = rng.standard_normal((n, 8, 8, 8))
    b = rng.standard_normal((n, 8, 8, 8))
    stacked = np.einsum(
        "...i,...i->...",
        np.ascontiguousarray(np.moveaxis(a, 0, -1)),
        np.ascontiguousarray(np.moveaxis(b, 0, -1)),
    )
    assert np.array_equal(dot_planes(a, b), stacked)


def test_discrete_integration_by_parts():
    grid = PeriodicGrid(3, 16)
    x1, x2, x3 = coords(grid)
    f = np.sin(x1) * np.cos(x2) * np.ones(grid.shape)
    g = np.cos(2 * x3) + 0.3 * np.sin(x2) * np.ones(grid.shape)
    hn = grid.spacing**grid.dim
    lf = compute_jet(grid, f).laplacian
    lg = compute_jet(grid, g).laplacian
    a = hn * np.sum(lf * g)
    b = hn * np.sum(f * lg)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


def test_norms():
    grid = PeriodicGrid(3, 16)
    zero = grid.zeros()
    assert sup_norm(zero) == 0.0
    one = np.ones(grid.shape)
    assert sup_norm(one) == 1.0
    f = np.sin(grid.coordinate(0)) * np.ones(grid.shape)
    assert abs(sup_norm(f) - 1.0) <= grid.spacing**2


def test_field_roundtrip_bit_exact(tmp_path):
    grid = PeriodicGrid(3, 8)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(grid.shape)
    p = tmp_path / "f.ksig"
    write_field(p, grid, values)
    got_grid, got = read_field(p, grid)
    assert got_grid == grid
    assert got.tobytes() == values.tobytes()


def test_field_dimension_mismatch(tmp_path):
    p = tmp_path / "f.ksig"
    write_field(p, PeriodicGrid(3, 16), np.zeros((16, 16, 16)))
    with pytest.raises(InputError, match="mismatch"):
        read_field(p, PeriodicGrid(3, 32))


def test_field_missing_file_names_the_path(tmp_path):
    # once: the reason is the OS's message, without the path it repeats
    for p, reason in ((tmp_path / "absent.ksig", "No such file or directory"), (tmp_path, "Is a directory")):
        with pytest.raises(InputError, match=f"^cannot read field file {re.escape(str(p))}: {reason}$"):
            read_field(p)


def test_field_bad_magic(tmp_path):
    p = tmp_path / "junk.ksig"
    p.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(InputError, match="magic"):
        read_field(p)


@pytest.mark.parametrize(
    "raw,needle",
    [
        (b"KSI", "truncated header"),
        (struct.pack("<4sBBI", b"KSIG", 2, 3, 8), "unsupported format version 2"),
        (struct.pack("<4sBBI", b"KSIG", 1, 9, 8), "invalid header"),
    ],
    ids=["short", "version", "dim"],
)
def test_field_bad_header(tmp_path, raw, needle):
    p = tmp_path / "f.ksig"
    p.write_bytes(raw)
    with pytest.raises(InputError, match=needle):
        read_field(p)


def test_field_truncated_payload(tmp_path):
    grid = PeriodicGrid(3, 8)
    p = tmp_path / "f.ksig"
    write_field(p, grid, np.zeros(grid.shape))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(InputError, match="payload"):
        read_field(p)


def test_field_nan_names_node(tmp_path):
    grid = PeriodicGrid(3, 8)
    values = np.zeros(grid.shape)
    values[1, 2, 3] = np.nan
    p = tmp_path / "f.ksig"
    header = struct.pack("<4sBBI", b"KSIG", 1, 3, 8)
    p.write_bytes(header + np.ascontiguousarray(values, dtype="<f8").tobytes())
    with pytest.raises(InputError, match=r"\(1, 2, 3\)"):
        read_field(p)


def test_write_refuses_nan(tmp_path):
    grid = PeriodicGrid(3, 8)
    values = np.zeros(grid.shape)
    values[0, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        write_field(tmp_path / "f.ksig", grid, values)


# ---------------------------------------------------------------- expressions


def test_expr_parse_and_evaluate():
    grid = PeriodicGrid(3, 16)
    x1, x2, _ = coords(grid)
    f = fieldexpr.evaluate("1 + 0.2*sin(x1) - 0.5*cos(x2)*sin(x1)", grid)
    want = 1.0 + 0.2 * np.sin(x1) - 0.5 * np.cos(x2) * np.sin(x1) * np.ones(grid.shape)
    assert np.allclose(f, want, atol=1e-15)


def test_expr_constant_and_signs():
    grid = PeriodicGrid(3, 8)
    assert np.all(fieldexpr.evaluate("2", grid) == 2.0)
    assert np.all(fieldexpr.evaluate("-3.5", grid) == -3.5)
    assert np.all(fieldexpr.evaluate("+1e-2", grid) == 0.01)


def test_expr_rejects_garbage():
    grid = PeriodicGrid(3, 8)
    for bad in (
        "", "sin(y1)", "sin(x1", "1 +", "2 ** 3", "sin(x1) sin(x2)", "exp(x1)",
        "sin (x1)", "sin(x0)", "cos(2*x3)", "1 2", "1e5e5", "*2", "-", "sin(x1)cos(x2)",
    ):
        with pytest.raises(InputError, match=r"field expression|dangling operator|outside x1\.\.x3"):
            fieldexpr.evaluate(bad, grid)


def test_expr_accepts_edge_cases():
    # every accepted text gives the bits of its plain numpy spelling at its
    # own rank, the axes its factors read, and analytic_jet their full grid
    grid = PeriodicGrid(3, 8)
    s1, _, s3 = (np.sin(x) for x in coords(grid))
    _, c2, c3 = (np.cos(x) for x in coords(grid))
    accepted = {
        "1 - -2": ((1, 1, 1), 3.0),
        "+-1": ((1, 1, 1), -1.0),
        "2*3*sin(x1)*4": ((8, 1, 1), 24.0 * s1),
        "sin(x1)*2": ((8, 1, 1), 2.0 * s1),
        ".5*cos( x3 )": ((1, 1, 8), 0.5 * c3),
        "1.": ((1, 1, 1), 1.0),
        "3E+1": ((1, 1, 1), 30.0),
        "  0.2*sin(x1)  ": ((8, 1, 1), 0.2 * s1),
        "1 + 0.1*cos(x2)*sin(x1)": ((8, 8, 1), 1.0 + 0.1 * c2 * s1),
        "1 + 0.1*cos(x2)*sin(x1) - 3e-2*sin(x3)": ((8, 8, 8), 1.0 + 0.1 * c2 * s1 - 3e-2 * s3),
    }
    for text, (shape, want) in accepted.items():
        value = fieldexpr.evaluate(text, grid)
        assert value.shape == shape and np.array_equal(value, np.broadcast_to(want, shape)), text
        full = fieldexpr.analytic_jet(text, grid).value
        assert np.array_equal(full, np.broadcast_to(value, grid.shape)), text


def test_expr_errors_name_where_reading_stopped():
    grid = PeriodicGrid(3, 8)
    for bad, message in [
        ("1 2", "cannot parse field expression at '2'"),
        ("sin(x1)cos(x2)", "cannot parse field expression at 'cos(x2)'"),
        ("2 ** 3", "cannot parse field expression at '* 3'"),
        ("1 +", "dangling operator in '1 +'"),
        ("sin(x0)", "uses x0, outside x1..x3"),
        (" ", "empty field expression"),
    ]:
        with pytest.raises(InputError) as err:
            fieldexpr.evaluate(bad, grid)
        assert message in str(err.value), bad


def test_expr_axis_out_of_range():
    grid = PeriodicGrid(3, 8)
    with pytest.raises(InputError, match="x4"):
        fieldexpr.evaluate("sin(x4)", grid)


def test_analytic_jet_matches_hand_derivatives():
    grid = PeriodicGrid(3, 16)
    x1, x2, _ = coords(grid)
    jet = fieldexpr.analytic_jet("0.1*sin(x1)*cos(x2)", grid)
    ones = np.ones(grid.shape)
    assert np.allclose(jet.value, 0.1 * np.sin(x1) * np.cos(x2) * ones, atol=1e-15)
    assert np.allclose(jet.grad_planes[0], 0.1 * np.cos(x1) * np.cos(x2) * ones, atol=1e-15)
    assert np.allclose(jet.grad_planes[1], -0.1 * np.sin(x1) * np.sin(x2) * ones, atol=1e-15)
    assert np.allclose(jet.grad_planes[2], 0.0)
    assert np.allclose(jet.hess_planes[0, 0], -0.1 * np.sin(x1) * np.cos(x2) * ones, atol=1e-15)
    assert np.allclose(jet.hess_planes[0, 1], -0.1 * np.cos(x1) * np.sin(x2) * ones, atol=1e-15)
    assert np.allclose(jet.laplacian, -0.2 * np.sin(x1) * np.cos(x2) * ones, atol=1e-15)


def test_analytic_jet_repeated_axis_product():
    grid = PeriodicGrid(3, 16)
    x1 = grid.coordinate(0)
    jet = fieldexpr.analytic_jet("sin(x1)*sin(x1)", grid)
    ones = np.ones(grid.shape)
    assert np.allclose(jet.value, np.sin(x1) ** 2 * ones, atol=1e-15)
    assert np.allclose(jet.grad_planes[0], 2 * np.sin(x1) * np.cos(x1) * ones, atol=1e-14)
    want = 2 * (np.cos(x1) ** 2 - np.sin(x1) ** 2) * ones
    assert np.allclose(jet.hess_planes[0, 0], want, atol=1e-14)


def test_analytic_jet_agrees_with_stencil_jet():
    grid = PeriodicGrid(3, 64)
    expr = "0.3*sin(x1)*cos(x2) + 0.1*cos(x3)"
    exact = fieldexpr.analytic_jet(expr, grid)
    stencil = compute_jet(grid, exact.value)
    h2 = grid.spacing**2
    assert np.abs(stencil.grad_planes - exact.grad_planes).max() <= h2
    assert np.abs(stencil.hess_planes - exact.hess_planes).max() <= h2
