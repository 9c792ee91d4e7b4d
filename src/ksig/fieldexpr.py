"""A tiny closed expression language for grid fields.

Grammar (whitespace may stand between the quoted pieces, NUMBER and AXIS):

    expr   := SIGN* term (SIGN+ term)*
    term   := factor ('*' factor)*
    factor := NUMBER | 'sin(' AXIS ')' | 'cos(' AXIS ')'
    SIGN   := '+' | '-'
    AXIS   := 'x' DIGITS           # 1-based coordinate index

i.e. sums of signed products of constants and single-coordinate sine/cosine
waves: "1", "0.2*sin(x1)", "1 + 0.1*cos(x2)*sin(x1) - 3e-2*sin(x3)".  The
set is closed under the exact first and second derivatives the solver needs,
so manufactured solutions get analytic jets rather than stencil jets.
`evaluate` is the one loop that computes values, and `analytic_jet` takes
its values from it.  A parse error names where reading stopped.
"""

from __future__ import annotations

import re

import numpy as np

from . import InputError
from .grid import JetField

__all__ = ["evaluate", "analytic_jet"]


# the grammar's three pieces, each matched where the one before stopped
_SIGNS = re.compile(r"(?:\s*[+-])*")
_FACTOR = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<trig>sin|cos)\(\s*x(?P<axis>\d+)\s*\))"
)
_TIMES = re.compile(r"\s*\*")


def _stopped(text, pos):
    """The InputError for reading `text` that stopped at `pos`."""
    rest = text[pos:].strip()
    if rest:
        return InputError(f"cannot parse field expression at '{rest[:20]}'")
    if text.strip():
        return InputError(f"dangling operator in {text!r}")
    return InputError("empty field expression")


def _parse(text, grid):
    """The (coeff, factors) terms of `text`: coeff is +-1.0 times each number
    in turn, factors the (kind, axis0) of each sin/cos, axis0 zero-based and
    on `grid`.  Raises InputError on anything else."""
    terms, pos = [], 0
    while not terms or text[pos:].strip():
        signs = _SIGNS.match(text, pos)
        if terms and not signs.group():
            raise _stopped(text, pos)  # only + or - ends a term
        coeff = -1.0 if signs.group().count("-") % 2 else 1.0
        factors, op = [], signs  # op: the match after which a factor is due
        while op:
            m = _FACTOR.match(text, op.end())
            if not m:
                raise _stopped(text, op.end())
            if m["num"] is not None:
                coeff *= float(m["num"])
            else:
                axis = int(m["axis"])
                if not 1 <= axis <= grid.dim:
                    raise InputError(f"expression {text!r} uses x{axis}, outside x1..x{grid.dim}")
                factors.append((m["trig"], axis - 1))
            op = _TIMES.match(text, m.end())
        terms.append((coeff, tuple(factors)))
        pos = m.end()
    return terms


def _factor_tables(factor, grid):
    """(f, f', f'') of one sin/cos factor as broadcastable grid arrays."""
    kind, axis = factor
    x = grid.coordinate(axis)
    if kind == "sin":
        s, c = np.sin(x), np.cos(x)
        return s, c, -s
    c, s = np.cos(x), np.sin(x)
    return c, -s, -c


# a coefficient such as 1e999 (inf) makes non-finite entries, which the
# gating of the inputs names; computing them raises no warning
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def evaluate(text, grid):
    """Field values of the expression `text` at its own rank: axis i has the
    grid's length where some factor reads x_{i+1} and length 1 elsewhere, so
    a constant is one number and the result broadcasts to grid.shape."""
    out = np.zeros((1,) * grid.dim)
    for coeff, factors in _parse(text, grid):
        acc = np.full((1,) * grid.dim, coeff)
        for factor in factors:
            acc = acc * _factor_tables(factor, grid)[0]
        out = out + acc
    return out


@_QUIET
def analytic_jet(text, grid):
    """Exact value/gradient/Hessian/Laplacian of the expression at the nodes,
    in the component-plane layout of grid.JetField.

    Product rule over the factors of each term; factors touching the same
    axis are handled by the general pairwise expansion, so repeated-axis
    products like sin(x1)*sin(x1) differentiate correctly.
    """
    n = grid.dim
    grad = np.zeros((n,) + grid.shape)
    hess = np.zeros((n, n) + grid.shape)
    for coeff, factors in _parse(text, grid):
        tables = [_factor_tables(f, grid) for f in factors]
        axes = [f[1] for f in factors]
        m = len(tables)

        def product_except(skip):
            acc = np.full((1,) * n, coeff)
            for r in range(m):
                if r not in skip:
                    acc = acc * tables[r][0]
            return acc

        for a in range(m):
            grad[axes[a]] += tables[a][1] * product_except((a,))
            hess[axes[a], axes[a]] += tables[a][2] * product_except((a,))
            for b in range(m):
                if b == a:
                    continue
                hess[axes[a], axes[b]] += tables[a][1] * tables[b][1] * product_except((a, b))
    lap = np.trace(hess)
    # a copy, not a sum with zeros, which would turn -0.0 into 0.0
    value = np.broadcast_to(evaluate(text, grid), grid.shape).copy()
    return JetField(value=value, grad_planes=grad, hess_planes=hess, laplacian=lap)
