"""A tiny closed expression language for grid fields.

Grammar (whitespace-insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | 'sin(' AXIS ')' | 'cos(' AXIS ')'
    AXIS   := 'x' DIGIT            # 1-based coordinate index

i.e. sums of signed products of constants and single-coordinate sine/cosine
waves: "1", "0.2*sin(x1)", "1 + 0.1*cos(x2)*sin(x1) - 3e-2*sin(x3)".  The
set is closed under the exact first and second derivatives the solver needs,
so manufactured solutions get analytic jets rather than stencil jets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .grid import JetField

__all__ = ["ExprError", "FieldExpr", "parse_field_expr", "evaluate", "analytic_jet"]


class ExprError(ValueError):
    """Unparseable field expression."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<trig>sin|cos)\(\s*x(?P<axis>\d+)\s*\)"
    r"|(?P<op>[+\-*]))"
)


@dataclass(frozen=True)
class _Term:
    coeff: float
    factors: tuple  # of (kind, axis0) with kind in {"sin", "cos"}, axis0 zero-based


@dataclass(frozen=True)
class FieldExpr:
    text: str
    terms: tuple  # of _Term

    def max_axis(self):
        return max((a for t in self.terms for _, a in t.factors), default=-1)


def _tokens(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"cannot parse field expression at '{text[pos:].strip()[:20]}'")
            break
        if m.group("num") is not None:
            out.append(("num", float(m.group("num"))))
        elif m.group("trig") is not None:
            axis = int(m.group("axis"))
            if axis < 1:
                raise ExprError(f"coordinate index must be >= 1, got x{axis}")
            out.append(("trig", (m.group("trig"), axis - 1)))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def parse_field_expr(text):
    """Parse into a sum of product terms; raises ExprError on anything else."""
    toks = _tokens(text)
    if not toks:
        raise ExprError("empty field expression")
    terms = []
    i = 0
    while i < len(toks):
        sign = 1.0
        while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        coeff = sign
        factors = []
        expecting_factor = True
        while i < len(toks):
            kind, val = toks[i]
            if expecting_factor:
                if kind == "num":
                    coeff *= val
                elif kind == "trig":
                    factors.append(val)
                else:
                    raise ExprError(f"expected a number or sin/cos, got '{val}' in {text!r}")
                expecting_factor = False
                i += 1
            else:
                if kind == "op" and val == "*":
                    expecting_factor = True
                    i += 1
                elif kind == "op":
                    break  # +/- starts the next term
                else:
                    raise ExprError(f"missing operator before '{val}' in {text!r}")
        if expecting_factor:
            raise ExprError(f"dangling operator in {text!r}")
        terms.append(_Term(coeff=coeff, factors=tuple(factors)))
    return FieldExpr(text=text, terms=tuple(terms))


def _factor_tables(factor, grid):
    """(f, f', f'') of one sin/cos factor as broadcastable grid arrays."""
    kind, axis = factor
    x = grid.coordinate(axis)
    if kind == "sin":
        s, c = np.sin(x), np.cos(x)
        return s, c, -s
    c, s = np.cos(x), np.sin(x)
    return c, -s, -c


def _check_axes(expr, grid):
    top = expr.max_axis()
    if top >= grid.dim:
        raise ExprError(
            f"expression {expr.text!r} uses x{top + 1} but the grid has {grid.dim} axes"
        )


# a coefficient such as 1e999 (inf) makes non-finite entries, which the
# gating of the inputs names; computing them raises no warning
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def evaluate(expr, grid):
    """Field values of shape grid.shape."""
    if isinstance(expr, str):
        expr = parse_field_expr(expr)
    _check_axes(expr, grid)
    out = np.zeros(grid.shape)
    for term in expr.terms:
        acc = np.full((1,) * grid.dim, term.coeff)
        for factor in term.factors:
            acc = acc * _factor_tables(factor, grid)[0]
        out += acc
    return out


@_QUIET
def analytic_jet(expr, grid):
    """Exact value/gradient/Hessian/Laplacian of the expression at the nodes,
    in the component-plane layout of grid.JetField.

    Product rule over the factors of each term; factors touching the same
    axis are handled by the general pairwise expansion, so repeated-axis
    products like sin(x1)*sin(x1) differentiate correctly.
    """
    if isinstance(expr, str):
        expr = parse_field_expr(expr)
    _check_axes(expr, grid)
    n = grid.dim
    value = np.zeros(grid.shape)
    grad = np.zeros((n,) + grid.shape)
    hess = np.zeros((n, n) + grid.shape)
    for term in expr.terms:
        tables = [_factor_tables(f, grid) for f in term.factors]
        axes = [f[1] for f in term.factors]
        m = len(tables)

        def product_except(skip):
            acc = np.full((1,) * n, term.coeff)
            for r in range(m):
                if r in skip:
                    continue
                acc = acc * tables[r][0]
            return acc

        value += product_except(())
        for a in range(m):
            d1 = tables[a][1] * product_except((a,))
            grad[axes[a]] += d1
            hess[axes[a], axes[a]] += tables[a][2] * product_except((a,))
            for b in range(m):
                if b == a:
                    continue
                cross = tables[a][1] * tables[b][1] * product_except((a, b))
                hess[axes[a], axes[b]] += cross
    lap = np.trace(hess)
    return JetField(value=value, grad_planes=grad, hess_planes=hess, laplacian=lap)
