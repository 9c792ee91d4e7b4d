"""Numerical tools for sigma_k-quotient curvature equations on periodic grids.

The package covers the algebra of elementary symmetric polynomials on
Garding cones, assembly of the conformally transformed tensor from a
solution jet, a damped-Newton homotopy continuation solver, randomized
verification of the supporting matrix inequalities, and a small batch CLI.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """The input is at fault: a malformed config, field file, expression or
    monitor CSV, data that breaks a solvability hypothesis, or an output
    path that cannot be made.  `ksig` exits 2 on it; any other exception is
    a program error."""
