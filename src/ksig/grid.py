"""Periodic uniform grids on the 2*pi torus: the grid, the jet layout, norms, field I/O.

Scalar fields are plain float64 arrays of shape grid.shape; the grid object
travels alongside them.  `JetField` lays out a field's value and derivatives
as component planes; `mirror`, `dot_planes` and `worst_node` are the
package's helpers for fields and component planes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import InputError
from .artifacts import replacing

__all__ = [
    "PeriodicGrid",
    "JetField",
    "dot_planes",
    "mirror",
    "sup_norm",
    "worst_node",
    "write_field",
    "read_field",
]

_MAGIC = b"KSIG"
_VERSION = 1
_HEADER = struct.Struct("<4sBBI")  # magic, version, dim, resolution


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform N^n grid on [0, 2*pi)^n with periodic identification."""

    dim: int
    resolution: int

    def __post_init__(self):
        if not 3 <= self.dim <= 5:
            raise ValueError(f"grid dimension {self.dim} outside [3, 5]")
        if self.resolution < 8 or self.resolution % 2 != 0:
            raise ValueError(f"grid resolution {self.resolution} must be even and >= 8")
        # a jet's n^2 Hessian planes are the largest array on a grid
        if self.dim**2 * self.node_count * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"grid resolution {self.resolution} is too large at n = {self.dim}: its n^2 Hessian "
                f"planes would exceed numpy's largest array, {np.iinfo(np.intp).max} bytes"
            )

    @property
    def spacing(self):
        return 2.0 * np.pi / self.resolution

    @property
    def shape(self):
        return (self.resolution,) * self.dim

    @property
    def node_count(self):
        return self.resolution**self.dim

    def coordinate(self, axis):
        """Node coordinate along the 0-based `axis` (fieldexpr's xJ is J-1), broadcastable."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} outside [0, {self.dim})")
        shape = [1] * self.dim
        shape[axis] = self.resolution
        return (self.spacing * np.arange(self.resolution)).reshape(shape)

    def zeros(self):
        return np.zeros(self.shape)


@dataclass(frozen=True)
class JetField:
    """Value, gradient, Hessian and Laplacian of a grid field.

    The derivatives are stored as contiguous component planes, each of
    grid.shape: grad_planes[i] is D_i f, shape (n, *grid.shape), and
    hess_planes[i, j] is D_ij f, shape (n, n, *grid.shape), with both
    triangles filled.  laplacian is the exact trace of the stored Hessian.
    """

    value: np.ndarray
    grad_planes: np.ndarray
    hess_planes: np.ndarray
    laplacian: np.ndarray


def dot_planes(a, b):
    """Per-node dot product sum_i a_i b_i of component planes (n, *shape), n >= 2.

    The even- and the odd-indexed products are summed separately and then
    added: the order numpy's einsum takes over a short contiguous axis (two
    SIMD lanes), so the result is bit-identical to
    einsum("...i,...i->...") on the (*shape, n) layout.
    """
    lanes = [a[0] * b[0], a[1] * b[1]]
    for i in range(2, len(a)):
        lanes[i % 2] += a[i] * b[i]
    return lanes[0] + lanes[1]


def mirror(P):
    """Copy the upper triangle of the component planes P (n, n, ...) onto the
    lower one, in place."""
    for a in range(1, P.shape[0]):
        P[a, :a] = P[:a, a]


def sup_norm(values):
    return float(np.abs(values).max())


def worst_node(values):
    """(node tuple, value) of the smallest entry of a per-node field."""
    idx = np.unravel_index(int(np.argmin(values)), values.shape)
    return tuple(int(i) for i in idx), float(values[idx])


def write_field(path, grid, values):
    """Self-describing little-endian binary: KSIG header + row-major float64."""
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        bad, _ = worst_node(np.isfinite(values))
        raise ValueError(f"refusing to write non-finite value at node {bad}")
    header = _HEADER.pack(_MAGIC, _VERSION, grid.dim, grid.resolution)
    with replacing(path) as tmp:
        tmp.write_bytes(header + values.tobytes())


def read_field(path, grid=None):
    """Read a field file; returns (grid, values).

    If `grid` is given the header must match it exactly.  Unreadable files, malformed
    headers, payload size mismatches and non-finite entries raise InputError.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read field file {path}: {exc.strerror}") from exc
    if len(data) < _HEADER.size:
        raise InputError(f"{path}: truncated header")
    magic, version, dim, resolution = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise InputError(f"{path}: bad magic {magic!r}, not a field file")
    if version != _VERSION:
        raise InputError(f"{path}: unsupported format version {version}")
    try:
        file_grid = PeriodicGrid(dim, resolution)
    except ValueError as exc:
        raise InputError(f"{path}: invalid header ({exc})") from exc
    if grid is not None and file_grid != grid:
        raise InputError(
            f"{path}: dimension mismatch: file has n={dim}, N={resolution}; "
            f"expected n={grid.dim}, N={grid.resolution}"
        )
    payload = data[_HEADER.size :]
    expected = file_grid.node_count * 8
    if len(payload) != expected:
        raise InputError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(file_grid.shape).copy()
    finite = np.isfinite(values)
    if not finite.all():
        bad, _ = worst_node(finite)
        raise InputError(f"{path}: non-finite value at node {bad}")
    return file_grid, values

