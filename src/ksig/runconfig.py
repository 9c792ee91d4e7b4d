"""Declarative run configuration: INI sections -> problem objects.

Grammar (all keys optional unless noted; the keys of each section are the
fields of ProblemConfig, SolverConfig and OutputConfig):

    [problem]
    n = 3                 # required, ambient dimension, 3..5
    k = 3                 # required, cone index, 3 <= k <= n
    tau = 0.0
    resolution = 16       # nodes per axis, even, >= 8
    background = hyperbolic-like
        # hyperbolic-like        constant tensor B = -g0
        # spaceform:<kappa>      constant-curvature tensor (kappa < 0 usable)
        # file:<prefix>          per-node tensor from <prefix>_B<i><j>.ksig
    alpha = 0.2*sin(x1)   # expression or file:<path>
    alpha_l = 1.0         # one entry broadcast to all l, or k-1 comma-separated
    u_star = 0.1*sin(x1)*cos(x2)   # manufacture only

    [solver]
    residual_tol = 1e-9
    max_newton = 30
    dt_init = 0.1
    dt_min = 1e-4

    [output]
    directory = runs/out  # overridden by $KSIG_OUTDIR when set

Field expressions are sums of terms `coeff * factor * ...` where each factor
is sin(xJ) or cos(xJ); that closed set covers every built-in problem.
"""

from __future__ import annotations

import configparser
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fieldexpr, geometry
from .grid import PeriodicGrid, read_field
from .solver import SolverConfig

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "build_problem",
    "field_from_spec",
    "background_from_spec",
    "resolve_output_dir",
]


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class ProblemConfig:
    n: int
    k: int
    tau: float
    resolution: int
    background: str
    alpha: str
    alpha_l: str
    u_star: str | None


@dataclass(frozen=True)
class OutputConfig:
    directory: str


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    solver: SolverConfig
    output: OutputConfig


_PROBLEM_KEYS = {f.name for f in fields(ProblemConfig)}
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)}
_OUTPUT_KEYS = {f.name for f in fields(OutputConfig)}


def _check_keys(parser, section, allowed):
    if not parser.has_section(section):
        return
    unknown = set(parser.options(section)) - allowed
    if unknown:
        raise ConfigError(f"unknown [{section}] keys: {sorted(unknown)}")


def _get(parser, section, key, cast, default):
    if parser.has_section(section) and parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


@contextmanager
def _input_error(context):
    """Report a ValueError raised by a constructor that checks user input as
    a ConfigError; wrap only such constructors, never computation."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _read_values(path, grid):
    try:
        _, values = read_field(path, grid)
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    return values


def load_config(path):
    """Parse an INI run configuration; unknown sections or keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    extra = set(parser.sections()) - {"problem", "solver", "output"}
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    _check_keys(parser, "problem", _PROBLEM_KEYS)
    _check_keys(parser, "solver", _SOLVER_KEYS)
    _check_keys(parser, "output", _OUTPUT_KEYS)

    if not parser.has_section("problem"):
        raise ConfigError("missing [problem] section")
    for key in ("n", "k"):
        if not parser.has_option("problem", key):
            raise ConfigError(f"[problem] {key} is required")

    problem = ProblemConfig(
        n=_get(parser, "problem", "n", int, None),
        k=_get(parser, "problem", "k", int, None),
        tau=_get(parser, "problem", "tau", float, 0.0),
        resolution=_get(parser, "problem", "resolution", int, 16),
        background=_get(parser, "problem", "background", str, "hyperbolic-like").strip(),
        alpha=_get(parser, "problem", "alpha", str, "0").strip(),
        alpha_l=_get(parser, "problem", "alpha_l", str, "1").strip(),
        u_star=_get(parser, "problem", "u_star", str, None),
    )
    # every SolverConfig field has a default, whose type is the key's type
    settings = {
        f.name: _get(parser, "solver", f.name, type(f.default), f.default)
        for f in fields(SolverConfig)
    }
    with _input_error("[solver]"):
        solver_cfg = SolverConfig(**settings)
    output = OutputConfig(directory=_get(parser, "output", "directory", str, "ksig-out"))
    return RunConfig(problem=problem, solver=solver_cfg, output=output)


def field_from_spec(spec, grid, base=None):
    """Evaluate `file:<path>` or a field expression on the grid."""
    spec = spec.strip()
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):].strip())
        if base is not None and not path.is_absolute():
            path = Path(base) / path
        return _read_values(path, grid)
    return fieldexpr.evaluate(spec, grid)


def background_from_spec(spec, grid, tau, base=None):
    spec = spec.strip()
    if spec == "hyperbolic-like":
        return geometry.flat_background(grid, tau=tau)
    if spec.startswith("spaceform:"):
        try:
            kappa = float(spec[len("spaceform:"):])
        except ValueError as exc:
            raise ConfigError(f"bad spaceform curvature in {spec!r}") from exc
        B = geometry.spaceform_schouten(kappa, grid.dim, tau)
        return geometry.flat_background(grid, tau=tau, B=B)
    if spec.startswith("file:"):
        prefix = spec[len("file:"):].strip()
        pre = Path(prefix)
        if base is not None and not pre.is_absolute():
            pre = Path(base) / pre
        n = grid.dim
        B = np.zeros(grid.shape + (n, n))
        for i in range(n):
            for j in range(i, n):
                comp = _read_values(Path(f"{pre}_B{i}{j}.ksig"), grid)
                B[..., i, j] = comp
                B[..., j, i] = comp
        with _input_error(f"background {spec!r}"):
            return geometry.flat_background(grid, tau=tau, B=B)
    raise ConfigError(f"unknown background spec: {spec!r}")


def _split_alpha_l(spec, k):
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if len(parts) == 1:
        return parts * (k - 1)
    if len(parts) != k - 1:
        raise ConfigError(f"alpha_l needs 1 or k-1={k - 1} entries, got {len(parts)}")
    return parts


def build_problem(cfg, base=None):
    """Instantiate (grid, background, coeff) from a RunConfig.

    `base` resolves relative file: paths (defaults to the working directory).
    """
    p = cfg.problem
    with _input_error("[problem]"):
        grid = PeriodicGrid(dim=p.n, resolution=p.resolution)
    background = background_from_spec(p.background, grid, p.tau, base=base)
    alpha = field_from_spec(p.alpha, grid, base=base)
    parts = _split_alpha_l(p.alpha_l, p.k)
    alpha_l = np.stack([field_from_spec(s, grid, base=base) for s in parts])
    with _input_error("[problem]"):
        coeff = geometry.CoefficientData(grid=grid, k=p.k, alpha=alpha, alpha_l=alpha_l)
    return grid, background, coeff


def resolve_output_dir(directory):
    """The configured output directory, or $KSIG_OUTDIR when that is set."""
    return Path(os.environ.get("KSIG_OUTDIR") or directory)
