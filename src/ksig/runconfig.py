"""Declarative run configuration: INI sections -> problem objects.

The dataclasses are the schema.  Section [problem] holds the fields of
ProblemConfig, [solver] those of SolverConfig and [output] those of
OutputConfig; each value is cast to its field's type, an absent key takes
its field's default, and a field without a default is required.
`write_config` writes a RunConfig as the INI that `load_config` reads back.
The keys, at their defaults:

    [problem]
    n                     # required, ambient dimension, 3..5
    k                     # required, cone index, 3 <= k <= n
    tau = 0.0
    resolution = 16       # nodes per axis, even, >= 8
    background = hyperbolic-like
        # hyperbolic-like        constant tensor B = -g0
        # spaceform:<kappa>      constant-curvature tensor (kappa < 0 usable)
        # file:<prefix>          per-node tensor from <prefix>_B<i><j>.ksig
    alpha = 0             # expression or file:<path>
    alpha_l = 1           # one entry broadcast to all l, or k-1 comma-separated
    u_star                # manufacture only, no default

    [solver]
    residual_tol = 1e-9
    max_newton = 30
    dt_init = 0.1
    dt_min = 1e-4

    [output]
    directory = ksig-out  # overridden by $KSIG_OUTDIR when set

Field expressions are sums of terms `coeff * factor * ...` where each factor
is sin(xJ) or cos(xJ); that closed set covers every built-in problem.
"""

import configparser
import os
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import fieldexpr, geometry
from .artifacts import replacing
from .grid import PeriodicGrid, read_field
from .solver import SolverConfig

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "write_config",
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
    tau: float = 0.0
    resolution: int = 16
    background: str = "hyperbolic-like"
    alpha: str = "0"
    alpha_l: str = "1"
    u_star: str | None = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "ksig-out"


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    solver: SolverConfig
    output: OutputConfig


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


def _read_section(parser, section, schema):
    """The `schema` dataclass from INI section `section`: each key's text is
    cast to its field's type, and an absent key leaves its field's default."""
    keys = parser.options(section) if parser.has_section(section) else []
    unknown = set(keys) - {f.name for f in fields(schema)}
    if unknown:
        raise ConfigError(f"unknown [{section}] keys: {sorted(unknown)}")
    types = typing.get_type_hints(schema)
    values = {}
    for f in fields(schema):
        if f.name in keys:
            hint = types[f.name]
            # an optional field (`T | None`) casts its text to T
            cast = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
            raw = parser.get(section, f.name)
            try:
                values[f.name] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {f.name} = {raw!r}: {exc}") from exc
        elif f.default is MISSING:
            if not parser.has_section(section):
                raise ConfigError(f"missing [{section}] section")
            raise ConfigError(f"[{section}] {f.name} is required")
    with _input_error(f"[{section}]"):
        return schema(**values)


def load_config(path):
    """Parse an INI run configuration; unknown sections or keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: every value is its text, so a `%` is not a syntax error
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sections = typing.get_type_hints(RunConfig)
    extra = set(parser.sections()) - set(sections)
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    return RunConfig(**{name: _read_section(parser, name, schema) for name, schema in sections.items()})


def write_config(path, cfg):
    """Write the RunConfig `cfg` as the INI that load_config reads back:
    one section per RunConfig field, with None values left out."""
    lines = []
    for section in fields(cfg):
        settings = getattr(cfg, section.name)
        lines.append(f"[{section.name}]")
        for f in fields(settings):
            value = getattr(settings, f.name)
            if value is not None:
                # a float formats as its repr, which reads back exactly
                lines.append(f"{f.name} = {value}")
        lines.append("")
    with replacing(path) as tmp:
        tmp.write_text("\n".join(lines))


def field_from_spec(spec, grid, base):
    """Evaluate `file:<path>`, relative to the directory `base`, or a field
    expression on the grid."""
    spec = spec.strip()
    if spec.startswith("file:"):
        return _read_values(Path(base, spec[len("file:"):].strip()), grid)
    return fieldexpr.evaluate(spec, grid)


def background_from_spec(spec, grid, tau, base):
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
        pre = Path(base, spec[len("file:"):].strip())
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


def build_problem(cfg, base):
    """Instantiate (grid, background, coeff) from a RunConfig; relative
    file: paths resolve against the directory `base`."""
    p = cfg.problem
    with _input_error("[problem]"):
        grid = PeriodicGrid(dim=p.n, resolution=p.resolution)
    background = background_from_spec(p.background, grid, p.tau, base)
    alpha = field_from_spec(p.alpha, grid, base)
    parts = _split_alpha_l(p.alpha_l, p.k)
    alpha_l = np.stack([field_from_spec(s, grid, base) for s in parts])
    with _input_error("[problem]"):
        coeff = geometry.CoefficientData(grid=grid, k=p.k, alpha=alpha, alpha_l=alpha_l)
    return grid, background, coeff


def resolve_output_dir(directory):
    """The configured output directory, or $KSIG_OUTDIR when that is set."""
    return Path(os.environ.get("KSIG_OUTDIR") or directory)
