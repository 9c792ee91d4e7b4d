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
    residual_tol = 1e-9   # the Newton limit and the step controls are solver constants

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

from . import InputError, fieldexpr, geometry
from .artifacts import replacing
from .grid import PeriodicGrid, mirror, read_field
from .solver import SolverConfig

__all__ = [
    "ProblemConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "write_config",
    "build_problem",
    "field_from_spec",
    "resolve_output_dir",
]


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
    """Report a ValueError raised inside as an InputError prefixed with `context`.
    Wrap only what checks input (a validating constructor, a cast of config
    text), never computation, where a ValueError is a program error."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"{context}: {exc}") from exc


def _read_section(parser, section, schema):
    """The `schema` dataclass from INI section `section`: each key's text is
    cast to its field's type, and an absent key leaves its field's default."""
    keys = parser.options(section) if parser.has_section(section) else []
    unknown = set(keys) - {f.name for f in fields(schema)}
    if unknown:
        raise InputError(f"unknown [{section}] keys: {sorted(unknown)}")
    types = typing.get_type_hints(schema)
    values = {}
    for f in fields(schema):
        if f.name in keys:
            hint = types[f.name]
            # an optional field (`T | None`) casts its text to T
            cast = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
            raw = parser.get(section, f.name)
            with _input_error(f"[{section}] {f.name} = {raw!r}"):
                values[f.name] = cast(raw)
        elif f.default is MISSING:
            if not parser.has_section(section):
                raise InputError(f"missing [{section}] section")
            raise InputError(f"[{section}] {f.name} is required")
    with _input_error(f"[{section}]"):
        return schema(**values)


def load_config(path):
    """Parse an INI run configuration; unknown sections or keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    # no interpolation: every value is its text, so a `%` is not a syntax error
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        # configparser lists each bad line on a line of its own; the error is one line
        reason = "; ".join(line.strip() for line in str(exc).splitlines())
        raise InputError(f"cannot parse {path}: {reason}") from exc
    sections = typing.get_type_hints(RunConfig)
    extra = set(parser.sections()) - set(sections)
    if extra:
        raise InputError(f"unknown sections: {sorted(extra)}")
    return RunConfig(**{name: _read_section(parser, name, schema) for name, schema in sections.items()})


def write_config(path, cfg):
    """Write the RunConfig `cfg` as the INI that load_config reads back:
    one section per RunConfig field, with None values left out and every
    line of a multi-line value after its first indented, as a continuation."""
    lines = []
    for section in fields(cfg):
        settings = getattr(cfg, section.name)
        lines.append(f"[{section.name}]")
        for f in fields(settings):
            value = getattr(settings, f.name)
            if value is not None:
                # a float formats as its repr, which reads back exactly
                text = str(value).replace("\n", "\n    ")
                lines.append(f"{f.name} = {text}")
        lines.append("")
    with replacing(path) as tmp:
        tmp.write_text("\n".join(lines))


def field_from_spec(spec, grid, base):
    """The field `file:<path>`, read relative to the directory `base` as a
    full grid, or a field expression evaluated at its own rank."""
    spec = spec.strip()
    if spec.startswith("file:"):
        return read_field(Path(base, spec[len("file:"):].strip()), grid)[1]
    return fieldexpr.evaluate(spec, grid)


def _background_planes(spec, grid, tau, base):
    """B's component planes from the background spec: -I or the space-form
    tensor at its own rank, or full planes from <prefix>_B<i><j>.ksig."""
    spec = spec.strip()
    if spec == "hyperbolic-like":
        B = -np.eye(grid.dim)
    elif spec.startswith("spaceform:"):
        try:
            kappa = float(spec[len("spaceform:"):])
        except ValueError as exc:
            raise InputError(f"bad spaceform curvature in {spec!r}") from exc
        B = geometry.spaceform_schouten(kappa, grid.dim, tau)
    elif spec.startswith("file:"):
        pre = Path(base, spec[len("file:"):].strip())
        planes = np.empty((grid.dim, grid.dim) + grid.shape)
        for i in range(grid.dim):
            for j in range(i, grid.dim):
                planes[i, j] = read_field(Path(f"{pre}_B{i}{j}.ksig"), grid)[1]
        mirror(planes)
        return planes
    else:
        raise InputError(f"unknown background spec: {spec!r}")
    return B.reshape((grid.dim, grid.dim) + (1,) * grid.dim)


def _split_alpha_l(spec, k):
    parts = [p.strip() for p in spec.split(",")]
    if not all(parts):
        raise InputError(f"alpha_l = {spec!r} has an empty entry")
    if len(parts) not in (1, k - 1):
        raise InputError(f"alpha_l needs 1 or k-1={k - 1} entries, got {len(parts)}")
    return parts


def build_problem(cfg, base):
    """The geometry.Problem of a RunConfig; relative file: paths resolve
    against the directory `base`."""
    p = cfg.problem
    with _input_error("[problem]"):
        grid = PeriodicGrid(dim=p.n, resolution=p.resolution)
    B_planes = _background_planes(p.background, grid, p.tau, base)
    alpha = field_from_spec(p.alpha, grid, base)
    parts = _split_alpha_l(p.alpha_l, p.k)
    alpha_l = np.stack(np.broadcast_arrays(*(field_from_spec(s, grid, base) for s in parts)))
    return geometry.Problem(grid=grid, k=p.k, tau=p.tau, B_planes=B_planes, alpha=alpha, alpha_l=alpha_l)


def resolve_output_dir(directory):
    """The configured output directory, or $KSIG_OUTDIR when that is set."""
    return Path(os.environ.get("KSIG_OUTDIR") or directory)
