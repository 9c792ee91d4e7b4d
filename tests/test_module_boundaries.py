"""Module boundaries: no ksig module reaches into another's private names,
every name a module exports has a caller inside the package, every
import of a sibling module sits at module level, the third-party
packages the modules import are exactly the declared dependencies, no
module holds an array at module level, `InputError` is the package's
one exception class, no module moves a batch of matrices out of its
component planes, and the sources and CI hold to the Python floor that
pyproject.toml declares.

A name with a leading underscore is an implementation detail of its own
module; a name in `__all__` that only tests reach is test scaffolding in the
package; an import inside a function hides a dependency that the package
has no import cycle to excuse.  Parsing each source file keeps these rules
checked without a linter.
"""

import ast
import builtins
import importlib
import os
import re
import subprocess
import symtable
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ksig
from conftest import make_problem
from ksig import monitors, solver
from ksig.grid import PeriodicGrid

SRC = Path(ksig.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
WORKFLOW = PYPROJECT.parent / ".github" / "workflows" / "tier1.yml"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def sibling_imports(tree, modules):
    """(node, target, alias) for each name a `from` import binds out of the
    package: target is the sibling module it comes from, or None when the
    import binds a sibling module itself."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 1 or parts[0] == "ksig":
            target = parts[-1] if parts[-1] not in ("", "ksig") else None
            for alias in node.names:
                if target is not None or alias.name in modules:
                    yield node, target, alias


def module_attributes(tree, aliases):
    """(node, module, attribute) for each `alias.attribute` with alias bound to a sibling module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = aliases.get(node.value.id)
            if target is not None:
                yield node, target, node.attr


def foreign_private_uses(path):
    """`module._name` accesses and `from module import _name` imports that
    cross from the file at `path` into another ksig module."""
    own = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name bound to a sibling module -> that module
    hits = []
    for node, target, alias in sibling_imports(tree, MODULES):
        if target is None:
            aliases[alias.asname or alias.name] = alias.name
        elif target != own and _private(alias.name):
            hits.append(f"{path.name}:{node.lineno}: from {target} import {alias.name}")
    for node, target, attr in module_attributes(tree, aliases):
        if target != own and _private(attr):
            hits.append(f"{path.name}:{node.lineno}: {node.value.id}.{attr}")
    return hits


def nested_sibling_imports(path):
    """Imports of sibling ksig modules in the file at `path` that are not
    top-level statements of the module: inside a function, a class or a
    block."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = {node for node, _, _ in sibling_imports(tree, MODULES) if node not in tree.body}
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in sorted(nested, key=lambda node: node.lineno)
    ]


def global_references(table, inside=None):
    """(name, inside) for each global name read in `table` or a scope nested
    in it; inside is the top-level definition the read sits in.  Parameters
    and locals of the same name are the symbol table's to tell apart."""
    module = table.get_type() == "module"
    for sym in table.get_symbols():
        if sym.is_referenced() and (module or sym.is_global()):
            yield sym.get_name(), inside
    for child in table.get_children():
        yield from global_references(child, child.get_name() if module else inside)


def unreferenced_exports(src):
    """`module.name` for each name in a module's `__all__` that no module
    under `src` reads outside the name's own definition."""
    paths = sorted(src.glob("*.py"))
    modules = {path.stem for path in paths}
    exports = {}
    used = set()
    for path in paths:
        own = path.stem
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exports[own] = ast.literal_eval(node.value)
        aliases = {}
        imported = {}  # local name -> (module, name) it was imported from
        for _, target, alias in sibling_imports(tree, modules):
            local = alias.asname or alias.name
            if target is None:
                aliases[local] = alias.name
            else:
                imported[local] = (target, alias.name)
        for name, inside in global_references(symtable.symtable(text, str(path), "exec")):
            if name in imported:
                used.add(imported[name])
            elif name != inside:
                used.add((own, name))
        used.update((target, attr) for _, target, attr in module_attributes(tree, aliases))
    return [
        f"{module}.{name}"
        for module, names in sorted(exports.items())
        for name in names
        if (module, name) not in used
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert foreign_private_uses(path) == []


def test_boundary_check_sees_attribute_and_import_forms(tmp_path):
    probe = tmp_path / "cli.py"
    probe.write_text(
        "from . import runconfig\n"
        "from .grid import _HEADER\n"
        "from . import __version__\n"
        "runconfig._helper()\n"
        "runconfig.load_config\n"
    )
    assert foreign_private_uses(probe) == [
        "cli.py:2: from grid import _HEADER",
        "cli.py:4: runconfig._helper",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sibling_imports_sit_at_module_level(path):
    assert nested_sibling_imports(path) == []


def test_import_check_sees_imports_inside_functions_and_classes(tmp_path):
    probe = tmp_path / "solver.py"
    probe.write_text(
        "import math\n"
        "from . import grid\n"
        "from .cones import quotient_eval\n"
        "def run():\n"
        "    import json\n"
        "    from . import monitors\n"
        "    if True:\n"
        "        from ksig.grid import shift, mirror\n"
        "class Holder:\n"
        "    from .operator import evaluate\n"
    )
    assert nested_sibling_imports(probe) == [
        "solver.py:6: from . import monitors",
        "solver.py:8: from ksig.grid import shift, mirror",
        "solver.py:10: from .operator import evaluate",
    ]


def test_every_export_has_a_caller_in_the_package():
    assert unreferenced_exports(SRC) == []


def test_export_check_tells_globals_from_locals(tmp_path):
    (tmp_path / "grid.py").write_text(
        "__all__ = ['imported', 'attribute', 'shadowed', 'recursive', 'module_level', 'unused']\n"
        "def imported(): pass\n"
        "def attribute(): pass\n"
        "def shadowed(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def module_level(): pass\n"
        "def unused(): pass\n"
        "ALIAS = module_level\n"
    )
    (tmp_path / "cli.py").write_text(
        "from .grid import imported, shadowed\n"
        "from . import grid\n"
        "class Failure(Exception):\n"
        "    def __init__(self, shadowed=None):\n"
        "        self.shadowed = shadowed\n"
        "def main():\n"
        "    return [imported() for _ in range(2)], grid.attribute\n"
    )
    assert unreferenced_exports(tmp_path) == ["grid.shadowed", "grid.recursive", "grid.unused"]


# np.moveaxis sources and destinations that turn component planes (n, n, ...)
# into (..., n, n) matrices or back, or put a table's leading axis last; a
# batch of small matrices has one layout, its planes
LAYOUT_MOVES = {"(0, 1), (-2, -1)", "(-2, -1), (0, 1)", "0, -1"}


def layout_conversions(path):
    """`file:line: call` for each np.moveaxis call in the file at `path`
    whose axes are one of LAYOUT_MOVES."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "moveaxis":
            axes = ", ".join(ast.unparse(arg) for arg in [*node.args[1:], *(kw.value for kw in node.keywords)])
            if axes in LAYOUT_MOVES:
                hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return hits


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_converts_a_batch_between_layouts(path):
    assert layout_conversions(path) == []


def test_layout_check_sees_every_conversion(tmp_path):
    # the (-1, 0) move that hands eigvalsh its (nodes, n, n) view is allowed
    probe = tmp_path / "monitors.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy import moveaxis\n"
        "a = np.moveaxis(G, (0, 1), (-2, -1))\n"
        "b = moveaxis(G, (-2, -1), (0, 1))\n"
        "c = np.moveaxis(sig, source=0, destination=-1)\n"
        "d = np.linalg.eigvalsh(np.moveaxis(G, -1, 0))\n"
    )
    assert layout_conversions(probe) == [
        "monitors.py:3: np.moveaxis(G, (0, 1), (-2, -1))",
        "monitors.py:4: moveaxis(G, (-2, -1), (0, 1))",
        "monitors.py:5: np.moveaxis(sig, source=0, destination=-1)",
    ]


def exception_classes(src):
    """`file:Class` for each class defined under `src` that derives from a
    built-in exception, directly or through other classes defined there."""
    bases = {}  # class name -> (label, names of its bases)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                names = [ast.unparse(base).split(".")[-1] for base in node.bases]
                bases[node.name] = (f"{path.name}:{node.name}", names)

    def derives(name, seen=()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name in bases and name not in seen and any(derives(b, (*seen, name)) for b in bases[name][1])

    return sorted(label for name, (label, _) in bases.items() if derives(name))


def test_input_error_is_the_only_exception_class():
    # one class says "the input is at fault", and cli.main alone maps it to exit 2
    assert exception_classes(SRC) == ["__init__.py:InputError"]


def test_exception_check_sees_subclasses(tmp_path):
    (tmp_path / "grid.py").write_text(
        "class Foo(ValueError):\n    pass\n"
        "class Bar(Foo):\n    pass\n"
        "class Plain:\n    pass\n"
        "class Child(Plain):\n    pass\n"
    )
    (tmp_path / "cli.py").write_text("import builtins\nclass Stop(builtins.RuntimeError):\n    pass\n")
    assert exception_classes(tmp_path) == ["cli.py:Stop", "grid.py:Bar", "grid.py:Foo"]


def third_party_imports(src):
    """Top-level names of the packages that modules under `src` import,
    leaving out the standard library and the package itself."""
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"ksig"}


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert third_party_imports(SRC) == {re.match(r"[\w.-]+", spec).group() for spec in declared} == {"numpy"}


def version(text):
    """(major, minor) of a version string such as "3.10"."""
    return tuple(int(part) for part in text.split("."))


def python_floor():
    """The oldest Python that pyproject.toml's requires-python admits."""
    tomllib = pytest.importorskip("tomllib")
    spec = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    return version(re.fullmatch(r">=\s*(\d+\.\d+)", spec).group(1))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sources_parse_at_the_python_floor(path):
    # only one Python may be at hand where the tests run: the parser's
    # feature_version still refuses syntax newer than the floor CI runs
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


def test_ci_workflow_runs_the_declared_floor():
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    assert sorted(jobs) == ["macos-smoke", "tests"]
    for name, job in jobs.items():
        # a hung job fails at its own bound, not at GitHub's default of 360 minutes
        assert isinstance(job.get("timeout-minutes"), int) and 0 < job["timeout-minutes"] <= 30, name
        for step in job["steps"]:
            assert ("uses" in step) != ("run" in step), (name, step)
    versions = jobs["tests"]["strategy"]["matrix"]["python-version"]
    assert min(map(version, versions)) == python_floor()


def test_import_check_sees_every_import_form(tmp_path):
    (tmp_path / "solver.py").write_text(
        "import math, os.path\n"
        "import numpy as np\n"
        "from . import grid\n"
        "from ksig.grid import shift\n"
        "def solve():\n"
        "    from scipy.sparse.linalg import gmres\n"
    )
    assert third_party_imports(tmp_path) == {"numpy", "scipy"}


def loaded_by_cli_import(packages):
    """The modules of `packages`, each with everything under it, that a
    fresh interpreter holds after `import ksig.cli`."""
    code = (
        "import sys, ksig.cli\n"
        f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=60,
    )
    return ast.literal_eval(out.stdout)


def test_cli_import_leaves_scipy_unloaded():
    assert loaded_by_cli_import(["scipy"]) == []


def test_cli_import_leaves_unused_stdlib_packages_unloaded():
    # fractions, and the XML, URL, mail and TLS modules that
    # xml.sax.saxutils imports, serve no command and cost import time
    assert loaded_by_cli_import(["fractions", "xml", "urllib.request", "http", "ssl", "email"]) == []


def test_cli_import_leaves_numpy_fft_unloaded():
    # only the nested-grid start of a solve needs the FFT, and loads it there
    assert loaded_by_cli_import(["numpy.fft"]) == []


def module_arrays(module):
    """Names of the module's globals that are numpy arrays or hold one in a
    dict, list, tuple or set, at any depth."""

    def holds(value):
        if isinstance(value, np.ndarray):
            return True
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, (list, tuple, set, frozenset)):
            return False
        return any(holds(item) for item in value)

    return [name for name, value in vars(module).items() if holds(value)]


def test_no_module_holds_an_array(march):
    # workspaces live and die with one call: a module-level array would be
    # hidden state shared between runs.  A solve and a lemma suite run
    # first, so a cache filled at run time shows too
    grid = PeriodicGrid(dim=3, resolution=8)
    march(make_problem(grid, alpha=0.2 * np.sin(grid.coordinate(0)) + grid.zeros()), solver.SolverConfig())
    monitors.run_lemma_suite(3, 3, samples=100, seed=42)
    held = {
        name: module_arrays(importlib.import_module(f"ksig.{name}")) for name in sorted(MODULES - {"__main__"})
    }
    assert {name: found for name, found in held.items() if found} == {}


def test_array_check_sees_nested_arrays():
    module = types.ModuleType("fake")
    module.plain = np.zeros(2)
    module.cache = {"key": [(1, np.zeros(2))]}
    module.names = ("a", "b")
    module.count = 3
    assert module_arrays(module) == ["plain", "cache"]
