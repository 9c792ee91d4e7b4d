"""Module boundaries: no ksig module reaches into another's private names,
every name a module exports has a caller inside the package, every
import of a sibling module sits at module level, and the third-party
packages the modules import are exactly the declared dependencies.

A name with a leading underscore is an implementation detail of its own
module; a name in `__all__` that only tests reach is test scaffolding in the
package; an import inside a function hides a dependency that the package
has no import cycle to excuse.  Parsing each source file keeps these rules
checked without a linter.
"""

import ast
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import ksig

SRC = Path(ksig.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
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
