"""Module boundaries: no ksig module reaches into another's private names.

A name with a leading underscore is an implementation detail of its own
module.  Parsing each source file keeps the rule checked without a linter.
"""

import ast
from pathlib import Path

import pytest

import ksig

SRC = Path(ksig.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_uses(path):
    """`module._name` accesses and `from module import _name` imports that
    cross from the file at `path` into another ksig module."""
    own = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name bound to a sibling module -> that module
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 1 or parts[0] == "ksig":
            target = parts[-1] if parts[-1] not in ("", "ksig") else None
            for alias in node.names:
                if target is None and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif target is not None and target != own and _private(alias.name):
                    hits.append(f"{path.name}:{node.lineno}: from {target} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = aliases.get(node.value.id)
            if target is not None and target != own and _private(node.attr):
                hits.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return hits


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
