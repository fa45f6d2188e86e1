"""Source hygiene of the ``ewire`` package, read with the stdlib ``ast``.

Every module except ``__init__`` (which re-exports) must use each name
it imports; a name left behind by deleted code fails here.  Every module
imports only the standard library, its own package and the dependencies
``pyproject.toml`` declares, so a heavy optional import (``scipy.sparse``
alone takes about a quarter of a second) cannot slip into start-up.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ewire"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements and never read, in import
    order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.append(a.asname or a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    src = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from .syntax import Lift, lift_type as lt\n"
        "def f(x: Lift):\n    return system.argv\n"
    )
    assert unused_imports(src) == ["os", "lt"]


def declared_dependencies() -> set:
    """Top-level module names of ``[project] dependencies`` in
    ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in deps}


def foreign_imports(source: str, allowed: set) -> list:
    """Absolute imports whose top-level module is neither in the standard
    library nor in ``allowed``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out.extend(
            n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names | allowed
        )
    return out


def test_dependencies_are_numpy_only():
    assert declared_dependencies() == {"numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_declared_dependencies(path):
    allowed = declared_dependencies() | {"ewire"}
    assert foreign_imports(path.read_text(), allowed) == []


def test_foreign_import_detected():
    src = (
        "import json, scipy.sparse\nfrom numpy import linalg\n"
        "from . import syntax\nfrom ewire.algebra import alg\n"
        "def f():\n    import pandas as pd\n    return pd\n"
    )
    assert foreign_imports(src, {"numpy", "ewire"}) == ["scipy.sparse", "pandas"]
