"""Source hygiene of the ``ewire`` package, read with the stdlib ``ast``.

Every module except ``__init__`` (which re-exports) must use each name
it imports; a name left behind by deleted code fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ewire"
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
