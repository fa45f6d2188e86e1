"""Source hygiene of the ``ewire`` package, read with the stdlib ``ast``.

Every module except ``__init__`` (which re-exports) must use each name
it imports; a name left behind by deleted code fails here, and so does a
module-level private helper that nothing in the package reads any more,
or a public ``def`` or ``class`` that nothing in the package, ``tests/``
or ``bench/`` reads (a re-export in ``__init__`` is no read).  Every module
imports only the standard library, its own package and the dependencies
``pyproject.toml`` declares, so a heavy optional import (``scipy.sparse``
alone takes about a quarter of a second) cannot slip into start-up, and
only ``algebra`` loads numpy, on first use, at one site.  No module
imports ``threading``, and only ``denote.call_with_stack`` sets the
recursion limit, so evaluation runs on the caller's thread.
Every term class of ``ewire.syntax`` declares its scope, so the generic
walks over binders cannot meet a constructor they do not know.  Only
``algebra`` reads the private slots of a ``SuperOp``, so the kinds a map
may be are decided in one module.  Every setting is one somebody sets
and something reads: each parameter with a
default is passed at some call site, and each flag of an ``ewirec``
command is read by that command.
"""

import argparse
import ast
import dataclasses
import re
import sys
from pathlib import Path

import pytest

import ewire.cli
from ewire import syntax
from ewire.algebra import SuperOp

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


LOADERS = ("find_spec", "import_module", "__import__", "LazyLoader")


def numpy_loads(source: str) -> list:
    """Where ``source`` imports numpy or loads a module by name, in source
    order: ``("import", "numpy")`` for an ``import numpy`` or ``from
    numpy`` statement, and for a call of one of ``LOADERS``, that
    function's name and its first argument if it is a string constant,
    else None.  ``foreign_imports`` sees no load by string."""
    out = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in LOADERS:
                arg = node.args[0] if node.args else None
                loaded = arg.value if isinstance(arg, ast.Constant) else None
                out.append((node.lineno, (name, loaded)))
        out.extend((node.lineno, ("import", "numpy")) for n in names
                   if n.split(".")[0] == "numpy")
    return [entry for _, entry in sorted(out, key=lambda e: e[0])]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_algebra_loads_numpy(path):
    # algebra loads numpy on first use, at one site; no other module
    # imports it, or loads any module by name
    expected = [("LazyLoader", None), ("find_spec", "numpy")] if path.stem == "algebra" else []
    assert numpy_loads(path.read_text()) == expected


def test_algebra_loads_a_declared_dependency():
    loads = numpy_loads((SRC / "algebra.py").read_text())
    assert {name for how, name in loads if how != "LazyLoader"} <= declared_dependencies()


def test_numpy_load_detected():
    src = (
        "import json, numpy.linalg as la\nfrom numpy import zeros\n"
        "import importlib.util\nfrom importlib.util import find_spec\n"
        "def f(name):\n"
        "    importlib.import_module('scipy')\n"
        "    spec = find_spec(name)\n"
        "    return importlib.util.LazyLoader(spec.loader), __import__('json')\n"
    )
    assert numpy_loads(src) == [
        ("import", "numpy"), ("import", "numpy"), ("import_module", "scipy"),
        ("find_spec", None), ("LazyLoader", None), ("__import__", "json"),
    ]


def _top_level(sources: dict) -> list:
    """``(module, statement, names it defines, names it reads)`` of every
    top-level statement of ``sources``, which maps module names to source
    text.  A read is a name load, an attribute of that name or an import
    of it."""
    out = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            reads = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    reads.update(a.name for a in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defines = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                lhs = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defines = [
                    n.id for t in lhs for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            else:
                defines = []
            out.append((module, stmt, defines, reads))
    return out


def _unread(statements: list, select) -> list:
    """``(module, name)`` of every name that a statement defines and
    ``select(module, statement, name)`` picks, and that no other statement
    reads."""
    return [
        (module, name) for module, own, defines, _ in statements for name in defines
        if select(module, own, name)
        and not any(name in reads for _, stmt, _, reads in statements if stmt is not own)
    ]


def dead_private_names(sources: dict) -> list:
    """``(module, name)`` of every module-level private name (``_x``, not
    a dunder) of ``sources`` that no statement of any module reads, its
    own definition excepted."""
    return _unread(_top_level(sources),
                   lambda module, stmt, name: name.startswith("_") and not name.startswith("__"))


def dead_public_names(sources: dict, readers: dict) -> list:
    """``(module, name)`` of every public module-level ``def`` or ``class``
    of ``sources`` that no statement of ``sources`` or ``readers`` reads,
    its own definition excepted."""
    return _unread(
        _top_level({**sources, **readers}),
        lambda module, stmt, name: (
            module in sources and not name.startswith("_")
            and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        ),
    )


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_name_detected():
    sources = {
        "a": (
            "_LIVE = 1\n_DEAD, __dunder__ = 2, 3\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _imported():\n    pass\n"
            "class _ReadAsAttribute:\n    pass\n"
            "def public():\n    return _LIVE\n"
        ),
        "b": (
            "from .a import _imported\nfrom . import a\n"
            "def g():\n    return a._ReadAsAttribute\n"
        ),
    }
    assert dead_private_names(sources) == [("a", "_DEAD"), ("a", "_recursive")]


def test_no_dead_public_names():
    # __init__ is left out: a re-export there is not a read
    sources = {p.stem: p.read_text() for p in MODULES}
    readers = {
        str(p.relative_to(ROOT)): p.read_text()
        for folder in ("tests", "bench") for p in sorted((ROOT / folder).rglob("*.py"))
    }
    assert dead_public_names(sources, readers) == []


def test_dead_public_name_detected():
    sources = {
        "a": (
            "LIMIT = 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def helper():\n    pass\n"
            "def entry():\n    return helper()\n"
            "class Tested:\n    pass\n"
        ),
    }
    readers = {"tests/test_a.py": "from ewire.a import Tested\nimport ewire.a\newire.a.entry()\n"}
    # helper is read by entry, LIMIT is no def or class
    assert dead_public_names(sources, readers) == [("a", "recursive")]


def scope_faults(cls) -> list:
    """What the scope declaration of term class ``cls`` leaves out: a
    ``Pattern`` field neither consumed nor bound, a binder that is no
    ``Pattern`` or ``str`` field, or a binder with no term field to be its
    scope."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    faults = [f"{name} is neither consumed nor bound" for name, ty in types.items()
              if ty == "Pattern" and name not in cls.consumes and name != cls.binds]
    if cls.binds is not None:
        if types.get(cls.binds) not in ("Pattern", "str"):
            faults.append(f"{cls.binds} is no Pattern or str field")
        if not any(ty in ("HostTerm", "CircuitTerm") for ty in types.values()):
            faults.append(f"{cls.binds} has no scope")
    return faults


TERM_CLASSES = [
    c for c in vars(syntax).values()
    if isinstance(c, type) and dataclasses.is_dataclass(c)
    and issubclass(c, (syntax.HostTerm, syntax.CircuitTerm))
]


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda c: c.__name__)
def test_every_term_class_declares_its_scope(cls):
    assert scope_faults(cls) == []
    syntax._scope(cls)  # the walks read the declaration without complaint


def test_undeclared_pattern_field_detected():
    @dataclasses.dataclass(frozen=True)
    class Stray(syntax.CircuitTerm):
        pat: "Pattern"
        rest: "CircuitTerm"

    assert scope_faults(Stray) == ["pat is neither consumed nor bound"]
    with pytest.raises(TypeError, match="Stray.pat is neither consumed nor bound"):
        syntax._scope(Stray)


def thread_uses(source: str) -> list:
    """Where ``source`` imports ``threading`` or ``_thread``, or calls
    ``setrecursionlimit``, in source order: ``(what, function)``, where
    ``function`` names the innermost enclosing ``def``, or is None at
    module level."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        out.extend((node.lineno, "import " + n, function) for n in names
                   if n.split(".")[0] in ("threading", "_thread"))
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "setrecursionlimit":
                out.append((node.lineno, "setrecursionlimit", function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return [(what, function) for _, what, function in sorted(out, key=lambda e: e[0])]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_thread_and_one_recursion_limit(path):
    # evaluation runs on the caller's thread; only call_with_stack raises
    # the recursion limit (and restores it)
    expected = ([("setrecursionlimit", "call_with_stack")] * 2
                if path.stem == "denote" else [])
    assert thread_uses(path.read_text()) == expected


def test_thread_use_detected():
    src = (
        "import sys, threading\nfrom _thread import start_new_thread\n"
        "from sys import setrecursionlimit\n"
        "setrecursionlimit(10)\n"
        "def call_with_stack(fn):\n"
        "    def inner():\n        sys.setrecursionlimit(20)\n"
        "    sys.setrecursionlimit(30)\n    import threading as t\n"
    )
    assert thread_uses(src) == [
        ("import threading", None), ("import _thread", None),
        ("setrecursionlimit", None), ("setrecursionlimit", "inner"),
        ("setrecursionlimit", "call_with_stack"), ("import threading", "call_with_stack"),
    ]


FRONT_END = ("syntax", "parser", "typecheck", "qlist")
BACKEND = {"algebra", "denote", "normalize", "cli", "numpy"}


def imported_modules(source: str) -> set:
    """The modules ``source`` imports anywhere in it, each by its first
    name below the package: ``numpy`` for ``import numpy.linalg``, and
    ``algebra`` for ``from . import algebra``, ``from .algebra import alg``,
    ``from ewire import algebra`` or ``import ewire.algebra``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "ewire"):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module)
    parts = [n.split(".") for n in names]
    return {p[1] if p[0] == "ewire" and len(p) > 1 else p[0] for p in parts}


@pytest.mark.parametrize("module", FRONT_END)
def test_front_end_imports_no_backend(module):
    # the front end decides typing, gate signatures included; the numpy
    # backend only evaluates what it has checked
    assert imported_modules((SRC / f"{module}.py").read_text()) & BACKEND == set()


def test_backend_import_detected():
    src = (
        "from __future__ import annotations\n"
        "import numpy.linalg\nfrom . import algebra, syntax\n"
        "from .denote import Evaluator\nfrom ewire.cli import main\n"
        "def f():\n    from .normalize import normalize\n"
    )
    assert imported_modules(src) == {
        "__future__", "numpy", "algebra", "syntax", "denote", "cli", "normalize"}
    assert imported_modules("import ewire.algebra\nfrom ewire import denote\n") == {
        "algebra", "denote"}


SUPEROP_SLOTS = {name for name in SuperOp.__slots__ if name.startswith("_")}


def slot_reads(source: str) -> list:
    """The private ``SuperOp`` slots that ``source`` names as an attribute
    anywhere, sorted."""
    return sorted({n.attr for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Attribute) and n.attr in SUPEROP_SLOTS})


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "algebra"],
                         ids=lambda p: p.name)
def test_only_algebra_reads_superop_slots(path):
    # the kinds a SuperOp may be (dense, or a row view of the identity)
    # are decided in algebra alone; other modules read .matrix
    assert slot_reads(path.read_text()) == []


def test_slot_read_detected():
    assert SUPEROP_SLOTS == {"_matrix", "_index", "_vals", "_fill", "_mono"}
    src = (
        "def f(op, m):\n"
        "    op._mono = None\n"
        "    return op._index[0], op._matrix.any(), m.shape, op.matrix, op.source\n"
    )
    assert slot_reads(src) == ["_index", "_matrix", "_mono"]


def defaulted_parameters(sources: dict) -> list:
    """``(module, callee, parameter, index)`` of every parameter with a
    default of a module-level function or a method of ``sources``.  The
    callee is the name a call site uses: the class's for ``__init__``.
    ``index`` is the parameter's position among a call's positional
    arguments (``self`` or ``cls`` not counted), or None if it is
    keyword-only."""
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                method = isinstance(scope, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list)
                callee = scope.name if method and fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((module, callee, arg.arg, i - method))
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        out.append((module, callee, arg.arg, None))
    return out


def unpassed_defaults(sources: dict, readers: list) -> list:
    """``(module, callee, parameter)`` of every defaulted parameter of
    ``sources`` that no call in the source texts ``readers`` passes.  A
    call passes it when it names the callee (as a name or an attribute)
    and gives the parameter by keyword or position, or unpacks ``*`` or
    ``**`` arguments that may hold it."""
    calls = [n for text in readers for n in ast.walk(ast.parse(text))
             if isinstance(n, ast.Call)]

    def passed(callee, param, index):
        for call in calls:
            f = call.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != callee:
                continue
            if any(k.arg in (param, None) for k in call.keywords):
                return True
            if index is not None and (
                    len(call.args) > index
                    or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False

    return [(module, callee, param)
            for module, callee, param, index in defaulted_parameters(sources)
            if not passed(callee, param, index)]


def test_every_defaulted_parameter_is_passed_somewhere():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for folder in ("src", "tests", "bench")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    assert unpassed_defaults(sources, readers) == []


def test_unpassed_default_detected():
    sources = {"a": (
        "def f(x, y=1, *, z=2):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class C:\n"
        "    def __init__(self, n=0, m=1):\n        pass\n"
        "    def meth(self, k=3):\n        pass\n"
        "    @staticmethod\n    def make(s=4):\n        pass\n"
    )}
    readers = ["from a import C, f, g\n"
               "f(1, 2); g(**{}); C(5).meth(); C.make(s=1); f(0, *[])\n"]
    assert unpassed_defaults(sources, readers) == [
        ("a", "f", "z"), ("a", "C", "m"), ("a", "meth", "k")]


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each public attribute read
    from it in ``_reads``."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _command_dests() -> dict:
    """The dests each ``ewirec`` subcommand's parser defines, by
    subcommand."""
    (subs,) = [a for a in ewire.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.dest for a in sub._actions if a.dest != "help"}
            for name, sub in subs.choices.items()}


PROGRAMS = ROOT / "programs"

# per command, arguments on which it succeeds, with the flags set so that
# every branch reading one is taken, and the arguments after the file on
# which it fails with a diagnostic
FLAG_RUNS = {
    "check": ([PROGRAMS / "flip.ew"], []),
    "run": ([PROGRAMS / "flip.ew", "--mode", "cpsu", "--shots", "2"], []),
    "denote": ([PROGRAMS / "teleport.ew", "--entry", "teleport", "--mode", "cpsu"], []),
    "normalize": ([PROGRAMS / "teleport.ew", "--entry", "teleport"], []),
    "equiv": ([PROGRAMS / "classical_control.ew", "cc_boxed", "cc_host",
               "--mode", "cpsu"], ["a", "b"]),
}


def test_every_cli_flag_is_read(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.ew"
    bad.write_text("def x = fst (0 : bit)\n")
    build_parser, namespaces = ewire.cli.build_parser, []

    def recording_parser():
        parser = build_parser()
        parse = parser.parse_args

        def parse_args(argv):
            ns = parse(argv, ReadRecorder())
            ns._reads.clear()  # argparse's own reads are no command's
            namespaces.append(ns)
            return ns

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(ewire.cli, "build_parser", recording_parser)
    unread = {}
    for command, dests in _command_dests().items():
        good, bad_rest = FLAG_RUNS[command]
        reads = set()
        for argv, code in (([command, *map(str, good)], 0),
                           ([command, str(bad), *bad_rest], 1)):
            assert ewire.cli.main(argv) == code, (argv, capsys.readouterr())
            reads |= namespaces.pop()._reads
        if dests - reads:
            unread[command] = sorted(dests - reads)
    assert unread == {}
