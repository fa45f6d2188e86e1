"""Command-line front end: ``ewirec {check,run,denote,normalize,equiv}``.

Every entry is a ``def`` (a ``circ`` declaration parses to one) and is
resolved to one host term, typed before anything is evaluated: the
entry's name, or for ``run`` of a closed circuit ``c : Circ(I, W)`` the
computation ``run (unbox c ())``.  An entry of the wrong type, or a
computation whose outcomes are not built from unit, classical values and
pairs, is a usage error in every mode.  ``run`` and ``denote`` print the
value of an entry.  ``equiv`` compares the values of two circuit
entries, unboxed onto one context of fresh wires: one per factor of
their input types that is not I.  Each of the three evaluates only the
``def``s its entries depend on, directly or through other ``def``s, on
the calling thread under a deep recursion limit.  ``normalize``
rewrites the body of an entry once its measurement sugar is expanded,
the other ``def``s are inlined and it reduces to a box.

Exit codes: 0 success, 1 type, evaluation or equivalence failure, 2
resource, step, recursion or memory limits, 3 usage errors; each
non-zero exit prints a diagnostic.  All numeric output uses 12
significant digits and identical inputs (file, flags, seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import algebra
from .algebra import (
    DEFAULT_TOL, Distribution, ResourceLimit, _fmt, is_cp, is_subunital, is_unital,
    superop_to_json,
)
from .denote import (
    BOTTOM, DEFAULT_FUEL, EvalError, Mode, call_with_stack, evaluate_program, sample,
)
from .normalize import (
    DEFAULT_MAX_STEPS, StepLimit, check_equiv, normalize, purify_host, unfold_definitions,
)
from .parser import ParseError, parse_program
from .qlist import QListError, monomorphize
from .syntax import (
    Box, CircT, DefDecl, MonadT, NotClassicalError, PairP, Run, TensorW,
    Unbox, UnitP, UnitW, UnknownGate, Var, WireP, free_host_vars,
    pretty_print, unlift_type,
)
from .typecheck import (
    CheckedProgram, TypeCheckError, bind_pattern, check_host, check_program,
    elaborate_sugar,
)


class UsageError(Exception):
    pass


def _value_str(v) -> str:
    if v == ():
        return "()"
    if isinstance(v, tuple):
        return f"({_value_str(v[0])}, {_value_str(v[1])})"
    return str(v)


def _load(path: str, qlist_size, entry):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise UsageError(f"cannot read {path}: not UTF-8 at byte {e.start}: {e.reason}")
    prog = parse_program(text)
    if qlist_size is not None:
        prog, entry = monomorphize(prog, qlist_size, entry)
    return check_program(prog), entry


def _mode_of(args) -> Mode:
    if args.mode == "cpsu":
        return Mode.cpsu(args.fuel)
    return Mode.cpu()


def _entry(checked: CheckedProgram, entry: str, want: type, what: str):
    """An entry as a host term and its type under the program's ``def``s,
    which must be a ``want`` (MonadT or CircT), else ``entry`` is not
    ``what``; a computation must return printable values.  An entry is its
    name, or ``run (unbox c ())`` of a closed circuit ``c`` where a
    computation is wanted."""
    ty = checked.def_types.get(entry)
    if ty is None:
        raise UsageError(f"no declaration named {entry!r}")
    term = Var(entry)
    if want is MonadT and isinstance(ty, CircT):
        if ty.w_in != UnitW():
            raise UsageError(f"{entry!r} has a non-empty wire context")
        term = Run(Unbox(term, UnitP()))
        ty = check_host(checked.def_types, term, checked.ctx)
    if not isinstance(ty, want):
        raise UsageError(f"{entry!r} is not {what}")
    if want is MonadT:
        # outcomes of a first-order type are units, numbers and pairs
        try:
            unlift_type(ty.inner)
        except NotClassicalError:
            raise UsageError(f"{entry!r} returns non-printable values of type {ty.inner}")
    return term, ty


def _evaluate(checked: CheckedProgram, roots, mode: Mode):
    """``evaluate_program`` restricted to the ``def``s that ``roots`` name,
    directly or through other ``def``s; every other declaration is kept,
    in order, so an evaluated ``def`` gets the same fuel and value as in
    the whole program."""
    defs = {d.name: d for d in checked.program.decls if isinstance(d, DefDecl)}
    needed, todo = set(), [x for x in roots if x in defs]
    while todo:
        x = todo.pop()
        if x not in needed:
            needed.add(x)
            todo.extend(y for y in free_host_vars(defs[x].term) if y in defs)
    decls = tuple(
        d for d in checked.program.decls
        if not isinstance(d, DefDecl) or d.name in needed
    )
    pruned = replace(checked, program=replace(checked.program, decls=decls))
    return evaluate_program(pruned, mode=mode)


def _value(checked: CheckedProgram, term, mode: Mode):
    """The value of a checked entry term."""
    ev, gamma, env = _evaluate(checked, free_host_vars(term), mode)
    return ev.eval_host(gamma, term, env)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    checked, _ = _load(args.file, args.qlist_size, None)
    lines = [(name, str(ty)) for name, ty in checked.def_types.items()]
    if args.json:
        print(json.dumps({"ok": True, "declarations": [
            {"name": n, "type": t} for n, t in lines
        ]}))
    else:
        for n, t in lines:
            print(f"{n} : {t}")
    return 0


def cmd_run(args) -> int:
    mode = _mode_of(args)
    checked, entry = _load(args.file, args.qlist_size, args.entry)
    term, _ = _entry(checked, entry, MonadT, "a computation (type T(...))")
    value = call_with_stack(lambda: _value(checked, term, mode))
    plain = {_value_str(v): w for v, w in value.items()}
    diverge = value.diverge_mass()
    if diverge < 1e-12:
        diverge = 0.0
    payload = {
        "outcomes": {k: _fmt(w) for k, w in plain.items()},
        "diverge_mass": _fmt(diverge),
    }
    if args.shots:
        counts = sample(Distribution(plain), args.seed, args.shots)
        payload["shots"] = args.shots
        payload["seed"] = args.seed
        payload["counts"] = {str(k): v for k, v in counts.items()}
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload["outcomes"].items():
            print(f"{k}\t{v}")
        if payload["diverge_mass"] > 0:
            print(f"{BOTTOM}\t{payload['diverge_mass']}")
        if args.shots:
            print("counts:")
            for k, v in payload["counts"].items():
                print(f"  {k}\t{v}")
    return 0


def cmd_denote(args) -> int:
    mode = _mode_of(args)
    checked, entry = _load(args.file, args.qlist_size, args.entry)
    term, _ = _entry(checked, entry, CircT, "a circuit value (type Circ(...))")
    value = call_with_stack(lambda: _value(checked, term, mode))
    report = {
        "is_cp": is_cp(value.op, args.tol),
        "is_unital": is_unital(value.op, args.tol),
        "is_subunital": is_subunital(value.op, args.tol),
    }
    signature = {"in": str(value.w_in), "out": str(value.w_out)}
    print(superop_to_json(value.op, signature=signature, report=report))
    return 0


def cmd_normalize(args) -> int:
    checked, entry = _load(args.file, args.qlist_size, args.entry)
    term, _ = _entry(checked, entry, CircT, "a circuit declaration")
    # the rewrite rules read core syntax: qrun and qlift as their expansions
    defs = {d.name: d.term for d in elaborate_sugar(checked).decls
            if isinstance(d, DefDecl)}
    term = purify_host(unfold_definitions(term, defs))
    if not isinstance(term, Box):
        raise UsageError(
            f"{entry!r} does not reduce to a literal box; cannot rewrite it"
        )
    out, trace = normalize(term.body, max_steps=args.max_steps,
                           copower_rules=args.copower_rules)
    if args.trace:
        for line in trace.to_json_lines():
            print(json.dumps(line))
    header = ", ".join(f"{w} : {ty}" for w, ty in bind_pattern(term.pat, term.w_in))
    prefix = f"circ {entry}" + (f" ({header})" if header else "")
    print(f"{prefix} = {pretty_print(out)}")
    return 0


def _leaves(w) -> list:
    """The wire types of ``w``'s tensor factors, left to right, without I."""
    match w:
        case TensorW(left, right):
            return _leaves(left) + _leaves(right)
        case UnitW():
            return []
    return [w]


def _leaf_pattern(w, names):
    """A pattern of ``w``'s shape whose wires take the next ``names``."""
    match w:
        case TensorW(left, right):
            return PairP(_leaf_pattern(left, names), _leaf_pattern(right, names))
        case UnitW():
            return UnitP()
    return WireP(next(names))


def cmd_equiv(args) -> int:
    mode = _mode_of(args)
    checked, _ = _load(args.file, args.qlist_size, None)
    (t1, ty1), (t2, ty2) = (_entry(checked, e, CircT, "a circuit declaration")
                            for e in (args.left, args.right))
    w1, w2 = ty1.w_in, ty2.w_in
    if _leaves(w1) != _leaves(w2):
        print(json.dumps({"equivalent": False, "reason": "different contexts"}))
        return 1
    # both circuits are unboxed onto one context of fresh leaf wires
    omega = tuple((f"x{i}", ty) for i, ty in enumerate(_leaves(w1)))
    c1, c2 = (Unbox(t, _leaf_pattern(w, iter(x for x, _ in omega)))
              for t, w in ((t1, w1), (t2, w2)))

    def compare():
        _, gamma, env = _evaluate(checked, free_host_vars(t1) | free_host_vars(t2), mode)
        return check_equiv(c1, c2, gamma=gamma, omega=omega, env=env,
                           tol=args.tol, mode=mode, ctx=checked.ctx)

    ok = call_with_stack(compare)
    print(json.dumps({"equivalent": bool(ok), "tol": _fmt(args.tol)}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """Argument type of --shots, --fuel, --qlist-size and --max-steps: an
    int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _tolerance(text: str) -> float:
    """Argument type of --tol: a finite float >= 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 <= x < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and not negative, got {text}")
    return x


def _common(sub, mode=False, tol=False):
    """The file and shared flags; --mode and --fuel if ``mode``, --tol if ``tol``."""
    sub.add_argument("file", help="an .ew source file")
    if mode:
        sub.add_argument("--mode", choices=["cpu", "cpsu"], default="cpu")
        sub.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)
    sub.add_argument("--qlist-size", type=_count, default=None, dest="qlist_size")
    if tol:
        sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ewirec", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    c = subs.add_parser("check", help="typecheck all declarations")
    _common(c)

    r = subs.add_parser("run", help="evaluate an entry of type T(...)")
    _common(r, mode=True)
    r.add_argument("--shots", type=_count, default=0)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--entry", default="main")

    d = subs.add_parser("denote", help="print the superoperator of a Circ entry")
    _common(d, mode=True, tol=True)
    d.add_argument("--entry", default="main")

    n = subs.add_parser("normalize", help="rewrite a circuit to normal form")
    _common(n)
    n.add_argument("--entry", default="main")
    n.add_argument("--trace", action="store_true")
    n.add_argument("--copower-rules", action="store_true", dest="copower_rules")
    n.add_argument("--max-steps", type=_count, default=DEFAULT_MAX_STEPS, dest="max_steps")

    e = subs.add_parser("equiv", help="numeric equivalence of two circuits")
    _common(e, mode=True, tol=True)
    e.add_argument("left")
    e.add_argument("right")
    return p


def main(argv=None) -> int:
    if "EWIREC_MAX_DIM" in os.environ:
        try:
            algebra.set_max_dim(int(os.environ["EWIREC_MAX_DIM"]))
        except ValueError:
            print("EWIREC_MAX_DIM must be a positive integer", file=sys.stderr)
            return 3
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    handlers = {
        "check": cmd_check,
        "run": cmd_run,
        "denote": cmd_denote,
        "normalize": cmd_normalize,
        "equiv": cmd_equiv,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; stdout now discards, so the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        _diag(args, "ParseError", e.message, [e.line, e.col])
        return 1
    except TypeCheckError as e:
        _diag(args, e.kind, e.message, _span(e.loc))
        return 1
    except QListError as e:
        _diag(args, "QListError", str(e), _span(e.loc))
        return 1
    except EvalError as e:
        _diag(args, type(e).__name__, str(e), _span(e.loc))
        return 1
    except UnknownGate as e:
        # a header-declared gate types, but has no denotation
        _diag(args, "UnknownGate", e.args[0], None)
        return 1
    except StepLimit as e:
        print(f"step limit reached; partial result:\n{pretty_print(e.partial)}",
              file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # CPython's message names the kind of call that met the limit,
        # which moves with the depth of the caller; the diagnostic does not
        _diag(args, "RecursionError", "maximum recursion depth exceeded", None)
        return 2
    except MemoryError as e:
        _diag(args, "MemoryError", str(e) or "out of memory", None)
        return 2


def _span(loc):
    return [loc.line, loc.col] if loc else None


def _diag(args, kind, message, span):
    if getattr(args, "json", False):
        print(json.dumps({"kind": kind, "span": span, "message": message}))
    else:
        at = f" at {span[0]}:{span[1]}" if span else ""
        print(f"error[{kind}]{at}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
