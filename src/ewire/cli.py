"""Command-line front end: ``ewirec {check,run,denote,normalize,equiv}``.

``run`` and ``denote`` print the value of an entry; ``denote`` takes a
``circ`` declaration as the box over its wire context, and ``run`` runs
a closed one.  ``equiv`` compares the values of two circuit entries, a
``def`` of type Circ or a ``circ`` declaration taken as that box,
unboxed onto one context of fresh wires: one per factor of their input
types that is not I.  Each of the three evaluates only the ``def``s its
entries depend on, directly or through other ``def``s, on a thread with
a deep stack.
``normalize`` rewrites a circuit entry with every other ``def`` inlined.

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
from .algebra import ResourceLimit, is_cp, is_subunital, is_unital, superop_to_json
from .denote import (
    BOTTOM, CircV, DistV, EvalError, IntV, Mode, PairV, UnitV,
    call_with_stack, decode_value, evaluate_program, sample,
)
from .normalize import (
    StepLimit, check_equiv, normalize, purify_host, unfold_definitions,
)
from .parser import ParseError, parse_program
from .qlist import QListError, monomorphize
from .syntax import (
    Box, CircDecl, CircT, DefDecl, PairP, TensorW, Unbox, UnitP, UnitW, Var,
    WireP, free_host_vars, pretty_print,
)
from .typecheck import (
    CheckedProgram, TypeCheckError, check_host, check_program, elaborate_sugar,
)


class UsageError(Exception):
    pass


def _fmt(x: float) -> float:
    return float(f"{x:.12g}")


def _value_str(v) -> str:
    if v == ():
        return "()"
    if isinstance(v, tuple):
        return f"({_value_str(v[0])}, {_value_str(v[1])})"
    return str(v)


def _host_value_plain(hv):
    match hv:
        case UnitV():
            return ()
        case IntV(n):
            return n
        case PairV(a, b):
            return (_host_value_plain(a), _host_value_plain(b))
    raise UsageError(f"entry produced a non-printable value {hv!r}")


def _load(path: str, qlist_size, entry):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    prog = parse_program(text)
    if qlist_size is not None:
        prog, entry = monomorphize(prog, qlist_size, entry)
    prog = elaborate_sugar(prog)
    return check_program(prog), entry


def _mode_of(args) -> Mode:
    if args.mode == "cpsu":
        return Mode.cpsu(args.fuel)
    return Mode.cpu()


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


def _entry_value(checked: CheckedProgram, entry: str, mode: Mode):
    """The value of a ``def`` entry, or the distribution a closed ``circ``
    entry runs to."""
    decl = checked.program.find(entry)
    if decl is None:
        raise UsageError(f"no declaration named {entry!r}")
    if isinstance(decl, DefDecl):
        _, _, env = _evaluate(checked, {decl.name}, mode)
        return env[decl.name]
    context, w = checked.circ_types[decl.name]
    if context:
        raise UsageError(f"{entry!r} has a non-empty wire context")
    ev, gamma, env = _evaluate(checked, free_host_vars(decl.term), mode)
    op = ev.denote_circuit(gamma, (), decl.term, env)
    dist = ev.run_circuit(op, w)
    return DistV({decode_value(w, k): p for k, p in dist.items()})


def _circuit_value(checked: CheckedProgram, entry: str, mode: Mode):
    """``denote``'s value of an entry: a ``def``'s value, and for a
    ``circ`` the circuit value of the box over its wire context."""
    decl = checked.program.find(entry)
    if not isinstance(decl, CircDecl):
        return _entry_value(checked, entry, mode)
    box = _circ_box(decl)
    ev, gamma, env = _evaluate(checked, free_host_vars(box), mode)
    check_host(gamma, box, checked.ctx)
    return ev.eval_host(gamma, box, env)


def _circ_box(decl: CircDecl) -> Box:
    """``circ f (a : A, b : B, c : C) = body`` as the host term
    ``box (a, (b, c)) : A * (B * C) => body``."""
    pat, dom = UnitP(), UnitW()
    for w, ty in reversed(decl.context):
        if isinstance(pat, UnitP):
            pat, dom = WireP(w), ty
        else:
            pat, dom = PairP(WireP(w), pat), TensorW(ty, dom)
    return Box(pat, dom, decl.term)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    checked, _ = _load(args.file, args.qlist_size, None)
    lines = []
    for d in checked.program.decls:
        if isinstance(d, DefDecl):
            lines.append((d.name, str(checked.def_types[d.name])))
        elif isinstance(d, CircDecl):
            _, w = checked.circ_types[d.name]
            lines.append((d.name, str(CircT(_circ_box(d).w_in, w))))
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
    value = call_with_stack(lambda: _entry_value(checked, entry, mode))
    if not isinstance(value, DistV):
        raise UsageError(f"{entry!r} is not a computation (type T(...))")
    outcomes = {}
    for hv, w in value.weights.items():
        outcomes[_value_str(_host_value_plain(hv))] = _fmt(w)
    mass = sum(value.weights.values())
    diverge = max(0.0, 1.0 - mass)
    if diverge < 1e-12:
        diverge = 0.0
    payload = {
        "outcomes": outcomes,
        "diverge_mass": _fmt(diverge),
    }
    if args.shots:
        from .algebra import Distribution

        plain = {_value_str(_host_value_plain(hv)): w for hv, w in value.weights.items()}
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
    value = call_with_stack(lambda: _circuit_value(checked, entry, mode))
    if not isinstance(value, CircV):
        raise UsageError(f"{entry!r} is not a circuit value (type Circ(...))")
    payload = superop_to_json(value.op)
    payload["signature"] = {
        "in": str(value.w_in),
        "out": str(value.w_out),
    }
    payload["matrix"] = [[_fmt(re), _fmt(im)] for re, im in payload["matrix"]]
    payload["report"] = {
        "is_cp": is_cp(value.op, args.tol),
        "is_unital": is_unital(value.op, args.tol),
        "is_subunital": is_subunital(value.op, args.tol),
    }
    print(json.dumps(payload))
    return 0


def _entry_circuit(checked: CheckedProgram, entry: str):
    """Resolve an entry to ``(context, circuit term)`` for rewriting."""
    decl = checked.program.find(entry)
    if decl is None:
        raise UsageError(f"no declaration named {entry!r}")
    if isinstance(decl, CircDecl):
        ctx_ty, _ = checked.circ_types[decl.name]
        return list(ctx_ty), decl.term
    ty = checked.def_types[decl.name]
    if not isinstance(ty, CircT):
        raise UsageError(f"{entry!r} is not a circuit declaration")
    defs = {
        d.name: d.term
        for d in checked.program.decls
        if isinstance(d, DefDecl) and d.name != decl.name
    }
    term = purify_host(unfold_definitions(decl.term, defs))
    if not isinstance(term, Box):
        raise UsageError(
            f"{entry!r} does not reduce to a literal box; cannot rewrite it"
        )
    from .typecheck import bind_pattern

    return bind_pattern(term.pat, term.w_in), term.body


def cmd_normalize(args) -> int:
    checked, entry = _load(args.file, args.qlist_size, args.entry)
    context, term = _entry_circuit(checked, entry)
    out, trace = normalize(term, max_steps=args.max_steps,
                           copower_rules=args.copower_rules)
    if args.trace:
        for line in trace.to_json_lines():
            print(json.dumps(line))
    header = ", ".join(f"{w} : {ty}" for w, ty in context)
    prefix = f"circ {entry}" + (f" ({header})" if header else "")
    print(f"{prefix} = {pretty_print(out)}")
    return 0


def _equiv_entry(checked: CheckedProgram, entry: str):
    """An ``equiv`` entry as a host term of type Circ and its input type."""
    decl = checked.program.find(entry)
    if decl is None:
        raise UsageError(f"no declaration named {entry!r}")
    if isinstance(decl, CircDecl):
        box = _circ_box(decl)
        return box, box.w_in
    ty = checked.def_types[decl.name]
    if not isinstance(ty, CircT):
        raise UsageError(f"{entry!r} is not a circuit declaration")
    return Var(decl.name), ty.w_in


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
    (t1, w1), (t2, w2) = (_equiv_entry(checked, e) for e in (args.left, args.right))
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
    """Argument type of --shots, --fuel and --max-steps: an int >= 0."""
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


def _common(sub, shots=False):
    sub.add_argument("file", help="an .ew source file")
    sub.add_argument("--mode", choices=["cpu", "cpsu"], default="cpu")
    sub.add_argument("--fuel", type=_count, default=10_000)
    sub.add_argument("--qlist-size", type=int, default=None, dest="qlist_size")
    sub.add_argument("--tol", type=_tolerance, default=1e-9)
    sub.add_argument("--json", action="store_true")
    if shots:
        sub.add_argument("--shots", type=_count, default=0)
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ewirec", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    c = subs.add_parser("check", help="typecheck all declarations")
    _common(c)

    r = subs.add_parser("run", help="evaluate an entry of type T(...)")
    _common(r, shots=True)
    r.add_argument("--entry", default="main")

    d = subs.add_parser("denote", help="print the superoperator of a Circ entry")
    _common(d)
    d.add_argument("--entry", default="main")

    n = subs.add_parser("normalize", help="rewrite a circuit to normal form")
    _common(n)
    n.add_argument("--entry", default="main")
    n.add_argument("--trace", action="store_true")
    n.add_argument("--copower-rules", action="store_true", dest="copower_rules")
    n.add_argument("--max-steps", type=_count, default=1000, dest="max_steps")

    e = subs.add_parser("equiv", help="numeric equivalence of two circuits")
    _common(e)
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
        _diag(args, "ParseError", str(e), [e.line, e.col])
        return 1
    except TypeCheckError as e:
        _diag(args, e.kind, e.message, [e.loc.line, e.loc.col] if e.loc else None)
        return 1
    except QListError as e:
        _diag(args, "QListError", str(e), [e.loc.line, e.loc.col] if e.loc else None)
        return 1
    except EvalError as e:
        _diag(args, type(e).__name__, str(e), None)
        return 1
    except StepLimit as e:
        print(f"step limit reached; partial result:\n{pretty_print(e.partial)}",
              file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        _diag(args, type(e).__name__, str(e) or "out of memory", None)
        return 2


def _diag(args, kind, message, span):
    if getattr(args, "json", False):
        print(json.dumps({"kind": kind, "span": span, "message": message}))
    else:
        at = f" at {span[0]}:{span[1]}" if span else ""
        print(f"error[{kind}]{at}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
