"""Linear typechecker for circuits and simply-typed checking for hosts.

Circuit judgments ``Gamma; Omega |- C : W`` manage an ordered wire
context with exchange applied silently: context splits are inferred by
input/output threading (the first subterm of a sequence receives
exactly the wires it mentions, in context order, the continuation the
remainder), which is equivalent to searching over rule-level splits.

The pattern relation is decided here once, for the parser's box
annotations and the qlist walk too: ``take`` consumes a pattern's wires,
``pattern_type`` assembles their type, ``bind_pattern`` splits a type
onto a binder and ``bind_step`` binds new wires that shadow no live one.

The measurement sugar (``qrun``, ``qlift``) is typed only as its
expansion, which appends the measuring circuit generated by induction on
the wire type; the expansion is recorded for evaluation and elaboration.

Typing, gate signatures included, is decided here alone: ``denote``
tests no typed fact again, and the front end (``syntax``, ``parser``,
``typecheck``, ``qlist``) imports nothing from the numpy backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .syntax import (
    App, Ascribe, ArrowT, BIT, Bind, Box, ClassicalLit, ClassicalT, CircT,
    Compose, DEFAULT_BASES, DefDecl, Fix, Gate, GateFam, GateRef, HostTerm,
    HostType, If, Init, IntLit, Lam, Lift, MonadT, NotClassicalError,
    Output, Pair, PairElim, PairP, Pattern, Prim, Program, Proj, ProductT,
    QUBIT, QuantumW, QLift, QRun, Ret, Run, Span, TensorW, UnitElim, UnitP,
    UnitT, UnitVal, UnitW, Unbox, UnknownGate, Var, WireP, WireType,
    _fresh_name, classicalize, free_wires, is_classical, lift_type,
    map_children, mentions_qlist, pattern_linear, pattern_wires,
    pretty_print, unlift_type,
)

# error kinds
LINEARITY = "LinearityViolation"
UNBOUND_WIRE = "UnboundWire"
UNUSED_WIRE = "UnusedWire"
NOT_CLASSICAL = "NotClassical"
MISMATCH = "Mismatch"
EFFECTFUL_UNBOX = "EffectfulUnbox"
GATE_SIGNATURE = "GateSignature"
PATTERN_SHAPE = "PatternShape"


class TypeCheckError(Exception):
    def __init__(self, kind: str, message: str, loc: Optional[Span] = None):
        super().__init__(f"{kind}: {message}" + (f" (at {loc})" if loc else ""))
        self.kind = kind
        self.message = message
        self.loc = loc


WireContext = tuple  # tuple[(str, WireType), ...]
HostContext = dict  # str -> HostType


@dataclass
class CheckContext:
    """Program-level tables consulted during checking, and ``code``: the
    code that ``denote`` compiles the checked circuit steps to, per wire
    context and dimension cap, shared by every ``Evaluator`` over this
    context.  Only ``Evaluator.denote_circuit``, and the step code it
    runs, reads it (see ``Evaluator``); it is left out of ``==`` and
    ``repr``."""

    bases: dict
    gates: dict
    # id(node) -> (node, info): a circuit node -> its ``Split``; Box ->
    # (w_in, w_out, its bound wires); Run -> the wire type made;
    # GateFam -> (w_in, w_out); QLift -> the checked expansion; QRun ->
    # (the checked expansion, the host context it was checked in, its
    # type).  An entry never depends on the context's order, so a subterm
    # shared by two checked terms has one entry
    table: dict
    code: dict = field(default_factory=dict, compare=False, repr=False)

    def record(self, node, info):
        self.table[id(node)] = (node, info)

    def lookup(self, node):
        hit = self.table.get(id(node))
        return hit[1] if hit is not None and hit[0] is node else None


class Split(NamedTuple):
    """How a circuit node splits and binds its wires: the names it
    consumes (its pattern's, in order; a ``Compose``'s first circuit's
    free wires, as a set), the typed wires heading its continuation's
    context, and its own type: ``init``'s value type, ``(V, W)`` for a
    ``lift`` of type V with output W."""

    consumes: tuple | frozenset
    binds: tuple = ()
    own: object = None


def _default_ctx() -> CheckContext:
    return CheckContext(bases=DEFAULT_BASES, gates={}, table={})


def _int_type(ctx: CheckContext) -> ClassicalT:
    return ClassicalT("int", ctx.bases.get("int", DEFAULT_BASES["int"]))


def _no_qlist(w: WireType, loc=None):
    if mentions_qlist(w):
        raise TypeCheckError(
            MISMATCH, "qlist must be instantiated with --qlist-size", loc
        )


# ---------------------------------------------------------------------------
# Gate signatures
# ---------------------------------------------------------------------------

# the rotation families: every member acts on its family's wire type
GATE_FAMILIES = {"R": QUBIT, "CR": TensorW(QUBIT, QUBIT)}

_FIXED_SIGNATURES = {
    "meas": (QUBIT, BIT),
    "new": (BIT, QUBIT),
    "init0": (UnitW(), QUBIT),
    "init1": (UnitW(), QUBIT),
    "discard": (BIT, UnitW()),
    "H": (QUBIT, QUBIT),
    "X": (QUBIT, QUBIT),
    "Y": (QUBIT, QUBIT),
    "Z": (QUBIT, QUBIT),
    "CNOT": (TensorW(QUBIT, QUBIT), TensorW(QUBIT, QUBIT)),
}

BUILTIN_GATES = [
    GateRef("meas"), GateRef("new"), GateRef("init0"), GateRef("init1"),
    GateRef("discard"), GateRef("H"), GateRef("X"), GateRef("Y"),
    GateRef("Z"), GateRef("CNOT"), GateRef("R", index=1),
    GateRef("R", index=2), GateRef("CR", index=1), GateRef("CR", index=2),
    GateRef("bit-control", sub=GateRef("X")),
    GateRef("control", sub=GateRef("H")),
]


def gate_signature(g: GateRef, declared: dict | None = None):
    """Input/output wire types of a gate reference.

    ``declared`` maps names of header-declared gates to signatures.
    Raises UnknownGate if the name does not resolve.
    """
    if g.sub is not None:
        sub_in, sub_out = gate_signature(g.sub, declared)
        if sub_in != sub_out:
            raise UnknownGate(
                f"controlled gate must have equal input and output types, "
                f"got {pretty_print(sub_in)} -> {pretty_print(sub_out)}"
            )
        ctl = BIT if g.name == "bit-control" else QUBIT
        w = TensorW(ctl, sub_in)
        return (w, w)
    if g.name in GATE_FAMILIES:
        if g.index is None:
            raise UnknownGate(f"{g.name} needs a rotation index")
        w = GATE_FAMILIES[g.name]
        return (w, w)
    if g.name in _FIXED_SIGNATURES:
        return _FIXED_SIGNATURES[g.name]
    if declared and g.name in declared:
        return declared[g.name]
    raise UnknownGate(f"unknown gate {pretty_print(g)}")


# ---------------------------------------------------------------------------
# The pattern relation
# ---------------------------------------------------------------------------


def pattern_type(types: dict, p: Pattern) -> WireType:
    """The wire type a pattern assembles from declared wire types."""
    match p:
        case WireP(x):
            if x not in types:
                raise TypeCheckError(UNBOUND_WIRE, f"unbound wire {x!r}")
            return types[x]
        case UnitP():
            return UnitW()
        case PairP(l, r):
            return TensorW(pattern_type(types, l), pattern_type(types, r))
    raise TypeCheckError(PATTERN_SHAPE, f"not a pattern: {p!r}")


def bind_pattern(p: Pattern, w: WireType, loc=None) -> tuple:
    """Split a wire type along a binder pattern, yielding the bound
    wires in pattern order with their component types."""
    if not pattern_linear(p):
        raise TypeCheckError(PATTERN_SHAPE, f"duplicate wire in pattern {p}", loc)
    match p:
        case WireP(x):
            return ((x, w),)
        case UnitP() if isinstance(w, UnitW):
            return ()
        case PairP(l, r) if isinstance(w, TensorW):
            return bind_pattern(l, w.left, loc) + bind_pattern(r, w.right, loc)
        case UnitP():
            raise TypeCheckError(PATTERN_SHAPE, f"pattern () does not match {w}", loc)
        case PairP():
            raise TypeCheckError(PATTERN_SHAPE, f"pair pattern does not match {w}", loc)
    raise TypeCheckError(PATTERN_SHAPE, f"not a pattern: {p!r}", loc)


# ---------------------------------------------------------------------------
# Circuit judgment
# ---------------------------------------------------------------------------


def _select(omega: WireContext, names, loc, spent: frozenset, whole=False):
    """The wires ``names`` of ``omega``, in context order, and the rest,
    which must be empty if ``whole`` is set."""
    live = {w for w, _ in omega}
    for x in names:
        if x not in live:
            kind = LINEARITY if x in spent else UNBOUND_WIRE
            verb = "already consumed" if kind == LINEARITY else "not in scope"
            raise TypeCheckError(kind, f"wire {x!r} {verb}", loc)
    sel = tuple(b for b in omega if b[0] in names)
    rest = tuple(b for b in omega if b[0] not in names)
    if whole and rest:
        raise TypeCheckError(LINEARITY, f"wire {rest[0][0]!r} is dropped", loc)
    return sel, rest


def take(omega: WireContext, p: Pattern, loc, spent=frozenset(), whole=False):
    """Consume ``p``'s wires from ``omega``: the type ``p`` assembles,
    its wires in pattern order and the rest of ``omega`` (empty if
    ``whole``).  Repeated, unbound, ``spent`` or dropped wires fail."""
    names = tuple(pattern_wires(p))
    if len(set(names)) != len(names):
        raise TypeCheckError(PATTERN_SHAPE, f"duplicate wire in pattern {p}", loc)
    sel, rest = _select(omega, names, loc, spent, whole)
    if len(sel) != len(names):
        raise TypeCheckError(LINEARITY, "duplicate wire name in context", loc)
    return pattern_type(dict(sel), p), names, rest


def match_pattern(omega: WireContext, p: Pattern) -> WireType:
    """Decide the pattern relation: ``p`` must consume ``omega`` exactly
    (up to exchange) and the assembled wire type is returned."""
    got, _, rest = take(omega, p, None)
    if rest:
        raise TypeCheckError(UNUSED_WIRE, f"wire {rest[0][0]!r} left unused")
    return got


def bind_step(bindings: tuple, remaining: WireContext, consumes, spent, loc):
    """The context and spent wires after a step that consumes
    ``consumes`` and binds ``bindings``, which may not shadow a live wire."""
    live = {w for w, _ in remaining}
    for x, _ in bindings:
        if x in live:
            raise TypeCheckError(
                LINEARITY, f"wire {x!r} rebound while still live", loc
            )
    return bindings + remaining, spent.union(consumes) - {x for x, _ in bindings}


def check_circuit(
    gamma: HostContext,
    omega: WireContext,
    term,
    ctx: CheckContext | None = None,
) -> WireType:
    """Check ``gamma; omega |- term : W`` and return W.

    Every wire of ``omega`` must be consumed exactly once.  Each node's
    ``Split`` is recorded in ``ctx``.
    """
    omega = tuple(omega)
    for _, ty in omega:
        _no_qlist(ty)
    return _circuit(gamma, omega, term, ctx or _default_ctx())


def _circuit(gamma, omega, term, ctx, spent=frozenset()) -> WireType:
    """``check_circuit`` on a context already free of ``qlist``: a wire
    type is checked for it once, where it enters (the caller's context, a
    box's domain, the wires a step binds)."""
    match term:
        case Output(p):
            got, names, _ = take(omega, p, term.loc, spent, whole=True)
            ctx.record(term, Split(names))
            return got
        case Unbox(t, p):
            ty = check_host(gamma, t, ctx)
            if isinstance(ty, MonadT) and isinstance(ty.inner, CircT):
                raise TypeCheckError(
                    EFFECTFUL_UNBOX,
                    "cannot unbox an effectful circuit computation; bind it first",
                    term.loc,
                )
            if not isinstance(ty, CircT):
                raise TypeCheckError(
                    MISMATCH, f"unbox expects a Circ value, got {ty}", term.loc
                )
            got, names, _ = take(omega, p, term.loc, spent, whole=True)
            if got != ty.w_in and isinstance(p, UnitP):
                raise TypeCheckError(
                    MISMATCH,
                    f"circuit of type {ty} is not closed: it expects wires of "
                    f"type {ty.w_in}, and none are given",
                    term.loc,
                )
            if got != ty.w_in:
                raise TypeCheckError(
                    MISMATCH,
                    f"unbox argument wires have type {got}, circuit expects {ty.w_in}",
                    term.loc,
                )
            ctx.record(term, Split(names))
            return ty.w_out
        case Init(t):
            if omega:
                raise TypeCheckError(
                    UNUSED_WIRE,
                    f"wire {omega[0][0]!r} left unused by init",
                    term.loc,
                )
            ty = check_host(gamma, t, ctx)
            try:
                v = unlift_type(ty)
            except NotClassicalError:
                raise TypeCheckError(
                    NOT_CLASSICAL, f"init needs a first-order value, got {ty}",
                    term.loc,
                )
            ctx.record(term, Split((), (), v))
            return v
        case Compose(p, first, _):
            fw = frozenset(free_wires(first))
            # sorted, so that the wire a diagnostic names never depends on hashing
            sel, remaining = _select(omega, sorted(fw), term.loc, spent)
            w1 = _circuit(gamma, sel, first, ctx, spent)
            consumes, bindings = fw, bind_pattern(p, w1, term.loc)
        case UnitElim(p, _):
            got, consumes, remaining = take(omega, p, term.loc, spent)
            if not isinstance(got, UnitW):
                raise TypeCheckError(
                    MISMATCH, f"() <- pattern of type {got}", term.loc
                )
            bindings = ()
        case PairElim(PairP(WireP(w1), WireP(w2)), p, _):
            if w1 == w2:
                raise TypeCheckError(
                    PATTERN_SHAPE, f"duplicate wire {w1!r} in pair binder", term.loc
                )
            got, consumes, remaining = take(omega, p, term.loc, spent)
            if not isinstance(got, TensorW):
                raise TypeCheckError(
                    MISMATCH, f"(w1, w2) <- pattern of type {got}", term.loc
                )
            bindings = ((w1, got.left), (w2, got.right))
        case Gate(out_p, g, in_p, _):
            try:
                w_in, w_out = gate_signature(g, ctx.gates)
            except UnknownGate as e:
                raise TypeCheckError(GATE_SIGNATURE, str(e.args[0]), term.loc)
            got, consumes, remaining = take(omega, in_p, term.loc, spent)
            if got != w_in:
                raise TypeCheckError(
                    GATE_SIGNATURE,
                    f"gate {g} expects {w_in}, applied at {got}",
                    term.loc,
                )
            bindings = bind_pattern(out_p, w_out, term.loc)
        case Lift(x, p, rest):
            v, names, remaining = take(omega, p, term.loc, spent)
            if not is_classical(v):
                raise TypeCheckError(
                    NOT_CLASSICAL, f"cannot lift wire of type {v}", term.loc
                )
            gamma2 = dict(gamma)
            gamma2[x] = lift_type(v)
            w_out = _circuit(gamma2, remaining, rest, ctx, spent | set(names))
            ctx.record(term, Split(names, (), (v, w_out)))
            return w_out
        case QLift(x, p, rest):
            # measure p into a wire fresh for the whole context, then lift it
            v, _, _ = take(omega, p, term.loc, spent)
            y = _fresh_name("y", free_wires(rest) | {w for w, _ in omega})
            expansion = Compose(WireP(y), Unbox(generate_meas_circuit(v), p),
                                Lift(x, WireP(y), rest), loc=term.loc)
            w_out = _circuit(gamma, omega, expansion, ctx, spent)
            ctx.record(term, expansion)
            return w_out
        case _:
            raise TypeCheckError(MISMATCH, f"not a circuit term: {term!r}")
    omega, spent = bind_step(bindings, remaining, consumes, spent, term.loc)
    ctx.record(term, Split(consumes, bindings))
    for _, ty in bindings:
        _no_qlist(ty, term.loc)
    return _circuit(gamma, omega, term.rest, ctx, spent)


# ---------------------------------------------------------------------------
# Host judgment
# ---------------------------------------------------------------------------


def check_host(
    gamma: HostContext,
    term: HostTerm,
    ctx: CheckContext | None = None,
    expected: HostType | None = None,
) -> HostType:
    """Check ``gamma |- term : A`` and return A.

    ``expected`` steers only the typing of numeric literals; the final
    type is always compared against it when given.
    """
    ctx = ctx or _default_ctx()
    ty = _infer_host(gamma, term, ctx, expected)
    if expected is not None and ty != expected:
        raise TypeCheckError(
            MISMATCH, f"expected {expected}, got {ty}", getattr(term, "loc", None)
        )
    return ty


def _infer_host(gamma, term, ctx, expected):
    match term:
        case Var(x):
            if x not in gamma:
                raise TypeCheckError(
                    MISMATCH, f"unbound host variable {x!r}", term.loc
                )
            return gamma[x]
        case Lam(x, ann, body):
            _check_host_type(ann, term.loc)
            gamma2 = dict(gamma)
            gamma2[x] = ann
            inner_expected = (
                expected.result if isinstance(expected, ArrowT) else None
            )
            return ArrowT(ann, check_host(gamma2, body, ctx, inner_expected))
        case App(f, a):
            fty = check_host(gamma, f, ctx)
            if not isinstance(fty, ArrowT):
                raise TypeCheckError(
                    MISMATCH, f"cannot apply a value of type {fty}", term.loc
                )
            check_host(gamma, a, ctx, fty.arg)
            return fty.result
        case UnitVal():
            return UnitT()
        case Pair(l, r):
            le = expected.left if isinstance(expected, ProductT) else None
            re_ = expected.right if isinstance(expected, ProductT) else None
            return ProductT(
                check_host(gamma, l, ctx, le), check_host(gamma, r, ctx, re_)
            )
        case Proj(side, t):
            if side not in (1, 2):
                raise TypeCheckError(
                    MISMATCH, f"projection side must be 1 or 2, got {side!r}",
                    term.loc,
                )
            ty = check_host(gamma, t, ctx)
            if not isinstance(ty, ProductT):
                raise TypeCheckError(
                    MISMATCH, f"projection from non-product {ty}", term.loc
                )
            return ty.left if side == 1 else ty.right
        case Ret(t):
            inner = expected.inner if isinstance(expected, MonadT) else None
            return MonadT(check_host(gamma, t, ctx, inner))
        case Bind(t, x, u):
            tty = check_host(gamma, t, ctx)
            if not isinstance(tty, MonadT):
                raise TypeCheckError(
                    MISMATCH, f"let <= needs a computation, got {tty}", term.loc
                )
            gamma2 = dict(gamma)
            gamma2[x] = tty.inner
            uty = check_host(gamma2, u, ctx, expected if isinstance(expected, MonadT) else None)
            if not isinstance(uty, MonadT):
                raise TypeCheckError(
                    MISMATCH, f"body of let <= must be a computation, got {uty}",
                    term.loc,
                )
            return uty
        case Box(p, w, body):
            _no_qlist(w, term.loc)
            bindings = bind_pattern(p, w, term.loc)
            w2 = _circuit(gamma, bindings, body, ctx)
            ctx.record(term, (w, w2, bindings))
            return CircT(w, w2)
        case Run(c):
            w = _circuit(gamma, (), c, ctx)
            if not is_classical(w):
                raise TypeCheckError(
                    NOT_CLASSICAL,
                    f"run needs a classical output type, got {w} "
                    "(use qrun to measure implicitly)",
                    term.loc,
                )
            ctx.record(term, w)
            return MonadT(lift_type(w))
        case QRun(c):
            # c is typed for its wire type, then again in the expansion;
            # a qrun inside c is met in both passes under equal contexts
            # and reuses the first, so no body is typed more than twice
            done = ctx.lookup(term)
            if done is not None and done[1] == gamma:
                return done[2]
            meas = generate_meas_circuit(_circuit(gamma, (), c, ctx))
            x = _fresh_name("x", free_wires(c))
            run = Run(Compose(WireP(x), c, Unbox(meas, WireP(x))), loc=term.loc)
            ty = _infer_host(gamma, run, ctx, expected)
            ctx.record(term, (run, dict(gamma), ty))
            return ty
        case IntLit(n):
            if isinstance(expected, ClassicalT) and expected.name != "int":
                if not (0 <= n < expected.cardinality):
                    raise TypeCheckError(
                        MISMATCH,
                        f"literal {n} out of range for {expected.name} "
                        f"(cardinality {expected.cardinality})",
                        term.loc,
                    )
                return expected
            return _int_type(ctx)
        case ClassicalLit(base, card, v):
            if not (0 <= v < card):
                raise TypeCheckError(
                    MISMATCH, f"literal {v} out of range for {base}", term.loc
                )
            return ClassicalT(base, card)
        case If(c, t, e):
            check_host(gamma, c, ctx, ClassicalT("bit", 2))
            tty = check_host(gamma, t, ctx, expected)
            # the else branch is checked against the then branch's type
            check_host(gamma, e, ctx, expected or tty)
            return tty
        case Prim("=", l, r):
            lty = check_host(gamma, l, ctx)
            if not isinstance(lty, ClassicalT):
                raise TypeCheckError(
                    MISMATCH, f"= compares classical values, got {lty}", term.loc
                )
            check_host(gamma, r, ctx, lty)
            return ClassicalT("bit", 2)
        case Prim("+" | "-", l, r):
            it = _int_type(ctx)
            check_host(gamma, l, ctx, it)
            check_host(gamma, r, ctx, it)
            return it
        case Prim(op):
            raise TypeCheckError(MISMATCH, f"unknown primitive {op!r}", term.loc)
        case Fix(a, w1, w2):
            _check_host_type(a, term.loc)
            _no_qlist(w1, term.loc)
            _no_qlist(w2, term.loc)
            rec = ArrowT(a, CircT(w1, w2))
            return ArrowT(ArrowT(rec, rec), rec)
        case GateFam(name, ix):
            check_host(gamma, ix, ctx, _int_type(ctx))
            w = GATE_FAMILIES.get(name)
            if w is None:
                raise TypeCheckError(
                    GATE_SIGNATURE, f"unknown gate family {name!r}", term.loc
                )
            ctx.record(term, (w, w))
            return CircT(w, w)
        case Ascribe(t, ann):
            _check_host_type(ann, term.loc)
            return check_host(gamma, t, ctx, ann)
    raise TypeCheckError(MISMATCH, f"not a host term: {term!r}")


def _check_host_type(a: HostType, loc):
    match a:
        case UnitT() | ClassicalT():
            pass
        case ProductT(l, r) | ArrowT(l, r):
            _check_host_type(l, loc)
            _check_host_type(r, loc)
        case MonadT(i):
            _check_host_type(i, loc)
        case CircT(w1, w2):
            _no_qlist(w1, loc)
            _no_qlist(w2, loc)
        case _:
            raise TypeCheckError(MISMATCH, f"not a host type: {a!r}", loc)


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------


@dataclass
class CheckedProgram:
    program: Program
    def_types: dict  # name -> HostType
    ctx: CheckContext


def check_program(prog: Program) -> CheckedProgram:
    """Check declarations in order; later ones may use earlier ones."""
    ctx = CheckContext(bases=prog.classical_bases(), gates=prog.declared_gates(),
                       table={})
    def_types: dict = {}
    for d in prog.decls:
        if isinstance(d, DefDecl):
            if d.ann is not None:
                _check_host_type(d.ann, d.loc)
            def_types[d.name] = check_host(def_types, d.term, ctx, d.ann)
    return CheckedProgram(prog, def_types, ctx)


# ---------------------------------------------------------------------------
# Measurement sugar
# ---------------------------------------------------------------------------


def _structural_circuit(w: WireType, gate: str) -> Box:
    """The circuit that applies ``gate`` (``meas`` or ``new``) to every
    qubit of W and passes classical wires through, by the left-to-right
    tensor recursion.  A ``new`` circuit takes ``classicalize(W)``."""
    source = w if gate == "meas" else classicalize(w)
    match w:
        case _ if is_classical(w):
            return Box(WireP("w"), w, Output(WireP("w")))
        case QuantumW(_, 2):
            return Box(
                WireP("p"),
                source,
                Gate(WireP("p'"), GateRef(gate), WireP("p"), Output(WireP("p'"))),
            )
        case TensorW(l, r):
            body = Compose(
                WireP("x"),
                Unbox(_structural_circuit(l, gate), WireP("w")),
                Compose(
                    WireP("x'"),
                    Unbox(_structural_circuit(r, gate), WireP("w'")),
                    Output(PairP(WireP("x"), WireP("x'"))),
                ),
            )
            return Box(PairP(WireP("w"), WireP("w'")), source, body)
    kind = "measurement" if gate == "meas" else "preparation"
    raise NotClassicalError(f"no {kind} circuit for {w}")


def generate_meas_circuit(w: WireType) -> Box:
    """The measuring circuit Circ(W, classicalize(W)), by induction on W:
    identity on classical types, the meas gate on qubits, and the
    left-to-right tensor recursion otherwise."""
    return _structural_circuit(w, "meas")


def generate_new_circuit(w: WireType) -> Box:
    """The preparing circuit Circ(classicalize(W), W), dual to the
    measuring one."""
    return _structural_circuit(w, "new")


def elaborate_sugar(checked: CheckedProgram) -> Program:
    """The checked program with every ``qrun`` and ``qlift`` replaced by
    the expansion the typechecker recorded for it: core syntax that
    typechecks at the same declaration types."""
    ctx = checked.ctx

    def elab(n):
        if isinstance(n, QRun):
            n = ctx.lookup(n)[0]
        elif isinstance(n, QLift):
            n = ctx.lookup(n)
        return map_children(n, elab)

    return Program(tuple(
        DefDecl(d.name, d.ann, elab(d.term), loc=d.loc)
        if isinstance(d, DefDecl) else d
        for d in checked.program.decls
    ))
