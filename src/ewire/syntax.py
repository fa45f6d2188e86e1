"""Abstract syntax for EWire.

EWire is a two-level language: a first-order *circuit* language with a
linear type discipline over wire types, embedded in a higher-order
monadic *host* language.  Wire types classify linear circuit data
(qubits, classical wires, tensors); host types classify ordinary
functional values, including a type ``Circ(W1, W2)`` of boxed circuits
and a monad ``T`` of probabilistic computations.

All syntax values are immutable after construction; operations here are
pure and safe to run concurrently on shared terms.

``children`` and ``map_children`` are the one traversal of terms: they
find a node's subterms from the fields annotated ``HostTerm`` or
``CircuitTerm``.  Scope is declared once, next to each term class:
``consumes`` names the ``Pattern`` fields whose wires the node reads,
and ``binds`` the field it binds, a ``Pattern`` of wires or a ``str``
host variable, in its last term field (``body`` or ``rest``; an earlier
one, like ``Compose.first`` or ``Bind.arg``, is outside the binder).
``free_wires``, ``free_host_vars``, wire and host substitution and
``alpha_equiv`` are one walk each over these declarations (``_scope``).
Wire walks stay in circuit fields: a host term's circuits are boxed, and
a box binds every wire its body uses.  So a new term constructor needs a
declaration here, and cases of its own only in typing, evaluation and
printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cache
from types import MappingProxyType
from typing import NamedTuple, Optional


@dataclass(frozen=True)
class Span:
    """Source position (1-indexed line, 0-indexed column)."""

    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


def _loc_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Wire types
# ---------------------------------------------------------------------------


class WireType:
    """Base class of wire types: I, tensors, classical and quantum bases."""

    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class UnitW(WireType):
    """The unit wire type I."""


@dataclass(frozen=True)
class TensorW(WireType):
    left: WireType
    right: WireType


@dataclass(frozen=True)
class ClassicalW(WireType):
    """A classical base wire type with a finite number of values.

    Cardinality must be at least 1; denotation requires enumerating the
    values, so every classical base is declared with an explicit size.
    """

    name: str
    cardinality: int


@dataclass(frozen=True)
class QuantumW(WireType):
    """A circuit-only base type, interpreted as a full matrix algebra."""

    name: str
    dimension: int


@dataclass(frozen=True)
class QListW(WireType):
    """Placeholder for the qubit-list type before size instantiation.

    Rejected by the typechecker; the CLI's ``--qlist-size`` preprocessing
    replaces it with a right-nested tensor of qubits.
    """


BIT = ClassicalW("bit", 2)
QUBIT = QuantumW("qubit", 2)

# the classical bases every program starts with; read-only, so a caller
# that declares more copies them first
DEFAULT_BASES = MappingProxyType({"bit": 2, "int": 64})


def is_classical(w: WireType) -> bool:
    """True iff ``w`` contains no quantum base leaf."""
    match w:
        case UnitW() | ClassicalW():
            return True
        case TensorW(l, r):
            return is_classical(l) and is_classical(r)
        case _:
            return False


def classicalize(w: WireType) -> WireType:
    """Replace every quantum base by a classical base of the same size.

    Homomorphic on tensors and the unit; the identity on classical
    types, hence idempotent.  A 2-dimensional quantum base becomes bit.
    """
    match w:
        case UnitW() | ClassicalW():
            return w
        case TensorW(l, r):
            return TensorW(classicalize(l), classicalize(r))
        case QuantumW(name, dim):
            return BIT if dim == 2 else ClassicalW(name, dim)
        case _:
            raise NotClassicalError(f"cannot classicalize {w!r}")


class NotClassicalError(ValueError):
    """Raised when a classical wire type was required."""


# ---------------------------------------------------------------------------
# Host types
# ---------------------------------------------------------------------------


class HostType:
    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class UnitT(HostType):
    """The host unit type, written 1."""


@dataclass(frozen=True)
class ProductT(HostType):
    left: HostType
    right: HostType


@dataclass(frozen=True)
class ArrowT(HostType):
    arg: HostType
    result: HostType


@dataclass(frozen=True)
class MonadT(HostType):
    """T(A): probabilistic computations returning A."""

    inner: HostType


@dataclass(frozen=True)
class CircT(HostType):
    """Circ(W1, W2): boxed circuits from W1 to W2."""

    w_in: WireType
    w_out: WireType


@dataclass(frozen=True)
class ClassicalT(HostType):
    """A classical base shared between wire and host levels."""

    name: str
    cardinality: int


def lift_type(v: WireType) -> HostType:
    """The host type |V| of a classical wire type V.

    |I| = 1, |V (x) V'| = |V| x |V'| and each classical base is shared.
    Raises NotClassicalError on a quantum leaf.
    """
    match v:
        case UnitW():
            return UnitT()
        case TensorW(l, r):
            return ProductT(lift_type(l), lift_type(r))
        case ClassicalW(name, card):
            return ClassicalT(name, card)
        case _:
            raise NotClassicalError(f"{pretty_print(v)} is not a classical wire type")


def unlift_type(a: HostType) -> WireType:
    """Inverse of lift_type on first-order host types."""
    match a:
        case UnitT():
            return UnitW()
        case ProductT(l, r):
            return TensorW(unlift_type(l), unlift_type(r))
        case ClassicalT(name, card):
            return ClassicalW(name, card)
        case _:
            raise NotClassicalError(f"{pretty_print(a)} is not a first-order host type")


def mentions_qlist(t) -> bool:
    """True iff the wire or host type ``t`` contains ``qlist``."""
    match t:
        case QListW():
            return True
        case TensorW(l, r) | CircT(l, r) | ArrowT(l, r):
            return mentions_qlist(l) or mentions_qlist(r)
        case _:
            return False


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Pattern:
    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class WireP(Pattern):
    name: str


@dataclass(frozen=True)
class UnitP(Pattern):
    pass


@dataclass(frozen=True)
class PairP(Pattern):
    left: Pattern
    right: Pattern


def pattern_wires(p: Pattern) -> list[str]:
    """Wire names of ``p``, left to right."""
    match p:
        case WireP(x):
            return [x]
        case UnitP():
            return []
        case PairP(l, r):
            return pattern_wires(l) + pattern_wires(r)
    raise TypeError(f"not a pattern: {p!r}")


def pattern_linear(p: Pattern) -> bool:
    """True iff wire names within ``p`` are pairwise distinct."""
    ws = pattern_wires(p)
    return len(ws) == len(set(ws))


class ShapeMismatch(ValueError):
    """Pattern shapes cannot be aligned for substitution or binding."""


# ---------------------------------------------------------------------------
# Circuit terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateRef:
    """Reference to a gate: a bare name, an indexed rotation family
    member, or a (classically/quantum) controlled gate."""

    name: str
    index: Optional[int] = None
    sub: Optional["GateRef"] = None

    def __str__(self):
        return pretty_print(self)


class UnknownGate(KeyError):
    """A gate reference with no signature (typing) or no map (denotation)."""


class CircuitTerm:
    # the scope declaration of a term class (see the module docstring)
    consumes = ()
    binds = None

    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class Output(CircuitTerm):
    pat: Pattern
    loc: Optional[Span] = _loc_field()

    consumes = ("pat",)


@dataclass(frozen=True)
class Compose(CircuitTerm):
    """p <- C1; C2 — run C1, bind its output wires through p."""

    pat: Pattern
    first: CircuitTerm
    rest: CircuitTerm
    loc: Optional[Span] = _loc_field()

    binds = "pat"


@dataclass(frozen=True)
class UnitElim(CircuitTerm):
    """() <- p; C — eliminate a unit-typed pattern."""

    pat: Pattern
    rest: CircuitTerm
    loc: Optional[Span] = _loc_field()

    consumes = ("pat",)


@dataclass(frozen=True)
class PairElim(CircuitTerm):
    """(w1, w2) <- p; C — split a tensor-typed pattern into two wires;
    ``binder`` is the pattern (w1, w2)."""

    binder: Pattern
    pat: Pattern
    rest: CircuitTerm
    loc: Optional[Span] = _loc_field()

    consumes = ("pat",)
    binds = "binder"


@dataclass(frozen=True)
class Gate(CircuitTerm):
    """p2 <- gate g p1; C."""

    out_pat: Pattern
    gate: GateRef
    in_pat: Pattern
    rest: CircuitTerm
    loc: Optional[Span] = _loc_field()

    consumes = ("in_pat",)
    binds = "out_pat"


@dataclass(frozen=True)
class Unbox(CircuitTerm):
    """unbox t p — splice a boxed circuit onto the wires of p."""

    term: HostTerm
    pat: Pattern
    loc: Optional[Span] = _loc_field()

    consumes = ("pat",)


@dataclass(frozen=True)
class Lift(CircuitTerm):
    """x <= lift p; C — read a classical wire into host variable x."""

    var: str
    pat: Pattern
    rest: CircuitTerm
    loc: Optional[Span] = _loc_field()

    consumes = ("pat",)
    binds = "var"


@dataclass(frozen=True)
class Init(CircuitTerm):
    """init t — create a classical wire holding the value of t."""

    term: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class QLift(CircuitTerm):
    """x <= qlift p; C — sugar: measure p, then lift the result."""

    var: str
    pat: Pattern
    rest: CircuitTerm
    loc: Optional[Span] = _loc_field()

    consumes = ("pat",)
    binds = "var"


# ---------------------------------------------------------------------------
# Host terms
# ---------------------------------------------------------------------------


class HostTerm:
    # the scope declaration of a term class (see the module docstring)
    consumes = ()
    binds = None

    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class Var(HostTerm):
    name: str
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Lam(HostTerm):
    var: str
    ann: HostType
    body: HostTerm
    loc: Optional[Span] = _loc_field()

    binds = "var"


@dataclass(frozen=True)
class App(HostTerm):
    fn: HostTerm
    arg: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class UnitVal(HostTerm):
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Pair(HostTerm):
    left: HostTerm
    right: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Proj(HostTerm):
    """fst t / snd t."""

    side: int  # 1 or 2
    arg: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Ret(HostTerm):
    """return t — unit of the computation monad."""

    arg: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Bind(HostTerm):
    """let x <= t in u — monadic bind."""

    arg: HostTerm
    var: str
    body: HostTerm
    loc: Optional[Span] = _loc_field()

    binds = "var"


@dataclass(frozen=True)
class Box(HostTerm):
    """box (p : W) => C — reify a circuit as host data."""

    pat: Pattern
    w_in: WireType
    body: CircuitTerm
    loc: Optional[Span] = _loc_field()

    binds = "pat"


@dataclass(frozen=True)
class Run(HostTerm):
    """run C — execute a closed classical-output circuit."""

    circuit: CircuitTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class IntLit(HostTerm):
    value: int
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class ClassicalLit(HostTerm):
    """A literal of a named classical base, e.g. (1 : bit)."""

    base: str
    cardinality: int
    value: int
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class If(HostTerm):
    cond: HostTerm
    then: HostTerm
    orelse: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Prim(HostTerm):
    """Binary arithmetic or comparison: +, -, =."""

    op: str
    left: HostTerm
    right: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Fix(HostTerm):
    """The fixed-point combinator at type
    ((A -> Circ(W1, W2)) -> (A -> Circ(W1, W2))) -> A -> Circ(W1, W2)."""

    arg_type: HostType
    w_in: WireType
    w_out: WireType
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class GateFam(HostTerm):
    """An indexed gate family applied to a host index, e.g. CR n."""

    name: str
    index: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Ascribe(HostTerm):
    term: HostTerm
    ann: HostType
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class QRun(HostTerm):
    """qrun C — sugar: run C after measuring its output wires."""

    circuit: CircuitTerm
    loc: Optional[Span] = _loc_field()


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalDecl:
    name: str
    cardinality: int
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class GateDecl:
    name: str
    w_in: WireType
    w_out: WireType
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class DefDecl:
    name: str
    ann: Optional[HostType]
    term: HostTerm
    loc: Optional[Span] = _loc_field()


@dataclass(frozen=True)
class Program:
    decls: tuple

    def classical_bases(self) -> dict[str, int]:
        bases = dict(DEFAULT_BASES)
        for d in self.decls:
            if isinstance(d, ClassicalDecl):
                bases[d.name] = d.cardinality
        return bases

    def declared_gates(self) -> dict[str, tuple[WireType, WireType]]:
        return {
            d.name: (d.w_in, d.w_out)
            for d in self.decls
            if isinstance(d, GateDecl)
        }

    def find(self, name: str):
        for d in self.decls:
            if isinstance(d, DefDecl) and d.name == name:
                return d
        return None


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


class _Scope(NamedTuple):
    """A term class's fields by role, as ``_scope`` reads them."""

    terms: tuple  # the fields that hold terms, in field order
    outside: tuple  # the term fields before the last, out of the binder's reach
    scope: Optional[str]  # the last term field, where the binder binds
    circuits: tuple  # the circuit fields of terms: wire walks enter no host term
    consumes: tuple  # the Pattern fields whose wires the node reads
    wires: Optional[str]  # the Pattern field it binds, if any
    var: Optional[str]  # the str field, a host variable, it binds if any
    data: tuple  # the other fields that equality compares


@cache
def _scope(cls) -> _Scope:
    """The fields of term class ``cls`` by role, from their annotations
    and the class's scope declaration, which is checked: every ``Pattern``
    field is consumed or bound, and ``binds`` names a ``Pattern`` or
    ``str`` field and binds in a last term field (a circuit, for wires).
    Raises TypeError otherwise."""
    if not issubclass(cls, (HostTerm, CircuitTerm)):
        raise TypeError(f"not a term class: {cls.__name__}")
    types = {f.name: f.type for f in fields(cls) if f.compare}
    terms = tuple(n for n, t in types.items() if t in ("HostTerm", "CircuitTerm"))
    bound, kind = cls.binds, types.get(cls.binds)
    declared = {*cls.consumes, bound}
    loose = [n for n, t in types.items() if t == "Pattern" and n not in declared]
    if loose:
        raise TypeError(f"{cls.__name__}.{loose[0]} is neither consumed nor bound")
    if any(types.get(n) != "Pattern" for n in cls.consumes):
        raise TypeError(f"{cls.__name__} consumes a field that is not a Pattern")
    if bound is not None and kind not in ("Pattern", "str"):
        raise TypeError(f"{cls.__name__} binds {bound!r}: not a Pattern or str field")
    if bound is not None and (
        not terms or (kind == "Pattern" and types[terms[-1]] != "CircuitTerm")
    ):
        raise TypeError(f"{cls.__name__} binds {bound!r} with no scope to bind in")
    return _Scope(
        terms, terms[:-1], terms[-1] if terms else None,
        tuple(n for n in terms if types[n] == "CircuitTerm"),
        tuple(cls.consumes), bound if kind == "Pattern" else None,
        bound if kind == "str" else None,
        tuple(n for n in types if n not in declared and n not in terms),
    )


def children(node) -> tuple:
    """The host and circuit subterms of a term node, in field order."""
    return tuple(getattr(node, name) for name in _scope(type(node)).terms)


def map_children(node, fn):
    """``node`` rebuilt with ``fn`` applied to each subterm, keeping its
    source span; a node without subterms comes back unchanged."""
    names = _scope(type(node)).terms
    if not names:
        return node
    return replace(node, **{name: fn(getattr(node, name)) for name in names})


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def free_wires(c: CircuitTerm) -> set[str]:
    """Wires consumed by ``c`` that it does not bind itself."""
    s = _scope(type(c))
    out = set()
    for name in s.consumes:
        out.update(pattern_wires(getattr(c, name)))
    for name in s.circuits:
        inner = free_wires(getattr(c, name))
        if name == s.scope and s.wires is not None:
            inner.difference_update(pattern_wires(getattr(c, s.wires)))
        out |= inner
    return out


def free_host_vars(node) -> set[str]:
    """Free host-language variables of a host or circuit term."""
    if type(node) is Var:
        return {node.name}
    s = _scope(type(node))
    out = set()
    for name in s.outside:
        out |= free_host_vars(getattr(node, name))
    if s.scope is not None:
        inner = free_host_vars(getattr(node, s.scope))
        if s.var is not None:
            inner.discard(getattr(node, s.var))
        out |= inner
    return out


# ---------------------------------------------------------------------------
# Wire substitution
# ---------------------------------------------------------------------------


def _wire_binding(src: Pattern, dst: Pattern) -> dict[str, Pattern]:
    """Align ``src`` against ``dst`` leafwise.

    Succeeds when the shapes match or ``src`` is a single wire (which
    then maps onto the whole of ``dst``).
    """
    match src:
        case WireP(x):
            return {x: dst}
        case UnitP():
            if isinstance(dst, UnitP):
                return {}
            raise ShapeMismatch(f"cannot bind () to {dst}")
        case PairP(l, r):
            if isinstance(dst, PairP):
                b = _wire_binding(l, dst.left)
                b.update(_wire_binding(r, dst.right))
                return b
            raise ShapeMismatch(f"cannot bind {src} to {dst}")
    raise TypeError(f"not a pattern: {src!r}")


def _subst_in_pattern(p: Pattern, binding: dict[str, Pattern]) -> Pattern:
    match p:
        case WireP(x):
            return binding.get(x, p)
        case UnitP():
            return p
        case PairP(l, r):
            return PairP(_subst_in_pattern(l, binding), _subst_in_pattern(r, binding))
    raise TypeError(f"not a pattern: {p!r}")


def _fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def subst_pattern(c: CircuitTerm, src: Pattern, dst: Pattern) -> CircuitTerm:
    """Capture-avoiding replacement of the wires of ``src`` by ``dst``.

    The wires of ``src`` must be free in ``c``; internal wire binders
    that would capture a wire of ``dst`` are renamed first.
    """
    binding = _wire_binding(src, dst)
    return _subst_wires(c, binding)


def _subst_wires(c: CircuitTerm, binding: dict[str, Pattern]) -> CircuitTerm:
    if not binding:
        return c
    s = _scope(type(c))
    new = {name: _subst_in_pattern(getattr(c, name), binding) for name in s.consumes}
    for name in s.circuits:
        sub, inner = getattr(c, name), binding
        if name == s.scope and s.wires is not None:
            # names bound here drop out of the substitution, and a binder
            # clashing with a wire the substitution brings in is renamed
            bound = set(pattern_wires(getattr(c, s.wires)))
            introduced = {w for p in binding.values() for w in pattern_wires(p)}
            avoid = introduced | {x for x in binding if x not in bound}
            new[s.wires], sub = freshen_binder(getattr(c, s.wires), sub, avoid)
            bound = set(pattern_wires(new[s.wires]))
            inner = {x: p for x, p in binding.items() if x not in bound}
        new[name] = _subst_wires(sub, inner)
    return replace(c, **new) if new else c


def freshen_binder(pat: Pattern, scope: CircuitTerm, avoid: set[str]):
    """Rename the wires of binder ``pat`` that occur in ``avoid``,
    substituting consistently in its ``scope``; returns both.

    Fresh names avoid ``avoid``, the binder and the free wires of the
    scope, and are chosen left to right through the pattern.
    """
    clash = set(pattern_wires(pat)) & avoid
    if not clash:
        return pat, scope
    taken = avoid | set(pattern_wires(pat)) | free_wires(scope)
    renaming: dict[str, Pattern] = {}

    def freshen(q):
        match q:
            case WireP(x) if x in clash:
                y = _fresh_name(x, taken)
                taken.add(y)
                renaming[x] = WireP(y)
                return WireP(y)
            case PairP(l, r):
                return PairP(freshen(l), freshen(r))
            case _:
                return q

    return freshen(pat), _subst_wires(scope, renaming)


# ---------------------------------------------------------------------------
# Host-variable substitution inside terms
# ---------------------------------------------------------------------------


def subst_host(node, var: str, repl: HostTerm):
    """Substitute host term ``repl`` for ``var``, avoiding capture of
    the free host variables of ``repl`` by host binders."""
    fv = free_host_vars(repl)

    def go(n):
        if type(n) is Var:
            return repl if n.name == var else n
        s = _scope(type(n))
        if s.var is None:
            return map_children(n, go)
        new = {name: go(getattr(n, name)) for name in s.outside}
        x = getattr(n, s.var)
        if x != var:
            body = getattr(n, s.scope)
            if x in fv:
                # rename binder x of body away from the free variables of repl
                y = _fresh_name(x, fv | free_host_vars(body) | {var})
                x, body = y, subst_host(body, x, Var(y))
            new[s.var], new[s.scope] = x, go(body)
        return replace(n, **new) if new else n

    return go(node)


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------


def alpha_equiv(a, b) -> bool:
    """Equality of terms up to consistent renaming of bound wires and
    bound host variables."""
    return _alpha(a, b, {}, {})


def _alpha_pat(p, q, wmap):
    match (p, q):
        case (WireP(x), WireP(y)):
            wmap[x] = y
            return True
        case (UnitP(), UnitP()):
            return True
        case (PairP(l1, r1), PairP(l2, r2)):
            return _alpha_pat(l1, l2, wmap) and _alpha_pat(r1, r2, wmap)
    return False


def _pat_eq(p, q, wm):
    match (p, q):
        case (WireP(x), WireP(y)):
            return wm.get(x, x) == y
        case (UnitP(), UnitP()):
            return True
        case (PairP(l1, r1), PairP(l2, r2)):
            return _pat_eq(l1, l2, wm) and _pat_eq(r1, r2, wm)
    return False


def _alpha(a, b, wm, hm):
    """wm maps wire names of a to those of b; hm likewise for host vars."""
    if type(a) is not type(b) or not isinstance(a, (HostTerm, CircuitTerm)):
        return False
    if type(a) is Var:
        return hm.get(a.name, a.name) == b.name
    s = _scope(type(a))
    if not (all(getattr(a, n) == getattr(b, n) for n in s.data)
            and all(_pat_eq(getattr(a, n), getattr(b, n), wm) for n in s.consumes)
            and all(_alpha(getattr(a, n), getattr(b, n), wm, hm) for n in s.outside)):
        return False
    if s.scope is None:
        return True
    if s.wires is not None:
        wm = dict(wm)
        if not _alpha_pat(getattr(a, s.wires), getattr(b, s.wires), wm):
            return False
    elif s.var is not None:
        hm = {**hm, getattr(a, s.var): getattr(b, s.var)}
    return _alpha(getattr(a, s.scope), getattr(b, s.scope), wm, hm)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def pretty_print(node) -> str:
    """Render any syntax node back to concrete syntax.

    Printing a well-formed term and reparsing it yields an
    alpha-equivalent term.
    """
    match node:
        case UnitW():
            return "I"
        case TensorW(l, r):
            ls = pretty_print(l)
            if isinstance(l, TensorW):
                ls = f"({ls})"
            return f"{ls} * {pretty_print(r)}"
        case ClassicalW(name, _) | QuantumW(name, _):
            return name
        case QListW():
            return "qlist"
        case UnitT():
            return "1"
        case ProductT(l, r):
            ls = pretty_print(l)
            if isinstance(l, (ProductT, ArrowT)):
                ls = f"({ls})"
            rs = pretty_print(r)
            if isinstance(r, ArrowT):
                rs = f"({rs})"
            return f"{ls} * {rs}"
        case ArrowT(a, b):
            asrc = pretty_print(a)
            if isinstance(a, ArrowT):
                asrc = f"({asrc})"
            return f"{asrc} -> {pretty_print(b)}"
        case MonadT(a):
            return f"T({pretty_print(a)})"
        case CircT(w1, w2):
            return f"Circ({pretty_print(w1)}, {pretty_print(w2)})"
        case ClassicalT(name, _):
            return name
        case WireP(x):
            return x
        case UnitP():
            return "()"
        case PairP(l, r):
            return f"({pretty_print(l)}, {pretty_print(r)})"
        case GateRef("bit-control", _, sub):
            return f"bit-control {pretty_print(sub)}"
        case GateRef("control", _, sub):
            return f"control {pretty_print(sub)}"
        case GateRef(name, None, None):
            return name
        case GateRef(name, ix, None):
            return f"{name} {ix}"
        case _ if isinstance(node, CircuitTerm):
            return _print_circuit(node)
        case _ if isinstance(node, HostTerm):
            return _print_host(node, 0)
        case Program(decls):
            return "\n".join(_print_decl(d) for d in decls) + "\n"
        case ClassicalDecl() | GateDecl() | DefDecl():
            return _print_decl(node)
    raise TypeError(f"cannot print {node!r}")


def _gate_spec(g: GateRef) -> str:
    s = pretty_print(g)
    return f"({s})" if (g.sub is not None or g.index is not None) else s


def _rhs(c: CircuitTerm) -> str:
    """Print a circuit in right-hand-side position of a binding."""
    s = _print_circuit(c)
    return s if isinstance(c, (Output, Unbox, Init)) else f"({s})"


def _print_circuit(c: CircuitTerm) -> str:
    parts = []
    while True:
        match c:
            case Output(p):
                parts.append(f"output {pretty_print(p)}")
                break
            case Unbox(t, p):
                parts.append(f"unbox {_print_host(t, 10)} {pretty_print(p)}")
                break
            case Init(t):
                parts.append(f"init {_print_host(t, 10)}")
                break
            case Compose(p, first, rest):
                parts.append(f"{pretty_print(p)} <- {_rhs(first)}")
                c = rest
            case UnitElim(p, rest):
                parts.append(f"() <- {pretty_print(p)}")
                c = rest
            case PairElim(binder, p, rest):
                parts.append(f"{pretty_print(binder)} <- {pretty_print(p)}")
                c = rest
            case Gate(out_p, g, in_p, rest):
                parts.append(
                    f"{pretty_print(out_p)} <- gate {_gate_spec(g)} {pretty_print(in_p)}"
                )
                c = rest
            case Lift(x, p, rest):
                parts.append(f"{x} <= lift {pretty_print(p)}")
                c = rest
            case QLift(x, p, rest):
                parts.append(f"{x} <= qlift {pretty_print(p)}")
                c = rest
            case _:
                raise TypeError(f"cannot print circuit {c!r}")
    return "; ".join(parts)


def _annotated_pattern(p: Pattern, w: WireType) -> str:
    match p:
        case WireP(x):
            return f"{x} : {pretty_print(w)}"
        case UnitP():
            return "()"
        case PairP(l, r):
            if not isinstance(w, TensorW):
                raise ShapeMismatch(f"pattern {p} at non-tensor type {w}")
            return f"({_annotated_pattern(l, w.left)}, {_annotated_pattern(r, w.right)})"
    raise TypeError(f"not a pattern: {p!r}")


def _print_host(t: HostTerm, prec: int) -> str:
    # precedence levels: 0 open, 2 comparison, 4 additive, 6 application,
    # 10 atom
    def wrap(level, s):
        return f"({s})" if prec > level else s

    match t:
        case Var(x):
            return x
        case IntLit(v):
            return str(v) if v >= 0 else f"({v})"
        case ClassicalLit(base, _, v):
            return f"({v} : {base})"
        case UnitVal():
            return "()"
        case Pair(l, r):
            return f"({_print_host(l, 0)}, {_print_host(r, 0)})"
        case Lam(x, a, body):
            return wrap(0, f"lambda {x} : {pretty_print(a)} . {_print_host(body, 0)}")
        case Bind(arg, x, body):
            return wrap(
                0, f"let {x} <= {_print_host(arg, 2)} in {_print_host(body, 0)}"
            )
        case If(c, th, el):
            return wrap(
                0,
                f"if {_print_host(c, 2)} then {_print_host(th, 2)}"
                f" else {_print_host(el, 2)}",
            )
        case Ret(arg):
            return wrap(5, f"return {_print_host(arg, 6)}")
        case Run(circ):
            return wrap(5, f"run ({_print_circuit(circ)})")
        case QRun(circ):
            return wrap(5, f"qrun ({_print_circuit(circ)})")
        case Box(p, w, body):
            try:
                binder = _annotated_pattern(p, w)
            except ShapeMismatch:  # a type not split along p is printed whole
                binder = f"{pretty_print(p)} : {pretty_print(w)}"
            return wrap(0, f"box {binder} => ({_print_circuit(body)})")
        case Prim("=", l, r):
            return wrap(2, f"{_print_host(l, 3)} = {_print_host(r, 3)}")
        case Prim(op, l, r):
            return wrap(4, f"{_print_host(l, 4)} {op} {_print_host(r, 5)}")
        case App(f, a):
            return wrap(6, f"{_print_host(f, 6)} {_print_host(a, 7)}")
        case Proj(side, arg):
            kw = "fst" if side == 1 else "snd"
            return wrap(6, f"{kw} {_print_host(arg, 7)}")
        case GateFam(name, ix):
            return wrap(6, f"{name} {_print_host(ix, 7)}")
        case Fix(a, w1, w2):
            return (
                f"Y[{pretty_print(a)}, {pretty_print(w1)}, {pretty_print(w2)}]"
            )
        case Ascribe(term, a):
            return f"({_print_host(term, 0)} : {pretty_print(a)})"
    raise TypeError(f"cannot print host term {t!r}")


def _print_decl(d) -> str:
    match d:
        case ClassicalDecl(name, card):
            return f"classical {name} {card}"
        case GateDecl(name, w1, w2):
            return f"gate {name} : {pretty_print(w1)} -> {pretty_print(w2)}"
        case DefDecl(name, ann, term):
            anns = f" : {pretty_print(ann)}" if ann is not None else ""
            return f"def {name}{anns} = {_print_host(term, 0)}"
    raise TypeError(f"cannot print declaration {d!r}")
