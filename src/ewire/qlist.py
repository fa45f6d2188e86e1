"""Size instantiation for qubit-list programs.

The surface language has a wire type ``qlist`` together with the
structural gates ``isempty``, ``headtail``, ``nil`` and ``cons``.  Those
cannot be typed at a fixed dimension, so before typechecking the CLI
specialises every list-typed declaration at the concrete sizes it is
used at: ``qlist`` becomes the right-nested tensor
``qubit * (qubit * (... * I))``, ``headtail`` becomes a pair
elimination, ``cons`` and ``nil`` a composition with an output of the
pair or of ``()``, and ``isempty`` a statically known flag whose
surrounding lift-and-branch idiom::

    (b, qs) <- gate isempty qs; b <= lift b; unbox (if b then E1 else E2) p

is resolved at preprocessing time (the branch not taken would not even
typecheck at the instantiated size).  A declaration ``f`` used at list
size k becomes ``f__k``; recursive references then point at smaller
sizes, so the output program is recursion-free in the list structure.

The walk only rewrites: a list gate is first replaced by the core node
it becomes, which is then walked like any other.  It threads an ordered
wire context and the consumed wires as ``typecheck.check_circuit`` does,
through the typechecker's own pattern typing, binders, context splits,
binding tail and host judgment; these give every wire and host type it
needs (the argument of an ``unbox`` fixes the size a template is
instantiated at).  A failure inside a declaration is a ``QListError`` at
the span of the step or declaration it concerns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import algebra
from .syntax import (
    App, ArrowT, Box, CircT, ClassicalDecl, Compose, DefDecl, Gate,
    GateDecl, GateRef, HostTerm, If, Init, Lam, Lift, NotClassicalError,
    Output, PairElim, PairP, Program, QListW, QUBIT, QuantumW, TensorW,
    UnitElim, UnitP, UnitW, Unbox, Var, WireP, WireType, _subst_in_pattern,
    free_wires, lift_type, mentions_qlist, pretty_print, unlift_type,
)
from .typecheck import (
    CheckContext, TypeCheckError, _select, bind_pattern, bind_step,
    check_host, take,
)


LIST_GATES = {"isempty", "headtail", "nil", "cons"}


class QListError(Exception):
    """The program falls outside the supported sized-list idiom."""

    def __init__(self, message: str, loc=None):
        super().__init__(message)
        self.loc = loc


def qlist_type(k: int) -> WireType:
    w: WireType = UnitW()
    for _ in range(k):
        w = TensorW(QUBIT, w)
    return w


def subst_qlist(w, k: int):
    """The wire or host type ``w`` (or None) with every qlist of size ``k``."""
    match w:
        case QListW():
            return qlist_type(k)
        case TensorW(l, r):
            return TensorW(subst_qlist(l, k), subst_qlist(r, k))
        case CircT(l, r):
            return CircT(subst_qlist(l, k), subst_qlist(r, k))
        case ArrowT(l, r):
            return ArrowT(subst_qlist(l, k), subst_qlist(r, k))
        case _:
            return w


def list_size(w: WireType, loc=None) -> int:
    """Length of a right-nested qubit list type; ``loc`` is the span of
    the step that needs it."""
    n = 0
    while isinstance(w, TensorW) and isinstance(w.left, QuantumW):
        n += 1
        w = w.right
    if not isinstance(w, UnitW):
        raise QListError(f"{pretty_print(w)} is not a sized qubit list", loc)
    return n


def _unify_size(template: WireType, concrete: WireType, loc) -> int | None:
    """Find the single list size k with template[qlist := k] = concrete."""
    found: list[int] = []

    def go(t, c):
        match t:
            case QListW():
                found.append(list_size(c, loc))
            case TensorW(l, r):
                if not isinstance(c, TensorW):
                    raise QListError(
                        f"cannot match {pretty_print(t)} against {pretty_print(c)}",
                        loc,
                    )
                go(l, c.left)
                go(r, c.right)
            case _:
                if t != c:
                    raise QListError(
                        f"cannot match {pretty_print(t)} against {pretty_print(c)}",
                        loc,
                    )

    go(template, concrete)
    if not found:
        return None
    if len(set(found)) != 1:
        raise QListError(f"inconsistent list sizes {sorted(set(found))}", loc)
    return found[0]


def _core_node(c: Gate, omega: tuple):
    """The core node a list gate becomes; for ``isempty``, the ``unbox``
    of the branch the list's static size selects."""
    match c:
        case Gate(PairP(WireP(b), WireP(qs)), GateRef("isempty"), WireP() as q, rest):
            size = list_size(take(omega, q, c.loc)[0], c.loc)
            match rest:
                case Lift(x, WireP(b2), Unbox(If(Var(xv), e_then, e_else), args)) if (
                    b2 == b and xv == x
                ):
                    # the continuation sees the list under its post-isempty
                    # name; repoint it at the surviving input wire
                    args2 = _subst_in_pattern(args, {qs: q})
                    return Unbox(e_then if size == 0 else e_else, args2, loc=c.loc)
            raise QListError(
                "isempty must be followed by 'b <= lift b; unbox (if b then ... "
                "else ...) p'", c.loc,
            )
        case Gate(_, GateRef("isempty"), _, _):
            raise QListError("isempty must be used as (b, qs) <- gate isempty qs", c.loc)
        case Gate(PairP(WireP(h), WireP(t)), GateRef("headtail"), WireP() as q, rest):
            if list_size(take(omega, q, c.loc)[0], c.loc) < 1:
                raise QListError("headtail applied to the empty list", c.loc)
            return PairElim(h, t, q, rest, loc=c.loc)
        case Gate(_, GateRef("headtail"), _, _):
            raise QListError(
                "headtail must bind (head, tail) from a single list wire", c.loc
            )
        case Gate(WireP() as out_p, GateRef("cons"), in_p, rest):
            ty = take(omega, in_p, c.loc)[0]
            if not (isinstance(ty, TensorW) and isinstance(ty.left, QuantumW)):
                raise QListError("cons needs a (qubit, list) pair", c.loc)
            list_size(ty, c.loc)  # validates the tail shape
            return Compose(out_p, Output(in_p), rest, loc=c.loc)
        case Gate(WireP() as out_p, GateRef("nil"), _, rest):
            return Compose(out_p, Output(UnitP()), rest, loc=c.loc)
    raise QListError(f"{c.gate.name} must bind a single list wire", c.loc)


def _signature(d: DefDecl):
    """Whether a declaration is a function of a host argument, and the
    input type of the circuit it declares or, with no annotation, boxes
    (None if there is none)."""
    if d.ann is None:
        family = isinstance(d.term, Lam)
        box = d.term.body if family else d.term
        return family, box.w_in if isinstance(box, Box) else None
    family = isinstance(d.ann, ArrowT)
    circ = d.ann.result if family else d.ann
    return family, circ.w_in if isinstance(circ, CircT) else None


@dataclass
class _Instantiator:
    ctx: CheckContext
    gamma: dict  # annotated plain declaration -> its host type
    templates: dict  # name -> DefDecl
    started: set = field(default_factory=set)  # (name, k) begun
    order: list = field(default_factory=list)  # emitted declaration order
    # (name, k) -> the instance's output type: an annotated template's
    # from its annotation, another's from its body's walk, so a use
    # inside that body finds none yet
    outputs: dict = field(default_factory=dict)

    def instantiate(self, name: str, k: int) -> str:
        if (name, k) not in self.started:
            self.started.add((name, k))  # before the body: a cycle guard
            self.order.append(self._specialize_decl(self.templates[name], k))
        return f"{name}__{k}"

    def _specialize_decl(self, d: DefDecl, k: int) -> DefDecl:
        ann, term = d.ann, d.term
        family, w_in = _signature(d)
        if family:
            if not isinstance(term, Lam):
                raise QListError(
                    f"{d.name}: a function-typed list declaration must be a lambda",
                    d.loc,
                )
            if ann is not None and not isinstance(ann.result, CircT):
                raise QListError(f"{d.name}: expected ... -> Circ(...)", d.loc)
            arg = term.ann if ann is None else ann.arg
            if mentions_qlist(arg):
                raise QListError(
                    f"{d.name}: list-typed host arguments unsupported", d.loc
                )
            box, gamma = term.body, {**self.gamma, term.var: arg}
        elif w_in is None:
            raise QListError(
                f"{d.name}: unsupported list declaration type {ann}", d.loc
            )
        else:
            box, gamma = term, self.gamma
        new_ann = subst_qlist(ann, k)
        if new_ann is not None:
            self.outputs[d.name, k] = (new_ann.result if family else new_ann).w_out
        new_box, out = self._box(box, subst_qlist(w_in, k), gamma)
        self.outputs.setdefault((d.name, k), out)
        new_term = Lam(term.var, arg, new_box, loc=term.loc) if family else new_box
        return DefDecl(f"{d.name}__{k}", new_ann, new_term, loc=d.loc)

    def _box(self, t: HostTerm, w_in: WireType, gamma: dict):
        """A box at input type ``w_in``; returns (box, output type)."""
        if not isinstance(t, Box):
            raise QListError(f"expected a box, found {t}", t.loc)
        body, out = self._circ(t.body, bind_pattern(t.pat, w_in, t.loc), gamma)
        return Box(t.pat, w_in, body, loc=t.loc), out

    # -- circuit walk -------------------------------------------------------

    def _circ(self, c, omega: tuple, gamma: dict, spent=frozenset()):
        """Specialize a circuit term; returns (term, output type)."""
        match c:
            case Output(p):
                return c, take(omega, p, c.loc, spent)[0]
            case Init(t):
                try:
                    return c, unlift_type(check_host(gamma, t, self.ctx))
                except NotClassicalError as e:
                    raise QListError(e.args[0], c.loc) from None
            case Unbox(h, p):
                u = take(omega, p, c.loc, spent)[0]
                h2, out = self._circ_value(h, u, gamma, c.loc)
                return replace(c, term=h2), out
            case Gate(_, g, _, _) if g.name in LIST_GATES:
                return self._circ(_core_node(c, omega), omega, gamma, spent)
            case Gate(out_p, g, in_p, _):
                try:
                    w_out = algebra.gate_signature(g, self.ctx.gates)[1]
                except algebra.UnknownGate as e:
                    raise QListError(e.args[0], c.loc) from None
                _, consumes, rest_omega = take(omega, in_p, c.loc, spent)
                bound = bind_pattern(out_p, w_out, c.loc)
            case Compose(p, first, _):
                consumes = frozenset(free_wires(first))
                sel, rest_omega = _select(omega, sorted(consumes), c.loc, spent)
                first2, w = self._circ(first, sel, gamma, spent)
                c, bound = replace(c, first=first2), bind_pattern(p, w, c.loc)
            case UnitElim(p, _):
                _, consumes, rest_omega = take(omega, p, c.loc, spent)
                bound = ()
            case PairElim(w1, w2, p, _):
                v, consumes, rest_omega = take(omega, p, c.loc, spent)
                bound = bind_pattern(PairP(WireP(w1), WireP(w2)), v, c.loc)
            case Lift(x, p, _):
                v, consumes, rest_omega = take(omega, p, c.loc, spent)
                try:
                    gamma = {**gamma, x: lift_type(v)}
                except NotClassicalError as e:
                    raise QListError(e.args[0], c.loc) from None
                bound = ()
            case _:
                raise QListError(
                    f"unsupported circuit form in sized-list body: {c}", c.loc
                )
        # every other step ends in the typechecker's tail, and the walk
        # goes on with its continuation
        omega, spent = bind_step(bound, rest_omega, consumes, spent, c.loc)
        rest, out = self._circ(c.rest, omega, gamma, spent)
        return replace(c, rest=rest), out

    # -- host values of Circ type --------------------------------------------

    def _circ_value(self, h: HostTerm, u: WireType, gamma: dict, loc):
        """Specialize a host term used in unbox position at argument
        type ``u`` by the step at ``loc``; returns (term, output wire
        type)."""
        match h:
            case Var(name) | App(Var(name), _) if name in self.templates:
                d = self.templates[name]
                family, w_in = _signature(d)
                if family != isinstance(h, App) or w_in is None:
                    raise QListError(
                        f"{name!r} used at a type other than {d.ann or 'its own'}",
                        loc,
                    )
                k = _unify_size(w_in, u, loc)
                if k is None:
                    raise QListError(
                        f"cannot infer the list size of {name!r} from its argument",
                        loc,
                    )
                inst = Var(self.instantiate(name, k), loc=h.loc)
                out = self.outputs.get((name, k))
                if out is None:
                    raise QListError(
                        f"{name!r} is used at list size {k} in its own body, "
                        "before its output type is known", loc,
                    )
                h2 = App(inst, h.arg, loc=h.loc) if family else inst
                return h2, out
            case Box():
                return self._box(h, u, gamma)
        ty = check_host(gamma, h, self.ctx)
        if not isinstance(ty, CircT):
            raise QListError(f"unbox expects a circuit, got {ty}", loc)
        return h, ty.w_out


def monomorphize(prog: Program, size: int, entry: str | None):
    """Instantiate the entry declaration (and its dependencies) at the
    given list size, or with no entry every list-typed declaration.
    Returns ``(program, entry_name)``; list-typed declarations (whose
    annotation or, with none, whose box's domain mentions qlist) are
    replaced by their sized instances, after every other
    declaration (an instance may use any annotated plain declaration),
    and everything else is kept.  Every failure is a ``QListError``."""
    if size < 0:
        raise QListError("list size must be >= 0")
    templates = {}
    gamma = {}
    passthrough = []
    for d in prog.decls:
        match d:
            case DefDecl(name, ann, _) if mentions_qlist(ann or _signature(d)[1]):
                templates[name] = d
            case DefDecl(name, ann, _):
                if ann is not None:
                    gamma[name] = ann
                passthrough.append(d)
            case _:
                passthrough.append(d)
    ctx = CheckContext(
        bases=prog.classical_bases(), gates=prog.declared_gates(), table={}
    )
    inst = _Instantiator(ctx, gamma, templates)
    try:
        if entry is None:
            for name in templates:
                inst.instantiate(name, size)
            new_entry = None
        elif entry in templates:
            new_entry = inst.instantiate(entry, size)
        else:
            return prog, entry
    except TypeCheckError as e:
        raise QListError(e.message, e.loc) from None
    headers = [d for d in passthrough if isinstance(d, (ClassicalDecl, GateDecl))]
    others = [d for d in passthrough if not isinstance(d, (ClassicalDecl, GateDecl))]
    return Program(tuple(headers) + tuple(others) + tuple(inst.order)), new_entry
