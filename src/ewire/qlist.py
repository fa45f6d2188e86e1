"""Size instantiation for qubit-list programs.

The surface language has a wire type ``qlist`` together with the
structural gates ``isempty``, ``headtail``, ``nil`` and ``cons``.  Those
cannot be typed at a fixed dimension, so before typechecking the CLI
specialises every list-typed declaration at the concrete sizes it is
used at: ``qlist`` becomes the right-nested tensor
``qubit * (qubit * (... * I))``, ``headtail``/``cons`` become plain
repatternings, ``nil`` the unit output, and ``isempty`` a statically
known flag whose surrounding lift-and-branch idiom::

    (b, qs) <- gate isempty qs; b <= lift b; unbox (if b then E1 else E2) p

is resolved at preprocessing time (the branch not taken would not even
typecheck at the instantiated size).  A declaration ``f`` used at list
size k becomes ``f__k``; recursive references then point at smaller
sizes, so the output program is recursion-free in the list structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra
from .syntax import (
    App, ArrowT, Box, CircT, ClassicalDecl, ClassicalLit,
    ClassicalT, Compose, DefDecl, Gate, GateDecl, GateFam, HostTerm, If,
    Init, IntLit, Lam, Lift, Output, PairElim, PairP, Pattern, Prim,
    Program, QListW, QUBIT, QuantumW, TensorW, UnitElim, UnitP, UnitW,
    Unbox, Var, WireP, WireType, _subst_in_pattern, free_wires, lift_type,
    pattern_wires, pretty_print, unlift_type,
)
from .typecheck import TypeCheckError, pattern_type

LIST_GATES = {"isempty", "headtail", "nil", "cons"}


class QListError(Exception):
    """The program falls outside the supported sized-list idiom."""


def qlist_type(k: int) -> WireType:
    w: WireType = UnitW()
    for _ in range(k):
        w = TensorW(QUBIT, w)
    return w


def subst_qlist(w: WireType, k: int) -> WireType:
    match w:
        case QListW():
            return qlist_type(k)
        case TensorW(l, r):
            return TensorW(subst_qlist(l, k), subst_qlist(r, k))
        case _:
            return w


def mentions_qlist(w) -> bool:
    match w:
        case QListW():
            return True
        case TensorW(l, r):
            return mentions_qlist(l) or mentions_qlist(r)
        case CircT(a, b):
            return mentions_qlist(a) or mentions_qlist(b)
        case ArrowT(a, b):
            return mentions_qlist(a) or mentions_qlist(b)
        case _:
            return False


def list_size(w: WireType) -> int:
    """Length of a right-nested qubit list type."""
    n = 0
    while isinstance(w, TensorW) and isinstance(w.left, QuantumW):
        n += 1
        w = w.right
    if not isinstance(w, UnitW):
        raise QListError(f"{pretty_print(w)} is not a sized qubit list")
    return n


def _unify_size(template: WireType, concrete: WireType) -> int | None:
    """Find the single list size k with template[qlist := k] = concrete."""
    found: list[int] = []

    def go(t, c):
        match t:
            case QListW():
                found.append(list_size(c))
            case TensorW(l, r):
                if not isinstance(c, TensorW):
                    raise QListError(
                        f"cannot match {pretty_print(t)} against {pretty_print(c)}"
                    )
                go(l, c.left)
                go(r, c.right)
            case _:
                if t != c:
                    raise QListError(
                        f"cannot match {pretty_print(t)} against {pretty_print(c)}"
                    )

    go(template, concrete)
    if not found:
        return None
    if len(set(found)) != 1:
        raise QListError(f"inconsistent list sizes {sorted(set(found))}")
    return found[0]


def _wire_type(types: dict, p: Pattern) -> WireType:
    """``pattern_type``, failing with QListError."""
    try:
        return pattern_type(types, p)
    except TypeCheckError as e:
        raise QListError(e.message) from None


def _bind(types: dict, p: Pattern, w: WireType):
    match p:
        case WireP(x):
            types[x] = w
        case UnitP():
            pass
        case PairP(l, r):
            if not isinstance(w, TensorW):
                raise QListError(f"pair pattern at non-tensor type {pretty_print(w)}")
            _bind(types, l, w.left)
            _bind(types, r, w.right)


def _host_type_of(t: HostTerm, henv: dict, bases: dict):
    """Types for the small host fragment allowed inside sized-list
    circuit bodies (init arguments and branch indices)."""
    match t:
        case IntLit(_):
            return ClassicalT("int", bases.get("int", 64))
        case ClassicalLit(b, card, _):
            return ClassicalT(b, card)
        case Var(x):
            if x in henv:
                return henv[x]
            raise QListError(f"host variable {x!r} not supported here")
        case Prim(_, _, _):
            return ClassicalT("int", bases.get("int", 64))
    raise QListError(f"unsupported host term in sized-list body: {t}")


@dataclass
class _Instantiator:
    program: Program
    bases: dict
    templates: dict  # name -> DefDecl
    plain: dict  # name -> DefDecl (no qlist in type)
    done: dict  # (name, k) -> DefDecl
    order: list  # emitted declaration order

    def decl_name(self, name: str, k: int) -> str:
        return f"{name}__{k}"

    def instantiate(self, name: str, k: int) -> str:
        if (name, k) in self.done:
            return self.decl_name(name, k)
        if name not in self.templates:
            raise QListError(f"{name!r} is not a list-typed declaration")
        d = self.templates[name]
        self.done[(name, k)] = None  # cycle guard
        new = self._specialize_decl(d, k)
        self.done[(name, k)] = new
        self.order.append(new)
        return new.name

    def signature(self, name: str, k: int):
        ann = self.templates[name].ann
        circ = ann.result if isinstance(ann, ArrowT) else ann
        return subst_qlist(circ.w_in, k), subst_qlist(circ.w_out, k)

    def _specialize_decl(self, d: DefDecl, k: int) -> DefDecl:
        ann = d.ann
        term = d.term
        henv: dict = {}
        if isinstance(ann, ArrowT):
            if not isinstance(term, Lam):
                raise QListError(
                    f"{d.name}: a function-typed list declaration must be a lambda"
                )
            circ = ann.result
            if not isinstance(circ, CircT):
                raise QListError(f"{d.name}: expected ... -> Circ(...)")
            if mentions_qlist(ann.arg):
                raise QListError(f"{d.name}: list-typed host arguments unsupported")
            henv[term.var] = ann.arg
            box = term.body
            w_in = subst_qlist(circ.w_in, k)
            new_box = self._specialize_box(box, w_in, henv)
            new_ann = ArrowT(ann.arg, CircT(w_in, subst_qlist(circ.w_out, k)))
            new_term = Lam(term.var, ann.arg, new_box, loc=term.loc)
        elif isinstance(ann, CircT):
            w_in = subst_qlist(ann.w_in, k)
            new_box = self._specialize_box(term, w_in, henv)
            new_ann = CircT(w_in, subst_qlist(ann.w_out, k))
            new_term = new_box
        else:
            raise QListError(f"{d.name}: unsupported list declaration type {ann}")
        return DefDecl(self.decl_name(d.name, k), new_ann, new_term, loc=d.loc)

    def _specialize_box(self, t: HostTerm, w_in: WireType, henv: dict):
        if not isinstance(t, Box):
            raise QListError(f"expected a box, found {t}")
        types: dict = {}
        _bind(types, t.pat, w_in)
        body, _ = self._circ(t.body, types, dict(henv))
        return Box(t.pat, w_in, body, loc=t.loc)

    # -- circuit walk -------------------------------------------------------

    def _circ(self, c, types: dict, henv: dict):
        """Specialize a circuit term; returns (term, output type)."""
        match c:
            case Output(p):
                return c, _wire_type(types, p)
            case Init(t):
                v = unlift_type(_host_type_of(t, henv, self.bases))
                return c, v
            case Unbox(h, p):
                u = _wire_type(types, p)
                h2, out = self._circ_value(h, u, henv)
                return Unbox(h2, p, loc=c.loc), out
            case Gate(out_p, g, in_p, rest) if g.name == "isempty":
                return self._isempty_idiom(c, types, henv)
            case Gate(out_p, g, in_p, rest) if g.name == "headtail":
                ty = _wire_type(types, in_p)
                if list_size(ty) < 1:
                    raise QListError("headtail applied to the empty list")
                if not (
                    isinstance(out_p, PairP)
                    and isinstance(out_p.left, WireP)
                    and isinstance(out_p.right, WireP)
                ):
                    raise QListError("headtail must bind (head, tail)")
                if not isinstance(in_p, WireP):
                    raise QListError("headtail takes a single list wire")
                types2 = dict(types)
                types2.pop(in_p.name, None)
                types2[out_p.left.name] = ty.left
                types2[out_p.right.name] = ty.right
                rest2, out = self._circ(rest, types2, henv)
                return (
                    PairElim(out_p.left.name, out_p.right.name, in_p, rest2, loc=c.loc),
                    out,
                )
            case Gate(out_p, g, in_p, rest) if g.name == "cons":
                ty = _wire_type(types, in_p)
                if not (isinstance(ty, TensorW) and isinstance(ty.left, QuantumW)):
                    raise QListError("cons needs a (qubit, list) pair")
                list_size(ty)  # validates the tail shape
                if not isinstance(out_p, WireP):
                    raise QListError("cons must bind a single list wire")
                types2 = dict(types)
                for w in pattern_wires(in_p):
                    types2.pop(w, None)
                types2[out_p.name] = ty
                rest2, out = self._circ(rest, types2, henv)
                return Compose(out_p, Output(in_p), rest2, loc=c.loc), out
            case Gate(out_p, g, in_p, rest) if g.name == "nil":
                if not isinstance(out_p, WireP):
                    raise QListError("nil must bind a single list wire")
                types2 = dict(types)
                types2[out_p.name] = UnitW()
                rest2, out = self._circ(rest, types2, henv)
                return Compose(out_p, Output(UnitP()), rest2, loc=c.loc), out
            case Gate(out_p, g, in_p, rest):
                w_in, w_out = algebra.gate_signature(g, self.program.declared_gates())
                types2 = dict(types)
                for w in pattern_wires(in_p):
                    types2.pop(w, None)
                _bind(types2, out_p, w_out)
                rest2, out = self._circ(rest, types2, henv)
                return Gate(out_p, g, in_p, rest2, loc=c.loc), out
            case Compose(p, first, rest):
                first2, t1 = self._circ(first, types, henv)
                types2 = dict(types)
                consumed = free_wires(first)
                for w in consumed:
                    types2.pop(w, None)
                _bind(types2, p, t1)
                rest2, out = self._circ(rest, types2, henv)
                return Compose(p, first2, rest2, loc=c.loc), out
            case UnitElim(p, rest):
                types2 = dict(types)
                for w in pattern_wires(p):
                    types2.pop(w, None)
                rest2, out = self._circ(rest, types2, henv)
                return UnitElim(p, rest2, loc=c.loc), out
            case PairElim(w1, w2, p, rest):
                ty = _wire_type(types, p)
                if not isinstance(ty, TensorW):
                    raise QListError("pair elimination at non-tensor type")
                types2 = dict(types)
                for w in pattern_wires(p):
                    types2.pop(w, None)
                types2[w1] = ty.left
                types2[w2] = ty.right
                rest2, out = self._circ(rest, types2, henv)
                return PairElim(w1, w2, p, rest2, loc=c.loc), out
            case Lift(x, p, rest):
                v = _wire_type(types, p)
                henv2 = dict(henv)
                henv2[x] = lift_type(v)
                types2 = dict(types)
                for w in pattern_wires(p):
                    types2.pop(w, None)
                rest2, out = self._circ(rest, types2, henv2)
                return Lift(x, p, rest2, loc=c.loc), out
        raise QListError(f"unsupported circuit form in sized-list body: {c}")

    def _isempty_idiom(self, c: Gate, types: dict, henv: dict):
        out_p, in_p, rest = c.out_pat, c.in_pat, c.rest
        if not (
            isinstance(out_p, PairP)
            and isinstance(out_p.left, WireP)
            and isinstance(out_p.right, WireP)
            and isinstance(in_p, WireP)
        ):
            raise QListError("isempty must be used as (b, qs) <- gate isempty qs")
        size = list_size(_wire_type(types, in_p))
        bw = out_p.left.name
        qs_out = out_p.right.name
        match rest:
            case Lift(x, WireP(bw2), Unbox(If(Var(xv), e_then, e_else), args)) if (
                bw2 == bw and xv == x
            ):
                chosen = e_then if size == 0 else e_else
                # the continuation sees the list under its post-isempty
                # name; repoint it at the surviving input wire
                args2 = _subst_in_pattern(args, {qs_out: WireP(in_p.name)})
                u = _wire_type(types, args2)
                h2, out = self._circ_value(chosen, u, henv)
                return Unbox(h2, args2, loc=c.loc), out
        raise QListError(
            "isempty must be followed by 'b <= lift b; unbox (if b then ... "
            "else ...) p'"
        )

    # -- host values of Circ type --------------------------------------------

    def _circ_value(self, h: HostTerm, u: WireType, henv: dict):
        """Specialize a host term used in unbox position at argument
        type ``u``; returns (term, output wire type)."""
        match h:
            case Var(name):
                if name in self.templates:
                    ann = self.templates[name].ann
                    if not isinstance(ann, CircT):
                        raise QListError(f"{name} needs a host argument")
                    k = _unify_size(ann.w_in, u)
                    inst = self.instantiate(name, k)
                    return Var(inst, loc=h.loc), self.signature(name, k)[1]
                if name in self.plain:
                    ann = self.plain[name].ann
                    if not isinstance(ann, CircT):
                        raise QListError(f"{name!r} is not a circuit")
                    return h, ann.w_out
                if name in henv:
                    ty = henv[name]
                    if isinstance(ty, CircT):
                        return h, ty.w_out
                raise QListError(f"unknown circuit {name!r} in sized-list body")
            case App(Var(name), arg):
                if name in self.templates:
                    ann = self.templates[name].ann
                    if not isinstance(ann, ArrowT) or not isinstance(
                        ann.result, CircT
                    ):
                        raise QListError(f"{name} is not a circuit family")
                    k = _unify_size(ann.result.w_in, u)
                    inst = self.instantiate(name, k)
                    return App(Var(inst, loc=h.loc), arg, loc=h.loc), self.signature(
                        name, k
                    )[1]
                if name in self.plain:
                    ann = self.plain[name].ann
                    if isinstance(ann, ArrowT) and isinstance(ann.result, CircT):
                        return h, ann.result.w_out
                raise QListError(f"unknown circuit family {name!r}")
            case GateFam(name, _):
                if name == "CR":
                    qq = TensorW(QUBIT, QUBIT)
                    return h, qq
                if name == "R":
                    return h, QUBIT
                raise QListError(f"unknown gate family {name!r}")
            case Box(p, w, body):
                types: dict = {}
                _bind(types, p, u)
                body2, out = self._circ(body, types, dict(henv))
                return Box(p, u, body2, loc=h.loc), out
        raise QListError(f"unsupported circuit expression: {h}")


def monomorphize(prog: Program, size: int, entry: str | None):
    """Instantiate the entry declaration (and its dependencies) at the
    given list size, or with no entry every list-typed declaration.
    Returns ``(program, entry_name)``; declarations whose types mention
    qlist are replaced by their sized instances, everything else is
    kept."""
    if size < 0:
        raise QListError("list size must be >= 0")
    templates = {}
    plain = {}
    passthrough = []
    for d in prog.decls:
        match d:
            case DefDecl(name, ann, _) if ann is not None and mentions_qlist(ann):
                templates[name] = d
            case DefDecl(name, _, _):
                plain[name] = d
                passthrough.append(d)
            case _:
                passthrough.append(d)
    inst = _Instantiator(
        program=prog,
        bases=prog.classical_bases(),
        templates=templates,
        plain=plain,
        done={},
        order=[],
    )
    if entry is None:
        for name in templates:
            inst.instantiate(name, size)
        new_entry = None
    elif entry in templates:
        new_entry = inst.instantiate(entry, size)
    else:
        return prog, entry
    headers = [d for d in passthrough if isinstance(d, (ClassicalDecl, GateDecl))]
    others = [d for d in passthrough if not isinstance(d, (ClassicalDecl, GateDecl))]
    decls = tuple(headers) + tuple(inst.order) + tuple(others)
    return Program(decls), new_entry
