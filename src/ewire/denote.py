"""Exact denotational interpreter.

Well-typed circuits denote completely positive (sub)unital maps in the
Heisenberg direction (see ``algebra``); host terms evaluate call-by-value
to host values.  A classical wire type and its host type share their
values, which are plain Python values: ``()``, an ``int`` (never a
``bool``) or a 2-tuple, as ``enumerate_classical`` lists them, so a
``lift`` binds, an ``init`` indexes and a ``run`` returns them as they
are.  A computation is an ``algebra.Distribution`` over host values.
Closures, boxed circuits and fixed points are ``HostValue`` objects;
the fixed-point combinator is a closure like any other.

Two modes are supported: ``cpu`` interprets circuits as unital maps and
total probability distributions; ``cpsu`` admits subunital maps, where
the missing mass is the probability of divergence, and enables the
fixed-point combinator with a global fuel budget.  When the fuel runs
out while a recursive definition is producing a circuit, that circuit
denotes the zero map — the bottom element of the Loewner order — rather
than raising an error, so fueled results are finite approximants of the
true fixed point.

An ``Evaluator`` evaluates only terms checked under its own
``CheckContext``: it reads every type it needs, and how each circuit
step splits and binds its wires, from that context's table, and raises
``EvalError`` where a record is missing.  It never types a pattern nor
tests a typed fact again, and evaluates a ``qrun`` or ``qlift`` as its
recorded expansion.  The module-level ``denote_circuit`` and
``eval_host`` check their input first.

A ``lift`` branch whose rows no later step reads is traversed but not
computed (see ``Evaluator``); which rows are read follows from the exact
nonzeros of maps already denoted, so every result is bit-identical.

Each checked term is compiled into a closure that evaluates it, which
holds its children's closures and its checked record (see
``Evaluator``): a host term each time ``eval_host`` receives it, a
circuit step on its first run.  Only steps are kept, per wire context
and dimension cap, in the ``CheckContext``'s ``code`` table, which only
``denote_circuit`` reads and every evaluator over that context shares.
Every fixed-point application goes through ``Evaluator.apply`` and
every ``box`` through ``Evaluator.denote_circuit``, the two methods a
tracer wraps.
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import dataclass, field

from . import algebra
from .algebra import (
    DEFAULT_TOL, Distribution, FdAlgebra, NonClassicalSource, ResourceLimit, SCALARS,
    SuperOp, alg_copower, alg_tensor, compose_tensored, copower_stack,
    factor_permutation, gate_denotation, max_dim, np, op_identity, op_relabel,
    op_zero, state_to_distribution, tensor_many, tensored_layout,
)
from .syntax import (
    App, Ascribe, Bind, Box, ClassicalLit, ClassicalW, Compose, DefDecl,
    Fix, Gate, GateFam, GateRef, If, Init, IntLit, Lam, Lift, Output, Pair,
    PairElim, Prim, Proj, QuantumW, QLift, QRun, Ret, Run, Span, TensorW,
    UnitElim, UnitVal, UnitW, Unbox, Var, WireType, pretty_print,
)
from .typecheck import (
    CheckContext, CheckedProgram, check_circuit, check_host, _default_ctx,
)


class EvalError(RuntimeError):
    """Evaluation failed at the term spanning ``loc``, where known."""

    def __init__(self, message: str, loc: Span | None = None):
        super().__init__(message)
        self.loc = loc


class PartialityError(EvalError):
    """A boundary crossing left the declared classical range (an
    out-of-range init or rotation index) at the term spanning ``loc``.
    In cpsu mode such a branch denotes the zero map; in cpu mode it is an
    error."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class HostValue:
    """A higher-order host value.  A first-order value is a plain Python
    value (``()``, an ``int`` or a 2-tuple) and a computation is an
    ``algebra.Distribution``."""


@dataclass(frozen=True, eq=False)
class ClosureV(HostValue):
    """A closure: its variable, body and environment, and its body's code."""

    var: str
    body: object
    env: dict
    code: object = field(repr=False)


@dataclass(frozen=True, eq=False)
class CircV(HostValue):
    """A boxed circuit: its wire signature and Heisenberg map."""

    w_in: WireType
    w_out: WireType
    op: SuperOp


@dataclass(frozen=True, eq=False)
class FixV(HostValue):
    """A recursive function value: unfolds on application, one unit of
    fuel per unfolding."""

    functional: HostValue
    w_in: WireType
    w_out: WireType


DEFAULT_FUEL = 10_000  # fixed-point unfoldings one cpsu evaluation may perform


@dataclass(frozen=True)
class Mode:
    kind: str  # 'cpu' | 'cpsu'
    fuel: int

    @staticmethod
    def cpu() -> "Mode":
        return Mode("cpu", 0)

    @staticmethod
    def cpsu(fuel: int = DEFAULT_FUEL) -> "Mode":
        return Mode("cpsu", fuel)

    @property
    def is_cpsu(self):
        return self.kind == "cpsu"


BOTTOM = "⊥"  # reserved divergence outcome in sampled counts


# ---------------------------------------------------------------------------
# Classical enumeration
# ---------------------------------------------------------------------------


def enumerate_classical(v: WireType) -> list:
    """All values of a classical wire type, lexicographically with the
    left tensor factor most significant — the same order as the block
    layout of the denoted algebra."""
    match v:
        case UnitW():
            return [()]
        case ClassicalW(_, k):
            return list(range(k))
        case TensorW(l, r):
            return [(a, b) for a in enumerate_classical(l) for b in enumerate_classical(r)]
    raise NonClassicalSource(f"{pretty_print(v)} is not classical")


def classical_size(v: WireType) -> int:
    match v:
        case UnitW():
            return 1
        case ClassicalW(_, k):
            return k
        case TensorW(l, r):
            return classical_size(l) * classical_size(r)
    raise NonClassicalSource(f"{pretty_print(v)} is not classical")


def classical_index(v: WireType, value, loc: Span | None) -> int:
    """Position of a plain classical value in the enumeration of V; a
    value out of range raises ``PartialityError`` at ``loc``."""
    match v:
        case UnitW():
            return 0
        case ClassicalW(name, k):
            if not (0 <= value < k):
                raise PartialityError(
                    f"value {value!r} out of range for {name} (cardinality {k})", loc
                )
            return value
        case TensorW(l, r):
            a, b = value
            return (classical_index(l, a, loc) * classical_size(r)
                    + classical_index(r, b, loc))
    raise NonClassicalSource(f"{pretty_print(v)} is not classical")


# ---------------------------------------------------------------------------
# Wire type denotation
# ---------------------------------------------------------------------------


def denote_wire(w: WireType) -> FdAlgebra:
    """The algebra of a wire type: scalars for I, the copower ``k . C`` of
    the scalars for a classical base of size k (its dimension checked
    against the cap before it is built), a full matrix block for a
    quantum base, tensors structurally."""
    return _denote_wire(w, max_dim())


def denote_context(omega) -> FdAlgebra:
    return _denote_context(tuple(ty for _, ty in omega), max_dim())


# Memoised per dimension cap: a result was checked under the cap in its
# key, and a ResourceLimit is never cached, so it is raised again at
# the same step with the same message.


@functools.cache
def _denote_wire(w: WireType, cap: int) -> FdAlgebra:
    match w:
        case UnitW():
            return SCALARS
        case ClassicalW(_, k):
            return alg_copower(k, SCALARS)
        case QuantumW(_, d):
            return FdAlgebra((d,))
        case TensorW(l, r):
            return alg_tensor(_denote_wire(l, cap), _denote_wire(r, cap))
    raise EvalError(f"no denotation for wire type {w!r}")


@functools.cache
def _denote_context(types: tuple, cap: int) -> FdAlgebra:
    return tensor_many([_denote_wire(ty, cap) for ty in types])


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


def _first_order(v) -> bool:
    """Whether ``v`` is built from units, numbers and pairs: the arguments
    a closure application is memoised on."""
    t = type(v)
    return t is int or (t is tuple and all(_first_order(x) for x in v))


class Evaluator:
    """Call-by-value evaluation plus compositional circuit denotation, by
    the closures each checked term compiles to.

    An evaluator holds the mode, the remaining fuel (shared by all fixed
    points unfolded under one top-level evaluation), the closure memo
    and the ``CheckContext`` it runs.  Only ``eval_host`` and
    ``denote_circuit`` receive a term; from there closures call closures
    and dispatch on no syntax.  ``eval_host`` compiles its host term
    whole (``_host``) and runs it: a program evaluates each declaration
    once, so its code is not kept.  ``denote_circuit`` reads the
    context's ``code`` table, where a circuit step is compiled on its
    first run over a wire context under a cap (``_step``) into a
    closure over its term and a ``_Step`` record: its split, its
    continuation's context and code, and what it computes once.  A step
    compiles its continuation through the table on first run, so a
    shared node compiles once per context, and an unfolding or a second
    evaluation compiles nothing.  A missing record or a ``ResourceLimit``
    raises where the node runs, never where its parent compiles.  Code
    holds no evaluator, environment or host value.  Closure applications
    to first-order values are memoised until the first fixed-point
    unfolding.  The ``gamma`` argument is never read.

    Each step receives which rows of its result a later step reads.  A
    ``Compose`` or ``Gate`` denotes its own map ``f`` before its
    continuation, and ``f (x) id`` reads the rows of ``f``'s exact
    nonzeros if ``f`` is monomial and every row if it is dense.  This
    demand travels down as a lazy tuple, and only a ``lift`` resolves it
    to a row mask.  A branch with no row in the mask is traversed dead:
    host evaluation, ``init``, fuel, ``PartialityError`` and every
    dimension check are as in a live branch, but ``compose_tensored``
    and ``copower_stack`` are not called and the branch stacks as zero.

    An ``if`` runs the branch it takes, an ascription compiles to its
    term's closure, and a variable or literal operand is read in place.
    The fixed-point combinator evaluates to a ``ClosureV`` whose code,
    built once when its ``Fix`` node compiles, makes the ``FixV`` of its
    argument and spends no fuel; so ``apply`` knows two kinds of function
    value, closures and fixed points.
    Every application goes through ``ev.apply`` and every ``box`` through
    ``ev.denote_circuit``, looked up when called, so a tracer wrapping
    them sees every unfolding and box; closures call the ``algebra``
    functions through this module's globals.  One unfolding of ``Hs`` in
    ``programs/hs.ew`` nests six frames: ``apply``, the closures of the
    ``if`` and the ``box``, ``denote_circuit``, and those of the gate and
    the ``unbox``, which applies ``Hs (n - 1)`` itself.
    """

    def __init__(self, ctx: CheckContext | None = None, mode: Mode | None = None):
        self.ctx = ctx or _default_ctx()
        self.mode = mode or Mode.cpu()
        self.fuel = self.mode.fuel
        self._app_cache: dict | None = {}

    def eval_host(self, gamma: dict | None, term, env: dict):
        return _host(self.ctx, term)(self, env)

    def apply(self, fv: HostValue, av):
        while True:
            t = type(fv)
            if t is ClosureV:
                key = None
                if self._app_cache is not None and _first_order(av):
                    key = (id(fv), av)
                    hit = self._app_cache.get(key)
                    # the cached closure is pinned so its id cannot be
                    # recycled by a different closure
                    if hit is not None and hit[0] is fv:
                        return hit[1]
                env2 = dict(fv.env)
                env2[fv.var] = av
                out = fv.code(self, env2)
                # unless an unfolding inside the body dropped the cache
                if key is not None and self._app_cache is not None:
                    self._app_cache[key] = (fv, out)
                return out
            if t is FixV:
                self._app_cache = None
                if self.fuel <= 0:
                    return CircV(fv.w_in, fv.w_out,
                                 op_zero(denote_wire(fv.w_out), denote_wire(fv.w_in)))
                self.fuel -= 1
                unfolded = self.apply(fv.functional, fv)
                if type(unfolded) is not ClosureV:
                    # a fixed point unfolding to one is applied by a call
                    return self.apply(unfolded, av)
                fv = unfolded
                continue
            raise EvalError(f"cannot apply non-function {fv!r}")

    def denote_circuit(self, gamma: dict | None, omega, term, env: dict) -> SuperOp:
        """The Heisenberg map of ``gamma; omega |- term : W``, from the
        algebra of W to the algebra of the ordered context."""
        return _step(self.ctx, tuple(omega), term)(self, env, None)

    def run_circuit(self, op: SuperOp, v: WireType, loc: Span | None = None) -> Distribution:
        """Read the output distribution of a closed circuit of classical
        type; total mass 1 in cpu mode, at most 1 in cpsu mode, else an
        ``EvalError`` at ``loc``, the span of the ``run``."""
        values = enumerate_classical(v)
        dist = state_to_distribution(op, values=values)
        mass = dist.mass()
        if self.mode.is_cpsu and mass > 1 + DEFAULT_TOL:
            raise EvalError(f"distribution mass {mass} exceeds 1", loc)
        if not self.mode.is_cpsu and abs(mass - 1) > DEFAULT_TOL:
            raise EvalError(f"cpu-mode circuit produced total mass {mass}, expected 1", loc)
        return dist


# ---------------------------------------------------------------------------
# Compiling
# ---------------------------------------------------------------------------


def _unchecked(term) -> str:
    where = f" at {term.loc}" if term.loc else ""
    return f"{type(term).__name__}{where} was not checked under this evaluator's context"


def _raises(message: str):
    """Code that raises ``EvalError(message)`` when it runs."""
    def run(ev, env):
        raise EvalError(message)
    return run


def _leaf(term):
    """``(name, None)`` of a variable, ``(None, value)`` of a literal, else None."""
    t = type(term)
    if t is Var:
        return term.name, None
    if t is IntLit or t is ClassicalLit:
        return None, term.value
    return None


# "=" gives 1 or 0, never a bool: str(True) would print as an outcome
_PRIMS = {"+": operator.add, "-": operator.sub, "=": lambda a, b: 1 if a == b else 0}


def _host(ctx: CheckContext, term):
    """The code ``run(ev, env)`` of host term ``term``: its value under
    evaluator ``ev`` in environment ``env``."""
    t = type(term)
    if t is Var:
        name = term.name
        return lambda ev, env: env[name]
    if t is IntLit or t is ClassicalLit or t is UnitVal:
        value = () if t is UnitVal else term.value
        return lambda ev, env: value
    if t is App:
        # a variable in function position is read in place
        name = term.fn.name if type(term.fn) is Var else None
        fn, arg = _host(ctx, term.fn), _host(ctx, term.arg)
        return lambda ev, env: ev.apply(env[name] if name else fn(ev, env), arg(ev, env))
    if t is Prim:
        f, left, right = _PRIMS[term.op], _leaf(term.left), _leaf(term.right)
        if left and right:
            (ln, lv), (rn, rv) = left, right
            return lambda ev, env: f(lv if ln is None else env[ln], rv if rn is None else env[rn])
        lc, rc = _host(ctx, term.left), _host(ctx, term.right)
        return lambda ev, env: f(lc(ev, env), rc(ev, env))
    if t is If:
        cond, then, orelse = (_host(ctx, c) for c in (term.cond, term.then, term.orelse))
        return lambda ev, env: (then if cond(ev, env) != 0 else orelse)(ev, env)
    if t is Lam:
        var, body, code = term.var, term.body, _host(ctx, term.body)
        return lambda ev, env: ClosureV(var, body, env, code)
    if t is Ascribe:
        return _host(ctx, term.term)
    if t is Pair:
        lc, rc = _host(ctx, term.left), _host(ctx, term.right)
        return lambda ev, env: (lc(ev, env), rc(ev, env))
    if t is Proj:
        arg, side = _host(ctx, term.arg), term.side - 1
        return lambda ev, env: arg(ev, env)[side]
    if t is Ret:
        arg = _host(ctx, term.arg)
        return lambda ev, env: Distribution({arg(ev, env): 1.0})
    if t is Bind:
        var, arg, body = term.var, _host(ctx, term.arg), _host(ctx, term.body)

        def bind(ev, env):
            out: dict = {}
            for hv, w in arg(ev, env).items():
                env2 = dict(env)
                env2[var] = hv
                for hv2, w2 in body(ev, env2).items():
                    out[hv2] = out.get(hv2, 0.0) + w * w2
            return Distribution(out)
        return bind
    if t is Fix:
        # the combinator is a closure whose code makes the fixed point of
        # its argument, the functional, and spends no fuel
        fixed_point = lambda ev, env: FixV(env["functional"], term.w_in, term.w_out)

        def fix(ev, env):
            if not ev.mode.is_cpsu:
                raise EvalError("the fixed-point combinator requires cpsu mode", term.loc)
            return ClosureV("functional", term, {}, fixed_point)
        return fix
    if t not in (Box, Run, GateFam, QRun):
        return _raises(f"cannot evaluate {term!r}")
    rec = ctx.lookup(term)
    if rec is None:
        return _raises(_unchecked(term))
    if t is QRun:
        return _host(ctx, rec[0])  # the checked expansion, a run
    if t is Box:
        w_in, (_, w_out, bindings), body = term.w_in, rec, term.body
        return lambda ev, env: CircV(w_in, w_out, ev.denote_circuit(None, bindings, body, env))
    if t is Run:
        circuit, loc = term.circuit, term.loc
        return lambda ev, env: ev.run_circuit(ev.denote_circuit(None, (), circuit, env), rec, loc)
    index = _host(ctx, term.index)

    def gate_family(ev, env):
        n = index(ev, env)
        if n < 0:
            raise PartialityError(f"gate family {term.name} rejects negative index {n}", term.loc)
        return CircV(*rec, gate_denotation(GateRef(term.name, index=n)))
    return gate_family


def _step(ctx: CheckContext, omega: tuple, term):
    """The closure of step ``term`` over ``omega`` under the current cap,
    kept in ``ctx.code`` under ``id(term)`` (its record pins the node),
    and under ``(id(term), omega)`` too once a second context is met."""
    code, cap = ctx.code, max_dim()
    hit = code.get(id(term))
    if hit is None or hit[1] != cap or (hit[0] is not omega and hit[0] != omega):
        if hit is not None and hit[1] == cap:
            code[id(term), hit[0]] = hit
            hit = code.get((id(term), omega))
        if hit is None or hit[1] != cap:
            hit = (omega, cap, _compile_step(ctx, omega, term))
        code[id(term)] = hit
    return hit[2]


class _Step:
    """What the closure of a step over ``omega`` holds besides its term
    and its host code: ``sel`` and ``remaining``, the consumed and the
    other typed wires, ``cont`` the continuation's context, ``op`` a
    ``Gate``'s map or an ``Output``'s placed identity, ``values`` a
    lift's branch values, ``first`` and ``child`` the code of a
    ``Compose``'s first circuit and of the continuation (``_child``), and
    ``rest``, ``rows`` and ``target``, computed on first call and kept."""

    __slots__ = ("omega", "sel", "remaining", "cont", "op", "values",
                 "first", "child", "_rest", "_rows", "_target")

    def __init__(self, omega: tuple, sel: tuple, remaining: tuple, cont: tuple, op):
        self.omega, self.sel, self.remaining, self.cont, self.op = omega, sel, remaining, cont, op
        self.values = self.first = self.child = None
        self._rest = self._target = None
        self._rows = _UNSET  # None is a placement: no row moves

    def rest(self) -> FdAlgebra:  # the algebra of remaining
        if self._rest is None:
            self._rest = denote_context(self.remaining)
        return self._rest

    def rows(self):  # the _placement of sel + remaining in omega
        if self._rows is _UNSET:
            self._rows = _placement(self.omega, self.sel + self.remaining)
        return self._rows

    def target(self) -> FdAlgebra:  # the algebra of omega
        if self._target is None:
            self._target = denote_context(self.omega)
        return self._target


def _child(ev, p: _Step, term, first: bool = False):
    """The code of ``p``'s first circuit ``term`` over ``p.sel`` if
    ``first``, else of its continuation over ``p.cont``, compiled through
    the context's table on the first call that returns and kept in ``p``."""
    if first:
        if p.first is None:
            p.first = _step(ev.ctx, p.sel, term)
        return p.first
    if p.child is None:
        p.child = _step(ev.ctx, p.cont, term)
    return p.child


def _compile_step(ctx: CheckContext, omega: tuple, term):
    """``run(ev, env, need)``, the map of step ``term`` over ``omega``,
    exact on the rows ``need`` names: None for every row, a row mask or
    a lazy demand for one (``_resolve``), or ``_DEAD`` for none."""
    t = type(term)
    if t not in _STEPS:
        raise EvalError(f"cannot denote {term!r}")
    split = ctx.lookup(term)
    if split is None:
        raise EvalError(_unchecked(term))
    if t is QLift:
        return _step(ctx, omega, split)  # the checked expansion
    if t is Init:
        v, value = split.own, _host(ctx, term.term)
        def init(ev, env, need):
            idx = classical_index(v, value(ev, env), term.loc)
            return SuperOp.row_view(denote_wire(v), SCALARS, np.array([idx], dtype=np.intp))
        return init
    op = gate_denotation(term.gate) if t is Gate else None
    sel, remaining = _split_context(omega, split.consumes)
    p = _Step(omega, sel, remaining, split.binds + remaining, op)
    if t is Output:
        def output(ev, env, need):
            # the identity on the pattern's wires, placed in context order once
            if p.op is None:
                h, place = op_identity(denote_context(p.sel)), p.rows()
                p.op = h if place is None else op_relabel(h, p.target(), rows=place)
            return p.op
        return output
    if t is Unbox:
        # an application is applied here, by no code of its own
        app = type(term.term) is App
        c = term.term.fn if app else term.term
        name = c.name if type(c) is Var else None
        fn, arg = _host(ctx, c), _host(ctx, term.term.arg) if app else None

        def unbox(ev, env, need):
            v = env[name] if name else fn(ev, env)
            h, place = (v if arg is None else ev.apply(v, arg(ev, env))).op, p.rows()
            return h if place is None else op_relabel(h, p.target(), rows=place)
        return unbox
    if t is Compose:
        def compose(ev, env, need):
            dead = need is _DEAD
            f1 = _child(ev, p, term.first, True)(ev, env, _DEAD if dead else None)
            f2 = _child(ev, p, term.rest)(ev, env, _DEAD if dead else (need, p, f1))
            return _compose(f1, p.rest(), f2, p.rows(), dead)
        return compose
    if t is Gate:
        def gate(ev, env, need):
            dead = need is _DEAD
            f2 = _child(ev, p, term.rest)(ev, env, _DEAD if dead else (need, p, p.op))
            return _compose(p.op, p.rest(), f2, p.rows(), dead)
        return gate
    if t is PairElim:
        def pair_elim(ev, env, need):
            h = _child(ev, p, term.rest)(ev, env, _DEAD if need is _DEAD else (need, p, None))
            place = p.rows()
            return h if place is None else op_relabel(h, p.target(), rows=place)
        return pair_elim
    if t is UnitElim:
        # binds nothing: the continuation's context is remaining
        return lambda ev, env, need: _child(ev, p, term.rest)(ev, env, need)
    v, w = split.own
    denote_wire(v)  # the cap, checked before the values are listed
    p.values = enumerate_classical(v)

    def lift(ev, env, need):
        # the copower map, in canonical row order; a branch that no
        # later step reads is traversed dead and stacked as zero
        ops = []
        for value, branch_need in zip(p.values, _branch_needs(need, p)):
            env2 = dict(env)
            env2[term.var] = value
            try:
                f = _child(ev, p, term.rest)(ev, env2, branch_need)
                if branch_need is _DEAD:
                    f = op_zero(f.source, f.target)
            except PartialityError:
                if not ev.mode.is_cpsu:
                    raise
                f = op_zero(denote_wire(w), p.rest())
            ops.append(f)
        place = p.rows()  # n.(remaining) is literally the algebra of V (x) remaining
        if need is _DEAD:
            # copower_stack's dimension check, and zero
            return op_zero(ops[0].source, alg_copower(len(ops), ops[0].target))
        return copower_stack(ops, rows=place)
    return lift


_DEAD = "dead"  # the demand of a step no later step reads
_UNSET = object()  # a placement not computed yet
_STEPS = frozenset({Output, Unbox, Init, Compose, UnitElim, PairElim, Gate, Lift, QLift})


def _compose(f: SuperOp, rest: FdAlgebra, g: SuperOp, rows, dead: bool) -> SuperOp:
    """``compose_tensored(f, rest, g, rows=rows)``; in a dead step only
    the dimension checks that call makes, and zero."""
    if not dead:
        return compose_tensored(f, rest, g, rows=rows)
    return op_zero(g.source, tensored_layout(f, rest)[1])


def _resolve(need):
    """The row mask of a demand, None for every row.

    A lazy demand ``(parent, p, f)`` is built by a step for its
    continuation, with the step's ``_Step`` (``f`` is the map the step
    composes with, None for a ``PairElim``); a chain of them ends in a
    mask or None.  The chain is walked in a loop: it is as long as the
    circuit is deep.
    """
    chain = []
    while need is not None and not isinstance(need, np.ndarray):
        chain.append(need)
        need = need[0]
    for _, p, f in reversed(chain):
        need = _read_through(need, p, f)
    return need


def _read_through(read, p: _Step, f):
    """The rows of a step's continuation that the rows ``read`` of its
    result read: moved only, for ``f`` None (``PairElim``); else through
    ``f (x) id_rest``, where row ``(i, k)`` reads ``(j, k)`` for each
    exact nonzero ``f[i, j]`` of a monomial ``f``, as
    ``compose_tensored`` gathers them, and each ``j`` if dense."""
    place = p.rows()
    if f is None:
        return read if read is None or place is None else read[place]
    _, _, pin, pout = tensored_layout(f, p.rest())
    if read is None:
        read_ik = np.ones(pout.shape, dtype=bool)
    else:
        read_ik = read[pout if place is None else place[pout]]
    out = np.zeros(pin.size, dtype=bool)
    # the module attribute: compose_tensored decides with the same function
    nonzero = algebra._monomial_rows(f)
    if nonzero is None:
        out[pin[:, read_ik.any(axis=0)]] = True
    else:
        nz_rows, nz_cols, _ = nonzero
        out[pin[nz_cols][read_ik[nz_rows]]] = True
    return None if out.all() else out


def _branch_needs(need, p: _Step) -> list:
    """The demand on each branch of the lift of ``p``: ``_DEAD`` for a
    branch with no row read."""
    n = len(p.values)
    if need is None or need is _DEAD:
        return [need] * n
    try:
        read = _resolve(need)
        place = p.rows()
    except ResourceLimit:
        # every branch is live; the lift raises as it would unpruned
        return [None] * n
    if read is None:
        return [None] * n
    if place is not None:
        read = read[place]
    return [_DEAD if not r.any() else None if r.all() else r
            for r in read.reshape(n, -1)]


def _placement(omega, factors):
    """The row in the tensor of ``omega`` of each row of the tensor of
    ``factors`` (the same wires), or None when no row moves."""
    pos = {n: i for i, (n, _) in enumerate(factors)}
    order = [pos[w] for w, _ in omega]
    if order == list(range(len(order))):
        return None
    return factor_permutation([denote_wire(ty) for _, ty in factors], order)


def _split_context(omega, names):
    """The typed wires ``names`` and the rest of ``omega``.  A tuple of
    names (a pattern's) keeps its own order, a set (a composition's first
    circuit) takes context order."""
    rest = tuple(b for b in omega if b[0] not in names)
    if isinstance(names, frozenset):
        return tuple(b for b in omega if b[0] in names), rest
    declared = dict(omega)
    return tuple((n, declared[n]) for n in names), rest

# ---------------------------------------------------------------------------
# Module-level entry points
# ---------------------------------------------------------------------------


def denote_circuit(gamma, omega, term, env=None, mode: Mode | None = None) -> SuperOp:
    """Check ``gamma; omega |- term`` into a fresh context and denote it."""
    ev = Evaluator(mode=mode or Mode.cpu())
    check_circuit(dict(gamma), tuple(omega), term, ev.ctx)
    return ev.denote_circuit(gamma, tuple(omega), term, dict(env or {}))


def eval_host(gamma, term, env=None, mode: Mode | None = None,
              ctx: CheckContext | None = None):
    """Check ``gamma |- term`` into ``ctx`` and evaluate it."""
    ev = Evaluator(ctx=ctx, mode=mode or Mode.cpu())
    check_host(dict(gamma), term, ev.ctx)
    return ev.eval_host(gamma, term, dict(env or {}))


def evaluate_program(checked: CheckedProgram, mode: Mode | None = None):
    """Evaluate all host declarations in order.

    Returns ``(evaluator, gamma, env)``, where ``gamma`` holds the
    declarations' host types.
    """
    ev = Evaluator(ctx=checked.ctx, mode=mode or Mode.cpu())
    env: dict = {}
    for d in checked.program.decls:
        if isinstance(d, DefDecl):
            # the fuel budget is global within one top-level evaluation
            ev.fuel = ev.mode.fuel
            # a snapshot: a closure holding env itself would make a cycle
            # that keeps every value alive until a full garbage collection
            env[d.name] = ev.eval_host(None, d.term, dict(env))
    ev.fuel = ev.mode.fuel
    return ev, dict(checked.def_types), env


def call_with_stack(fn):
    """Run ``fn`` on the calling thread under a recursion limit of
    4,000,000, and restore the limit it found; deeply fueled fixed points
    recurse far beyond the default.  This needs Python 3.11: from there a
    call from Python code to Python code takes no C stack, so the depth
    is bounded by this limit and by memory, not by the thread's stack
    (3.10 needed a thread with a large stack)."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(4_000_000)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _splitmix64_stream(seed: int):
    state = seed & 0xFFFFFFFFFFFFFFFF
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        yield (z >> 11) * (2.0 ** -53)


def sample(dist: Distribution, seed: int, shots: int) -> dict:
    """Empirical counts from ``shots`` draws of a splitmix64-fed
    inverse-CDF sampler; residual (diverging) mass lands on the reserved
    outcome.  Bit-exact across platforms for a fixed (seed, shots)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    outcomes = list(dist.items())
    counts = {k: 0 for k, _ in outcomes}
    diverge = 0
    stream = _splitmix64_stream(seed)
    for _ in range(shots):
        u = next(stream)
        acc = 0.0
        hit = None
        for k, w in outcomes:
            acc += w
            if u < acc:
                hit = k
                break
        if hit is None:
            diverge += 1
        else:
            counts[hit] += 1
    if diverge:
        counts[BOTTOM] = diverge
    return counts
