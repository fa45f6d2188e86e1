"""Exact denotational interpreter.

Well-typed circuits denote completely positive (sub)unital maps in the
Heisenberg direction (see ``algebra``); host terms evaluate call-by-value
to host values.  A classical wire type and its host type share their
values, which are plain Python values: ``()``, an ``int`` (never a
``bool``) or a 2-tuple, as ``enumerate_classical`` lists them, so a
``lift`` binds, an ``init`` indexes and a ``run`` returns them as they
are.  A computation is an ``algebra.Distribution`` over host values.
Closures, boxed circuits and fixed points are ``HostValue`` objects.

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

A ``lift`` denotes one branch per classical value, but a branch whose
rows no later step reads is not computed: it is traversed for its host
terms, fuel, errors and dimension checks, and stacked as zero (see
``Evaluator``).  Which rows are read follows from the exact nonzeros of
maps already denoted, so every result is bit-identical to denoting every
branch.

Each circuit step reads how it splits its context, its continuation's
context, the placement of its rows, the context algebras and a gate's
map from a plan memoised per node, context and dimension cap in the
``CheckContext`` (``plans``), which every evaluator over that context
shares.  A plan follows from the step's typing alone, not from the
mode, so a recursive unfolding, which denotes the same steps in the
same contexts, and a second evaluation of a checked term, in either
mode, recompute none of them.  The tail positions of host
evaluation (the branch an ``if`` takes, an ascribed term, and the
closure a fixed point unfolds to) loop instead of calling, while every
fixed-point application still goes through ``Evaluator.apply`` and every
``box`` through ``Evaluator.denote_circuit``, the two methods a tracer
wraps (see ``Evaluator``).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

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
    var: str
    body: object
    env: dict


@dataclass(frozen=True, eq=False)
class CircV(HostValue):
    """A boxed circuit: its wire signature and Heisenberg map."""

    w_in: WireType
    w_out: WireType
    op: SuperOp


@dataclass(frozen=True, eq=False)
class FixCombV(HostValue):
    w_in: WireType
    w_out: WireType


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
    """Call-by-value evaluation plus compositional circuit denotation.

    A single evaluator holds the mode, the remaining fuel (shared by all
    fixed points unfolded under one top-level evaluation), the closure
    memo and the ``CheckContext`` of the checked program it runs (types,
    each step's ``Split``, and the step plans).

    Closure applications to first-order values are memoised until the
    first fixed-point unfolding, so a replayed result never skips fuel.
    The ``gamma`` argument of ``eval_host`` and ``denote_circuit`` is
    never read.  Each circuit step places its rows where ``_placement``
    says.  A step that only moves, scales or clears rows (``Unbox``,
    ``PairElim``, and ``Compose`` or ``Gate`` through a map with one
    nonzero per row) moves them through ``algebra``'s one row mover: it
    computes a new row index when it reads a ``SuperOp.row_view``, and
    when it reads a dense map (an ``Unbox`` of a box holding one, say) it
    copies the rows, scaled if need be, into a new matrix, with no
    product.  An ``Output`` moves no row on evaluation: its plan holds its
    identity already placed, and the step returns that map.

    Everything a step reads besides its continuation's map and its host
    terms is its ``_Plan``: its split of the context, its continuation's
    context, its ``Gate`` map (an ``Output``'s placed identity), a ``lift``'s
    branch values, the context algebras and the placement of its rows.
    Plans are memoised in ``self.ctx.plans``, keyed by node and context
    (the table pins every node a plan is built for), and shared by every
    evaluator over that context: both modes, a circuit and its normal
    form, both sides of ``check_equiv``.  A plan holds for the dimension
    cap ``max_dim()`` it was built under and is rebuilt under another.
    It holds no evaluator, environment or host value.  A plan is filled
    in the order the step first needs each part, so a missing record, an
    unknown gate or a ``ResourceLimit`` is raised where it always was,
    and a part that raised is not stored.  A recursive unfolding denotes
    the same nodes in the same contexts, so after the first it builds
    no plan, and neither does a second evaluation over the context.

    Each step also receives which rows of its result a later step reads.
    A ``Compose`` or ``Gate`` denotes its own map ``f`` before its
    continuation, and ``f (x) id`` reads, of each column block of the
    continuation it needs, the rows of ``f``'s exact nonzeros if ``f`` is
    monomial and every row if it is dense.  This demand travels down as
    a lazy tuple per step, placed like the rows it describes, and only a
    ``lift`` resolves it to a row mask.  A branch with no row in the
    mask is traversed dead: host evaluation, ``init``, fuel and
    ``PartialityError`` are as in a live branch and every dimension
    check is made, but ``compose_tensored`` and ``copower_stack`` are
    not called and the branch stacks as zero.  Only the rows in a
    step's demand are exact; ``denote_circuit`` demands every row.

    Tail positions loop instead of calling: ``eval_host`` continues with
    the branch an ``if`` takes and under an ascription, and ``apply``
    continues from a fixed-point unfolding into the closure it unfolds
    to.  Two entry points stay calls, so that a tracer wrapping them on
    the class sees every unfolding and every box: every application of
    a ``FixV`` arrives through ``self.apply``, and every ``box`` is
    denoted through ``self.denote_circuit``.  One unfolding of a
    recursive box family like ``Hs`` in ``programs/hs.ew`` nests six
    frames: ``apply``, ``eval_host`` (the ``if`` and the ``box``),
    ``denote_circuit``, ``_denote`` for the gate and for the ``unbox``,
    and ``eval_host`` for the application.
    """

    def __init__(self, ctx: CheckContext | None = None, mode: Mode | None = None):
        self.ctx = ctx or _default_ctx()
        self.mode = mode or Mode.cpu()
        self.fuel = self.mode.fuel
        self._app_cache: dict | None = {}

    def _checked(self, term):
        """What the typechecker recorded for ``term``."""
        info = self.ctx.lookup(term)
        if info is None:
            where = f" at {term.loc}" if term.loc else ""
            raise EvalError(f"{type(term).__name__}{where} was not checked "
                            "under this evaluator's context")
        return info

    # -- host evaluation ---------------------------------------------------

    def eval_host(self, gamma: dict | None, term, env: dict):
        while True:
            t = type(term)
            if t is Var:
                return env[term.name]
            if t is App:
                fv = self.eval_host(gamma, term.fn, env)
                av = self.eval_host(gamma, term.arg, env)
                return self.apply(fv, av)
            if t is IntLit or t is ClassicalLit:
                return term.value
            if t is Prim:
                lv = self.eval_host(gamma, term.left, env)
                rv = self.eval_host(gamma, term.right, env)
                op = term.op
                if op == "+":
                    return lv + rv
                if op == "-":
                    return lv - rv
                # "=", never a bool: str(True) would print as an outcome
                return 1 if lv == rv else 0
            if t is If:
                cv = self.eval_host(gamma, term.cond, env)
                term = term.then if cv != 0 else term.orelse
                continue
            if t is Box:
                _, w2, bindings = self._checked(term)
                op = self.denote_circuit(gamma, bindings, term.body, env)
                return CircV(term.w_in, w2, op)
            if t is Lam:
                return ClosureV(term.var, term.body, env)
            if t is Ascribe:
                term = term.term
                continue
            if t is Pair:
                return (self.eval_host(gamma, term.left, env),
                        self.eval_host(gamma, term.right, env))
            if t is Proj:
                return self.eval_host(gamma, term.arg, env)[term.side - 1]
            if t is UnitVal:
                return ()
            if t is Ret:
                return Distribution({self.eval_host(gamma, term.arg, env): 1.0})
            if t is Bind:
                d = self.eval_host(gamma, term.arg, env)
                out: dict = {}
                for hv, w in d.items():
                    env2 = dict(env)
                    env2[term.var] = hv
                    d2 = self.eval_host(gamma, term.body, env2)
                    for hv2, w2 in d2.items():
                        out[hv2] = out.get(hv2, 0.0) + w * w2
                return Distribution(out)
            if t is Run:
                v = self._checked(term)
                op = self.denote_circuit(gamma, (), term.circuit, env)
                return self.run_circuit(op, v, term.loc)
            if t is Fix:
                if not self.mode.is_cpsu:
                    raise EvalError(
                        "the fixed-point combinator requires cpsu mode", term.loc
                    )
                return FixCombV(term.w_in, term.w_out)
            if t is GateFam:
                w_in, w_out = self._checked(term)
                n = self.eval_host(gamma, term.index, env)
                if n < 0:
                    raise PartialityError(
                        f"gate family {term.name} rejects negative index {n}", term.loc
                    )
                return CircV(w_in, w_out,
                             gate_denotation(GateRef(term.name, index=n)))
            if t is QRun:
                term = self._checked(term)[0]  # the checked expansion, a run
                continue
            raise EvalError(f"cannot evaluate {term!r}")

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
                out = self.eval_host(None, fv.body, env2)
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
            if t is FixCombV:
                return FixV(av, fv.w_in, fv.w_out)
            raise EvalError(f"cannot apply non-function {fv!r}")

    # -- circuit denotation --------------------------------------------------

    def denote_circuit(self, gamma: dict | None, omega, term, env: dict) -> SuperOp:
        """The Heisenberg map of ``gamma; omega |- term : W``, from the
        algebra of W to the algebra of the ordered context."""
        return self._denote(tuple(omega), term, env, None)

    def _plan(self, omega: tuple, term) -> "_Plan":
        """The plan of ``term`` over ``omega`` under the current cap, from
        the context's ``plans``.  The plan last read for a node is kept
        under ``id(term)``; a node met in a second wire context also keeps
        the plan for each context under ``(id(term), omega)``."""
        plans, cap = self.ctx.plans, max_dim()
        p = plans.get(id(term))
        if p is None or p.cap != cap or (p.omega is not omega and p.omega != omega):
            if p is not None and p.cap == cap:
                plans[id(term), p.omega] = p
                p = plans.get((id(term), omega))
            if p is None or p.cap != cap:
                p = self._build_plan(omega, term)
            plans[id(term)] = p
        return p

    def _build_plan(self, omega: tuple, term) -> "_Plan":
        """The parts of a plan a step needs before anything else, in the
        order it needs them; ``_Plan`` fills in the rest on first use."""
        t = type(term)
        if t not in _STEPS:
            raise EvalError(f"cannot denote {term!r}")
        p = _Plan(omega, max_dim())
        split = self._checked(term)
        if t is Init:
            p.own = split.own
            return p
        if t is QLift:
            p.own = split  # the checked expansion
            return p
        if t is Gate:
            p.op = gate_denotation(term.gate)
        p.sel, p.remaining = _split_context(omega, split.consumes)
        p.cont = split.binds + p.remaining
        if t is Lift:
            p.own = split.own
            v = p.own[0]
            denote_wire(v)  # the cap, checked before the values are listed
            p.values = enumerate_classical(v)
        return p

    def _denote(self, omega: tuple, term, env: dict, need) -> SuperOp:
        """``denote_circuit``, where ``need`` says which rows of the result
        a later step reads: None for every row, else a row mask or a lazy
        demand for one (see ``_resolve``), or ``_DEAD`` for none.  Only
        rows in ``need`` are exact; a dead step computes no matrix."""
        p = self._plan(omega, term)
        dead = need is _DEAD
        rows = None
        t = type(term)
        if t is Gate:
            f2 = self._denote(p.cont, term.rest, env,
                              _DEAD if dead else (need, p, p.op))
            h = _compose(p.op, p.rest(), f2, p.rows(), dead)
        elif t is Unbox:
            h, rows = self.eval_host(None, term.term, env).op, p.rows()
        elif t is Compose:
            f1 = self._denote(p.sel, term.first, env, _DEAD if dead else None)
            f2 = self._denote(p.cont, term.rest, env,
                              _DEAD if dead else (need, p, f1))
            h = _compose(f1, p.rest(), f2, p.rows(), dead)
        elif t is Output:
            # the identity on the pattern's wires, placed in context order
            # once per plan
            if p.op is None:
                h, rows = op_identity(denote_context(p.sel)), p.rows()
                p.op = h if rows is None else op_relabel(h, p.target(), rows=rows)
            return p.op
        elif t is PairElim:
            h = self._denote(p.cont, term.rest, env,
                             _DEAD if dead else (need, p, None))
            rows = p.rows()
        elif t is UnitElim:
            h = self._denote(p.remaining, term.rest, env, need)
        elif t is Lift:
            h = self._lift(p, term, env, need)
        elif t is QLift:
            return self._denote(omega, p.own, env, need)
        else:
            v = p.own
            idx = classical_index(v, self.eval_host(None, term.term, env), term.loc)
            index = np.array([idx], dtype=np.intp)
            return SuperOp.row_view(denote_wire(v), SCALARS, index)
        # h's rows are in context order, or placed there by rows (an
        # Unbox's or a PairElim's)
        return h if rows is None else op_relabel(h, p.target(), rows=rows)

    def _lift(self, p: "_Plan", term: Lift, env: dict, need) -> SuperOp:
        """The copower map of a lift, in canonical row order.  A branch
        that no later step reads is traversed dead and stacked as zero."""
        _, w = p.own
        needs = _branch_needs(need, p)
        branches = []
        for value, branch_need in zip(p.values, needs):
            env2 = dict(env)
            env2[term.var] = value
            try:
                op = self._denote(p.remaining, term.rest, env2, branch_need)
                if branch_need is _DEAD:
                    op = op_zero(op.source, op.target)
            except PartialityError:
                if not self.mode.is_cpsu:
                    raise
                op = op_zero(denote_wire(w), p.rest())
            branches.append(op)
        # n.(remaining) is literally the algebra of V (x) remaining
        place = p.rows()
        if need is _DEAD:
            # copower_stack's dimension check, and zero
            src, tgt = branches[0].source, branches[0].target
            return op_zero(src, alg_copower(len(branches), tgt))
        return copower_stack(branches, rows=place)

    # -- running -------------------------------------------------------------

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


_DEAD = "dead"  # the demand of a step no later step reads
_UNSET = object()  # a plan part not filled in yet
_STEPS = frozenset({Output, Unbox, Init, Compose, UnitElim, PairElim, Gate, Lift, QLift})


class _Plan:
    """What one circuit step over ``omega`` reads besides its
    continuation's map and its host terms (see ``Evaluator``).

    ``sel`` and ``remaining`` are the consumed and the other typed wires,
    ``cont`` the continuation's context, ``op`` a ``Gate``'s map or an
    ``Output``'s identity placed in context order (the step's whole
    result), ``own`` what an ``init``, ``lift`` or ``qlift``
    recorded, and ``values`` a lift's branch values.  ``rest``, ``rows``
    and ``target`` are computed on first call and then kept."""

    __slots__ = ("omega", "cap", "sel", "remaining", "cont", "op",
                 "own", "values", "_rest", "_rows", "_target")

    def __init__(self, omega: tuple, cap: int):
        self.omega, self.cap = omega, cap
        self.sel = self.remaining = self.cont = self.op = None
        self.own = self.values = self._rest = self._target = None
        self._rows = _UNSET  # None is a placement: no row moves

    def rest(self) -> FdAlgebra:
        """The algebra of ``remaining``."""
        if self._rest is None:
            self._rest = denote_context(self.remaining)
        return self._rest

    def rows(self):
        """Where each canonical row of ``sel + remaining`` goes in
        ``omega`` (``_placement``)."""
        if self._rows is _UNSET:
            self._rows = _placement(self.omega, self.sel + self.remaining)
        return self._rows

    def target(self) -> FdAlgebra:
        """The algebra of ``omega``."""
        if self._target is None:
            self._target = denote_context(self.omega)
        return self._target


def _compose(f: SuperOp, rest: FdAlgebra, g: SuperOp, rows, dead: bool) -> SuperOp:
    """``compose_tensored(f, rest, g, rows=rows)``; in a dead step only
    the dimension checks that call makes, and zero."""
    if not dead:
        return compose_tensored(f, rest, g, rows=rows)
    return op_zero(g.source, tensored_layout(f, rest)[1])


def _resolve(need):
    """The row mask of a demand, None for every row.

    A lazy demand ``(parent, plan, f)`` is built by a step for its
    continuation (``f`` is the map the step composes with, None for a
    ``PairElim``); a chain of them ends in a mask or None.  The chain is
    walked in a loop: it is as long as the circuit is deep.
    """
    chain = []
    while need is not None and not isinstance(need, np.ndarray):
        chain.append(need)
        need = need[0]
    for _, p, f in reversed(chain):
        need = _read_through(need, p, f)
    return need


def _read_through(read, p: _Plan, f):
    """The rows of a step's continuation that the rows ``read`` of the
    step's result read.  With ``f`` None the step only moves rows
    (``PairElim``); otherwise it composes with ``f (x) id_remaining``
    (``Compose``, ``Gate``), and composite row ``(i, k)`` reads
    continuation row ``(j, k)`` for each exact nonzero ``f[i, j]`` of a
    monomial ``f`` (as ``compose_tensored`` gathers them), and for every
    ``j`` of a dense one."""
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


def _branch_needs(need, p: _Plan) -> list:
    """The demand on each branch of the lift of plan ``p``: ``_DEAD`` for
    a branch with no row read."""
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
