"""Rewrite engine for the sound circuit equations.

Eight structural rules (box elimination, output substitution, the
commuting conversions for gates, lifts and the two eliminators, and the
two eliminator eta rules) plus two optional rules relating lift and
init, which come from the copower structure and are disabled by default
because the init/lift direction duplicates the initialising host term.

A rule is a function from a term to its rewrite at the root, or to
None where it does not apply there; no rule raises to say so, and
``NoMatch`` is only ``apply_rule``'s answer when a rule applies nowhere.
The strategy is leftmost-outermost with the rules tried in a fixed
priority order at each position; every run is audited by a trace that
replays to the same result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from .algebra import DEFAULT_TOL, frobenius_distance
from .denote import Evaluator, Mode, _PRIMS
from .syntax import (
    App, Ascribe, Box, ClassicalLit, Compose, Gate, HostTerm,
    If, Init, IntLit, Lam, Lift, Output, Pair, PairElim, PairP, Prim, Proj,
    ShapeMismatch, UnitElim, UnitP, Unbox, Var, WireP, _scope,
    free_host_vars, free_wires, freshen_binder, freshen_var, map_children,
    pattern_wires, subst_host, subst_pattern,
)
from .typecheck import CheckContext, _default_ctx, check_circuit


DEFAULT_MAX_STEPS = 1000  # rewrite steps of normalize
_PURIFY_STEPS = 10_000  # pure reductions of purify_host


class NoMatch(Exception):
    """Raised by ``apply_rule`` when its rule applies nowhere in the term."""


class StepLimit(Exception):
    def __init__(self, partial, trace):
        super().__init__(f"rewriting stopped after {len(trace.steps)} steps")
        self.partial = partial
        self.trace = trace


@dataclass
class Trace:
    steps: list = field(default_factory=list)  # (index, rule name, location)

    def record(self, rule: str, loc):
        self.steps.append((len(self.steps), rule, str(loc) if loc else "?"))

    def to_json_lines(self):
        return [
            {"step": i, "rule": r, "span": s} for i, r, s in self.steps
        ]


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------


def _subst_or_none(c, src, dst):
    """``subst_pattern(c, src, dst)``, or None where ``dst`` does not have
    the shape of ``src``."""
    try:
        return subst_pattern(c, src, dst)
    except ShapeMismatch:
        return None


def _rule_unbox_box(c):
    match c:
        case Unbox(Box(w_pat, _, body), p):
            return _subst_or_none(body, w_pat, p)


def _rule_output_subst(c):
    match c:
        case Compose(p, Output(p2), rest):
            return _subst_or_none(rest, p, p2)


def _commute(cls):
    """The commuting conversion of step class ``cls``:
    ``p <- (S; C); C'  ==  S; (p <- C; C')``, where ``S`` binds in ``C``,
    its binder first renamed away from what ``p <- _; C'`` would capture
    (``freshen_binder`` for wires, ``freshen_var`` for a host variable)."""
    s = _scope(cls)

    def rule(c):
        if type(c) is not Compose or type(c.first) is not cls:
            return None
        step, rest, new = c.first, c.rest, {}
        body = getattr(step, s.scope)
        if s.wires is not None:
            new[s.wires], body = freshen_binder(
                getattr(step, s.wires), body, free_wires(rest) | set(pattern_wires(c.pat))
            )
        elif s.var is not None:
            new[s.var], body = freshen_var(getattr(step, s.var), body, free_host_vars(rest))
        new[s.scope] = Compose(c.pat, body, rest, loc=c.loc)
        return replace(step, loc=c.loc, **new)

    return rule


def _rule_unit_eta(c):
    match c:
        case UnitElim(UnitP(), rest):
            return rest


def _rule_pair_eta(c):
    match c:
        case PairElim(binder, PairP() as p, rest):
            return _subst_or_none(rest, binder, p)


def _rule_lift_init(c):
    # x <= lift p; init x  ==  output p
    match c:
        case Lift(x, p, Init(Var(y))) if x == y:
            return Output(p, loc=c.loc)


def _rule_init_lift(c):
    # p <- init t; x <= lift p; C  ==  C[x := t]
    match c:
        case Compose(WireP(w), Init(t), Lift(x, WireP(w2), rest)) if w == w2:
            return subst_host(rest, x, t)


@dataclass(frozen=True)
class RewriteRule:
    name: str
    apply_at: object  # CircuitTerm -> CircuitTerm, or None where it does not apply
    at: type  # the one node class it can apply at


STRUCTURAL_RULES = (
    RewriteRule("UnboxBox", _rule_unbox_box, Unbox),
    RewriteRule("OutputSubst", _rule_output_subst, Compose),
    RewriteRule("GateCommute", _commute(Gate), Compose),
    RewriteRule("LiftCommute", _commute(Lift), Compose),
    RewriteRule("UnitEta", _rule_unit_eta, UnitElim),
    RewriteRule("PairEta", _rule_pair_eta, PairElim),
    RewriteRule("UnitCommute", _commute(UnitElim), Compose),
    RewriteRule("PairCommute", _commute(PairElim), Compose),
)

COPOWER_RULES = (
    RewriteRule("LiftInit", _rule_lift_init, Lift),
    RewriteRule("InitLift", _rule_init_lift, Compose),
)

RULES_BY_NAME = {r.name: r for r in STRUCTURAL_RULES + COPOWER_RULES}


def apply_rule(rule: RewriteRule, term):
    """One leftmost-outermost application of a single rule; raises
    NoMatch if the rule applies nowhere in the term (the rule itself
    answers None at each position where it does not apply)."""
    done = _rewrite_first(term, (rule,), Trace())
    if done is None:
        raise NoMatch(rule.name)
    return done


@functools.cache
def _by_class(rules: tuple) -> dict:
    """The rules that can apply at each node class, in priority order."""
    by_class: dict = {}
    for rule in rules:
        by_class.setdefault(rule.at, []).append(rule)
    return by_class


def _rewrite_first(term, rules: tuple, trace: Trace):
    """The first rewrite by ``rules``, leftmost-outermost, or None."""
    return _first(term, _by_class(rules), trace)


def _first(term, rules: dict, trace: Trace):
    # only the rules indexed by the node's class can apply at it
    for rule in rules.get(type(term), ()):
        out = rule.apply_at(term)
        if out is not None:
            trace.record(rule.name, getattr(term, "loc", None))
            return out
    # descend, leftmost child first, through the circuit subterms only
    for name in _scope(type(term)).circuits:
        out = _first(getattr(term, name), rules, trace)
        if out is not None:
            return replace(term, **{name: out})
    return None


def normalize(term, max_steps: int = DEFAULT_MAX_STEPS, copower_rules: bool = False):
    """Rewrite to a normal form; returns ``(term, trace)``.

    Raises StepLimit (carrying the partial result and trace) when
    ``max_steps`` rewrites did not reach a normal form.
    """
    rules = STRUCTURAL_RULES + (COPOWER_RULES if copower_rules else ())
    trace = Trace()
    current = term
    for _ in range(max_steps):
        out = _rewrite_first(current, rules, trace)
        if out is None:
            return current, trace
        current = out
    if _rewrite_first(current, rules, Trace()) is None:
        return current, trace
    raise StepLimit(current, trace)


# ---------------------------------------------------------------------------
# Numeric equivalence oracle
# ---------------------------------------------------------------------------


def check_equiv(c1, c2, gamma=None, *, omega, env=None, tol: float = DEFAULT_TOL,
                mode: Mode | None = None, ctx: CheckContext | None = None) -> bool:
    """Do the two circuits denote the same map at the same judgment, in
    the wire context ``omega``?"""
    gamma = dict(gamma or {})
    omega = tuple(omega)
    ctx = ctx or _default_ctx()
    w1 = check_circuit(gamma, omega, c1, ctx)
    w2 = check_circuit(gamma, omega, c2, ctx)
    if w1 != w2:
        return False
    mode = mode or Mode.cpu()
    ev1 = Evaluator(ctx=ctx, mode=mode)
    ev2 = Evaluator(ctx=ctx, mode=mode)
    f1 = ev1.denote_circuit(gamma, omega, c1, dict(env or {}))
    f2 = ev2.denote_circuit(gamma, omega, c2, dict(env or {}))
    return frobenius_distance(f1, f2) < tol


# ---------------------------------------------------------------------------
# Pure host simplification (definition unfolding for normalize entries)
# ---------------------------------------------------------------------------


def purify_host(term: HostTerm) -> HostTerm:
    """Reduce the pure, effect-free redexes of a host term: beta steps,
    projections of literal pairs, conditionals on literal bits,
    arithmetic on literals and ascription erasure.  Used to expose a
    literal box before circuit normalization; does not evaluate run,
    return, bind or the fixed-point combinator."""
    budget = [_PURIFY_STEPS]

    def go(t):
        if budget[0] <= 0:
            return t
        match t:
            case App(f, a):
                f2, a2 = go(f), go(a)
                if isinstance(f2, Lam) and budget[0] > 0:
                    budget[0] -= 1
                    return go(subst_host(f2.body, f2.var, a2))
                return App(f2, a2, loc=t.loc)
            case Proj(side, u):
                u2 = go(u)
                if isinstance(u2, Pair):
                    budget[0] -= 1
                    return u2.left if side == 1 else u2.right
                return Proj(side, u2, loc=t.loc)
            case If(c, a, b):
                c2 = go(c)
                if isinstance(c2, (IntLit, ClassicalLit)):
                    budget[0] -= 1
                    return go(a) if c2.value != 0 else go(b)
                return If(c2, go(a), go(b), loc=t.loc)
            case Prim(op, l, r):
                l2, r2 = go(l), go(r)
                if isinstance(l2, IntLit) and isinstance(r2, IntLit):
                    budget[0] -= 1
                    value = _PRIMS[op](l2.value, r2.value)
                    return ClassicalLit("bit", 2, value) if op == "=" else IntLit(value)
                return Prim(op, l2, r2, loc=t.loc)
            case Ascribe(u, _):
                return go(u)
        return map_children(t, go)

    return go(term)


def unfold_definitions(term: HostTerm, defs: dict) -> HostTerm:
    """Substitute named definitions (closed host terms) into a term."""
    out = term
    for _ in range(len(defs) + 1):
        fv = free_host_vars(out)
        hit = [x for x in fv if x in defs]
        if not hit:
            return out
        for x in hit:
            out = subst_host(out, x, defs[x])
    return out
