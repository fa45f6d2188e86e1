from pathlib import Path

import numpy as np
import pytest

from ewire import algebra
from ewire.denote import Mode, eval_host, evaluate_program
from ewire.normalize import (
    NoMatch, RULES_BY_NAME, StepLimit, Trace, apply_rule, check_equiv,
    normalize, purify_host, unfold_definitions,
)
from ewire.parser import parse_circuit, parse_host_term, parse_program
from ewire.qlist import monomorphize
from ewire.syntax import (
    BIT, Box, CircT, ClassicalT, Compose, DefDecl, Gate, Lift, QUBIT, UnitElim,
    alpha_equiv,
)
from ewire.typecheck import check_circuit, check_program, _default_ctx

from tests.gen import random_circuit

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def _norm(text, **kw):
    out, trace = normalize(parse_circuit(text), **kw)
    return out, [r for _, r, _ in trace.steps]


# -- individual rules ----------------------------------------------------------


def test_unbox_box():
    out, rules = _norm("unbox (box w : qubit => output w) p")
    assert alpha_equiv(out, parse_circuit("output p"))
    assert rules == ["UnboxBox"]


def test_unbox_box_composite_pattern():
    out, _ = _norm(
        "unbox (box (a : qubit, b : qubit) => output (b, a)) (x, y)"
    )
    assert alpha_equiv(out, parse_circuit("output (y, x)"))


def test_unbox_box_unit_pattern():
    out, rules = _norm("unbox (box () : I => (q <- gate init0 (); output q)) ()")
    assert alpha_equiv(out, parse_circuit("q <- gate init0 (); output q"))
    assert rules == ["UnboxBox"]
    # () binds only ()
    with pytest.raises(NoMatch):
        apply_rule(RULES_BY_NAME["UnboxBox"],
                   parse_circuit("unbox (box () : I => output ()) w"))


def test_output_subst():
    out, rules = _norm("w <- output v; w' <- gate H w; output w'")
    assert alpha_equiv(out, parse_circuit("w' <- gate H v; output w'"))
    assert rules[0] == "OutputSubst"


def test_gate_commute():
    out, rules = _norm("w <- (p2 <- gate H p1; output p2); output w")
    assert alpha_equiv(out, parse_circuit("p2 <- gate H p1; output p2"))
    assert rules[0] == "GateCommute"


def test_lift_commute():
    c = parse_circuit("w <- (x <= lift b; q2 <- gate H q; output q2); output w")
    out, trace = normalize(c)
    assert isinstance(out, Lift)
    assert trace.steps[0][1] == "LiftCommute"


def test_unit_eta():
    out, rules = _norm("() <- (); output q")
    assert alpha_equiv(out, parse_circuit("output q"))
    assert rules == ["UnitEta"]


def test_pair_eta():
    out, rules = _norm("(w1, w2) <- (p1, p2); output (w2, w1)")
    assert alpha_equiv(out, parse_circuit("output (p2, p1)"))
    assert rules == ["PairEta"]


def test_unit_commute():
    out, rules = _norm("w <- (() <- u; output q); output w")
    assert rules[0] == "UnitCommute"
    assert isinstance(out, UnitElim)


def test_pair_commute():
    out, rules = _norm("w <- ((w1, w2) <- p; output (w1, w2)); output w")
    assert rules[0] == "PairCommute"


def test_lift_init_rule():
    c = parse_circuit("x <= lift p; init x")
    out, trace = normalize(c, copower_rules=True)
    assert alpha_equiv(out, parse_circuit("output p"))
    assert [r for _, r, _ in trace.steps] == ["LiftInit"]
    # disabled by default
    out2, trace2 = normalize(c)
    assert alpha_equiv(out2, c)
    assert not trace2.steps


def test_init_lift_rule():
    c = parse_circuit("w <- init (1 : bit); x <= lift w; n <- init x; output n")
    out, trace = normalize(c, copower_rules=True)
    assert alpha_equiv(out, parse_circuit("n <- init (1 : bit); output n"))
    assert trace.steps[0][1] == "InitLift"


def test_apply_rule_nomatch():
    with pytest.raises(NoMatch):
        apply_rule(RULES_BY_NAME["UnboxBox"], parse_circuit("output w"))


def test_apply_rule_single_step():
    c = parse_circuit(
        "w <- output v; u <- (p <- gate H w; output p); output u"
    )
    once = apply_rule(RULES_BY_NAME["OutputSubst"], c)
    # only the leftmost-outermost occurrence fired
    assert alpha_equiv(
        once, parse_circuit("u <- (p <- gate H v; output p); output u")
    )


def test_gate_commute_avoids_capture():
    # the inner binder q2 must not capture the free q2 of the tail
    c = parse_circuit("w <- (q2 <- gate H p; output q2); output (w, q2)")
    omega = (("p", QUBIT), ("q2", QUBIT))
    w_before = check_circuit({}, omega, c, _default_ctx())
    out, _ = normalize(c)
    w_after = check_circuit({}, omega, out, _default_ctx())
    assert w_before == w_after
    assert check_equiv(c, out, omega=omega)


def test_flip_is_normal():
    flip = parse_circuit(
        "a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b"
    )
    out, trace = normalize(flip)
    assert alpha_equiv(out, flip)
    assert not trace.steps


def test_step_limit():
    c = parse_circuit(
        "w <- (p2 <- gate H p1; q <- gate X p2; output q); "
        "v <- (r <- gate Z w; output r); output v"
    )
    with pytest.raises(StepLimit) as e:
        normalize(c, max_steps=1)
    assert e.value.partial is not None
    assert len(e.value.trace.steps) == 1


# -- comp flattening --------------------------------------------------------------


def test_comp_flattens_to_gate_spine():
    comp = parse_host_term(
        "(lambda c : Circ(qubit, qubit) * Circ(qubit, qubit) . "
        "box w1 : qubit => (w2 <- unbox (fst c) w1; w3 <- unbox (snd c) w2; "
        "output w3)) "
        "(box a : qubit => (a' <- gate H a; output a'), "
        " box b : qubit => (b' <- gate X b; output b'))"
    )
    pur = purify_host(comp)
    assert isinstance(pur, Box)
    flat, trace = normalize(pur.body)
    assert alpha_equiv(
        flat, parse_circuit("a' <- gate H w1; b' <- gate X a'; output b'")
    )
    rules = [r for _, r, _ in trace.steps]
    assert "UnboxBox" in rules and "OutputSubst" in rules
    # the flattening preserved meaning
    assert check_equiv(pur.body, flat, omega=(("w1", QUBIT),))


def test_unfold_definitions():
    from ewire.syntax import Var

    t = parse_host_term("f 3")
    defs = {"f": parse_host_term("lambda n : int . n + 1")}
    out = purify_host(unfold_definitions(t, defs))
    from ewire.syntax import IntLit

    assert out == IntLit(4)


# -- the numeric oracle -------------------------------------------------------------


# Circ-typed defs whose unfolding stops short of a literal box: Hs 3
# applies a fixed point
NOT_A_LITERAL_BOX = {"hs3"}


@pytest.mark.parametrize("name,size", [
    *((p.name, None) for p in sorted(PROGRAMS.glob("*.ew")) if p.name != "qft.ew"),
    *(("qft.ew", n) for n in range(1, 6)),
])
def test_def_value_matches_its_unfolded_box(monkeypatch, name, size):
    # a def's evaluated value, which equiv compares, against the
    # denotation of the literal box that inlining every other def gives
    monkeypatch.setattr(algebra, "_max_dim", 1 << 17)
    prog = parse_program((PROGRAMS / name).read_text())
    if size is not None:
        prog, _ = monomorphize(prog, size, None)
    checked = check_program(prog)
    # fuel 100: main's Hs (-1) in hs.ew bottoms out within the default
    # recursion limit
    mode = Mode.cpsu(100)
    _, gamma, env = evaluate_program(checked, mode=mode)
    defs = {d.name: d.term for d in checked.program.decls if isinstance(d, DefDecl)}
    unfolded = []
    for x, term in defs.items():
        if not isinstance(gamma[x], CircT):
            continue
        box = purify_host(unfold_definitions(term, {y: t for y, t in defs.items() if y != x}))
        if not isinstance(box, Box):
            assert x in NOT_A_LITERAL_BOX
            continue
        value = eval_host(gamma, box, mode=mode, ctx=checked.ctx)
        assert np.abs(value.op.matrix - env[x].op.matrix).max() <= 1e-12, x
        unfolded.append(x)
    if size is not None:
        assert f"fourier__{size}" in unfolded


def test_equiv_hh_identity():
    hh = parse_circuit("q1 <- gate H q; q2 <- gate H q1; output q2")
    idc = parse_circuit("output q")
    assert check_equiv(hh, idc, omega=(("q", QUBIT),))


def test_equiv_distinguishes_h_from_x():
    h = parse_circuit("q1 <- gate H q; output q1")
    x = parse_circuit("q1 <- gate X q; output q1")
    assert not check_equiv(h, x, omega=(("q", QUBIT),))


def test_equiv_is_false_for_different_output_types():
    c1 = parse_circuit("output q")
    c2 = parse_circuit("b <- gate meas q; output b")
    assert check_equiv(c1, c2, omega=(("q", QUBIT),)) is False


def test_lift_commute_renames_a_lifted_variable_free_in_the_tail():
    # the tail's x is the host variable of gamma, not the lifted bit
    c = parse_circuit("u <- (x <= lift b; output ()); () <- u; n <- init x; output n")
    gamma, omega = {"x": ClassicalT("bit", 2)}, (("b", BIT),)
    out = apply_rule(RULES_BY_NAME["LiftCommute"], c)
    assert isinstance(out, Lift) and out.var != "x"
    captured = parse_circuit("x <= lift b; u <- output (); () <- u; n <- init x; output n")
    for x in (0, 1):
        assert check_equiv(c, out, gamma=gamma, omega=omega, env={"x": x})
        assert not check_equiv(c, captured, gamma=gamma, omega=omega, env={"x": x})


@pytest.mark.parametrize("text, expected", [
    ("if (1 : bit) then 2 else 3", "2"),
    ("if 0 then 2 else 3", "3"),
    ("5 - 3", "2"),
    ("2 = 2", "(1 : bit)"),
    ("3 = 2", "(0 : bit)"),
    ("((lambda x : int . x) : int -> int) 4", "4"),
])
def test_purify_host_reduces_literal_redexes(text, expected):
    assert alpha_equiv(purify_host(parse_host_term(text)), parse_host_term(expected))


def test_meas_new_meas_collapses():
    mnm = parse_circuit(
        "b <- gate meas q; q2 <- gate new b; b2 <- gate meas q2; output b2"
    )
    m = parse_circuit("b <- gate meas q; output b")
    assert check_equiv(mnm, m, omega=(("q", QUBIT),))


# -- soundness, subject reduction, termination --------------------------------------


def _weighted(c):
    """Compose-nesting (left-weighted) plus eliminable binders."""
    match c:
        case Compose(_, first, rest):
            return 1 + 2 * _weighted(first) + _weighted(rest)
        case UnitElim(_, rest) | Lift(_, _, rest):
            return 1 + _weighted(rest)
        case Gate(_, _, _, rest):
            return 1 + _weighted(rest)
        case _ if hasattr(c, "rest"):
            return 1 + _weighted(c.rest)
        case _:
            return 1


def _unbox_count(c):
    from ewire.syntax import Unbox

    match c:
        case Unbox(t, _):
            return 1 + (_unbox_count(t.body) if isinstance(t, Box) else 0)
        case Compose(_, first, rest):
            return _unbox_count(first) + _unbox_count(rest)
        case _ if hasattr(c, "rest"):
            return _unbox_count(c.rest)
        case _:
            return 0


def _measure(c):
    """Lexicographic: box eliminations first, then the weighted
    sequencing measure; every structural rule strictly decreases it."""
    return (_unbox_count(c), _weighted(c))


@pytest.mark.parametrize("seed", range(60))
def test_normalize_sound_and_subject_reduction(seed):
    omega, term = random_circuit(seed + 500, max_qubits=3, max_stmts=9)
    w = check_circuit({}, omega, term, _default_ctx())
    out, trace = normalize(term, max_steps=400)
    assert check_circuit({}, omega, out, _default_ctx()) == w
    assert check_equiv(term, out, omega=omega, tol=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_every_step_preserves_typing_and_decreases_measure(seed):
    from ewire.normalize import STRUCTURAL_RULES, _rewrite_first

    omega, term = random_circuit(seed + 900, max_qubits=3, max_stmts=7)
    w = check_circuit({}, omega, term, _default_ctx())
    current = term
    for _ in range(200):
        nxt = _rewrite_first(current, STRUCTURAL_RULES, Trace())
        if nxt is None:
            break
        assert check_circuit({}, omega, nxt, _default_ctx()) == w
        assert _measure(nxt) < _measure(current)
        current = nxt
    else:
        pytest.fail("did not terminate within the step bound")
