"""Typechecker tests, including a brute-force derivation search that
validates the deterministic context splitting."""

import json
from pathlib import Path

import pytest

from ewire.cli import main
from ewire.parser import parse_circuit, parse_host_term, parse_program
from ewire.syntax import (
    BIT, Box, CircT, ClassicalLit, ClassicalT, ClassicalW, Compose,
    DEFAULT_BASES, DefDecl, Gate, GateRef, Init, IntLit, Lift, MonadT, Output,
    Pair, PairElim, PairP, Prim, ProductT, Proj, QLift, QListW, QRun, QUBIT, Run,
    Span, TensorW, UnitElim, UnitP, UnitW, Unbox, UnknownGate, Var, WireP,
    children, classicalize, pretty_print,
)
from ewire.typecheck import (
    GATE_FAMILIES, CheckContext, TypeCheckError, check_circuit, check_host,
    check_program, elaborate_sugar, gate_signature, generate_meas_circuit,
    generate_new_circuit, match_pattern, _default_ctx,
)
from ewire import algebra

from tests.gen import PROGRAM_FILES, random_circuit, token_mutants

ROOT = Path(__file__).resolve().parent.parent
SUGAR = ROOT / "tests" / "sugar.ew"


# -- the pattern relation -------------------------------------------------------


def test_match_unit():
    assert match_pattern((), UnitP()) == UnitW()


def test_match_single_wire():
    assert match_pattern((("w", QUBIT),), WireP("w")) == QUBIT


def test_match_exchange():
    got = match_pattern(
        (("a", QUBIT), ("b", BIT)), PairP(WireP("b"), WireP("a"))
    )
    assert got == TensorW(BIT, QUBIT)


def test_match_unused_wire():
    with pytest.raises(TypeCheckError) as e:
        match_pattern((("a", QUBIT), ("b", BIT)), WireP("a"))
    assert e.value.kind == "UnusedWire"


def test_unused_wire_diagnostics_name_the_first_leftover_in_context_order():
    omega = (("c", QUBIT), ("a", QUBIT), ("b", BIT))
    with pytest.raises(TypeCheckError) as e:
        match_pattern(omega, WireP("a"))
    assert e.value.message == "wire 'c' left unused"
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, omega[1:], parse_circuit("init (0 : bit)"))
    assert e.value.message == "wire 'a' left unused by init"


def test_match_unbound_wire():
    with pytest.raises(TypeCheckError) as e:
        match_pattern((("a", QUBIT),), PairP(WireP("a"), WireP("c")))
    assert e.value.kind == "UnboundWire"


def brute_match(omega, p, w) -> bool:
    """Direct search over the four pattern relation rules (exchange is
    subsumed by trying every split as a subset)."""
    omega = tuple(omega)
    if isinstance(p, UnitP):
        return not omega and isinstance(w, UnitW)
    if isinstance(p, WireP):
        return len(omega) == 1 and omega[0][0] == p.name and omega[0][1] == w
    if isinstance(p, PairP):
        if not isinstance(w, TensorW):
            return False
        items = list(omega)
        for mask in range(2 ** len(items)):
            left = tuple(x for i, x in enumerate(items) if mask >> i & 1)
            right = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
            if brute_match(left, p.left, w.left) and brute_match(
                right, p.right, w.right
            ):
                return True
        return False
    return False


@pytest.mark.parametrize("seed", range(25))
def test_match_pattern_agrees_with_brute_force(seed):
    import random

    rng = random.Random(seed)
    wires = [(f"w{i}", rng.choice([QUBIT, BIT])) for i in range(rng.randint(0, 3))]
    rng.shuffle(wires)

    def random_pattern(names):
        if not names:
            return UnitP()
        if len(names) == 1 and rng.random() < 0.8:
            return WireP(names[0])
        k = rng.randint(0, len(names))
        return PairP(random_pattern(names[:k]), random_pattern(names[k:]))

    p = random_pattern([n for n, _ in wires])
    try:
        w = match_pattern(tuple(wires), p)
        assert brute_match(tuple(wires), p, w)
    except TypeCheckError:
        # when rejected, no type is derivable at all
        candidates = _candidate_types([t for _, t in wires])
        assert not any(brute_match(tuple(wires), p, w) for w in candidates)


def _candidate_types(leaf_types, depth=2):
    out = set(leaf_types) | {UnitW()}
    for _ in range(depth):
        out |= {TensorW(a, b) for a in out for b in out if len(out) < 64}
    return out


# -- brute-force circuit derivability ------------------------------------------


def brute_types(gamma, omega, c, henv=None):
    """All types derivable for a circuit under any context split, with
    exchange free.  Mirrors the declarative rules, not the checker."""
    omega = tuple(omega)
    henv = henv or {}
    out = set()
    match c:
        case Output(p):
            for w in _pattern_types(omega, p):
                out.add(w)
        case Unbox(t, p):
            if isinstance(t, Box):
                bindings = _bind_list(t.pat, t.w_in)
                for w2 in brute_types(gamma, tuple(bindings), t.body, henv):
                    if brute_match(omega, p, t.w_in):
                        out.add(w2)
        case Init(term):
            if not omega:
                v = _literal_type(term, henv)
                if v is not None:
                    out.add(v)
        case Compose(p, first, rest):
            items = list(omega)
            for mask in range(2 ** len(items)):
                o1 = tuple(x for i, x in enumerate(items) if mask >> i & 1)
                o2 = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
                for w1 in brute_types(gamma, o1, first, henv):
                    try:
                        bindings = _bind_list(p, w1)
                    except ValueError:
                        continue
                    if {n for n, _ in bindings} & {n for n, _ in o2}:
                        continue
                    out |= brute_types(gamma, tuple(bindings) + o2, rest, henv)
        case UnitElim(p, rest):
            items = list(omega)
            for mask in range(2 ** len(items)):
                o1 = tuple(x for i, x in enumerate(items) if mask >> i & 1)
                o2 = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
                if brute_match(o1, p, UnitW()):
                    out |= brute_types(gamma, o2, rest, henv)
        case PairElim(PairP(WireP(w1), WireP(w2)), p, rest):
            items = list(omega)
            for mask in range(2 ** len(items)):
                o1 = tuple(x for i, x in enumerate(items) if mask >> i & 1)
                o2 = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
                for t in _pattern_types(o1, p):
                    if isinstance(t, TensorW) and w1 != w2:
                        if {w1, w2} & {n for n, _ in o2}:
                            continue
                        ext = ((w1, t.left), (w2, t.right)) + o2
                        out |= brute_types(gamma, ext, rest, henv)
        case Gate(out_p, g, in_p, rest):
            try:
                w_in, w_out = gate_signature(g, {})
            except UnknownGate:
                return out
            items = list(omega)
            for mask in range(2 ** len(items)):
                o1 = tuple(x for i, x in enumerate(items) if mask >> i & 1)
                o2 = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
                if brute_match(o1, in_p, w_in):
                    try:
                        bindings = _bind_list(out_p, w_out)
                    except ValueError:
                        continue
                    if {n for n, _ in bindings} & {n for n, _ in o2}:
                        continue
                    out |= brute_types(gamma, tuple(bindings) + o2, rest, henv)
        case Lift(x, p, rest):
            items = list(omega)
            for mask in range(2 ** len(items)):
                o1 = tuple(x_ for i, x_ in enumerate(items) if mask >> i & 1)
                o2 = tuple(x_ for i, x_ in enumerate(items) if not mask >> i & 1)
                for v in _pattern_types(o1, p):
                    from ewire.syntax import is_classical

                    if is_classical(v):
                        h2 = dict(henv)
                        h2[x] = v
                        out |= brute_types(gamma, o2, rest, h2)
    return out


def _pattern_types(omega, p):
    if isinstance(p, UnitP):
        return [UnitW()] if not omega else []
    if isinstance(p, WireP):
        return [omega[0][1]] if len(omega) == 1 and omega[0][0] == p.name else []
    if isinstance(p, PairP):
        items = list(omega)
        out = []
        for mask in range(2 ** len(items)):
            o1 = tuple(x for i, x in enumerate(items) if mask >> i & 1)
            o2 = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
            for l in _pattern_types(o1, p.left):
                for r in _pattern_types(o2, p.right):
                    out.append(TensorW(l, r))
        return out
    return []


def _bind_list(p, w):
    out = []

    def go(q, t):
        if isinstance(q, WireP):
            out.append((q.name, t))
        elif isinstance(q, UnitP):
            if not isinstance(t, UnitW):
                raise ValueError
        else:
            if not isinstance(t, TensorW):
                raise ValueError
            go(q.left, t.left)
            go(q.right, t.right)

    go(p, w)
    names = [n for n, _ in out]
    if len(names) != len(set(names)):
        raise ValueError
    return out


def _literal_type(t, henv):
    match t:
        case IntLit(_):
            return ClassicalW("int", 64)
        case ClassicalLit(b, card, _):
            return ClassicalW(b, card)
        case Var(x):
            return henv.get(x)
        case Prim(_, _, _):
            return ClassicalW("int", 64)
    return None


@pytest.mark.parametrize("seed", range(40))
def test_splitting_sound_and_types_unique(seed):
    omega, term = random_circuit(seed, max_qubits=3, max_stmts=5)
    if len(omega) > 5:
        pytest.skip("context too large for the exponential search")
    w = check_circuit({}, omega, term, _default_ctx())
    derivable = brute_types({}, omega, term)
    assert w in derivable
    assert len(derivable) == 1  # uniqueness across all derivations


def test_rejection_matches_brute_force():
    dup = parse_circuit("w <- output a; w2 <- output a; output (w, w2)")
    omega = (("a", QUBIT),)
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, omega, dup)
    assert e.value.kind == "LinearityViolation"
    assert brute_types({}, omega, dup) == set()


# -- circuit judgments -----------------------------------------------------------


def test_flip_checks_at_bit():
    flip = parse_circuit(
        "a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b"
    )
    assert check_circuit({}, (), flip) == BIT


def test_classical_control_example():
    cc = parse_circuit(
        "x <- gate meas a; (x, y) <- gate (bit-control X) (x, b); "
        "() <- gate discard x; output y"
    )
    assert check_circuit({}, (("a", QUBIT), ("b", QUBIT)), cc) == QUBIT


def test_init_in_ambient_context():
    c = parse_circuit("n <- init (0 : bit); output (n, q)")
    got = check_circuit({}, (("q", QUBIT),), c)
    assert got == TensorW(BIT, QUBIT)


def test_gate_signature_mismatch():
    c = parse_circuit("b <- gate meas a; output b")
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, (("a", BIT),), c)
    assert e.value.kind == "GateSignature"


# the parser builds neither term; a checked term is one the evaluator
# can run, so both are rejected at their span
@pytest.mark.parametrize("term, message", [
    (Prim("*", IntLit(2), IntLit(3), loc=Span(1, 2)), "unknown primitive '*'"),
    (Proj(3, Pair(IntLit(1), IntLit(2)), loc=Span(1, 2)),
     "projection side must be 1 or 2, got 3"),
])
def test_host_terms_the_evaluator_cannot_run_are_rejected(term, message):
    with pytest.raises(TypeCheckError) as e:
        check_host({}, term)
    assert (e.value.kind, e.value.message, e.value.loc) == ("Mismatch", message, Span(1, 2))


def test_gate_families_are_one_table():
    # the parser reads a family application, and both gate typing rules
    # give its members one type, from the same table
    for name, w in GATE_FAMILIES.items():
        assert gate_signature(GateRef(name, index=3)) == (w, w)
        assert check_host({}, parse_host_term(f"{name} 3")) == CircT(w, w)


@pytest.mark.parametrize("text", [
    "output (b, b)",
    "(x, y) <- gate CNOT (b, b); output (x, y)",
    "(x, y) <- (b, b); output (x, y)",
    "() <- (b, b); output ()",
    "x <= lift (b, b); output ()",
])
def test_duplicate_wire_in_pattern_reported_first_at_its_node(text):
    # b is unbound as well: every pattern reports the duplicate first
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, (("a", BIT),), parse_circuit(f"() <- gate discard a; {text}"))
    assert e.value.kind == "PatternShape"
    assert e.value.message == "duplicate wire in pattern (b, b)"
    assert str(e.value.loc) == "1:22"


# every step that consumes wires, after "() <- u;" has spent u: each
# diagnostic's kind and message, reported at the step (column 9)
SWAP = "(box (x, y) : qubit * qubit => output (y, x))"
CONSUMING_ERRORS = {
    "output_unbound": ("output (a, z)", "UnboundWire", "wire 'z' not in scope"),
    "output_consumed": ("output (a, u)", "LinearityViolation", "wire 'u' already consumed"),
    "output_duplicate": ("output (a, a)", "PatternShape", "duplicate wire in pattern (a, a)"),
    "output_dropped": ("output (a, c)", "LinearityViolation", "wire 'b' is dropped"),
    "unbox_unbound": (f"unbox {SWAP} (a, z)", "UnboundWire", "wire 'z' not in scope"),
    "unbox_consumed": (f"unbox {SWAP} (a, u)", "LinearityViolation", "wire 'u' already consumed"),
    "unbox_duplicate": (f"unbox {SWAP} (a, a)", "PatternShape",
                        "duplicate wire in pattern (a, a)"),
    "unbox_dropped": (f"unbox {SWAP} (a, c)", "LinearityViolation", "wire 'b' is dropped"),
    "unit_elim_unbound": ("() <- z; output (a, (b, c))", "UnboundWire", "wire 'z' not in scope"),
    "unit_elim_consumed": ("() <- u; output (a, (b, c))", "LinearityViolation",
                           "wire 'u' already consumed"),
    "unit_elim_duplicate": ("() <- (a, a); output (b, c)", "PatternShape",
                            "duplicate wire in pattern (a, a)"),
    "pair_elim_unbound": ("(x, y) <- (a, z); output (x, y)", "UnboundWire",
                          "wire 'z' not in scope"),
    "pair_elim_consumed": ("(x, y) <- (a, u); output (x, y)", "LinearityViolation",
                           "wire 'u' already consumed"),
    "pair_elim_duplicate": ("(x, y) <- (a, a); output (x, y)", "PatternShape",
                            "duplicate wire in pattern (a, a)"),
    "pair_elim_rebinds": ("(b, y) <- (a, c); output (b, y)", "LinearityViolation",
                          "wire 'b' rebound while still live"),
    "gate_unbound": ("(x, y) <- gate CNOT (a, z); output (x, y)", "UnboundWire",
                     "wire 'z' not in scope"),
    "gate_consumed": ("(x, y) <- gate CNOT (a, u); output (x, y)", "LinearityViolation",
                      "wire 'u' already consumed"),
    "gate_duplicate": ("(x, y) <- gate CNOT (a, a); output (x, y)", "PatternShape",
                       "duplicate wire in pattern (a, a)"),
    "gate_rebinds": ("(b, y) <- gate CNOT (a, c); output (b, y)", "LinearityViolation",
                     "wire 'b' rebound while still live"),
    "lift_unbound": ("x <= lift (a, z); output ()", "UnboundWire", "wire 'z' not in scope"),
    "lift_consumed": ("x <= lift (a, u); output ()", "LinearityViolation",
                      "wire 'u' already consumed"),
    "lift_duplicate": ("x <= lift (a, a); output ()", "PatternShape",
                       "duplicate wire in pattern (a, a)"),
    "compose_rebinds": ("b <- output a; output (b, c)", "LinearityViolation",
                        "wire 'b' rebound while still live"),
}


@pytest.mark.parametrize("case", list(CONSUMING_ERRORS))
def test_consuming_step_diagnostics(case):
    text, kind, message = CONSUMING_ERRORS[case]
    omega = (("a", QUBIT), ("b", QUBIT), ("c", QUBIT), ("u", UnitW()))
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, omega, parse_circuit(f"() <- u; {text}"))
    assert (e.value.kind, e.value.message, str(e.value.loc)) == (kind, message, "1:9")


# one program per diagnostic, each reported with its kind and span by
# ewirec check --json
CHECK_DIAGNOSTICS = {
    "rotation_index": ("circ c (q : qubit) = (q2 <- gate R q; output q2)",
                       "GateSignature", [1, 22], "R needs a rotation index"),
    "unbox_argument": (
        "circ c (q : qubit) = unbox (box (a : qubit, b : qubit) => output (a, b)) q",
        "Mismatch", [1, 21],
        "unbox argument wires have type qubit, circuit expects qubit * qubit"),
    "init_unused": ("circ c (q : qubit) : bit = init (0 : bit)",
                    "UnusedWire", [1, 27], "wire 'q' left unused by init"),
    "init_higher_order": ("def x = run (init (lambda y : int . y))", "NotClassical",
                          [1, 13], "init needs a first-order value, got int -> int"),
    "pair_binder": ("circ c (q : qubit * qubit) = ((w, w) <- q; output w)",
                    "PatternShape", [1, 30], "duplicate wire 'w' in pair binder"),
    "projection": ("def x = fst (0 : bit)", "Mismatch", [1, 8],
                   "projection from non-product bit"),
    "bind_value": ("def x = let y <= (0 : bit) in return y", "Mismatch", [1, 8],
                   "let <= needs a computation, got bit"),
    "bind_body": ("def x = let y <= return (0 : bit) in y", "Mismatch", [1, 8],
                  "body of let <= must be a computation, got bit"),
    "literal_range": ("def x : bit = 2", "Mismatch", [1, 14],
                      "literal 2 out of range for bit (cardinality 2)"),
    "equality": ("def x = () = ()", "Mismatch", [1, 11],
                 "= compares classical values, got 1"),
    # the else branch is checked against the then branch's type
    "if_branches": ("def x = if (1 : bit) then (0 : bit) else ()", "Mismatch", [1, 41],
                    "expected bit, got 1"),
}


@pytest.mark.parametrize("case", list(CHECK_DIAGNOSTICS))
def test_check_diagnostic_kind_message_and_span(case, tmp_path, capsys):
    text, kind, span, message = CHECK_DIAGNOSTICS[case]
    src = tmp_path / "bad.ew"
    src.write_text(text + "\n")
    assert main(["check", str(src), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "kind": kind, "span": span, "message": message}


def test_unbox_of_an_open_circuit_without_wires_says_it_is_not_closed():
    t = parse_host_term("run (unbox (box q : qubit => output q) ())")
    with pytest.raises(TypeCheckError) as e:
        check_host({}, t)
    assert (e.value.kind, e.value.message, str(e.value.loc)) == (
        "Mismatch",
        "circuit of type Circ(qubit, qubit) is not closed: it expects wires of "
        "type qubit, and none are given",
        "1:5",
    )


def test_composition_names_the_first_unbound_wire_in_name_order():
    c = parse_circuit("w <- output (e, (c, (d, b))); output w")
    with pytest.raises(TypeCheckError, match="wire 'b' not in scope"):
        check_circuit({}, (("a", QUBIT),), c)


def test_lift_rejects_quantum():
    c = parse_circuit("x <= lift q; output ()")
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, (("q", QUBIT),), c)
    assert e.value.kind == "NotClassical"


# -- host judgments ---------------------------------------------------------------


def test_run_flip_type():
    t = parse_host_term(
        "run (a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b)"
    )
    assert check_host({}, t) == MonadT(ClassicalT("bit", 2))


def test_box_type():
    t = parse_host_term(
        "box (a : qubit, b : qubit) => "
        "(x <- gate meas a; (x, y) <- gate (bit-control X) (x, b); "
        "() <- gate discard x; output y)"
    )
    assert check_host({}, t) == CircT(TensorW(QUBIT, QUBIT), QUBIT)


def test_comp_type():
    t = parse_host_term(
        "lambda c : Circ(qubit, bit) * Circ(bit, qubit) . "
        "box w1 : qubit => (w2 <- unbox (fst c) w1; w3 <- unbox (snd c) w2; "
        "output w3)"
    )
    ty = check_host({}, t)
    assert ty.result == CircT(QUBIT, QUBIT)


def test_effectful_unbox_rejected():
    t = parse_host_term(
        "lambda c : T(Circ(qubit, qubit)) . box w : qubit => "
        "(w2 <- unbox c w; output w2)"
    )
    with pytest.raises(TypeCheckError) as e:
        check_host({}, t)
    assert e.value.kind == "EffectfulUnbox"


def test_bound_monadic_circuit_rejected_in_unbox():
    t = parse_host_term(
        "let c <= return (box w : qubit => output w) in "
        "return (box q : qubit => (q2 <- unbox c q; output q2))"
    )
    # c : Circ(...) after binding, which is fine; the rejected case is
    # unboxing the computation itself
    check_host({}, t)
    t2 = parse_host_term(
        "lambda d : T(Circ(qubit, qubit)) . "
        "box q : qubit => (q2 <- unbox d q; output q2)"
    )
    with pytest.raises(TypeCheckError) as e:
        check_host({}, t2)
    assert e.value.kind == "EffectfulUnbox"


def test_run_quantum_rejected():
    t = parse_host_term("run (a <- gate init0 (); output a)")
    with pytest.raises(TypeCheckError) as e:
        check_host({}, t)
    assert e.value.kind == "NotClassical"


def test_fix_type():
    t = parse_host_term("Y[int, qubit, qubit]")
    ty = check_host({}, t)
    rec = ty.result
    assert rec.result == CircT(QUBIT, QUBIT)


def test_literal_out_of_range():
    with pytest.raises(TypeCheckError):
        check_host({}, parse_host_term("(7 : bit)"))


def test_a_bare_zero_is_in_range_of_every_classical_base():
    cp = check_program(parse_program("classical color 3\ndef x : bit = 0\ndef y : color = 0\n"))
    assert cp.def_types == {"x": ClassicalT("bit", 2), "y": ClassicalT("color", 3)}
    for base, card in (("bit", 2), ("color", 3)):
        with pytest.raises(TypeCheckError) as e:
            check_program(parse_program(f"classical color 3\ndef x : {base} = (-1)\n"))
        assert e.value.message == f"literal -1 out of range for {base} (cardinality {card})"


# -- sugar elaboration --------------------------------------------------------------


def test_meas_unit_is_identity_box():
    m = generate_meas_circuit(UnitW())
    assert isinstance(m, Box)
    assert isinstance(m.body, Output)


def test_meas_qubit_shape():
    m = generate_meas_circuit(QUBIT)
    assert isinstance(m.body, Gate)
    assert m.body.gate.name == "meas"


def test_meas_tensor_recursion():
    m = generate_meas_circuit(TensorW(QUBIT, QUBIT))
    assert isinstance(m.pat, PairP)
    assert isinstance(m.body, Compose)
    assert isinstance(m.body.first, Unbox)
    assert check_host({}, m) == CircT(
        TensorW(QUBIT, QUBIT), TensorW(BIT, BIT)
    )


def test_new_circuit_types():
    n = generate_new_circuit(TensorW(QUBIT, BIT))
    assert check_host({}, n) == CircT(
        TensorW(BIT, BIT), TensorW(QUBIT, BIT)
    )


@pytest.mark.parametrize("w", [
    UnitW(), BIT, QUBIT, TensorW(QUBIT, BIT),
    TensorW(TensorW(QUBIT, TensorW(BIT, QUBIT)), TensorW(QUBIT, UnitW())),
])
def test_meas_and_new_circuits_are_dual(w):
    m, n = generate_meas_circuit(w), generate_new_circuit(w)
    assert check_host({}, m) == CircT(w, classicalize(w))
    assert check_host({}, n) == CircT(classicalize(w), w)


def test_elaboration_freshens_colliding_wire():
    prog = parse_program(
        "def f : Circ(qubit, bit) = box y : qubit => (x <= qlift y; b <- init x; output b)\n"
    )
    el = elaborate_sugar(check_program(prog))
    assert "y_1 <- unbox" in pretty_print(el)
    assert check_program(el).def_types == check_program(prog).def_types


def test_elaboration_removes_sugar_and_preserves_types():
    prog = parse_program(
        """
def main : T(bit) = qrun (a <- gate init0 (); output a)
def f : Circ(qubit, bit * qubit) =
  box q : qubit =>
    (x <= qlift q;
     b <- init x;
     q2 <- unbox (box y : bit => (y' <- gate new y; output y')) b;
     b2 <- init x;
     output (b2, q2))
"""
    )
    before = check_program(prog)
    el = elaborate_sugar(before)

    def sugar_free(n):
        return not isinstance(n, (QRun, QLift)) and all(map(sugar_free, children(n)))

    assert all(sugar_free(d.term) for d in el.decls if isinstance(d, DefDecl))
    after = check_program(el)
    assert before.def_types == after.def_types


def test_sugar_is_recorded_as_its_checked_expansion():
    # the checker types qrun and qlift only as their expansions, and
    # records each at the sugar's span
    prog = parse_program(SUGAR.read_text())
    checked = check_program(prog)
    sugar = [n for d in prog.decls if isinstance(d, DefDecl) for n in _nodes(d.term)
             if isinstance(n, (QRun, QLift))]
    assert {type(n) for n in sugar} == {QRun, QLift}
    for n in sugar:
        expansion = checked.ctx.lookup(n)
        if isinstance(n, QRun):
            expansion = expansion[0]
        assert isinstance(expansion, Run if isinstance(n, QRun) else Compose)
        assert expansion.loc == n.loc


def _nodes(n):
    yield n
    for c in children(n):
        yield from _nodes(c)


def _nested_qrun(depth: int) -> str:
    # each level passes the qrun below it to a host function under an unbox
    t = "qrun (a <- gate init0 (); output a)"
    for _ in range(depth):
        t = ("qrun (u <- unbox ((lambda m : T(bit) . box () => (a <- gate init0 (); "
             f"output a)) ({t})) (); output u)")
    return f"def main : T(bit) = {t}\n"


def test_nested_qrun_body_is_typed_a_constant_number_of_times(monkeypatch):
    # a count, not a time: each level types its body twice, once for its
    # wire type and once in its expansion, and a qrun met again in the
    # second pass reuses its record instead of typing its body anew
    import ewire.typecheck

    prog = parse_program(_nested_qrun(12))
    innermost = [n for n in _nodes(prog.decls[0].term) if isinstance(n, QRun)][-1].circuit
    circuit, typed = ewire.typecheck._circuit, []

    def counted(gamma, omega, term, ctx, spent=frozenset()):
        typed.append(term is innermost)
        return circuit(gamma, omega, term, ctx, spent)

    monkeypatch.setattr(ewire.typecheck, "_circuit", counted)
    checked = check_program(prog)
    assert sum(typed) == 2
    assert checked.def_types["main"] == MonadT(ClassicalT("bit", 2))


def test_qrun_checked_again_in_another_host_context_is_typed_anew():
    # a record is reused only under an equal host context
    term = parse_host_term("qrun (q <- unbox f (); output q)")
    ctx = _default_ctx()
    pair = TensorW(QUBIT, QUBIT)
    assert check_host({"f": CircT(UnitW(), QUBIT)}, term, ctx) == MonadT(ClassicalT("bit", 2))
    got = check_host({"f": CircT(UnitW(), pair)}, term, ctx)
    assert got == MonadT(ProductT(ClassicalT("bit", 2), ClassicalT("bit", 2)))
    with pytest.raises(TypeCheckError, match="unbound host variable 'f'"):
        check_host({}, term, ctx)


def _values(checked, mode):
    """Each ``def``'s value, as bytes where it is a distribution or a
    circuit, or the error evaluation raises."""
    from ewire.denote import CircV, call_with_stack, evaluate_program

    try:
        _, _, env = call_with_stack(lambda: evaluate_program(checked, mode=mode))
    except Exception as e:
        return repr(e)
    out = {}
    for name, v in env.items():
        if isinstance(v, algebra.Distribution):
            out[name] = [(k, repr(w)) for k, w in v.items()]
        elif isinstance(v, CircV):
            out[name] = (v.w_in, v.w_out, v.op.matrix.tobytes())
        else:
            out[name] = type(v).__name__
    return out


@pytest.mark.parametrize("path", ["tests/sugar.ew", "programs/hs.ew"])
@pytest.mark.parametrize("mode", ["cpu", "cpsu"])
def test_recorded_expansion_evaluates_as_the_elaborated_program(path, mode):
    from ewire.denote import Mode

    prog = parse_program((ROOT / path).read_text())
    checked = check_program(prog)
    elaborated = check_program(elaborate_sugar(checked))
    m = Mode.cpsu() if mode == "cpsu" else Mode.cpu()
    direct = _values(checked, m)
    assert direct == _values(elaborated, m)
    # hs.ew's fixed point needs cpsu mode; every other value is computed
    assert isinstance(direct, str) == (path == "programs/hs.ew" and mode == "cpu")


# -- whole programs -------------------------------------------------------------------


def test_check_program_order_and_shadowing():
    prog = parse_program(
        """
def one : int = 1
def two : int = one + one
"""
    )
    cp = check_program(prog)
    assert cp.def_types["two"] == ClassicalT("int", 64)


def test_forward_reference_rejected():
    prog = parse_program("def a : int = b\ndef b : int = 1\n")
    with pytest.raises(TypeCheckError):
        check_program(prog)


def test_declared_gate_usable():
    prog = parse_program(
        """
gate amp : qubit -> qubit
circ c (q : qubit) : qubit = q2 <- gate amp q; output q2
"""
    )
    cp = check_program(prog)
    assert cp.def_types["c"] == CircT(QUBIT, QUBIT)


def test_context_naming_a_wire_twice_is_reported_at_the_step():
    c = parse_circuit("output a")
    omega = (("a", QUBIT), ("a", QUBIT))
    with pytest.raises(TypeCheckError) as e:
        check_circuit({}, omega, c)
    assert (e.value.kind, e.value.message) == (
        "LinearityViolation", "duplicate wire name in context"
    )
    assert e.value.loc == c.loc


QLIST = "qlist must be instantiated with --qlist-size"
# (host context, declared gates, wire context, circuit): the second step
# binds a list-typed wire
QLIST_STEPS = {
    # a header gate on lists, which only a program built without the
    # parser can declare
    "gate": ({}, {"g": (QUBIT, TensorW(QUBIT, QListW()))}, (("q", QUBIT), ("r", QUBIT)),
             "r2 <- gate H r; (a, b) <- gate g q; output ((a, b), r2)"),
    # a circuit into lists from the caller's host context
    "unbox": ({"f": CircT(QUBIT, QListW())}, {}, (("q", QUBIT), ("r", QUBIT)),
              "r2 <- gate H r; x <- unbox f q; output (x, r2)"),
}


@pytest.mark.parametrize("case", list(QLIST_STEPS))
def test_a_step_binding_a_list_wire_is_reported_at_the_step(case):
    # a wire type is checked for qlist where it enters: in the caller's
    # context (no span), or as a wire a step binds (that step's span)
    gamma, gates, omega, text = QLIST_STEPS[case]
    c = parse_circuit(text)
    ctx = CheckContext(bases=DEFAULT_BASES, gates=gates, table={})
    with pytest.raises(TypeCheckError) as e:
        check_circuit(gamma, omega, c, ctx)
    assert (e.value.kind, e.value.message, e.value.loc) == ("Mismatch", QLIST, c.rest.loc)
    with pytest.raises(TypeCheckError) as e:
        check_circuit(gamma, (*omega, ("qs", QListW())), c, ctx)
    assert (e.value.kind, e.value.message, e.value.loc) == ("Mismatch", QLIST, None)


def test_every_type_error_in_a_mutated_program_has_a_span():
    # monomorphizing (at sizes 0..2 where a list is mentioned) and
    # checking a program reports every error at a source span
    from ewire.parser import ParseError
    from ewire.qlist import QListError, monomorphize

    raised = 0
    for text in token_mutants(PROGRAM_FILES, 2000, seed=0):
        try:
            prog = parse_program(text)
        except ParseError:
            continue
        for size in range(3) if "qlist" in text else [None]:
            try:
                check_program(prog if size is None
                              else monomorphize(prog, size, None)[0])
            except (TypeCheckError, QListError) as e:
                raised += 1
                assert e.loc is not None, (e, text)
    assert raised > 300
