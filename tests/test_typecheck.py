"""Typechecker tests, including a brute-force derivation search that
validates the deterministic context splitting."""

import pytest

from ewire.parser import parse_circuit, parse_host_term, parse_program
from ewire.syntax import (
    BIT, Box, CircT, ClassicalLit, ClassicalT, ClassicalW, Compose,
    DefDecl, Gate, Init, IntLit, Lift, MonadT, Output, PairElim, PairP, Prim,
    QLift, QRun, QUBIT, TensorW, UnitElim, UnitP, UnitW, Unbox, Var, WireP,
    children, classicalize, pretty_print,
)
from ewire.typecheck import (
    TypeCheckError, check_circuit, check_host, check_program,
    elaborate_sugar, generate_meas_circuit, generate_new_circuit,
    match_pattern, _default_ctx,
)
from ewire import algebra

from tests.gen import random_circuit


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
        case PairElim(w1, w2, p, rest):
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
                w_in, w_out = algebra.gate_signature(g, {})
            except algebra.UnknownGate:
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
    el = elaborate_sugar(prog)
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
    el = elaborate_sugar(prog)

    def sugar_free(n):
        return not isinstance(n, (QRun, QLift)) and all(map(sugar_free, children(n)))

    assert all(sugar_free(d.term) for d in el.decls if isinstance(d, DefDecl))
    after = check_program(el)
    assert before.def_types == after.def_types


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


def _token_mutants(count, seed):
    """Single-token mutations of ``programs/*.ew``: a token replaced by
    one of the programs' tokens, or deleted."""
    import random
    from pathlib import Path

    from ewire.parser import tokenize

    rng = random.Random(seed)
    sources = [p.read_text() for p in sorted(
        (Path(__file__).resolve().parent.parent / "programs").glob("*.ew"))]
    tokens = []
    for text in sources:
        starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        tokens.append([(starts[t.line - 1] + t.col, t.text)
                       for t in tokenize(text)[:-1]])
    vocabulary = sorted({t for ts in tokens for _, t in ts})
    for _ in range(count):
        i = rng.randrange(len(sources))
        start, text = rng.choice(tokens[i])
        new = "" if rng.random() < 0.2 else rng.choice(vocabulary)
        yield sources[i][:start] + new + sources[i][start + len(text):]


def test_every_type_error_in_a_mutated_program_has_a_span():
    # monomorphizing (at sizes 0..2 where a list is mentioned) and
    # checking a program reports every error at a source span
    from ewire.parser import ParseError
    from ewire.qlist import QListError, monomorphize

    raised = 0
    for text in _token_mutants(2000, seed=0):
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
