from pathlib import Path

import numpy as np
import pytest

import ewire.algebra
from ewire.algebra import (
    Distribution, ResourceLimit, SuperOp, alg, alg_copower, compose_tensored,
    frobenius_distance, gate_denotation, is_cp, is_subunital, is_unital,
    loewner_leq, op_compose, op_zero,
)
from ewire.denote import (
    BOTTOM, CircV, EvalError, Evaluator, Mode, PartialityError,
    denote_context, denote_wire, enumerate_classical, evaluate_program,
    sample,
)
from ewire.normalize import normalize
from ewire.parser import parse_circuit, parse_host_term, parse_program
from ewire.qlist import monomorphize
from ewire.syntax import (
    BIT, Box, ClassicalW, Compose, DefDecl, Gate, GateFam, GateRef, Init, Lift, Run,
    Output, PairP, QUBIT, Span, TensorW, UnitW, Var, WireP, children,
)
from ewire.typecheck import (
    check_circuit, check_host, check_program, _default_ctx,
)

from tests.gen import random_circuit
from tests.oracle import (
    channel_matrix, context_leaves, embedding_matrix, is_cp_by_eigvalsh,
    is_subunital_by_eigvalsh, leaves, permutation_superop, transpose_vec,
)

FLIP = "a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b"


def _denote(omega, text_or_term, env=None, mode=None):
    term = parse_circuit(text_or_term) if isinstance(text_or_term, str) else text_or_term
    ctx = _default_ctx()
    check_circuit({}, tuple(omega), term, ctx)
    ev = Evaluator(ctx=ctx, mode=mode or Mode.cpu())
    return ev, ev.denote_circuit({}, tuple(omega), term, dict(env or {}))


# -- wire denotations ------------------------------------------------------------


def test_denote_wire_qubit():
    assert denote_wire(QUBIT).blocks == (2,)


def test_denote_wire_bit_tensor_qubit():
    assert denote_wire(TensorW(BIT, QUBIT)).blocks == (2, 2)


def test_denote_wire_unit():
    assert denote_wire(UnitW()).blocks == (1,)


def test_denote_wire_classical_base():
    assert denote_wire(ClassicalW("digit", 10)).blocks == (1,) * 10


def test_a_tensor_product_over_the_cap_lists_no_block():
    # two factors under the cap: their product's 1.6e7 blocks (about
    # 150 MB as a tuple) are not listed before the cap is checked
    import tracemalloc

    wire = TensorW(ClassicalW("int", 4000), ClassicalW("int", 4000))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=(
                "^tensor product needs element-space dimension 16000000, over the cap ")):
            denote_wire(wire)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# -- circuit denotations -----------------------------------------------------------


def test_output_is_identity():
    _, op = _denote((("w", QUBIT),), "output w")
    assert np.allclose(op.matrix, np.eye(4))


def test_flip_is_uniform_state():
    ev, op = _denote((), FLIP)
    assert op.source == alg(1, 1) and op.target == alg(1)
    assert np.allclose(op.matrix, [[0.5, 0.5]])
    dist = ev.run_circuit(op, BIT)
    assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12


def test_classical_control_against_hand_channel():
    cc = (
        "x <- gate meas a; (x, y) <- gate (bit-control X) (x, b); "
        "() <- gate discard x; output y"
    )
    _, op = _denote((("a", QUBIT), ("b", QUBIT)), cc)
    x = np.array([[0, 1], [1, 0]])
    expected = np.zeros((16, 4), dtype=complex)
    for r in range(2):
        for c in range(2):
            e = np.zeros((2, 2))
            e[r, c] = 1
            out = np.zeros((4, 4), dtype=complex)
            for i in range(2):
                p = np.zeros((2, 2))
                p[i, i] = 1
                xi = e if i == 0 else x @ e @ x
                out += np.kron(p, xi)
            expected[:, r * 2 + c] = out.reshape(-1)
    assert np.linalg.norm(op.matrix - expected) < 1e-9


def test_deterministic_init_run():
    ev, op = _denote((), "n <- init (1 : bit); output n")
    dist = ev.run_circuit(op, BIT)
    assert dist[1] == 1.0 and dist[0] == 0.0


@pytest.mark.parametrize("mode", [Mode.cpu(), Mode.cpsu(50)], ids=lambda m: m.kind)
def test_init_of_pairs_and_units_runs_to_its_value(mode):
    # classical_index and classical_size on tensors, with a unit factor
    # on either side of one
    src = """
def pair : T(bit * bit) = run (c <- init ((1 : bit), (0 : bit)); output c)
def unit_left : T(1 * bit) = run (c <- init ((), (1 : bit)); output c)
def nested : T(bit * (1 * bit)) = run (c <- init ((1 : bit), ((), (0 : bit))); output c)
"""
    _, _, env = evaluate_program(check_program(parse_program(src)), mode=mode)
    assert dict(env["pair"].items()) == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0}
    assert dict(env["unit_left"].items()) == {((), 0): 0.0, ((), 1): 1.0}
    assert dict(env["nested"].items()) == {
        (0, ((), 0)): 0.0, (0, ((), 1)): 0.0, (1, ((), 0)): 1.0, (1, ((), 1)): 0.0}


@pytest.mark.parametrize("seed", range(25))
def test_heisenberg_is_adjoint_of_schrodinger_oracle(seed):
    omega, term = random_circuit(seed, max_qubits=3, max_stmts=8)
    ctx = _default_ctx()
    w = check_circuit({}, omega, term, ctx)
    ev = Evaluator(ctx=ctx)
    h = ev.denote_circuit({}, omega, term, {})
    s = channel_matrix(omega, term)
    in_leaves = context_leaves(omega)
    out_leaves = leaves(w)
    din = int(np.prod([d for _, d in in_leaves])) if in_leaves else 1
    dout = int(np.prod([d for _, d in out_leaves])) if out_leaves else 1
    tw = embedding_matrix(out_leaves, denote_wire(w))[transpose_vec(dout), :]
    tom = embedding_matrix(in_leaves, denote_context(omega))[transpose_vec(din), :]
    assert np.abs(s.T @ tw - tom @ h.matrix).max() < 1e-9


@pytest.mark.parametrize("seed", range(15))
def test_denotations_cp_and_unital(seed):
    omega, term = random_circuit(seed + 100, max_qubits=4, max_stmts=10)
    _, op = _denote(omega, term)
    assert is_cp(op, 1e-9)
    assert is_unital(op, 1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_positivity_answers_as_eigvalsh_on_the_oracle_suite(seed):
    # the circuits of the adjointness test, in both modes, at the default
    # tolerance and at 0, where the Choi blocks of unitary channels are
    # singular and the answer rests on eigvalsh's rounding
    omega, term = random_circuit(seed, max_qubits=3, max_stmts=8)
    for mode in (Mode.cpu(), Mode.cpsu()):
        _, op = _denote(omega, term, mode=mode)
        for tol in (1e-9, 0.0):
            assert is_cp(op, tol) == is_cp_by_eigvalsh(op, tol)
            assert is_subunital(op, tol) == is_subunital_by_eigvalsh(op, tol)


def test_exchange_coherence():
    omega = (("a", QUBIT), ("b", BIT), ("c", QUBIT))
    term = parse_circuit("q <- gate H a; output (q, (b, c))")
    perm = [2, 0, 1]
    omega_p = tuple(omega[i] for i in perm)
    _, direct = _denote(omega, term)
    _, permuted = _denote(omega_p, term)
    algs = [denote_wire(ty) for _, ty in omega_p]
    inv = [perm.index(j) for j in range(3)]
    p = permutation_superop(algs, inv)
    assert p.target == denote_context(omega)
    recombined = op_compose(permuted, p)
    assert frobenius_distance(recombined, direct) == 0.0


# -- host evaluation ------------------------------------------------------------------


def test_return_is_point_distribution():
    ev = Evaluator()
    v = ev.eval_host({}, parse_host_term("return 3"), {})
    assert v.weights == {3: 1.0}


def test_a_computation_of_a_computation_is_a_point_distribution():
    # computations nest, so a computation must be hashable as an outcome
    prog = parse_program("def main : T(T(bit)) = return (return (1 : bit))")
    _, _, env = evaluate_program(check_program(prog))
    [(inner, p)] = env["main"].weights.items()
    assert p == 1.0
    assert inner.weights == {1: 1.0}


def test_monad_laws_exact():
    ev = Evaluator(ctx=_default_ctx())

    def bind(d, f):
        out = {}
        for hv, w in d.weights.items():
            for hv2, w2 in f(hv).weights.items():
                out[hv2] = out.get(hv2, 0.0) + w * w2
        return Distribution(out)

    eta = lambda v: Distribution({v: 1.0})
    d = Distribution({0: 0.25, 1: 0.75})
    f = lambda v: Distribution({v + 1: 0.5, v: 0.5})
    g = lambda v: Distribution({2 * v: 1.0})
    assert bind(eta(5), f).weights == f(5).weights
    assert bind(d, eta).weights == d.weights
    lhs = bind(bind(d, f), g)
    rhs = bind(d, lambda v: bind(f(v), g))
    assert lhs.weights == rhs.weights


def test_let_bind_convex_combination():
    prog = parse_program(
        """
circ flip : bit =
  a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b
def main : T(bit) =
  let x <= run flip in
  let y <= run flip in
  return (x = y)
"""
    )
    cp = check_program(prog)
    _, _, env = evaluate_program(cp)
    w = env["main"].weights
    assert abs(w[1] - 0.5) < 1e-12
    assert abs(w[0] - 0.5) < 1e-12


def test_comp_evaluates_to_composite():
    comp = parse_host_term(
        "lambda c : Circ(qubit, qubit) * Circ(qubit, qubit) . "
        "box w1 : qubit => (w2 <- unbox (fst c) w1; w3 <- unbox (snd c) w2; "
        "output w3)"
    )
    ctx = _default_ctx()
    from ewire.typecheck import check_host

    check_host({}, comp, ctx)
    ev = Evaluator(ctx=ctx)
    h = gate_denotation(GateRef("H"))
    x = gate_denotation(GateRef("X"))
    cv = ev.apply(
        ev.eval_host({}, comp, {}),
        (CircV(QUBIT, QUBIT, h), CircV(QUBIT, QUBIT, x)),
    )
    # circuit order H then X: Heisenberg applies X's map first
    expected = op_compose(x, h)
    assert frobenius_distance(cv.op, expected) < 1e-12


def test_copower_adjunction_roundtrip():
    from tests.oracle import random_cpu_map
    from ewire.algebra import alg_tensor
    from ewire.typecheck import check_host

    f = parse_host_term(
        "lambda f : bit -> Circ(qubit, qubit) . "
        "box (v : bit, w : qubit) => (x <= lift v; unbox (f x) w)"
    )
    g = parse_host_term(
        "lambda c : Circ(bit * qubit, qubit) . lambda x : bit . "
        "box w : qubit => (v <- init (x : bit); unbox c (v, w))"
    )
    ctx = _default_ctx()
    check_host({}, f, ctx)
    check_host({}, g, ctx)
    rng = np.random.default_rng(17)
    ev = Evaluator(ctx=ctx)
    fv = ev.eval_host({}, f, {})
    gv = ev.eval_host({}, g, {})
    for _ in range(10):
        c_op = random_cpu_map(alg(2), alg_tensor(alg(1, 1), alg(2)), rng)
        cval = CircV(TensorW(BIT, QUBIT), QUBIT, c_op)
        back = ev.apply(fv, ev.apply(gv, cval))
        assert frobenius_distance(back.op, c_op) < 1e-10


# -- fixed points -----------------------------------------------------------------------


HS = """
def rec Hs : int -> Circ(qubit, qubit) =
  lambda n : int .
    if n = 0 then box q : qubit => output q
    else box q : qubit => (q' <- gate H q; unbox (Hs (n - 1)) q')
"""


def _hs_env(fuel):
    cp = check_program(parse_program(HS))
    ev, _, env = evaluate_program(cp, mode=Mode.cpsu(fuel))
    return ev, env["Hs"]


def test_hs_zero_is_identity():
    ev, hs = _hs_env(100)
    assert np.allclose(ev.apply(hs, 0).op.matrix, np.eye(4))


def test_hs_three_is_h():
    ev, hs = _hs_env(100)
    h = gate_denotation(GateRef("H"))
    assert frobenius_distance(ev.apply(hs, 3).op, h) < 1e-12


def test_hs_negative_diverges_at_any_fuel():
    from ewire.denote import call_with_stack

    for fuel in (0, 1, 7, 300):
        ev, hs = _hs_env(fuel)
        op = call_with_stack(lambda: ev.apply(hs, -1).op)
        assert np.allclose(op.matrix, 0.0)


def test_fix_requires_cpsu():
    cp = check_program(parse_program(HS))
    with pytest.raises(EvalError):
        evaluate_program(cp, mode=Mode.cpu())


def test_fix_monotone_in_fuel():
    results = []
    for fuel in range(0, 6):
        ev, hs = _hs_env(fuel)
        results.append(ev.apply(hs, 3).op)
    for a, b in zip(results, results[1:]):
        assert loewner_leq(a, b, 1e-9)
    assert np.allclose(results[0].matrix, 0.0)
    assert frobenius_distance(results[-1], gate_denotation(GateRef("H"))) < 1e-12


def test_fix_eval_entrypoint():
    cp = check_program(parse_program(HS))
    ev, _, env = evaluate_program(cp, mode=Mode.cpsu(50))
    # Hs is the fixed point value itself; applying it unfolds it
    out = ev.apply(env["Hs"], 2)
    assert np.allclose(out.op.matrix, np.eye(4))


def test_fixed_point_unfolding_to_itself_spends_all_fuel_on_bottom():
    # the functional returns the fixed point itself, so each unfolding
    # applies the fixed point again: 50 unfoldings, then the zero map
    t = parse_host_term("(Y[1, qubit, qubit] (lambda f : 1 -> Circ(qubit, qubit) . f)) ()")
    ctx = _default_ctx()
    check_host({}, t, ctx)
    ev = Evaluator(ctx=ctx, mode=Mode.cpsu(50))
    out = ev.eval_host(None, t, {})
    assert isinstance(out, CircV) and out.op.matrix.shape == (4, 4)
    assert not out.op.matrix.any()
    assert ev.fuel == 0


HS_PASSED = """
def fixer : ((int -> Circ(qubit, qubit)) -> int -> Circ(qubit, qubit))
            -> int -> Circ(qubit, qubit) = Y[int, qubit, qubit]
def step : (int -> Circ(qubit, qubit)) -> int -> Circ(qubit, qubit) =
  lambda Hs : int -> Circ(qubit, qubit) . lambda n : int .
    if n = 0 then box q : qubit => output q
    else box q : qubit => (q' <- gate H q; unbox (Hs (n - 1)) q')
def Hs : int -> Circ(qubit, qubit) =
  (lambda y : ((int -> Circ(qubit, qubit)) -> int -> Circ(qubit, qubit))
              -> int -> Circ(qubit, qubit) . y step) fixer
"""


@pytest.mark.parametrize("fuel, n", [(0, 2), (2, 3), (50, 3), (50, -1)])
def test_a_bound_and_passed_fixed_point_combinator_is_def_rec(fuel, n):
    # the combinator is bound by a declaration, passed to a function and
    # applied there; it unfolds as def rec does, and applying it is free
    from ewire.denote import FixV, call_with_stack

    passed = check_program(parse_program(HS_PASSED))
    ev = Evaluator(ctx=passed.ctx, mode=Mode.cpsu(fuel))
    fixer, step = (ev.eval_host(None, passed.program.find(x).term, {}) for x in ("fixer", "step"))
    assert type(ev.apply(fixer, step)) is FixV and ev.fuel == fuel
    hs = ev.eval_host(None, passed.program.find("Hs").term, {"fixer": fixer, "step": step})
    assert type(hs) is FixV and ev.fuel == fuel
    got = call_with_stack(lambda: ev.apply(hs, n)).op.matrix
    rec = check_program(parse_program(HS))
    ev_rec = Evaluator(ctx=rec.ctx, mode=Mode.cpsu(fuel))
    hs_rec = ev_rec.eval_host(None, rec.program.find("Hs").term, {})
    want = call_with_stack(lambda: ev_rec.apply(hs_rec, n)).op.matrix
    assert got.tobytes() == want.tobytes()
    assert ev.fuel == ev_rec.fuel


def test_partiality_out_of_range_init():
    prog = parse_program(
        """
classical int 2
def f : Circ(int, int) =
  box w : int =>
    (x <= lift w;
     n <- init (x + 1);
     output n)
"""
    )
    cp = check_program(prog)
    with pytest.raises(PartialityError) as e:
        evaluate_program(cp, mode=Mode.cpu())
    assert e.value.loc == Span(6, 10)  # the init
    _, _, env = evaluate_program(cp, mode=Mode.cpsu())
    op = env["f"].op
    assert is_cp(op) and is_subunital(op) and not is_unital(op)


# -- classical enumeration and sampling ----------------------------------------------


def test_enumerate_bit():
    assert enumerate_classical(BIT) == [0, 1]


def test_enumerate_pair_lexicographic():
    got = enumerate_classical(TensorW(BIT, BIT))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_unit():
    assert enumerate_classical(UnitW()) == [()]


def test_sample_point_mass():
    counts = sample(Distribution({0: 1.0}), seed=9, shots=100)
    assert counts == {0: 100}


def test_sample_flip_within_three_sigma():
    counts = sample(Distribution({0: 0.5, 1: 0.5}), seed=42, shots=10000)
    sigma = (10000 * 0.25) ** 0.5
    assert abs(counts[0] - 5000) <= 3 * sigma
    assert abs(counts[1] - 5000) <= 3 * sigma


def test_sample_zero_mass_diverges():
    counts = sample(Distribution({0: 0.0}), seed=1, shots=10)
    assert counts[BOTTOM] == 10


def test_sample_deterministic():
    d = Distribution({0: 0.3, 1: 0.7})
    assert sample(d, 5, 1000) == sample(d, 5, 1000)
    assert sample(d, 5, 1000) != sample(d, 6, 1000)


def test_run_circuit_mass_checked():
    # a subunital state in cpu mode is rejected
    st = op_zero(alg(1, 1), alg(1))
    ev = Evaluator(mode=Mode.cpu())
    with pytest.raises(EvalError) as e:
        ev.run_circuit(st, BIT)
    assert e.value.loc is None
    # at the span of the run that read it
    with pytest.raises(EvalError, match="total mass 0") as e:
        ev.run_circuit(st, BIT, Span(3, 7))
    assert e.value.loc == Span(3, 7)
    ev2 = Evaluator(mode=Mode.cpsu())
    d = ev2.run_circuit(st, BIT)
    assert d.diverge_mass() == 1.0


def test_qrun_measures_implicitly():
    from ewire.typecheck import check_program
    from ewire.parser import parse_program

    prog = parse_program(
        "def main : T(bit) = "
        "qrun (a <- gate init0 (); a2 <- gate H a; output a2)\n"
    )
    cp = check_program(prog)
    _, _, env = evaluate_program(cp)
    w = dict(env["main"].weights)
    assert abs(w[0] - 0.5) < 1e-12 and abs(w[1] - 0.5) < 1e-12


def test_qlift_measures_then_lifts():
    from ewire.typecheck import check_program
    from ewire.parser import parse_program

    # prepare |1>, qlift it: the lifted value is always 1
    prog = parse_program(
        "def main : T(bit) = "
        "run (q <- gate init1 (); x <= qlift q; b <- init (x : bit); "
        "output b)\n"
    )
    cp = check_program(prog)
    _, _, env = evaluate_program(cp)
    w = dict(env["main"].weights)
    assert abs(w[1] - 1.0) < 1e-12


def test_unit_typed_wire_elimination():
    c = parse_circuit("u <- output (); () <- u; output q")
    _, op = _denote((("q", QUBIT),), c)
    assert np.allclose(op.matrix, np.eye(4))


def test_pair_elim_with_unit_component():
    t = parse_host_term(
        "box p : I * qubit => ((a, b) <- p; () <- a; output b)"
    )
    ctx = _default_ctx()
    from ewire.typecheck import check_host

    check_host({}, t, ctx)
    op = Evaluator(ctx=ctx).eval_host({}, t, {}).op
    assert np.allclose(op.matrix, np.eye(4))


def test_bit_controlled_rotation():
    c = parse_circuit(
        "(b2, q2) <- gate (bit-control (R 2)) (b, q); output (b2, q2)"
    )
    _, op = _denote((("b", BIT), ("q", QUBIT)), c)
    r = np.diag([1.0, 1j])
    expected = np.zeros((8, 8), dtype=complex)
    expected[:4, :4] = np.eye(4)
    expected[4:, 4:] = np.kron(r.conj().T, r.T)
    assert np.allclose(op.matrix, expected)


@pytest.mark.parametrize("family,dim", [("R", 4), ("CR", 16)])
def test_a_gate_family_at_index_zero_is_the_identity(family, dim):
    # R 0 rotates by exp(2 pi i) = 1; only a negative index is partial
    def evaluate(text):
        term = parse_host_term(text)
        ctx = _default_ctx()
        check_host({}, term, ctx)
        return Evaluator(ctx=ctx).eval_host(None, term, {})

    op = evaluate(f"{family} 0").op
    np.testing.assert_allclose(op.matrix, np.eye(dim), rtol=0, atol=1e-12)
    with pytest.raises(PartialityError, match=f"{family} rejects negative index -1"):
        evaluate(f"{family} (-1)")


def test_unbox_with_permuted_composite_arguments():
    # the box swaps its two inputs; the unbox pattern also permutes the
    # ambient wires, so both reorderings must compound correctly
    t = (
        "u <- unbox (box (a : qubit, b : qubit) => "
        "((a2, b2) <- gate CNOT (a, b); output (b2, a2))) (y, x); "
        "output u"
    )
    omega = (("x", QUBIT), ("y", QUBIT))
    term = parse_circuit(t)
    ctx = _default_ctx()
    w = check_circuit({}, omega, term, ctx)
    h = Evaluator(ctx=ctx).denote_circuit({}, omega, term, {})
    s = channel_matrix(omega, term)
    in_leaves = context_leaves(omega)
    out_leaves = leaves(w)
    din = dout = 4
    tw = embedding_matrix(out_leaves, denote_wire(w))[transpose_vec(dout), :]
    tom = embedding_matrix(in_leaves, denote_context(omega))[transpose_vec(din), :]
    assert np.abs(s.T @ tw - tom @ h.matrix).max() < 1e-12


def test_lift_composite_pattern_then_init_is_identity():
    # reading a pair of classical wires and re-initialising the pair is
    # the identity channel on the four-valued classical algebra
    t = parse_host_term(
        "box (a : bit, b : bit) => (x <= lift (a, b); n <- init x; output n)"
    )
    ctx = _default_ctx()
    from ewire.typecheck import check_host

    ty = check_host({}, t, ctx)
    assert str(ty) == "Circ(bit * bit, bit * bit)"
    op = Evaluator(ctx=ctx).eval_host({}, t, {}).op
    assert np.allclose(op.matrix, np.eye(4))


def test_lift_composite_pattern_branch_order():
    # initialise a bit telling whether the lifted pair was (1, 0); the
    # branch enumeration must follow the lexicographic value order
    t = parse_host_term(
        "box (a : bit, b : bit) => "
        "(x <= lift (a, b); "
        "n <- init (if fst x then (if snd x then (0 : bit) else (1 : bit)) "
        "else (0 : bit)); output n)"
    )
    ctx = _default_ctx()
    from ewire.typecheck import check_host

    check_host({}, t, ctx)
    op = Evaluator(ctx=ctx).eval_host({}, t, {}).op
    # Heisenberg map C^2 -> C^4: column of outcome o gives, per input
    # value v, the indicator that branch v produced o
    expected = np.zeros((4, 2))
    for i, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        expected[i, 1 if a - b == 1 else 0] = 1.0
    assert np.allclose(op.matrix, expected)


def test_teleportation_is_identity_channel():
    from pathlib import Path as _P
    from ewire.parser import parse_program
    from ewire.typecheck import check_program

    src = (_P(__file__).resolve().parent.parent / "programs" / "teleport.ew")
    cp = check_program(parse_program(src.read_text()))
    _, _, env = evaluate_program(cp)
    op = env["teleport"].op
    assert np.abs(op.matrix - np.eye(4)).max() < 1e-12
    dist = dict(env["main"].weights)
    assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12


# -- the evaluator reads types from the checker's table ----------------------------


PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def test_evaluator_never_rechecks(monkeypatch):
    import ewire.algebra
    import ewire.denote
    import ewire.syntax
    import ewire.typecheck

    checked = []
    for path in sorted(PROGRAMS.glob("*.ew")):
        prog = parse_program(path.read_text())
        if path.name == "qft.ew":
            for n in range(1, 5):
                mono, _ = monomorphize(prog, n, "fourier")
                checked.append((check_program(mono), [Mode.cpsu()]))
        else:
            cp = check_program(prog)
            modes = [Mode.cpsu(20)] + ([] if path.name == "hs.ew" else [Mode.cpu()])
            checked.append((cp, modes))
    corpus = []
    for seed in range(2000, 2020):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        ctx = _default_ctx()
        check_circuit({}, omega, term, ctx)
        corpus.append((ctx, omega, term))

    def forbidden(*args, **kwargs):
        raise AssertionError("the evaluator re-ran the typechecker")

    # nor does it type a pattern or a gate, or collect wire names, under
    # whatever name a module holds these functions by
    names = {"check_circuit", "check_host", "bind_pattern", "pattern_type",
             "match_pattern", "gate_signature", "free_wires", "pattern_wires"}
    for module in (ewire.algebra, ewire.denote, ewire.syntax, ewire.typecheck):
        for name in names & vars(module).keys():
            monkeypatch.setattr(module, name, forbidden)
    for cp, modes in checked:
        for mode in modes:
            evaluate_program(cp, mode=mode)
    for ctx, omega, term in corpus:
        for mode in (Mode.cpu(), Mode.cpsu()):
            Evaluator(ctx=ctx, mode=mode).denote_circuit(None, omega, term, {})


@pytest.mark.parametrize("text", [
    "box q : qubit => output q",
    "run (a <- gate init0 (); b <- gate meas a; output b)",
    "CR 2",
])
def test_evaluator_rejects_unchecked_terms(text):
    check_host({}, parse_host_term(text))
    term = parse_host_term(text)
    kind = type(term).__name__
    with pytest.raises(EvalError, match=f"{kind} at 1:0 was not checked"):
        Evaluator().eval_host(None, term, {})


@pytest.mark.parametrize("text, kind", [
    ("u <- output b; output u", "Compose"),
    ("x <= lift b; output ()", "Lift"),
    ("x <= lift b; n <- init x; output n", "Lift"),
    ("output b", "Output"),
    ("unbox (box c : bit => output c) b", "Unbox"),
    ("() <- (); output b", "UnitElim"),
    ("(x, y) <- (b, ()); output (x, y)", "PairElim"),
    ("() <- gate discard b; output ()", "Gate"),
])
def test_unchecked_circuits_rejected(text, kind):
    # each term is well typed: only the missing records stop it
    omega = (("b", BIT),)
    check_circuit({}, omega, parse_circuit(text))
    term = parse_circuit(text)
    assert type(term).__name__ == kind
    with pytest.raises(EvalError, match=f"{kind} at 1:0 was not checked"):
        Evaluator().denote_circuit(None, omega, term, {})


def _nodes(n):
    yield n
    for c in children(n):
        yield from _nodes(c)


def test_shared_subterms_denote_as_under_a_fresh_context():
    # normalize shares unchanged subterms between a circuit and its normal
    # form; checking both into one context, as the rewrite benchmark
    # does, must leave every record right for both
    sharing = 0
    for seed in range(2000, 2100):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        nf, _ = normalize(term, max_steps=600)
        if nf is not term:
            sharing += bool({id(n) for n in _nodes(term)} & {id(n) for n in _nodes(nf)})
        shared = _default_ctx()
        check_circuit({}, omega, term, shared)
        check_circuit({}, omega, nf, shared)
        for t in (term, nf):
            fresh = _default_ctx()
            check_circuit({}, omega, t, fresh)
            for mode in (Mode.cpu(), Mode.cpsu()):
                a = Evaluator(ctx=shared, mode=mode).denote_circuit(None, omega, t, {})
                b = Evaluator(ctx=fresh, mode=mode).denote_circuit(None, omega, t, {})
                assert a.matrix.tobytes() == b.matrix.tobytes()
    assert sharing > 0


def test_module_entry_points_check_their_input():
    import ewire
    from ewire.syntax import CircT
    from ewire.typecheck import TypeCheckError

    omega = (("b", BIT), ("q", QUBIT))
    text = "x <= lift b; q2 <- unbox (if x then c else box r : qubit => output r) q; output q2"
    gamma = {"c": CircT(QUBIT, QUBIT)}
    env = {"c": CircV(QUBIT, QUBIT, gate_denotation(GateRef("H")))}
    got = ewire.denote_circuit(gamma, omega, parse_circuit(text), env)
    term = parse_circuit(text)
    ctx = _default_ctx()
    check_circuit(gamma, omega, term, ctx)
    want = Evaluator(ctx=ctx).denote_circuit(None, omega, term, env)
    assert np.array_equal(got.matrix, want.matrix)
    with pytest.raises(TypeCheckError):
        ewire.denote_circuit({}, omega, parse_circuit("output q"))

    box = ewire.eval_host({}, parse_host_term("box q : qubit => (q2 <- gate H q; output q2)"))
    assert np.array_equal(box.op.matrix, gate_denotation(GateRef("H")).matrix)
    with pytest.raises(TypeCheckError):
        ewire.eval_host({}, parse_host_term("box q : qubit => (q2 <- gate meas q; output q)"))


def test_cpsu_lift_with_only_partial_branches_is_zero():
    # both branches ask for a rotation with a negative index
    omega = (("b", BIT), ("q", QUBIT))
    text = "x <= lift b; q2 <- unbox (R (if x then 0 - 1 else 0 - 2)) q; output q2"
    with pytest.raises(PartialityError) as e:
        _denote(omega, text)
    assert e.value.loc == Span(1, text.index("R ("))  # the gate family
    _, op = _denote(omega, text, mode=Mode.cpsu())
    assert op.source == denote_wire(QUBIT)
    assert op.target == denote_context(omega)
    assert op.matrix.shape == (8, 4) and not op.matrix.any()


# -- memoised closure applications -------------------------------------------------


def _hs_and(extra: str):
    prog = parse_program((PROGRAMS / "hs.ew").read_text() + extra)
    cp = check_program(prog)
    ev = Evaluator(ctx=cp.ctx, mode=Mode.cpsu(100))
    env: dict = {}
    for d in cp.program.decls:
        if d.name in ("Hs", "g", "f"):
            env[d.name] = ev.eval_host(None, d.term, env)
    return ev, env


def test_memo_dropped_at_first_unfolding():
    # each application of g unfolds Hs three times; a replayed result
    # would skip that fuel
    ev, env = _hs_and("def g : int -> Circ(qubit, qubit) = lambda n : int . Hs n\n")
    first = ev.apply(env["g"], 2)
    second = ev.apply(env["g"], 2)
    assert ev.fuel == 100 - 6
    assert np.array_equal(first.op.matrix, second.op.matrix)


def test_memo_holds_until_first_unfolding():
    ev, env = _hs_and(
        "def f : int -> Circ(qubit, qubit) = lambda n : int . "
        "box q : qubit => (q' <- gate H q; output q')\n"
    )
    assert ev.apply(env["f"], 1) is ev.apply(env["f"], 1)
    ev.apply(env["Hs"], 0)
    assert ev.fuel == 99
    assert ev.apply(env["f"], 1) is not ev.apply(env["f"], 1)


def test_memo_keys_first_order_arguments_only():
    # a nested pair of numbers and units is memoised; an argument holding
    # a circuit is not
    ev, env = _hs_and(
        "def g : int * (1 * bit) -> Circ(qubit, qubit) = "
        "lambda p : int * (1 * bit) . box q : qubit => output q\n"
        "def f : (int * 1) * Circ(qubit, qubit) -> Circ(qubit, qubit) = "
        "lambda p : (int * 1) * Circ(qubit, qubit) . "
        "box q : qubit => (q2 <- unbox (snd p) q; output q2)\n"
    )
    c = ev.apply(env["g"], (1, ((), 0)))
    assert ev.apply(env["g"], (1, ((), 0))) is c
    assert ev.apply(env["g"], (1, ((), 1))) is not c
    arg = ((2, ()), c)
    assert ev.apply(env["f"], arg) is not ev.apply(env["f"], arg)


def _held_by_code(entries) -> list:
    """Everything the compiled code in ``entries`` holds: the cells and
    defaults of each closure, the slots of each step's ``_Step``, and the
    items of tuples and lists, walked from each entry of a ``code`` table."""
    import types

    from ewire.denote import _Step

    seen, todo, out = set(), list(entries), []
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, types.FunctionType):
            todo += [c.cell_contents for c in x.__closure__ or () if c.cell_contents is not None]
            todo += list(x.__defaults__ or ())
        elif isinstance(x, _Step):
            todo += [getattr(x, slot) for slot in _Step.__slots__]
        elif isinstance(x, (tuple, list)):
            todo += list(x)
    return out


def test_program_values_freed_without_cycle_collection():
    # a top-level closure must not hold the environment it is stored in,
    # or every value of the program waits for the cycle collector
    import gc
    import weakref

    from ewire.denote import HostValue

    cp = check_program(parse_program(
        "def f : int -> int = lambda x : int . x\n"
        "def c : Circ(qubit, qubit) = box q : qubit => output q\n"
        "def d : Circ(bit * qubit, qubit) = box (b, q) : bit * qubit =>\n"
        "  (x <= lift b; q2 <- unbox (if x then c else c) q; output q2)\n"
    ))
    gc.disable()
    try:
        ev, _, env = evaluate_program(cp)
        ref = weakref.ref(env["c"])
        del ev, env
        assert ref() is None
        # the compiled code stays with the checked program; it holds no
        # evaluator, environment or host value, so nothing holds it back
        assert cp.ctx.code
        held = _held_by_code(cp.ctx.code.values())
        assert any(callable(x) for x in held)
        assert not [x for x in held if isinstance(x, (Evaluator, HostValue, dict))]
        ctx = weakref.ref(cp.ctx)
        del cp
        assert ctx() is None
    finally:
        gc.enable()


def test_row_gather_matches_dense_on_generated_circuits(monkeypatch):
    import ewire.algebra

    def denote_corpus():
        out = []
        for seed in range(2000, 2050):
            omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
            ctx = _default_ctx()
            check_circuit({}, omega, term, ctx)
            for mode in (Mode.cpu(), Mode.cpsu()):
                ev = Evaluator(ctx=ctx, mode=mode)
                out.append((ev.denote_circuit(None, omega, term, {}).matrix, ev.fuel))
        return out

    # _monomial_rows decides the gather for every f, row view or dense
    detect = ewire.algebra._monomial_rows
    gathers = []

    def counted(f):
        found = detect(f)
        gathers.append(found is not None)
        return found

    monkeypatch.setattr(ewire.algebra, "_monomial_rows", counted)
    fast = denote_corpus()
    monkeypatch.setattr(ewire.algebra, "_monomial_rows", lambda f: None)
    dense = denote_corpus()
    assert sum(gathers) > len(gathers) // 2
    for (a, fuel_a), (b, fuel_b) in zip(fast, dense):
        assert a.shape == b.shape and fuel_a == fuel_b
        assert np.abs(a - b).max(initial=0.0) <= 1e-12


def _corpus_jobs():
    """``(ctx, job)`` pairs, ``job(ev)`` denoting with ``ev``: the whole
    rewrite corpus (seeds 2000-2099) and QFT ``fourier`` at n=1..4."""

    def evaluate(decls, entry):
        # evaluate_program resets the fuel per declaration; this does not
        def run(ev):
            env = {}
            for d in decls:
                env[d.name] = ev.eval_host(None, d.term, dict(env))
            return env[entry].op
        return run

    # the whole corpus: no lift in seeds 2000-2049 moves a row
    jobs = []
    for seed in range(2000, 2100):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        ctx = _default_ctx()
        check_circuit({}, omega, term, ctx)
        jobs.append((ctx, lambda ev, omega=omega, term=term:
                     ev.denote_circuit(None, omega, term, {})))
    prog = parse_program((PROGRAMS / "qft.ew").read_text())
    for n in range(1, 5):
        mono, entry = monomorphize(prog, n, "fourier")
        cp = check_program(mono)
        decls = [d for d in cp.program.decls if isinstance(d, DefDecl)]
        jobs.append((cp.ctx, evaluate(decls, entry)))
    return jobs


def _fingerprint(value):
    """Bytes of every matrix in ``value`` (a map, a host value or a list)."""
    match value:
        case SuperOp():
            return value.matrix.tobytes()
        case CircV(w_in, w_out, op):
            return (str(w_in), str(w_out), op.matrix.tobytes())
        case Distribution(weights):
            return sorted((repr(k), w) for k, w in weights.items())
        case list():
            return [_fingerprint(v) for v in value]
    return repr(value)


def _denote_jobs(jobs):
    """Each job's ``_fingerprint``, or its ``EvalError``, and the fuel
    left, in cpu and cpsu mode (fuel 100, so ``Hs (-1)`` bottoms out
    within the default recursion limit)."""
    out = []
    for ctx, job in jobs:
        for mode in (Mode.cpu(), Mode.cpsu(100)):
            ev = Evaluator(ctx=ctx, mode=mode)
            try:
                result = _fingerprint(job(ev))
            except EvalError as e:
                result = repr(e)
            out.append((result, ev.fuel))
    return out


def test_row_placement_matches_scatter_after(monkeypatch):
    # each step places its rows inside compose_tensored and copower_stack;
    # the reference builds the canonical rows (stacking by vstack) and
    # scatters them afterwards
    import ewire.denote

    jobs = _corpus_jobs()
    placed = []

    def scatter(op, rows):
        placed.append(rows is not None)
        if rows is None:
            return op
        m = np.empty_like(op.matrix)
        m[rows] = op.matrix
        return SuperOp(op.source, op.target, m)

    def compose_reference(f, rest, g, *, rows=None):
        return scatter(compose_tensored(f, rest, g), rows)

    def stack_reference(fs, *, rows=None):
        m = np.vstack([f.matrix for f in fs])
        return scatter(SuperOp(fs[0].source, alg_copower(len(fs), fs[0].target), m), rows)

    fast = _denote_jobs(jobs)
    monkeypatch.setattr(ewire.denote, "compose_tensored", compose_reference)
    monkeypatch.setattr(ewire.denote, "copower_stack", stack_reference)
    reference = _denote_jobs(jobs)
    assert any(placed) and not all(placed)
    assert fast == reference


def test_row_views_match_materialised_path(monkeypatch):
    # every map the structural steps produce is rebuilt densely from its
    # .matrix, so each later step reads dense maps only
    import ewire.denote

    jobs = _corpus_jobs()
    views = _denote_jobs(jobs)

    def materialised(fn):
        def run(*args, **kwargs):
            op = fn(*args, **kwargs)
            return SuperOp(op.source, op.target, op.matrix)
        return run

    for name in ("compose_tensored", "copower_stack", "op_identity"):
        monkeypatch.setattr(ewire.denote, name, materialised(getattr(ewire.denote, name)))
    assert _denote_jobs(jobs) == views


def test_sparse_read_keeps_every_bit(monkeypatch):
    # the continuation's sparse groups read in every contraction (floor
    # 0), above the module's floor, and in none: the same bytes where
    # each column of a group holds one nonzero, as a product rounded like
    # BLAS's one-term dot product gives, and within 1e-12 in the jobs
    # where a column sums several; the same errors and fuel everywhere
    import ewire.algebra

    jobs = _corpus_jobs()
    read, summed = ewire.algebra._group_nonzeros, []

    def spy(g, pin):
        found = read(g, pin)
        summed.append(found is not None and not found[5].all())
        return found

    monkeypatch.setattr(ewire.algebra, "_group_nonzeros", spy)

    def denoted(floor):
        monkeypatch.setattr(ewire.algebra, "_SPARSE_FLOOR", floor)
        out = []
        for job in jobs:
            summed.clear()
            out.append((_denote_jobs([job]), any(summed)))
        return out

    floors = (0, ewire.algebra._SPARSE_FLOOR)
    unread = denoted(1 << 62)
    for floor in floors:
        got = denoted(floor)
        assert 0 < sum(s for _, s in got) <= 4
        for (want, _), (results, sums) in zip(unread, got):
            if not sums:
                assert results == want
                continue
            for (a, fuel_a), (b, fuel_b) in zip(results, want):
                assert fuel_a == fuel_b
                a, b = np.frombuffer(a, dtype=complex), np.frombuffer(b, dtype=complex)
                assert np.abs(a - b).max() <= 1e-12



def test_qft_keeps_sparse_rows_until_fourier_4(monkeypatch):
    # at n=5, the H step (f of 4 x 4 over a rest of 256, with a
    # continuation of 1024 columns) hands on rows of 4 entries, and the
    # rotation step and the lift n stack keep them; no 1024 x 1024 matrix
    # is materialised before the fourier 4 step (f of 256 x 256, dense),
    # whose result is the one dense 1024 x 1024 map
    import ewire.denote

    monkeypatch.setattr(ewire.algebra, "_max_dim", 1 << 17)
    events = []
    compose, stack = ewire.denote.compose_tensored, ewire.denote.copower_stack
    materialise = ewire.algebra._materialise

    def composed(f, rest, g, **kwargs):
        events.append(("compose", f, rest, g))
        h = compose(f, rest, g, **kwargs)
        events[-1] += (h,)
        return h

    def stacked(fs, **kwargs):
        h = stack(fs, **kwargs)
        events.append(("stack", h))
        return h

    def materialised(*args):
        m = materialise(*args)
        events.append(("materialise", m.shape))
        return m

    monkeypatch.setattr(ewire.denote, "compose_tensored", composed)
    monkeypatch.setattr(ewire.denote, "copower_stack", stacked)
    monkeypatch.setattr(ewire.algebra, "_materialise", materialised)
    prog = parse_program((PROGRAMS / "qft.ew").read_text())
    mono, entry = monomorphize(prog, 5, "fourier")
    evaluate_program(check_program(mono), mode=Mode.cpsu())

    def dense_f(e, n):
        return (e[0] == "compose" and e[1].source.dim == n and e[3].source.dim == 1024
                and ewire.algebra._monomial_rows(e[1]) is None)

    def sparse_rows(h):
        return h._index is not None

    four = next(i for i, e in enumerate(events) if dense_f(e, 256))
    h_step = next(e for e in events[:four] if dense_f(e, 4) and e[2].dim == 256)
    rotation = next(e for e in events[:four] if e[0] == "compose" and e[3] is h_step[4])
    lift_n = [e for e in events[:four] if e[0] == "stack"][-1]
    assert sparse_rows(h_step[4]) and h_step[4]._index.shape == (1024, 4)
    assert sparse_rows(rotation[4]) and sparse_rows(lift_n[1])
    assert not any(e[0] == "materialise" and e[1][0] * e[1][1] >= 1024 * 1024
                   for e in events[:four])
    assert events[four][4]._index is None and events[four][4].matrix.shape == (1024, 1024)


# -- lift branches that no later step reads ------------------------------------------


def _pruning_jobs():
    """``_corpus_jobs``, the corpus's normal forms, QFT ``fourier`` at
    n=5 and every declaration of ``programs/*.ew`` (``qft.ew``'s at list
    size 3)."""
    jobs = _corpus_jobs()
    for seed in range(2000, 2100):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        out, _ = normalize(term, max_steps=600)
        ctx = _default_ctx()
        check_circuit({}, omega, out, ctx)
        jobs.append((ctx, lambda ev, omega=omega, out=out:
                     ev.denote_circuit(None, omega, out, {})))

    def evaluate(cp):
        def run(ev):
            env, values = {}, []
            for d in cp.program.decls:
                if isinstance(d, DefDecl):
                    env[d.name] = ev.eval_host(None, d.term, dict(env))
                    values.append(env[d.name])
            return values
        return run

    qft = parse_program((PROGRAMS / "qft.ew").read_text())
    cp = check_program(monomorphize(qft, 5, "fourier")[0])
    jobs.append((cp.ctx, evaluate(cp)))
    for path in sorted(PROGRAMS.glob("*.ew")):
        prog = parse_program(path.read_text())
        if path.name == "qft.ew":
            prog = monomorphize(prog, 3, None)[0]
        cp = check_program(prog)
        jobs.append((cp.ctx, evaluate(cp)))
    return jobs


def _all_branches_live(monkeypatch):
    import ewire.denote

    monkeypatch.setattr(ewire.denote, "_branch_needs",
                        lambda need, p: [None] * len(p.values))


def _count_dead_branches(monkeypatch) -> list:
    """A list that grows by one entry per lift branch found dead."""
    import ewire.denote

    needs, dead = ewire.denote._branch_needs, []

    def spy(*args):
        out = needs(*args)
        dead.extend(b for b in out if b is ewire.denote._DEAD)
        return out

    monkeypatch.setattr(ewire.denote, "_branch_needs", spy)
    return dead


def test_pruned_lifts_match_every_branch_live(monkeypatch):
    # QFT n=5 at the cap the benchmark sets
    monkeypatch.setattr(ewire.algebra, "_max_dim", 1 << 17)
    jobs = _pruning_jobs()
    dead = _count_dead_branches(monkeypatch)
    pruned = _denote_jobs(jobs)
    assert len(dead) > 100
    _all_branches_live(monkeypatch)
    assert _denote_jobs(jobs) == pruned


# `pick` fixes n = 2, so each lift below reads one branch of four; the
# other three must still evaluate their host terms, spend their fuel and
# make their dimension checks
DEAD_BRANCHES = """
classical int 4

def rec Hs : int -> Circ(qubit, qubit) =
  lambda n : int .
    if n = 0 then box q : qubit => output q
    else box q : qubit => (q' <- gate H q; unbox (Hs (n - 1)) q')

def pick : Circ(qubit, int * qubit) =
  box q : qubit => (n <- init (2 : int); output (n, q))

def partial : Circ(qubit, int * qubit) =
  box q : qubit => ((n, q) <- unbox pick q; n <= lift n; m <- init (n + 1); output (m, q))

def fueled : Circ(qubit, int * qubit) =
  box q : qubit => ((n, q) <- unbox pick q; n <= lift n; q <- unbox (Hs n) q;
                    m <- init n; output (m, q))

def wide : Circ(qubit * bit, int * (qubit * bit)) =
  box (q, r) : qubit * bit =>
    ( (n, q) <- unbox pick q;
      n <= lift n;
      a <- gate init0 ();
      b <- gate init0 ();
      () <- (x <- gate meas a; () <- gate discard x; y <- gate meas b;
             () <- gate discard y; output ());
      m <- init n;
      output (m, (q, r)) )
"""


@pytest.mark.parametrize("entry,mode,cap,expected", [
    # n = 3 initialises 4, out of range in cpu mode
    ("partial", Mode.cpu(), None, "PartialityError('value 4 out of range"),
    # Hs n unfolds n + 1 times for every n
    ("fueled", Mode.cpsu(100), None, 100 - (1 + 2 + 3 + 4)),
    # the dead branch trips the cap in its composition's check (128),
    # not at its context (64)
    ("wide", Mode.cpsu(100), 50, "ResourceLimit('tensor product needs "
     "element-space dimension 128,"),
])
def test_dead_branch_keeps_host_effects_and_checks(monkeypatch, entry, mode, cap, expected):
    cp = check_program(parse_program(DEAD_BRANCHES))
    if cap is not None:
        monkeypatch.setattr(ewire.algebra, "_max_dim", cap)

    def outcome():
        ev = Evaluator(ctx=cp.ctx, mode=mode)
        env = {}
        try:
            # Hs needs cpsu mode
            for name in ("Hs", "pick", entry)[not mode.is_cpsu:]:
                env[name] = ev.eval_host(None, cp.program.find(name).term, dict(env))
            return _fingerprint(env[entry]), ev.fuel
        except (EvalError, ResourceLimit) as e:
            return repr(e), ev.fuel

    dead = _count_dead_branches(monkeypatch)
    pruned = outcome()
    assert len(dead) == 3
    if isinstance(expected, int):
        assert pruned[1] == expected
    else:
        assert pruned[0].startswith(expected)
    _all_branches_live(monkeypatch)
    assert outcome() == pruned


ONE_BRANCH_DEAD_LIFT = """
classical one 1
circ c (u : one) =
  b <- init (0 : bit);
  x <= lift b;
  y <= lift u;
  output ()
"""


@pytest.mark.parametrize("mode", [Mode.cpu(), Mode.cpsu()])
def test_a_dead_lift_of_one_branch_is_zero(monkeypatch, mode):
    # init (0 : bit) leaves branch 1 of the lift over b unread, so the
    # lift over u inside it is dead, and has one branch
    cp = check_program(parse_program(ONE_BRANCH_DEAD_LIFT))

    def outcome():
        _, _, env = evaluate_program(cp, mode=mode)
        return env["c"].op.matrix.tobytes()

    dead = _count_dead_branches(monkeypatch)
    pruned = outcome()
    assert len(dead) == 2
    assert pruned == np.ones((1, 1), dtype=complex).tobytes()
    _all_branches_live(monkeypatch)
    assert outcome() == pruned


def test_unresolvable_demand_leaves_every_branch_live(monkeypatch):
    # the lift's demand reads through pick (x) id_bit, of dimension 32, so
    # under a cap of 16 it cannot be resolved; every branch is then live,
    # and branch 0's init of -1 raises, as it does unpruned, before any
    # step makes that dimension check
    cp = check_program(parse_program(DEAD_BRANCHES + """
def below : Circ(qubit * bit, int * (qubit * bit)) =
  box (q, r) : qubit * bit =>
    ((n, q) <- unbox pick q; n <= lift n; m <- init (n - 1); output (m, (q, r)))
"""))
    monkeypatch.setattr(ewire.algebra, "_max_dim", 16)
    resolve, unresolved = ewire.denote._resolve, []

    def spy(need):
        try:
            return resolve(need)
        except ResourceLimit as e:
            unresolved.append(e)
            raise

    monkeypatch.setattr(ewire.denote, "_resolve", spy)

    def outcome():
        ev, env = Evaluator(ctx=cp.ctx, mode=Mode.cpu()), {}
        with pytest.raises((EvalError, ResourceLimit)) as e:
            for name in ("pick", "below"):
                env[name] = ev.eval_host(None, cp.program.find(name).term, dict(env))
        return repr(e.value)

    pruned = outcome()
    assert len(unresolved) == 1
    assert pruned.startswith("PartialityError('value -1 out of range")
    _all_branches_live(monkeypatch)
    assert outcome() == pruned


def test_demand_of_a_deep_lift_resolves_without_recursion():
    # 800 gates, then a lift: the demand chain is as long as the circuit,
    # and resolving it must not double the recursion depth
    term = Compose(WireP("c"), Init(Var("x")), Output(WireP("c")))
    term = Gate(WireP("b"), GateRef("meas"), WireP("q0"), Lift("x", WireP("b"), term))
    for i in range(800):
        term = Gate(WireP(f"q{i}"), GateRef("H"), WireP(f"q{i + 1}"), term)
    _, op = _denote((("q800", QUBIT),), term)
    assert np.allclose(op.matrix, gate_denotation(GateRef("meas")).matrix)


def test_qft_compositions_skip_unread_branches(monkeypatch):
    # a count, not a time: evaluating every lift branch of QFT n=5 makes
    # 451 compositions, 34 of them through a dense f
    import ewire.denote

    compose, calls = ewire.denote.compose_tensored, []

    def counted(f, rest, g, *, rows=None):
        calls.append(ewire.algebra._monomial_rows(f) is None)
        return compose(f, rest, g, rows=rows)

    monkeypatch.setattr(ewire.algebra, "_max_dim", 1 << 17)
    monkeypatch.setattr(ewire.denote, "compose_tensored", counted)
    mono, _ = monomorphize(parse_program((PROGRAMS / "qft.ew").read_text()), 5, "fourier")
    evaluate_program(check_program(mono), mode=Mode.cpsu())
    assert sum(calls) <= 9 and len(calls) <= 120


def test_generated_seed_2074_builds_no_whole_contraction(monkeypatch):
    # a count, not a time: one rewrite op on generated seed 2074 denotes
    # the circuit and its normal form in cpu and cpsu mode; eight of its
    # compositions through a dense f contract 2^19 entries (f of 4 x 4,
    # a rest of 256 and 512 columns), four of them with a view of width 4
    # whose columns hold up to 4 nonzeros each.  None builds its contraction for
    # the zgemm, and each result lies within 1e-12 of the zgemm's
    import ewire.denote

    compose, wide = ewire.denote.compose_tensored, []
    dense_rows, built = ewire.algebra._dense_rows, []

    def counted(f, rest, g, *, rows=None):
        h = compose(f, rest, g, rows=rows)
        if (ewire.algebra._monomial_rows(f) is None
                and f.source.dim * rest.dim * g.source.dim >= 1 << 19):
            wide.append((f, rest, g, rows, h))
        return h

    def gathered(f, sel):
        out = dense_rows(f, sel)
        built.append(out.size)
        return out

    monkeypatch.setattr(ewire.denote, "compose_tensored", counted)
    monkeypatch.setattr(ewire.algebra, "_dense_rows", gathered)
    omega, term = random_circuit(2074, max_qubits=4, max_stmts=12)
    out, _ = normalize(term, max_steps=600)
    ctx = _default_ctx()
    for t in (term, out):
        check_circuit({}, omega, t, ctx)
    for mode in (Mode.cpu(), Mode.cpsu()):
        for t in (term, out):
            Evaluator(ctx=ctx, mode=mode).denote_circuit({}, omega, t, {})
    assert len(wide) == 8 and max(built, default=0) < 1 << 19
    monkeypatch.setattr(ewire.algebra, "_SPARSE_FLOOR", 1 << 62)
    for f, rest, g, rows, h in wide:
        assert np.abs(h.matrix - compose(f, rest, g, rows=rows).matrix).max() <= 1e-12


# -- per-step plans and the frames of an unfolding ---------------------------------


def _hs_jobs():
    """``Hs k`` for k in {0, 1, 3, -1}, each at fuel 0, 1, 3 and 100, as
    ``(ctx, mode, job)``, ``job(ev)`` applying ``Hs`` with ``ev``."""
    cp = check_program(parse_program(HS))
    jobs = []
    for k in (0, 1, 3, -1):
        for fuel in (0, 1, 3, 100):
            def job(ev, k=k):
                hs = ev.eval_host(None, cp.program.find("Hs").term, {})
                return ev.apply(hs, k)
            jobs.append((cp.ctx, Mode.cpsu(fuel), job))
    return jobs


def _outcomes(jobs):
    """``_fingerprint`` or the exception's type and message, and the fuel
    left, of each ``(ctx, mode, job)``."""
    out = []
    for ctx, mode, job in jobs:
        ev = Evaluator(ctx=ctx, mode=mode)
        try:
            result = _fingerprint(job(ev))
        except (EvalError, ResourceLimit) as e:
            result = (type(e).__name__, str(e))
        out.append((result, ev.fuel))
    return out


def test_step_plans_match_cold_evaluation(monkeypatch):
    # the same evaluations with every plan, tensored layout and monomial
    # structure recomputed where it is read
    monkeypatch.setattr(ewire.algebra, "_max_dim", 1 << 17)
    jobs = [(ctx, mode, job) for ctx, job in _pruning_jobs()
            for mode in (Mode.cpu(), Mode.cpsu(100))]
    jobs += _hs_jobs()
    built = []
    compile_step = ewire.denote._compile_step

    def counted(ctx, omega, term):
        built.append(term)
        return compile_step(ctx, omega, term)

    monkeypatch.setattr(ewire.denote, "_compile_step", counted)
    warm = _outcomes(jobs)
    warm_builds = len(built)
    # every step compiled anew at each run, the entry from denote_circuit
    # and each first circuit and continuation, including each branch of a
    # lift, and kept nowhere
    monkeypatch.setattr(ewire.denote, "_step", counted)
    monkeypatch.setattr(ewire.denote, "_child", lambda ev, p, term, first=False:
                        counted(ev.ctx, p.sel if first else p.cont, term))
    for ctx in {id(ctx): ctx for ctx, _, _ in jobs}.values():
        ctx.code.clear()
    monkeypatch.setattr(ewire.algebra, "_layout", ewire.algebra._layout.__wrapped__)
    monkeypatch.setattr(ewire.algebra, "_monomial_rows", ewire.algebra._find_monomial)
    del built[:]
    cold = _outcomes(jobs)
    # unfoldings and lift branches reuse their code
    assert warm_builds < len(built) // 2
    assert any(isinstance(r, tuple) and r[0] == "EvalError" for r, _ in cold)
    assert cold == warm


@pytest.mark.parametrize("text", [
    # a step that only moves rows makes no dimension check of its own
    "output (b, a)",
    "(a, b) <- gate CNOT (a, b); b <- gate H b; output (b, a)",
])
def test_lowered_cap_raises_as_on_a_fresh_evaluator(text):
    omega = (("a", QUBIT), ("b", QUBIT))
    term = parse_circuit(text)
    ctx = _default_ctx()
    check_circuit({}, omega, term, ctx)
    ev = Evaluator(ctx=ctx)
    before = ev.denote_circuit(None, omega, term, {}).matrix.tobytes()
    old = ewire.algebra.max_dim()
    try:
        ewire.algebra.set_max_dim(8)
        fresh = _default_ctx()
        check_circuit({}, omega, term, fresh)
        # one made before the cap was lowered, one after it over the plans
        # filled under the old cap, and one over a context with no plans
        later = Evaluator(ctx=ctx)
        messages = []
        for e in (ev, later, Evaluator(ctx=fresh)):
            with pytest.raises(ResourceLimit) as info:
                e.denote_circuit(None, omega, term, {})
            messages.append(str(info.value))
        assert messages[0] == messages[1] == messages[2]
    finally:
        ewire.algebra.set_max_dim(old)
    for e in (ev, later):
        assert e.denote_circuit(None, omega, term, {}).matrix.tobytes() == before


def _count_builds(monkeypatch) -> list:
    """A list that grows by ``(ctx, term, omega)`` per step compiled."""
    compile_step, built = ewire.denote._compile_step, []

    def counted(ctx, omega, term):
        built.append((ctx, term, omega))
        return compile_step(ctx, omega, term)

    monkeypatch.setattr(ewire.denote, "_compile_step", counted)
    return built


def _plan_sharing_cases():
    """``(check, runs)`` per case: ``check()`` checks the case into a new
    ``CheckContext`` and returns it, and ``runs`` lists ``(mode, job)``
    in the order they run, ``job(ev)`` evaluating with ``ev``.  The
    cases are the rewrite corpus (seeds 2000-2099), each circuit and its
    normal form in cpu and cpsu mode, in one of the 24 orders of those
    four runs; QFT ``fourier`` at n=1..4; and every declaration of
    ``programs/*.ew`` (``qft.ew``'s at list size 3)."""
    import itertools

    orders = list(itertools.permutations(range(4)))
    cases = []
    for seed in range(2000, 2100):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        nf, _ = normalize(term, max_steps=600)

        def check(omega=omega, term=term, nf=nf):
            ctx = _default_ctx()
            check_circuit({}, omega, term, ctx)
            check_circuit({}, omega, nf, ctx)
            return ctx

        runs = [(mode, lambda ev, t=t, omega=omega: ev.denote_circuit(None, omega, t, {}))
                for mode in (Mode.cpu(), Mode.cpsu()) for t in (term, nf)]
        cases.append((check, [runs[i] for i in orders[seed % len(orders)]]))

    def program(prog):
        # evaluate_program resets the fuel per declaration; this does not
        def run(ev):
            env, values = {}, []
            for d in prog.decls:
                if isinstance(d, DefDecl):
                    env[d.name] = ev.eval_host(None, d.term, dict(env))
                    values.append(env[d.name])
            return values
        return (lambda: check_program(prog).ctx), run

    qft = parse_program((PROGRAMS / "qft.ew").read_text())
    progs = [monomorphize(qft, n, "fourier")[0] for n in range(1, 5)]
    for path in sorted(PROGRAMS.glob("*.ew")):
        prog = parse_program(path.read_text())
        progs.append(monomorphize(prog, 3, None)[0] if path.name == "qft.ew" else prog)
    for prog in progs:
        check, run = program(prog)
        # fuel 100, so Hs (-1) bottoms out within the default recursion limit
        cases.append((check, [(Mode.cpsu(100), run), (Mode.cpu(), run), (Mode.cpsu(100), run)]))
    return cases


def test_shared_plans_match_a_fresh_context_per_evaluator(monkeypatch):
    # every evaluator of a case over one context, reading and filling its
    # plans, against each evaluator over a context of its own
    cases = _plan_sharing_cases()
    built = _count_builds(monkeypatch)
    shared = []
    for check, runs in cases:
        ctx = check()
        shared += _outcomes([(ctx, mode, job) for mode, job in runs])
    shared_builds = len(built)
    del built[:]
    fresh = []
    for check, runs in cases:
        fresh += _outcomes([(check(), mode, job) for mode, job in runs])
    assert shared_builds < len(built) // 2
    assert any(isinstance(r, tuple) and r[0] == "EvalError" for r, _ in shared)
    assert shared == fresh


def test_each_plan_is_built_once_per_node_and_context(monkeypatch):
    # one pass of the rewrite benchmark's op over its corpus: four
    # evaluators per context, on the circuit and its normal form in cpu
    # and cpsu mode, build each plan once; a second pass builds none
    built = _count_builds(monkeypatch)
    cases = []
    for seed in range(2000, 2100):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        nf, _ = normalize(term, max_steps=600)
        ctx = _default_ctx()
        check_circuit({}, omega, term, ctx)
        check_circuit({}, omega, nf, ctx)
        cases.append((ctx, omega, (term, nf)))
    rounds = []
    for _ in range(2):
        start = len(built)
        for ctx, omega, terms in cases:
            for mode in (Mode.cpu(), Mode.cpsu()):
                for t in terms:
                    Evaluator(ctx=ctx, mode=mode).denote_circuit(None, omega, t, {})
        rounds.append(len(built) - start)
    # built pins every context and node, so no id is reused
    assert len({(id(c), id(t), omega) for c, t, omega in built}) == len(built)
    assert rounds == [1728, 0]


def test_a_node_shared_by_two_contexts_keeps_a_plan_for_each(monkeypatch):
    # normalize shares unchanged subterms between a circuit and its normal
    # form; here a reordering gives the shared output two contexts
    h = GateRef("H")
    rest = Output(PairP(WireP("a2"), WireP("b2")))
    first = Gate(WireP("a2"), h, WireP("a"), Gate(WireP("b2"), h, WireP("b"), rest))
    second = Gate(WireP("b2"), h, WireP("b"), Gate(WireP("a2"), h, WireP("a"), rest))
    omega = (("a", QUBIT), ("b", QUBIT))
    ctx = _default_ctx()
    want = []
    for t in (first, second):
        check_circuit({}, omega, t, ctx)
        _, op = _denote(omega, t)
        want.append(op.matrix.tobytes())
    built = _count_builds(monkeypatch)
    for _ in range(3):
        got = [Evaluator(ctx=ctx).denote_circuit(None, omega, t, {}).matrix.tobytes()
               for t in (first, second)]
        assert got == want
    contexts = [o for _, t, o in built if t is rest]
    assert contexts == [(("b2", QUBIT), ("a2", QUBIT)), (("a2", QUBIT), ("b2", QUBIT))]
    assert len(built) == 6


def test_a_second_evaluation_relabels_no_output(monkeypatch):
    # an output's identity is placed once, when its plan is filled; over
    # filled plans only unbox and pair steps still move rows
    import sys

    import ewire.denote

    relabel, moved = ewire.denote.op_relabel, []

    def spy(f, target, *, rows):
        moved.append(sys._getframe(1).f_code.co_name)  # the step's kind
        return relabel(f, target, rows=rows)

    monkeypatch.setattr(ewire.denote, "op_relabel", spy)
    mono, entry = monomorphize(parse_program((PROGRAMS / "qft.ew").read_text()), 3, "fourier")
    checked = check_program(mono)
    runs = [lambda: evaluate_program(checked, mode=Mode.cpsu())[2][entry].op]
    for seed in range(2000, 2010):
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        nf, _ = normalize(term, max_steps=600)
        ctx = _default_ctx()
        for t in (term, nf):
            check_circuit({}, omega, t, ctx)
            for mode in (Mode.cpu(), Mode.cpsu()):
                runs.append(lambda ctx=ctx, mode=mode, omega=omega, t=t:
                            Evaluator(ctx=ctx, mode=mode).denote_circuit(None, omega, t, {}))
    rounds = []
    for _ in range(2):
        del moved[:]
        rounds.append(([run().matrix.tobytes() for run in runs], set(moved)))
    (first, first_moved), (second, second_moved) = rounds
    assert "output" in first_moved
    assert second_moved == first_moved - {"output"} != set()
    assert second == first


def test_an_unfolding_nests_at_most_six_frames(monkeypatch):
    # the stack depth where Hs (-1) bottoms out, which op_zero sees
    import sys

    import ewire.denote

    cp = check_program(parse_program(HS))
    depths = []

    def spy(source, target):
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        depths.append(n)
        return op_zero(source, target)

    monkeypatch.setattr(ewire.denote, "op_zero", spy)
    for fuel in (50, 100):
        ev = Evaluator(ctx=cp.ctx, mode=Mode.cpsu(fuel))
        hs = ev.eval_host(None, cp.program.find("Hs").term, {})
        ewire.denote.call_with_stack(lambda: ev.apply(hs, -1))
    assert len(depths) == 2
    assert depths[1] - depths[0] <= 6 * 50


RAISE_POINTS = """
def c : Circ(qubit, qubit) = box q : qubit => output q
def pick : bit -> Circ(qubit, qubit) = lambda b : bit .
  if b then c else box q : qubit => (q2 <- gate H q; output q2)
def roll : bit -> T(bit) = lambda b : bit .
  if b then return (0 : bit) else run (x <- init (1 : bit); output x)
def fam : bit -> Circ(qubit, qubit) = lambda b : bit . if b then c else R 2
"""


@pytest.mark.parametrize("name, kind, ctor", [
    ("pick", "Box", Box), ("roll", "Run", Run), ("fam", "GateFam", GateFam),
    ("pick", "Gate", Gate),
])
def test_a_missing_record_raises_where_its_node_runs(name, kind, ctor):
    # the node without a record sits in the branch the if does not take
    # for b = 1: that branch compiles, evaluates without error, and raises
    # the missing record's EvalError only when b = 0 runs it
    cp = check_program(parse_program(RAISE_POINTS))
    decl = cp.program.find(name)
    node = next(n for n in _nodes(decl.term) if type(n) is ctor)
    del cp.ctx.table[id(node)]
    ev, _, env = evaluate_program(cp, mode=Mode.cpu())
    ev.apply(env[name], 1)
    with pytest.raises(EvalError) as info:
        ev.apply(env[name], 0)
    assert str(info.value) == (f"{kind} at {node.loc} was not checked "
                               "under this evaluator's context")


def _nodes(term):
    todo = [term]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(children(node))
