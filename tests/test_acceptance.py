"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import time
from pathlib import Path

import numpy as np

from ewire.algebra import (
    Distribution, alg, alg_copower, alg_direct_sum,
    alg_tensor, copower_stack, frobenius_distance,
    gate_denotation, is_cp, is_unital, loewner_leq, max_dim, op_compose,
    op_identity, op_tensor, set_max_dim, state_to_distribution,
)
from ewire.denote import (
    CircV, Evaluator, Mode, call_with_stack, evaluate_program, sample,
)
from ewire.normalize import normalize
from ewire.parser import parse_circuit, parse_host_term, parse_program
from ewire.qlist import monomorphize, qlist_type
from ewire.syntax import (
    BIT, Box, GateRef, Output, PairP, QUBIT, TensorW, UnitP, WireP,
)
from ewire.typecheck import (
    BUILTIN_GATES, TypeCheckError, bind_pattern, check_circuit, check_host, check_program,
    generate_meas_circuit, generate_new_circuit,
    _default_ctx,
)

from tests.gen import random_circuit
from tests.oracle import copower_sum_iso, random_cpu_map, tensor_copower_iso

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


# -- 1. coin flip -----------------------------------------------------------------


def test_criterion_1_coin_flip():
    t0 = time.time()
    prog = parse_program((PROGRAMS / "flip.ew").read_text())
    cp = check_program(prog)
    _, _, env = evaluate_program(cp)
    dist = dict(env["main"].weights)

    # independent 2x2 density-matrix oracle: diag(H |0><0| H)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rho = h @ np.diag([1.0, 0.0]) @ h
    expected = {0: rho[0, 0].real, 1: rho[1, 1].real}

    exact = all(abs(dist[k] - expected[k]) < 1e-12 for k in (0, 1))
    counts = sample(Distribution(dist), seed=20260808, shots=10_000)
    sigma = (10_000 * 0.25) ** 0.5
    sampled = all(abs(counts[k] - 5000) <= 3 * sigma for k in (0, 1))
    wall = time.time() - t0
    report(
        "criterion 1: coin flip exact + sampled",
        exact and sampled and wall < 1.0,
        f"dist={dist}, counts={counts}, wall={wall:.2f}s",
    )


# -- 2. rewrite soundness -----------------------------------------------------------


def test_criterion_2_rewrite_soundness():
    t0 = time.time()
    n = 100
    worst = 0.0
    for seed in range(n):
        omega, term = random_circuit(seed + 2000, max_qubits=4, max_stmts=12)
        out, _ = normalize(term, max_steps=600)
        for mode in (Mode.cpu(), Mode.cpsu()):
            ctx = _default_ctx()
            check_circuit({}, omega, term, ctx)
            check_circuit({}, omega, out, ctx)
            ev1 = Evaluator(ctx=ctx, mode=mode)
            ev2 = Evaluator(ctx=ctx, mode=mode)
            f1 = ev1.denote_circuit({}, omega, term, {})
            f2 = ev2.denote_circuit({}, omega, out, {})
            worst = max(worst, frobenius_distance(f1, f2))
    wall = time.time() - t0
    report(
        "criterion 2: normalization preserves denotation on 100 circuits",
        worst < 1e-9 and wall < 60.0,
        f"worst={worst:.2e}, wall={wall:.1f}s",
    )


# -- 3. classical control -------------------------------------------------------------


def test_criterion_3_classical_control():
    prog = parse_program((PROGRAMS / "classical_control.ew").read_text())
    cp = check_program(prog)
    box = prog.find("cc").term
    ev = Evaluator(ctx=cp.ctx)
    got = ev.denote_circuit({}, bind_pattern(box.pat, box.w_in), box.body, {})

    # hand-assembled channel: measure a, classically controlled X on b,
    # discard the bit; built directly from the density-matrix formula
    x = np.array([[0, 1], [1, 0]])
    expected = np.zeros((16, 4), dtype=complex)
    for r in range(2):
        for c in range(2):
            e = np.zeros((2, 2))
            e[r, c] = 1.0
            acc = np.zeros((4, 4), dtype=complex)
            for i in range(2):
                proj = np.zeros((2, 2))
                proj[i, i] = 1.0
                xe = e if i == 0 else x @ e @ x
                acc += np.kron(proj, xe)
            expected[:, 2 * r + c] = acc.reshape(-1)
    diff = np.linalg.norm(got.matrix - expected)
    host = prog.find("cc_host")
    _, _, env = evaluate_program(cp)
    diff_host = np.linalg.norm(env["cc_host"].op.matrix - expected)
    report(
        "criterion 3: classical control matches the hand-built channel",
        diff < 1e-9 and diff_host < 1e-9,
        f"diff={diff:.2e}, host-version diff={diff_host:.2e}",
    )


# -- 4. QFT ------------------------------------------------------------------------------


def _dft_channel(n):
    big_n = 2**n
    om = np.exp(2j * np.pi / big_n)
    f = np.array([[om ** (j * k) for k in range(big_n)] for j in range(big_n)])
    f /= np.sqrt(big_n)
    m = np.zeros((big_n**2, big_n**2), dtype=complex)
    for r in range(big_n):
        for c in range(big_n):
            e = np.zeros((big_n, big_n))
            e[r, c] = 1.0
            m[:, r * big_n + c] = (f.conj().T @ e @ f).reshape(-1)
    return m


def _reversal_box(n):
    names = [f"q{i}" for i in range(n)]

    def nest(ws):
        p = UnitP()
        for w in reversed(ws):
            p = PairP(WireP(w), p)
        return p

    return Box(nest(names), qlist_type(n), Output(nest(list(reversed(names)))))


def test_criterion_4_qft():
    old = max_dim()
    set_max_dim(1 << 17)
    try:
        prog = parse_program((PROGRAMS / "qft.ew").read_text())
        t5 = None
        worst = 0.0
        for n in range(1, 6):
            t0 = time.time()
            mono, entry = monomorphize(prog, n, "fourier")
            cp = check_program(mono)
            _, _, env = evaluate_program(cp, mode=Mode.cpsu())
            fop = env[entry].op
            ctx = _default_ctx()
            rev = _reversal_box(n)
            check_host({}, rev, ctx)
            rev_op = Evaluator(ctx=ctx).eval_host({}, rev, {}).op
            # fourier then reversal, as Heisenberg maps
            total = op_compose(fop, rev_op)
            diff = np.linalg.norm(total.matrix - _dft_channel(n))
            worst = max(worst, diff)
            if n == 1:
                h = gate_denotation(GateRef("H"))
                base = frobenius_distance(fop, h)
                assert base < 1e-12, f"n=1 base case differs by {base}"
            if n == 5:
                t5 = time.time() - t0
        report(
            "criterion 4: fourier + reversal equals the DFT channel, n=1..5",
            worst < 1e-8 and t5 < 30.0,
            f"worst={worst:.2e}, n=5 wall={t5:.1f}s",
        )
    finally:
        set_max_dim(old)


# -- 5. recursion and divergence -----------------------------------------------------


def test_criterion_5_recursion_divergence():
    prog = parse_program((PROGRAMS / "hs.ew").read_text())
    cp = check_program(prog)

    def hs_at(fuel, n):
        def go():
            ev, _, env = evaluate_program(cp, mode=Mode.cpsu(fuel))
            return ev.apply(env["Hs"], n).op

        return call_with_stack(go)

    h = gate_denotation(GateRef("H"))
    ident = op_identity(alg(2))
    ok = True
    for n in range(0, 6):
        got = hs_at(1000, n)
        want = h if n % 2 else ident
        ok = ok and frobenius_distance(got, want) < 1e-12
    for fuel in (0, 1, 7, 150):
        z = hs_at(fuel, -1)
        ok = ok and np.allclose(z.matrix, 0.0)
    # Loewner monotonicity in fuel
    chain = [hs_at(fuel, 4) for fuel in range(0, 7)]
    mono = all(loewner_leq(a, b, 1e-9) for a, b in zip(chain, chain[1:]))
    report(
        "criterion 5: Hs parity, divergence at any fuel, fuel-monotone",
        ok and mono,
    )


# -- 6. model structure -----------------------------------------------------------------


def test_criterion_6_model_structure():
    gates_ok = all(
        is_cp(gate_denotation(g), 1e-9) and is_unital(gate_denotation(g), 1e-9)
        for g in BUILTIN_GATES
    )

    a, b = alg(2), alg(2, 1)
    iso1 = copower_sum_iso(3, a, b)
    s1 = (
        iso1.source == alg_copower(3, alg_direct_sum(a, b))
        and iso1.target == alg_direct_sum(alg_copower(3, a), alg_copower(3, b))
        and np.allclose(iso1.matrix @ iso1.matrix.T, np.eye(iso1.target.dim))
    )
    # copowers are preserved by tensoring: literal equality after the
    # recorded permutation
    rng = np.random.default_rng(66)
    x = alg(2)
    fs = [random_cpu_map(x, b, rng) for _ in range(3)]
    iso2 = tensor_copower_iso(a, 3, b)
    lhs = op_compose(op_tensor(op_identity(a), copower_stack(fs)), iso2)
    rhs = copower_stack([op_tensor(op_identity(a), f) for f in fs])
    s2 = frobenius_distance(lhs, rhs) == 0.0
    s3 = alg_copower(3, alg_copower(2, a)) == alg_copower(6, a)

    # total mass of cpu states
    flip = parse_circuit(
        "a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b"
    )
    ctx = _default_ctx()
    check_circuit({}, (), flip, ctx)
    op = Evaluator(ctx=ctx).denote_circuit({}, (), flip, {})
    mass = state_to_distribution(op, values=[0, 1]).mass()
    mass_ok = abs(mass - 1.0) < 1e-12

    report(
        "criterion 6: gates CPU, copower/tensor/sum equalities, state mass",
        gates_ok and s1 and s2 and s3 and mass_ok,
        f"mass={mass!r}",
    )


# -- 7. copower adjunction ---------------------------------------------------------------


def test_criterion_7_copower_adjunction():
    to_fun = parse_host_term(
        "lambda c : Circ(bit * qubit, qubit) . lambda x : bit . "
        "box w : qubit => (v <- init (x : bit); unbox c (v, w))"
    )
    to_circ = parse_host_term(
        "lambda f : bit -> Circ(qubit, qubit) . "
        "box (v : bit, w : qubit) => (x <= lift v; unbox (f x) w)"
    )
    ctx = _default_ctx()
    check_host({}, to_fun, ctx)
    check_host({}, to_circ, ctx)
    ev = Evaluator(ctx=ctx)
    fv = ev.eval_host({}, to_circ, {})
    gv = ev.eval_host({}, to_fun, {})
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        c_op = random_cpu_map(alg(2), alg_tensor(alg(1, 1), alg(2)), rng)
        cval = CircV(TensorW(BIT, QUBIT), QUBIT, c_op)
        back = ev.apply(fv, ev.apply(gv, cval))
        worst = max(worst, frobenius_distance(back.op, c_op))
    report(
        "criterion 7: lift/init round-trips 50 random circuit values",
        worst < 1e-10,
        f"worst={worst:.2e}",
    )


# -- 8. measurement sugar -------------------------------------------------------------------


def test_criterion_8_sugar_correctness():
    from ewire.syntax import classicalize
    from ewire.denote import denote_wire

    worst = 0.0
    for w in (QUBIT, TensorW(QUBIT, BIT), TensorW(QUBIT, QUBIT)):
        meas = generate_meas_circuit(w)
        new = generate_new_circuit(w)
        ctx = _default_ctx()
        check_host({}, meas, ctx)
        check_host({}, new, ctx)
        ev = Evaluator(ctx=ctx)
        m_op = ev.eval_host({}, meas, {}).op
        n_op = ev.eval_host({}, new, {}).op
        # circuit order: prepare from classical, then measure back;
        # in the Heisenberg direction the measuring map applies first
        composite = op_compose(m_op, n_op)
        ident = np.eye(denote_wire(classicalize(w)).dim)
        worst = max(worst, np.linalg.norm(composite.matrix - ident))
    report(
        "criterion 8: new_W then meas_W is the classical identity",
        worst < 1e-9,
        f"worst={worst:.2e}",
    )


# -- 9. typechecker discrimination ------------------------------------------------------------


ILL_TYPED = [
    # (source, expected error kind)
    ("circ c (a : qubit) : qubit * qubit = w <- output a; w2 <- output a; output (w, w2)",
     "LinearityViolation"),
    ("circ c (a : qubit, b : qubit) : qubit = output a", "LinearityViolation"),
    ("circ c (a : qubit) : qubit = q <- gate H a; q2 <- gate H a; output (q, q2)",
     "LinearityViolation"),
    ("circ c (a : qubit) : bit = b <- gate meas a; b2 <- gate meas a; () <- gate discard b; output b2",
     "LinearityViolation"),
    ("circ c (a : qubit, b : bit) : qubit = output a", "LinearityViolation"),
    ("def f : T(bit) = run (a <- gate init0 (); output a)", "NotClassical"),
    ("circ c (q : qubit, b : bit) : I = x <= lift (q, b); output ()",
     "NotClassical"),
    ("circ c (q : qubit) : qubit = x <= lift q; output ()", "NotClassical"),
    ("def f : T(Circ(qubit, qubit)) -> Circ(qubit, qubit) = lambda c : T(Circ(qubit, qubit)) . box w : qubit => (w2 <- unbox c w; output w2)",
     "EffectfulUnbox"),
    ("def f : Circ(qubit, qubit) = box w : qubit => (w2 <- unbox (run (b <- init (0 : bit); output b)) w; output w2)",
     "Mismatch"),
    ("circ c (b : bit) : qubit = q <- gate H b; output q", "GateSignature"),
    ("circ c (a : qubit) : bit = b <- gate meas2 a; output b", "GateSignature"),
    ("circ c (a : qubit, b : qubit) : qubit = q <- gate CNOT a; () <- gate discard b; output q",
     "GateSignature"),
    ("circ c (a : qubit) : qubit = (x, y) <- gate meas a; output (x, y)",
     "PatternShape"),
    ("circ c (a : qubit) : qubit = output b", "UnboundWire"),
    ("circ c (a : qubit) : qubit = q <- gate H v; () <- gate discard a; output q",
     "UnboundWire"),
    ("def f : int = nosuchname", "Mismatch"),
    ("def f : bit = (5 : bit)", "Mismatch"),
    ("def f : int = if 0 then 1 else (lambda x : int . x)", "Mismatch"),
    ("def f : Circ(qubit, qubit) = box q : qubit => ((a, b) <- q; output (a, b))",
     "Mismatch"),
    ("def f : int -> int = lambda n : int . n 3", "Mismatch"),
    ("circ c (a : qubit) : qubit = () <- a; output a", "Mismatch"),
]

WELL_TYPED = [
    "circ c (a : qubit) : qubit = output a",
    "circ c (a : qubit) : qubit = q <- gate H a; output q",
    "circ c (a : qubit) : bit = b <- gate meas a; output b",
    "circ c (a : qubit, b : qubit) : qubit * qubit = (x, y) <- gate CNOT (a, b); output (x, y)",
    "circ c (a : qubit, b : qubit) : qubit * qubit = output (b, a)",
    "circ c (b : bit) : qubit = q <- gate new b; output q",
    "circ c (b : bit) : I = () <- gate discard b; output ()",
    "circ c : bit = a <- gate init0 (); b <- gate meas a; output b",
    "circ c : bit = n <- init (1 : bit); output n",
    "circ c (b : bit) : bit = x <= lift b; n <- init x; output n",
    "circ c (b : bit, q : qubit) : bit * qubit = (b2, q2) <- gate (bit-control X) (b, q); output (b2, q2)",
    "circ c (a : qubit, b : qubit) : qubit * qubit = (x, y) <- gate (control H) (a, b); output (x, y)",
    "circ c (q : qubit) : qubit = r <- gate (R 2) q; output r",
    "circ c (q : qubit) : qubit = u <- unbox (box w : qubit => output w) q; output u",
    "def f : T(bit) = run (a <- gate init0 (); a2 <- gate H a; b <- gate meas a2; output b)",
    "def f : Circ(qubit * qubit, qubit * qubit) = box (a : qubit, b : qubit) => output (a, b)",
    "def f : Circ(qubit, qubit) * Circ(qubit, qubit) -> Circ(qubit, qubit) = lambda c : Circ(qubit, qubit) * Circ(qubit, qubit) . box w : qubit => (w2 <- unbox (fst c) w; w3 <- unbox (snd c) w2; output w3)",
    "def f : T(bit) = let x <= return (1 : bit) in return x",
    "def f : bit -> Circ(qubit, qubit) = lambda x : bit . if x then box q : qubit => (q2 <- gate X q; output q2) else box q : qubit => output q",
    "def f : T(bit) = qrun (a <- gate init0 (); output a)",
    "def rec g : int -> Circ(qubit, qubit) = lambda n : int . if n = 0 then box q : qubit => output q else box q : qubit => (q2 <- gate H q; unbox (g (n - 1)) q2)",
    "classical trit 3\ndef f : T(trit) = run (n <- init (2 : trit); output n)",
]


def test_criterion_9_typechecker_discrimination():
    wrong = []
    for src, kind in ILL_TYPED:
        try:
            check_program(parse_program(src + "\n"))
            wrong.append((src, "accepted"))
        except TypeCheckError as e:
            if e.kind != kind:
                wrong.append((src, f"kind {e.kind} != {kind}"))
    for src in WELL_TYPED:
        try:
            check_program(parse_program(src + "\n"))
        except TypeCheckError as e:
            wrong.append((src, f"rejected: {e}"))
    report(
        f"criterion 9: {len(ILL_TYPED)} ill-typed rejected with designated "
        f"kinds, {len(WELL_TYPED)} well-typed accepted",
        not wrong,
        "; ".join(f"{s[:40]}...: {r}" for s, r in wrong[:3]),
    )
