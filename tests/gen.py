"""Random well-typed circuit generator for fuzzing.

Builds circuits over at most four qubits and a bounded statement count,
covering gates, measurement, initialisation, nested sequencing, literal
boxes, eliminators and dynamic lifting.  Every generated circuit is
checked before being returned.  ``token_mutants`` makes seeded
single-token mutations of source files.
"""

from __future__ import annotations

import random
from pathlib import Path

from ewire.parser import tokenize
from ewire.syntax import (
    BIT, Box, ClassicalLit, ClassicalW, Compose, Gate, GateRef, Init, Lift,
    Output, PairElim, PairP, QUBIT, QuantumW, TensorW, UnitP, Unbox, Var,
    WireP,
)


def _leaf_counts(ty):
    match ty:
        case QuantumW():
            return (1, 0)
        case ClassicalW():
            return (0, 1)
        case TensorW(l, r):
            ql, cl = _leaf_counts(l)
            qr, cr = _leaf_counts(r)
            return (ql + qr, cl + cr)
        case _:
            return (0, 0)
from ewire.typecheck import check_circuit, _default_ctx

_ONE_QUBIT = ["H", "X", "Y", "Z"]


class _Gen:
    def __init__(self, rng: random.Random, max_qubits=4, max_stmts=12):
        self.rng = rng
        self.max_qubits = max_qubits
        self.budget = rng.randint(2, max_stmts)
        self.counter = 0

    def fresh(self, base):
        self.counter += 1
        return f"{base}{self.counter}"

    def build(self):
        rng = self.rng
        live = []
        n_qubits = rng.randint(0, self.max_qubits - 1)
        for i in range(n_qubits):
            live.append((f"in_q{i}", QUBIT))
        if rng.random() < 0.5:
            live.append(("in_b", BIT))
        omega = tuple(live)
        body = self._statements(list(live))
        ctx = _default_ctx()
        check_circuit({}, omega, body, ctx)
        return omega, body

    def _qubits(self, live):
        return [w for w in live if w[1] == QUBIT]

    def _bits(self, live):
        return [w for w in live if w[1] == BIT]

    def _statements(self, live):
        rng = self.rng
        if self.budget <= 0:
            return self._finish(live)
        self.budget -= 1
        actions = [self._act_gate1]
        if len(self._qubits(live)) >= 2:
            actions += [self._act_cnot]
        if self._qubits(live):
            actions += [self._act_meas, self._act_unbox_box, self._act_output_subst]
        if self._bits(live):
            actions += [self._act_new, self._act_discard, self._act_lift,
                        self._act_bitctrl_if_possible]
        nq, nc = self._leaf_totals(live)
        if nc < 3:
            actions += [self._act_init_bit]
        if nq < self.max_qubits:
            actions += [self._act_init0]
        if len(live) >= 2:
            actions += [self._act_pair_elim, self._act_nested]
        if not actions:
            return self._finish(live)
        return rng.choice(actions)(live)

    def _leaf_totals(self, live):
        nq = nc = 0
        for _, ty in live:
            q, c = _leaf_counts(ty)
            nq += q
            nc += c
        return nq, nc

    def _pick(self, xs):
        return self.rng.choice(xs)

    def _act_gate1(self, live):
        if not self._qubits(live):
            return self._finish(live)
        w, _ = self._pick(self._qubits(live))
        g = self._pick(_ONE_QUBIT)
        out = self.fresh("q")
        rest = self._statements([(out, QUBIT) if n == w else (n, t) for n, t in live])
        return Gate(WireP(out), GateRef(g), WireP(w), rest)

    def _act_cnot(self, live):
        qs = self._qubits(live)
        (a, _), (b, _) = self.rng.sample(qs, 2)
        oa, ob = self.fresh("q"), self.fresh("q")
        new_live = [(n, t) for n, t in live if n not in (a, b)]
        new_live += [(oa, QUBIT), (ob, QUBIT)]
        rest = self._statements(new_live)
        return Gate(PairP(WireP(oa), WireP(ob)), GateRef("CNOT"),
                    PairP(WireP(a), WireP(b)), rest)

    def _act_meas(self, live):
        w, _ = self._pick(self._qubits(live))
        out = self.fresh("b")
        rest = self._statements([(out, BIT) if n == w else (n, t) for n, t in live])
        return Gate(WireP(out), GateRef("meas"), WireP(w), rest)

    def _act_new(self, live):
        w, _ = self._pick(self._bits(live))
        out = self.fresh("q")
        rest = self._statements([(out, QUBIT) if n == w else (n, t) for n, t in live])
        return Gate(WireP(out), GateRef("new"), WireP(w), rest)

    def _act_discard(self, live):
        w, _ = self._pick(self._bits(live))
        rest = self._statements([(n, t) for n, t in live if n != w])
        return Gate(UnitP(), GateRef("discard"), WireP(w), rest)

    def _act_init0(self, live):
        out = self.fresh("q")
        rest = self._statements(live + [(out, QUBIT)])
        return Gate(WireP(out), GateRef("init0"), UnitP(), rest)

    def _act_init_bit(self, live):
        out = self.fresh("b")
        v = self.rng.randint(0, 1)
        rest = self._statements(live + [(out, BIT)])
        return Compose(WireP(out), Init(ClassicalLit("bit", 2, v)), rest)

    def _act_bitctrl_if_possible(self, live):
        if not self._qubits(live) or not self._bits(live):
            return self._finish(live)
        b, _ = self._pick(self._bits(live))
        q, _ = self._pick(self._qubits(live))
        ob, oq = self.fresh("b"), self.fresh("q")
        new_live = [(n, t) for n, t in live if n not in (b, q)]
        new_live += [(ob, BIT), (oq, QUBIT)]
        rest = self._statements(new_live)
        g = GateRef("bit-control", sub=GateRef(self._pick(_ONE_QUBIT)))
        return Gate(PairP(WireP(ob), WireP(oq)), g, PairP(WireP(b), WireP(q)), rest)

    def _act_lift(self, live):
        b, _ = self._pick(self._bits(live))
        x = self.fresh("x")
        new_live = [(n, t) for n, t in live if n != b]
        if self.rng.random() < 0.5:
            # re-initialise a bit from the lifted value
            out = self.fresh("b")
            inner = self._statements(new_live + [(out, BIT)])
            rest = Compose(WireP(out), Init(Var(x)), inner)
        else:
            rest = self._statements(new_live)
        return Lift(x, WireP(b), rest)

    def _act_pair_elim(self, live):
        (a, ta), (b, tb) = self.rng.sample(live, 2)
        w = self.fresh("p")
        na, nb = self.fresh("w"), self.fresh("w")
        new_live = [(n, t) for n, t in live if n not in (a, b)]
        new_live += [(na, ta), (nb, tb)]
        rest = self._statements(new_live)
        return Compose(
            WireP(w),
            Output(PairP(WireP(a), WireP(b))),
            PairElim(PairP(WireP(na), WireP(nb)), WireP(w), rest),
        )

    def _act_output_subst(self, live):
        w, ty = self._pick(live)
        v = self.fresh("v")
        rest = self._statements([(v, ty) if n == w else (n, t) for n, t in live])
        return Compose(WireP(v), Output(WireP(w)), rest)

    def _act_unbox_box(self, live):
        w, ty = self._pick(self._qubits(live))
        inner_w = self.fresh("u")
        g = self._pick(_ONE_QUBIT)
        iw2 = self.fresh("u")
        box = Box(
            WireP(inner_w), QUBIT,
            Gate(WireP(iw2), GateRef(g), WireP(inner_w), Output(WireP(iw2))),
        )
        out = self.fresh("q")
        rest = self._statements([(out, QUBIT) if n == w else (n, t) for n, t in live])
        return Compose(WireP(out), Unbox(box, WireP(w)), rest)

    def _act_nested(self, live):
        k = self.rng.randint(1, min(2, len(live)))
        chosen = self.rng.sample(live, k)
        names = [n for n, _ in chosen]
        sub_live = list(chosen)
        saved = self.budget
        self.budget = min(self.budget, 2)
        sub = self._statements(sub_live)
        self.budget = saved
        w = self.fresh("n")
        sub_ty = self._type_of_output(sub_live, sub)
        new_live = [(n, t) for n, t in live if n not in names]
        new_live.append((w, sub_ty))
        rest = self._statements(new_live)
        return Compose(WireP(w), sub, rest)

    def _type_of_output(self, omega, term):
        return check_circuit({}, tuple(omega), term, _default_ctx())

    def _finish(self, live):
        self.rng.shuffle(live)
        if not live:
            return Output(UnitP())
        pat = WireP(live[-1][0])
        for n, _ in reversed(live[:-1]):
            pat = PairP(WireP(n), pat)
        return Output(pat)


def random_circuit(seed: int, max_qubits=4, max_stmts=12):
    """A random well-typed circuit; returns (omega, term)."""
    return _Gen(random.Random(seed), max_qubits, max_stmts).build()


PROGRAM_FILES = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.ew"))


def token_mutants(paths, count, seed, same_kind=False):
    """``count`` single-token mutations of the source files ``paths``: a
    token replaced by one of the files' tokens (of its own lexical kind if
    ``same_kind``, so that more mutants parse), or deleted."""
    rng = random.Random(seed)
    sources = [p.read_text() for p in paths]
    tokens = []
    for text in sources:
        starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        tokens.append([(starts[t.line - 1] + t.col, t.text, t.kind)
                       for t in tokenize(text)[:-1]])
    vocabulary = {}
    for _, text, kind in sorted({t for ts in tokens for t in ts}):
        vocabulary.setdefault(kind if same_kind else None, set()).add(text)
    vocabulary = {k: sorted(v) for k, v in vocabulary.items()}
    for _ in range(count):
        i = rng.randrange(len(sources))
        start, text, kind = rng.choice(tokens[i])
        words = vocabulary[kind if same_kind else None]
        new = "" if rng.random() < 0.2 else rng.choice(words)
        yield sources[i][:start] + new + sources[i][start + len(text):]
