"""The benchmark's three workloads: their inputs, one op each, and the
references every op's output is checked against.

Each workload class has
  - ``inputs``: the op inputs of one pass, in the order the seed sets;
  - ``warmup_ops``: untimed ops run before the timed phase;
  - ``run(x)``: one op, the only timed code;
  - ``run_inprocess(x)``: the op as the traced run makes it;
  - ``summarize(x, out)``: untimed; ``(key, payload)``, where ``key``
    must repeat exactly on every pass and ``payload`` is what ``check``
    needs;
  - ``check(x, payload)``: untimed; ``None`` or the reason the op failed.

No reference is produced by ewire: ``qft`` is checked against a numpy
DFT channel, ``rewrite`` against the Schroedinger oracle in
``tests/oracle.py``, ``cli`` against expected outputs written out here.

Every ewire name an op calls is imported into this module, so the
tracer can wrap it where the op looks it up (see ``install_probes``).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import ewire.cli
import ewire.denote
from ewire.algebra import frobenius_distance, op_compose, set_max_dim
from ewire.denote import (
    Evaluator, FixV, Mode, denote_context, denote_wire, evaluate_program,
)
from ewire.normalize import normalize
from ewire.parser import parse_program
from ewire.qlist import monomorphize, qlist_type
from ewire.syntax import Box, Output, PairP, UnitP, WireP
from ewire.typecheck import _default_ctx, check_circuit, check_host, check_program

from tests.gen import random_circuit
from tests.oracle import (
    channel_matrix, context_leaves, embedding_matrix, leaves, transpose_vec,
)

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def _digest(m: np.ndarray) -> str:
    return hashlib.blake2b(m.tobytes(), digest_size=16).hexdigest()


def _dft(n: int) -> np.ndarray:
    big_n = 2**n
    k = np.arange(big_n)
    return np.exp(2j * np.pi * np.outer(k, k) / big_n) / np.sqrt(big_n)


def _heisenberg(u: np.ndarray) -> np.ndarray:
    """Matrix of X -> u* X u on row-major vectorised matrices."""
    return np.kron(u.conj().T, u.T)


def _reversal(n: int) -> np.ndarray:
    """Permutation unitary reversing the order of n qubits."""
    big_n = 2**n
    r = np.zeros((big_n, big_n))
    for i in range(big_n):
        r[int(format(i, f"0{n}b")[::-1], 2), i] = 1.0
    return r


# ---------------------------------------------------------------------------
# qft: the dense-algebra workload
# ---------------------------------------------------------------------------


class Qft:
    """One op: parse, monomorphize at n=5, check and evaluate ``fourier``
    in cpsu mode.  Every op computes the same map, so the seed changes
    nothing."""

    name = "qft"
    n = 5
    # the first op in a process also fills the pair-map cache and grows
    # the allocator's heap; that cold cost is what the cli workload times
    warmup_ops = 1

    def __init__(self, seed: int):
        self.text = (PROGRAMS / "qft.ew").read_text()
        # a 1024 x 1024 result needs more than the default cap of 4096
        set_max_dim(1 << 17)
        self.inputs = [self.n]

    def run(self, n):
        prog = parse_program(self.text)
        mono, entry = monomorphize(prog, n, "fourier")
        checked = check_program(mono)
        _, _, env = evaluate_program(checked, mode=Mode.cpsu())
        return env[entry].op

    run_inprocess = run

    def summarize(self, n, op):
        return _digest(op.matrix), op

    def check(self, n, op):
        # fourier leaves the qubits reversed; the reversal box restores
        # the order, and the composite must be the DFT channel
        names = [f"q{i}" for i in range(n)]

        def nest(ws):
            p = UnitP()
            for w in reversed(ws):
                p = PairP(WireP(w), p)
            return p

        rev = Box(nest(names), qlist_type(n), Output(nest(list(reversed(names)))))
        ctx = _default_ctx()
        check_host({}, rev, ctx)
        rev_op = Evaluator(ctx=ctx).eval_host({}, rev, {}).op
        total = op_compose(op, rev_op)
        diff = np.linalg.norm(total.matrix - _heisenberg(_dft(n)))
        return None if diff < 1e-8 else f"fourier + reversal differs from the DFT by {diff:.2e}"


# ---------------------------------------------------------------------------
# rewrite: many small and medium matrices
# ---------------------------------------------------------------------------


class Rewrite:
    """One op: the soundness verdict for one generated circuit, i.e.
    normalize, check the circuit and its normal form, denote both in cpu
    and cpsu mode and compare.

    The corpus is fixed (generator seeds 2000-2099, as in acceptance
    criterion 2), and so is its order: op times span three orders of
    magnitude, so runs over different random circuits would differ more
    than any bound this benchmark could fix, and the peak RSS depends on
    the order.  The seed changes nothing.
    """

    name = "rewrite"
    corpus_base = 2000
    corpus_size = 100
    warmup_ops = 0

    def __init__(self, seed: int):
        self.inputs = list(range(self.corpus_base, self.corpus_base + self.corpus_size))
        self.circuits = {
            i: random_circuit(i, max_qubits=4, max_stmts=12) for i in self.inputs
        }

    @staticmethod
    def _cpu_denotation(omega, term, ctx):
        return Evaluator(ctx=ctx, mode=Mode.cpu()).denote_circuit({}, omega, term, {})

    def run(self, i):
        omega, term = self.circuits[i]
        out, _ = normalize(term, max_steps=600)
        ctx = _default_ctx()
        check_circuit({}, omega, term, ctx)
        check_circuit({}, omega, out, ctx)
        worst = 0.0
        first = None
        for mode in (Mode.cpu(), Mode.cpsu()):
            f1 = Evaluator(ctx=ctx, mode=mode).denote_circuit({}, omega, term, {})
            f2 = Evaluator(ctx=ctx, mode=mode).denote_circuit({}, omega, out, {})
            worst = max(worst, frobenius_distance(f1, f2))
            if first is None:
                first = f1
        return worst, first

    run_inprocess = run

    def summarize(self, i, out):
        worst, f1 = out
        key = (worst, _digest(f1.matrix))
        return key, key

    def check(self, i, payload):
        worst, digest = payload
        if not worst < 1e-9:
            return f"normal form differs by {worst:.2e}"
        # adjointness against the Schroedinger-picture oracle, on the cpu
        # denotation the op computed (recomputed here, outside the timing)
        omega, term = self.circuits[i]
        ctx = _default_ctx()
        w = check_circuit({}, omega, term, ctx)
        h = self._cpu_denotation(omega, term, ctx)
        if _digest(h.matrix) != digest:
            return "cpu denotation differs from the one the op computed"
        s = channel_matrix(omega, term)
        in_leaves, out_leaves = context_leaves(omega), leaves(w)
        din = int(np.prod([d for _, d in in_leaves])) if in_leaves else 1
        dout = int(np.prod([d for _, d in out_leaves])) if out_leaves else 1
        tw = embedding_matrix(out_leaves, denote_wire(w))[transpose_vec(dout), :]
        tom = embedding_matrix(in_leaves, denote_context(omega))[transpose_vec(din), :]
        err = np.abs(s.T @ tw - tom @ h.matrix).max()
        return None if err < 1e-9 else f"not adjoint to the oracle: {err:.2e}"


# ---------------------------------------------------------------------------
# cli: what an ewirec user waits for
# ---------------------------------------------------------------------------


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


def _expect_stdout(text):
    def check(out):
        return None if out == text else f"stdout {out!r}, expected {text!r}"

    return check


def _expect_dist(outcomes, diverge):
    def check(out):
        got = json.loads(out)
        want = {"outcomes": outcomes, "diverge_mass": diverge}
        return None if got == want else f"got {got}, expected {want}"

    return check


def _expect_teleport_shots(seed):
    def check(out):
        got = json.loads(out)
        counts = got.get("counts", {})
        # 5 sigma of a fair coin over 1000 shots
        fair = (
            got.get("outcomes") == {"0": 0.5, "1": 0.5}
            and got.get("diverge_mass") == 0.0
            and got.get("seed") == seed
            and sorted(counts) == ["0", "1"]
            and sum(counts.values()) == 1000
            and abs(counts["0"] - 500) <= 80
        )
        return None if fair else f"unexpected shots result {got}"

    return check


def _expect_channel(source_blocks, target_blocks, matrix):
    def check(out):
        got = json.loads(out)
        m = np.array([complex(re, im) for re, im in got["matrix"]])
        ok = (
            got["source_blocks"] == source_blocks
            and got["target_blocks"] == target_blocks
            and m.size == matrix.size
            and np.abs(m - matrix.reshape(-1)).max() < 1e-8
            and got["report"] == {"is_cp": True, "is_unital": True, "is_subunital": True}
        )
        return None if ok else "denotation differs from the reference channel"

    return check


def _classical_control_channel():
    """Measure a, flip b if the outcome is 1, forget the outcome (the
    Heisenberg map from qubit b' to the pair (a, b))."""
    x = np.array([[0, 1], [1, 0]])
    m = np.zeros((16, 4), dtype=complex)
    for r in range(2):
        for c in range(2):
            e = np.zeros((2, 2))
            e[r, c] = 1.0
            acc = np.zeros((4, 4), dtype=complex)
            for i in range(2):
                proj = np.zeros((2, 2))
                proj[i, i] = 1.0
                acc += np.kron(proj, e if i == 0 else x @ e @ x)
            m[:, 2 * r + c] = acc.reshape(-1)
    return m


def _expect_normal_form(header, body):
    """No rewrite rule applies to these entries, so the trace is empty and
    the normal form is the entry's body (with definitions unfolded),
    compared up to spacing and parentheses."""

    def squash(s):
        return "".join(ch for ch in s if not ch.isspace() and ch not in "()")

    def check(out):
        lines = out.splitlines()
        ok = (
            len(lines) == 1
            and lines[0].startswith(header + " = ")
            and squash(lines[0][len(header) + 3:]) == squash(body)
        )
        return None if ok else f"unexpected normal form {out!r}"

    return check


_TELEPORT_BODY = """
    a <- gate init0 (); b <- gate init0 (); a2 <- gate H a;
    (a3, b2) <- gate CNOT (a2, b); (q2, a4) <- gate CNOT (q, a3);
    q3 <- gate H q2; mz <- gate meas q3; mx <- gate meas a4;
    x <= lift mx; z <= lift mz;
    unbox (if x then (if z then box q : qubit => (q1 <- gate X q; q2 <- gate Z q1; output q2)
                      else box q : qubit => (q1 <- gate X q; output q1))
           else (if z then box q : qubit => (q1 <- gate Z q; output q1)
                 else box q : qubit => output q))
          b2
"""

_CC_HOST_BODY = """
    a' <- gate meas a; x <= lift a';
    unbox (if x then box b' : qubit => (b'' <- gate X b'; output b'')
           else box b' : qubit => output b')
          b
"""


class Cli:
    """One op: one ``python -m ewire.cli`` process from a fixed mix over
    ``programs/*.ew``.  The seed sets the order of the mix and the
    sampling seed of the teleport run."""

    name = "cli"
    warmup_ops = 0

    def __init__(self, seed: int, env: dict):
        self.env = env
        # a sampling seed of fixed width, so that stdout's length, a count
        # the traced run compares, does not depend on the benchmark seed
        shots_seed = 1_000_000 + seed % 1_000_000
        # fourier's unitary is the DFT after a reversal of the qubit order
        fourier4 = _dft(4) @ _reversal(4)
        mix = [
            (["check", "programs/flip.ew"],
             _expect_stdout(_lines("flip : Circ(I, bit)", "main : T(bit)"))),
            (["check", "programs/hs.ew"],
             _expect_stdout(_lines("Hs : int -> Circ(qubit, qubit)",
                                   "hs3 : Circ(qubit, qubit)", "main : T(bit)"))),
            (["check", "programs/teleport.ew"],
             _expect_stdout(_lines("correct : bit -> bit -> Circ(qubit, qubit)",
                                   "teleport : Circ(qubit, qubit)", "main : T(bit)"))),
            (["check", "programs/classical_control.ew"],
             _expect_stdout(_lines("cc : Circ(qubit * qubit, qubit)",
                                   "cc_boxed : Circ(qubit * qubit, qubit)",
                                   "cc_host : Circ(qubit * qubit, qubit)"))),
            # qlist is not a type until --qlist-size instantiates it
            (["check", "programs/qft.ew"], None),
            (["run", "programs/flip.ew", "--json"],
             _expect_dist({"0": 0.5, "1": 0.5}, 0.0)),
            (["run", "programs/teleport.ew", "--shots", "1000", "--seed", str(shots_seed),
              "--json"],
             _expect_teleport_shots(shots_seed)),
            (["run", "programs/hs.ew", "--mode", "cpsu", "--json"],
             _expect_dist({"0": 0.0, "1": 0.0}, 1.0)),
            (["denote", "programs/teleport.ew", "--entry", "teleport"],
             _expect_channel([2], [2], np.eye(4))),
            (["denote", "programs/classical_control.ew", "--entry", "cc_host"],
             _expect_channel([2], [4], _classical_control_channel())),
            (["denote", "programs/qft.ew", "--entry", "fourier", "--qlist-size", "4",
              "--mode", "cpsu"],
             _expect_channel([16], [16], _heisenberg(fourier4))),
            (["equiv", "programs/classical_control.ew", "cc_boxed", "cc_host"],
             _expect_stdout('{"equivalent": true, "tol": 1e-09}\n')),
            (["normalize", "programs/teleport.ew", "--entry", "teleport", "--trace"],
             _expect_normal_form("circ teleport (q : qubit)", _TELEPORT_BODY)),
            (["normalize", "programs/classical_control.ew", "--entry", "cc_host", "--trace"],
             _expect_normal_form("circ cc_host (a : qubit, b : qubit)", _CC_HOST_BODY)),
            # these two end in an uncaught exception on the seed; whatever
            # they end in, it must be a non-zero exit with nothing on stdout
            (["run", "programs/hs.ew"], None),
            (["denote", "programs/qft.ew", "--entry", "fourier", "--qlist-size", "3"], None),
        ]
        self.mix = dict(enumerate(mix))
        self.inputs = list(self.mix)
        random.Random(seed).shuffle(self.inputs)

    def run(self, i):
        """Run the op as a child process; returns ``(exit code, stdout,
        traceback printed)``."""
        argv = [sys.executable, "-m", "ewire.cli", *self.mix[i][0]]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True)
        return proc.returncode, proc.stdout, b"Traceback (most recent call last)" in proc.stderr

    def run_inprocess(self, i):
        """``ewire.cli.main`` called in this process with stdout captured;
        an exception escaping ``main`` stands for a printed traceback."""
        out, err = io.StringIO(), io.StringIO()
        traceback = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ewire.cli.main(list(self.mix[i][0]))
            except Exception:
                code, traceback = 1, True
        return code, out.getvalue().encode(), traceback

    def summarize(self, i, result):
        code, out, _ = result
        return (code, out), (code, out)

    def check(self, i, payload):
        code, out = payload
        expect = self.mix[i][1]
        if expect is None:
            return None if code != 0 and out == b"" else f"exit {code}, stdout {out[:80]!r}"
        if code != 0:
            return f"exit {code}"
        return expect(out.decode())


# ---------------------------------------------------------------------------
# Probes for the traced run
# ---------------------------------------------------------------------------


def _count_source(tr, args, out):
    tr.count("parser.source_bytes", len(args[0].encode()))


def _count_decls(tr, args, out):
    tr.count("qlist.decls_out", len(out[0].decls))


def _count_steps(tr, args, out):
    tr.count("normalize.steps", len(out[1].steps))


def _count_fallback(tr, args, out):
    tr.count("denote.check_fallbacks")


def _count_bytes(tr, out):
    n = out.matrix.nbytes
    tr.count("algebra.bytes_materialised", n)
    tr.peak("algebra.peak_matrix_bytes", n)


def _count_compose(tr, args, out):
    f, rest, g = args
    r = rest.dim if rest is not None else 1
    tr.count("algebra.compose_tensored.macs", f.target.dim * f.source.dim * r * g.matrix.shape[1])
    _count_bytes(tr, out)


def _count_stack(tr, args, out):
    branches = args[0]
    tr.count("denote.lift_branches", len(branches))
    tr.count("denote.lift_zero_branches", sum(1 for b in branches if not b.matrix.any()))
    _count_bytes(tr, out)


def _count_matrix(tr, args, out):
    _count_bytes(tr, out)


def install_probes(tr) -> None:
    """Wrap each ewire function where its caller looks it up: in this
    module (the ops), in ``ewire.cli``, ``ewire.normalize`` and
    ``ewire.denote``, and on ``Evaluator``."""
    here = sys.modules[__name__]
    # the package rebinds ewire.normalize to the function of that name
    cli, den, nrm = ewire.cli, ewire.denote, importlib.import_module("ewire.normalize")
    table = [
        ("parser.parse_program", [here, cli], "parse_program", _count_source),
        ("qlist.monomorphize", [here, cli], "monomorphize", _count_decls),
        ("typecheck.elaborate_sugar", [cli], "elaborate_sugar", None),
        ("typecheck.check_program", [here, cli], "check_program", None),
        ("typecheck.check_circuit", [here, nrm], "check_circuit", None),
        ("typecheck.check_circuit", [den], "check_circuit", _count_fallback),
        ("denote.evaluate_program", [here, cli], "evaluate_program", None),
        ("normalize.normalize", [here, cli], "normalize", _count_steps),
        ("normalize.check_equiv", [cli], "check_equiv", None),
        ("algebra.frobenius_distance", [here, nrm], "frobenius_distance", None),
        ("algebra.superop_to_json", [cli], "superop_to_json", None),
        ("algebra.is_cp", [cli], "is_cp", None),
        ("algebra.compose_tensored", [den], "compose_tensored", _count_compose),
        ("algebra.copower_stack", [den], "copower_stack", _count_stack),
        ("algebra.factor_permutation", [den], "factor_permutation", None),
        ("algebra.gate_denotation", [den], "gate_denotation", _count_matrix),
        ("algebra.op_zero", [den], "op_zero", _count_matrix),
        ("cli.main", [cli], "main", None),
    ]
    for span, owners, attr, hook in table:
        for owner in owners:
            tr.patch(owner, attr, tr.wrapper(span, owner.__dict__[attr], hook))

    # Evaluator methods recurse deeply under fixed points; fixed-arity
    # wrappers keep each level a plain Python call
    denote_circuit = Evaluator.__dict__["denote_circuit"]
    apply = Evaluator.__dict__["apply"]

    def traced_denote_circuit(ev, gamma, omega, term, env):
        idx = tr.open_span("denote.denote_circuit")
        try:
            return denote_circuit(ev, gamma, omega, term, env)
        finally:
            tr.close_span(idx)

    def counted_apply(ev, fv, av):
        # one unit of fuel per fixed-point unfolding (Evaluator.apply)
        if isinstance(fv, FixV) and ev.fuel > 0:
            tr.count("denote.fuel_used")
        return apply(ev, fv, av)

    tr.patch(Evaluator, "denote_circuit", traced_denote_circuit)
    tr.patch(Evaluator, "apply", counted_apply)


def make(name: str, seed: int, env: dict):
    if name == "qft":
        return Qft(seed)
    if name == "rewrite":
        return Rewrite(seed)
    return Cli(seed, env)
