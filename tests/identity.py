"""Print the identity set: md5 digests of outputs that a change claiming
"the same bytes" must leave unchanged.

Run from the repository root (about 10 s and a 370 MB peak on one
2-core x86-64 host):

    PYTHONPATH=src:. python tests/identity.py

It is a script, not a test module: pytest collects only ``test_*.py``.
It prints one line per entry, always in this order:

1. ``qft n=<n> <md5>`` for n = 1..5: ``fourier`` from ``programs/qft.ew``
   monomorphized at n, checked and evaluated by ``evaluate_program`` in
   cpsu mode at the default fuel, under a dimension cap of 2**17; the
   md5 of its map's ``.matrix.tobytes()``.
2. ``hs <md5>``: the md5 of the stdout of ``ewirec run programs/hs.ew
   --mode cpsu --fuel 200000``, run in this process.
3. ``corpus <md5>``: one md5 over the 100 circuits of ``tests/gen.py``
   seeds 2000-2099 (``max_qubits=4, max_stmts=12``) and their normal
   forms (``normalize(..., max_steps=600)``).  For each seed in turn it
   takes the normal form's ``pretty_print`` text, then, in cpu mode and
   then in cpsu mode, the ``.matrix.tobytes()`` of the circuit's and
   then of the normal form's denotation, each by a fresh ``Evaluator``
   over one context in which both were checked.
4. ``cli <md5>``: one md5 over the 16 commands of the ``cli`` workload's
   mix, read from ``bench/workloads.py`` with seed 0 (so the teleport
   run samples with seed 1000000), in the mix's own order.  Each runs
   as ``python -m ewire.cli`` in a child process from the repository
   root, and adds ``repr((exit code, stdout, stderr))``.
5. ``fuel <md5>``: the md5 of the text of the list of the fuel left
   after each cpsu evaluation below.  ``evaluate_program`` restores the
   fuel after every declaration, so items 1 and 2 leave none to read.
   - The corpus's cpsu denotations, in item 3's order (200 values).
   - ``Hs k`` from ``programs/hs.ew``, applied by a fresh evaluator for
     each fuel in 0, 1, 2, 5 and 100 and, within it, each k in -1, 0, 1
     and 3 (20 values).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from ewire.algebra import max_dim, set_max_dim
from ewire.cli import main
from ewire.denote import Evaluator, Mode, call_with_stack, evaluate_program
from ewire.normalize import normalize
from ewire.parser import parse_program
from ewire.qlist import monomorphize
from ewire.syntax import pretty_print
from ewire.typecheck import _default_ctx, check_circuit, check_program

from bench.workloads import Cli
from tests.gen import random_circuit

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
QFT_CAP = 1 << 17  # fourier at n=5 needs more than the default cap
CORPUS = range(2000, 2100)
HS_FUELS = (0, 1, 2, 5, 100)
HS_ARGS = (-1, 0, 1, 3)


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def qft_digests(ns=range(1, 6)) -> list[tuple[str, str]]:
    """Item 1 for each n in ``ns``, under the caller's dimension cap."""
    prog = parse_program((PROGRAMS / "qft.ew").read_text())
    out = []
    for n in ns:
        mono, entry = monomorphize(prog, n, "fourier")
        _, _, env = evaluate_program(check_program(mono), mode=Mode.cpsu())
        out.append((f"qft n={n}", _md5(env[entry].op.matrix.tobytes())))
    return out


def hs_digest() -> str:
    stdout = io.StringIO()
    argv = ["run", str(PROGRAMS / "hs.ew"), "--mode", "cpsu", "--fuel", "200000"]
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"hs run exited {code}")
    return _md5(stdout.getvalue().encode())


def corpus_digest(fuel: list) -> str:
    """Item 3; appends the fuel left after each cpsu denotation to ``fuel``."""
    h = hashlib.md5()
    for seed in CORPUS:
        omega, term = random_circuit(seed, max_qubits=4, max_stmts=12)
        out, _ = normalize(term, max_steps=600)
        ctx = _default_ctx()
        check_circuit({}, omega, term, ctx)
        check_circuit({}, omega, out, ctx)
        h.update(pretty_print(out).encode())
        for mode in (Mode.cpu(), Mode.cpsu()):
            for t in (term, out):
                ev = Evaluator(ctx=ctx, mode=mode)
                h.update(ev.denote_circuit(None, omega, t, {}).matrix.tobytes())
                if mode.is_cpsu:
                    fuel.append(ev.fuel)
    return h.hexdigest()


def cli_digest() -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    mix = Cli(0, env).mix
    h = hashlib.md5()
    for i in sorted(mix):
        proc = subprocess.run([sys.executable, "-m", "ewire.cli", *mix[i][0]],
                              cwd=ROOT, env=env, capture_output=True)
        h.update(repr((proc.returncode, proc.stdout, proc.stderr)).encode())
    return h.hexdigest()


def hs_fuel(fuel: list) -> None:
    """Item 5's ``Hs k`` values, appended to ``fuel``."""
    cp = check_program(parse_program((PROGRAMS / "hs.ew").read_text()))
    for budget in HS_FUELS:
        for k in HS_ARGS:
            ev = Evaluator(ctx=cp.ctx, mode=Mode.cpsu(budget))
            hs = ev.eval_host(None, cp.program.find("Hs").term, {})
            call_with_stack(lambda: ev.apply(hs, k))
            fuel.append(ev.fuel)


def identity_set() -> list[tuple[str, str]]:
    old = max_dim()
    set_max_dim(QFT_CAP)
    try:
        out = qft_digests()
    finally:
        set_max_dim(old)
    out.append(("hs", hs_digest()))
    fuel: list = []
    out.append(("corpus", corpus_digest(fuel)))
    out.append(("cli", cli_digest()))
    hs_fuel(fuel)
    out.append(("fuel", _md5(repr(fuel).encode())))
    return out


if __name__ == "__main__":
    for label, digest in identity_set():
        print(label, digest)
