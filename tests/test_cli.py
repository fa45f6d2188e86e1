import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ewire import algebra
from ewire.cli import main
from tests.test_qlist import LIFTS_A_QUBIT, SIZED_BY_OUTPUT

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_flip(capsys):
    code, out, _ = run_cli(capsys, "check", str(PROGRAMS / "flip.ew"))
    assert code == 0
    assert "flip : Circ(I, bit)" in out
    assert "main : T(bit)" in out


def test_run_flip_distribution(capsys):
    code, out, _ = run_cli(capsys, "run", str(PROGRAMS / "flip.ew"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"] == {"0": 0.5, "1": 0.5}
    assert payload["diverge_mass"] == 0.0


def test_run_with_shots_deterministic(capsys):
    args = ["run", str(PROGRAMS / "flip.ew"), "--json", "--shots", "200",
            "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert sum(payload["counts"].values()) == 200


def test_run_hs_diverges(capsys):
    code, out, _ = run_cli(
        capsys, "run", str(PROGRAMS / "hs.ew"), "--mode", "cpsu",
        "--fuel", "150", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diverge_mass"] == 1.0


def test_denote_h_box(capsys, tmp_path):
    src = tmp_path / "h.ew"
    src.write_text(
        "def hbox : Circ(qubit, qubit) = "
        "box q : qubit => (q' <- gate H q; output q')\n"
    )
    code, out, _ = run_cli(capsys, "denote", str(src), "--entry", "hbox")
    assert code == 0
    payload = json.loads(out)
    assert payload["source_blocks"] == [2]
    assert payload["report"]["is_cp"] and payload["report"]["is_unital"]
    m = [re + 1j * im for re, im in payload["matrix"]]
    import numpy as np

    got = np.array(m).reshape(4, 4)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    expected = np.kron(h.conj().T, h.T)
    assert np.abs(got - expected).max() < 1e-9


def test_denote_identity_box(capsys, tmp_path):
    src = tmp_path / "id.ew"
    src.write_text(
        "def idq : Circ(qubit, qubit) = box q : qubit => output q\n"
    )
    code, out, _ = run_cli(capsys, "denote", str(src), "--entry", "idq")
    payload = json.loads(out)
    import numpy as np

    got = np.array([re + 1j * im for re, im in payload["matrix"]]).reshape(4, 4)
    assert np.allclose(got, np.eye(4))


def test_check_linearity_violation_exit_code(capsys, tmp_path):
    src = tmp_path / "dup.ew"
    src.write_text(
        "circ dup (a : qubit) : qubit * qubit = "
        "w <- output a; w2 <- output a; output (w, w2)\n"
    )
    code, out, err = run_cli(capsys, "check", str(src), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "LinearityViolation"


def test_check_effectful_unbox_exit_code(capsys, tmp_path):
    src = tmp_path / "eu.ew"
    src.write_text(
        "def f : T(Circ(qubit, qubit)) -> Circ(qubit, qubit) = "
        "lambda c : T(Circ(qubit, qubit)) . "
        "box w : qubit => (w2 <- unbox c w; output w2)\n"
    )
    code, out, err = run_cli(capsys, "check", str(src), "--json")
    assert code == 1
    assert json.loads(out)["kind"] == "EffectfulUnbox"


def test_parse_error_exit_code(capsys, tmp_path):
    src = tmp_path / "bad.ew"
    src.write_text("def ( : int = 3\n")
    code, _, err = run_cli(capsys, "check", str(src))
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/file.ew")
    assert code == 3


def test_resource_limit_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EWIREC_MAX_DIM", "4")
    src = tmp_path / "big.ew"
    src.write_text(
        "def b : Circ(qubit * qubit, qubit * qubit) = "
        "box (a : qubit, b : qubit) => output (a, b)\n"
    )
    old = algebra.max_dim()
    try:
        code, _, err = run_cli(capsys, "denote", str(src), "--entry", "b")
    finally:
        algebra.set_max_dim(old)
    assert code == 2


NO_TRACEBACK_CASES = [
    (["run", "programs/hs.ew"], 1, "error["),
    (["denote", "programs/qft.ew", "--entry", "fourier", "--qlist-size", "3"], 1, "error["),
    (["run", "programs/flip.ew", "--shots", "-1"], 3, "usage error:"),
    (["run", "programs/hs.ew", "--mode", "cpsu", "--fuel", "-1"], 3, "usage error:"),
    (["normalize", "programs/teleport.ew", "--entry", "teleport", "--max-steps", "-1"],
     3, "usage error:"),
    (["denote", "programs/teleport.ew", "--entry", "teleport", "--tol=-1"], 3, "usage error:"),
    (["equiv", "programs/classical_control.ew", "cc_boxed", "cc_host", "--tol=nan"],
     3, "usage error:"),
    (["denote", "programs/qft.ew", "--entry", "fourier", "--qlist-size", "-1"],
     3, "usage error:"),
    (["denote", "tests/abstract_gate.ew", "--entry", "c"], 1, "error[UnknownGate]"),
    (["equiv", "tests/abstract_gate.ew", "c", "c"], 1, "error[UnknownGate]"),
]


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p
    )
    return env


def _assert_no_traceback(argv, code, prefix):
    proc = subprocess.run(
        [sys.executable, "-m", "ewire.cli", *argv],
        cwd=ROOT, env=_cli_env(), capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,code,prefix", NO_TRACEBACK_CASES,
    ids=[f"argv{i}" for i in range(len(NO_TRACEBACK_CASES))],
)
def test_evaluation_error_exits_without_traceback(argv, code, prefix):
    # cpu mode rejects the fixed point of hs.ew, and an out-of-range int
    # of qft.ew at size 3; both are diagnostics, not tracebacks, and so
    # are negative counts of shots, fuel or rewrite steps and a negative
    # or non-finite tolerance, and a header-declared gate, which has no
    # denotation
    _assert_no_traceback(argv, code, prefix)


def test_run_of_a_closed_circ_with_a_quantum_output_is_a_type_error(tmp_path):
    # run c needs a classical output type; the entry is typed as run c
    # before anything is evaluated
    src = tmp_path / "closed.ew"
    src.write_text("circ c : qubit = q <- gate init0 (); output q\n")
    _assert_no_traceback(["run", str(src), "--entry", "c"], 1, "error[NotClassical]")


def test_reader_closing_stdout_exits_without_traceback():
    # the denotation's JSON (110 kB) outgrows a pipe's buffer (64 kB on
    # Linux), so the write fails once the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "ewire.cli", "denote", "programs/qft.ew",
         "--entry", "fourier", "--qlist-size", "3", "--mode", "cpsu"],
        cwd=ROOT, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize(
    "src", [SIZED_BY_OUTPUT, LIFTS_A_QUBIT],
    ids=["sized_by_output", "lift_of_a_qubit"],
)
def test_ill_formed_template_exits_without_traceback(tmp_path, src):
    f = tmp_path / "f.ew"
    f.write_text(src)
    _assert_no_traceback(["check", str(f), "--qlist-size", "1"], 1, "error[QListError]")


def test_check_qlist_size_instantiates_templates(capsys):
    code, out, _ = run_cli(
        capsys, "check", str(PROGRAMS / "qft.ew"), "--qlist-size", "3",
    )
    assert code == 0
    assert "fourier__3 : Circ(qubit * qubit * qubit * I, " in out


def test_normalize_command(capsys, tmp_path):
    src = tmp_path / "n.ew"
    src.write_text(
        "circ c (p1 : qubit) : qubit = "
        "w <- (p2 <- gate H p1; output p2); output w\n"
    )
    code, out, _ = run_cli(capsys, "normalize", str(src), "--entry", "c",
                           "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["rule"] == "GateCommute"
    assert lines[-1] == "circ c (p1 : qubit) = p2 <- gate H p1; output p2"


def test_normalize_copower_flag(capsys, tmp_path):
    src = tmp_path / "cp.ew"
    src.write_text("circ c (b : bit) : bit = x <= lift b; init x\n")
    code, out, _ = run_cli(capsys, "normalize", str(src), "--entry", "c")
    assert "lift" in out
    code, out, _ = run_cli(capsys, "normalize", str(src), "--entry", "c",
                           "--copower-rules")
    assert out.strip().endswith("= output b")


def test_equiv_command(capsys, tmp_path):
    src = tmp_path / "e.ew"
    src.write_text(
        "circ hh (q : qubit) : qubit = "
        "q1 <- gate H q; q2 <- gate H q1; output q2\n"
        "circ idq (q : qubit) : qubit = output q\n"
        "circ xq (q : qubit) : qubit = q1 <- gate X q; output q1\n"
    )
    code, out, _ = run_cli(capsys, "equiv", str(src), "hh", "idq")
    assert code == 0 and json.loads(out)["equivalent"] is True
    code, out, _ = run_cli(capsys, "equiv", str(src), "hh", "xq")
    assert code == 1 and json.loads(out)["equivalent"] is False


def test_qlist_entry_must_be_instantiated(capsys):
    # an entry that leaves the list-typed declarations uninstantiated
    # fails typechecking
    code, out, _ = run_cli(
        capsys, "run", str(PROGRAMS / "qft.ew"), "--entry", "qtest",
        "--qlist-size", "1", "--mode", "cpsu", "--json",
    )
    assert code == 1


def test_denote_qft_size_one(capsys):
    code, out, _ = run_cli(
        capsys, "denote", str(PROGRAMS / "qft.ew"), "--entry", "fourier",
        "--qlist-size", "1", "--mode", "cpsu",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["is_cp"] and payload["report"]["is_unital"]


def test_check_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "check", str(PROGRAMS / "hs.ew"), "--json")
    code2, out2, _ = run_cli(capsys, "check", str(PROGRAMS / "hs.ew"), "--json")
    assert out1 == out2


def test_run_circ_decl_entry(capsys):
    code, out, _ = run_cli(capsys, "run", str(PROGRAMS / "flip.ew"),
                           "--entry", "flip", "--json")
    assert code == 0
    assert json.loads(out)["outcomes"] == {"0": 0.5, "1": 0.5}


def test_equiv_with_permuted_wire_names(capsys, tmp_path):
    src = tmp_path / "perm.ew"
    src.write_text(
        "circ f (a : qubit, b : qubit) : qubit * qubit = "
        "(x, y) <- gate CNOT (a, b); output (x, y)\n"
        "circ g (b : qubit, a : qubit) : qubit * qubit = "
        "(x, y) <- gate CNOT (b, a); output (x, y)\n"
    )
    code, out, _ = run_cli(capsys, "equiv", str(src), "f", "g")
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_equiv_boxed_def_against_circ(capsys, tmp_path):
    src = tmp_path / "defs.ew"
    src.write_text(
        "def hbox : Circ(qubit, qubit) = "
        "box q : qubit => (q2 <- gate H q; output q2)\n"
        "circ hc (q : qubit) : qubit = q2 <- gate H q; output q2\n"
    )
    code, out, _ = run_cli(capsys, "equiv", str(src), "hbox", "hc")
    assert code == 0 and json.loads(out)["equivalent"] is True


@pytest.mark.parametrize("value", ["-3", "0", "four"])
def test_max_dim_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("EWIREC_MAX_DIM", value)
    old = algebra.max_dim()
    code, out, err = run_cli(capsys, "run", str(PROGRAMS / "flip.ew"))
    assert (code, out, err) == (3, "", "EWIREC_MAX_DIM must be a positive integer\n")
    assert algebra.max_dim() == old


# hs.ew plus circuits that need neither Hs nor main: in cpsu mode main's
# Hs (-1) recurses past any stack, and in cpu mode Hs itself is an error
HS_PLUS = """
def h1 : Circ(qubit, qubit) = box q : qubit => (q1 <- gate H q; output q1)
circ c1 (q : qubit) : qubit = q1 <- gate H q; output q1
circ c2 (q : qubit) : qubit = q1 <- gate H q; q2 <- gate H q1; q3 <- gate H q2; output q3
def pair : Circ(qubit * qubit, qubit * qubit) = box x : qubit * qubit => output x
circ idpair (a : qubit, b : qubit) : qubit * qubit = output (a, b)
circ idbit (b : bit) : bit = output b
"""

EQUIVALENT = '{"equivalent": true, "tol": 1e-09}\n'


@pytest.fixture
def hs_plus(tmp_path):
    src = tmp_path / "hs_plus.ew"
    src.write_text((PROGRAMS / "hs.ew").read_text() + HS_PLUS)
    return str(src)


@pytest.mark.parametrize("argv", [
    ["c1", "c2"],
    ["c1", "c2", "--mode", "cpsu"],
    ["c1", "h1", "--mode", "cpsu"],
    # one wire of type qubit * qubit against two qubit wires: both
    # flatten to the same leaves
    ["pair", "idpair"],
], ids=["c1_c2_cpu", "c1_c2_cpsu", "c1_h1_cpsu", "pair_idpair"])
def test_equiv_evaluates_only_what_its_entries_need(capsys, hs_plus, argv):
    assert run_cli(capsys, "equiv", hs_plus, *argv)[:2] == (0, EQUIVALENT)


def test_denote_evaluates_only_what_its_entry_needs(capsys, hs_plus):
    code, out, _ = run_cli(capsys, "denote", hs_plus, "--entry", "h1")
    assert code == 0
    assert json.loads(out)["signature"] == {"in": "qubit", "out": "qubit"}


def test_denote_of_a_circ_is_the_box_over_its_context(capsys):
    import numpy as np

    cc = str(PROGRAMS / "classical_control.ew")
    code, out, _ = run_cli(capsys, "denote", cc, "--entry", "cc")
    assert code == 0
    got = json.loads(out)
    want = json.loads(run_cli(capsys, "denote", cc, "--entry", "cc_host")[1])
    for key in ("source_blocks", "target_blocks", "signature", "report"):
        assert got[key] == want[key]
    assert got["signature"] == {"in": "qubit * qubit", "out": "qubit"}
    m_got, m_want = (np.array([complex(*z) for z in p["matrix"]]) for p in (got, want))
    assert m_got.shape == m_want.shape and np.abs(m_got - m_want).max() <= 1e-12


def test_denote_of_a_closed_circ_and_run_of_an_open_one(capsys, hs_plus):
    code, out, _ = run_cli(capsys, "denote", str(PROGRAMS / "flip.ew"), "--entry", "flip")
    assert code == 0
    got = json.loads(out)
    assert got["signature"] == {"in": "I", "out": "bit"}
    assert (got["source_blocks"], got["target_blocks"]) == ([1, 1], [1])
    assert got["matrix"] == [[0.5, 0.0], [0.5, 0.0]]
    # a circ needs no def here: hs.ew's Hs is an error in cpu mode
    code, out, _ = run_cli(capsys, "denote", hs_plus, "--entry", "c1")
    assert code == 0 and json.loads(out)["signature"] == {"in": "qubit", "out": "qubit"}
    # run still runs only a closed circ
    code, out, err = run_cli(capsys, "run", hs_plus, "--entry", "c1")
    assert (code, out) == (3, "") and "non-empty wire context" in err


def test_equiv_of_a_def_that_is_no_literal_box(capsys):
    # hs3 = Hs 3 is a circuit value, though no unfolding reaches a box
    code, out, _ = run_cli(capsys, "equiv", str(PROGRAMS / "hs.ew"), "hs3", "hs3",
                           "--mode", "cpsu")
    assert (code, out) == (0, EQUIVALENT)


def test_equiv_different_contexts(capsys, hs_plus):
    code, out, _ = run_cli(capsys, "equiv", hs_plus, "c1", "idbit")
    assert (code, out) == (1, '{"equivalent": false, "reason": "different contexts"}\n')


def test_equiv_compares_values_without_unfolding(capsys, monkeypatch):
    import ewire.cli

    def refuse(*args):
        raise AssertionError("equiv unfolded a definition")

    monkeypatch.setattr(ewire.cli, "unfold_definitions", refuse)
    code, out, _ = run_cli(capsys, "equiv", str(PROGRAMS / "classical_control.ew"),
                           "cc_boxed", "cc_host")
    assert (code, out) == (0, EQUIVALENT)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equiv_qft_with_itself(capsys, n):
    code, out, _ = run_cli(capsys, "equiv", str(PROGRAMS / "qft.ew"), f"fourier__{n}",
                           f"fourier__{n}", "--qlist-size", str(n), "--mode", "cpsu")
    assert (code, out) == (0, EQUIVALENT)


def _sweep_cases():
    from ewire.parser import parse_program
    from ewire.syntax import DefDecl

    for path in sorted(PROGRAMS.glob("*.ew")):
        if path.name == "qft.ew":
            continue
        for d in parse_program(path.read_text()).decls:
            if isinstance(d, DefDecl):
                yield str(path), d.name


SWEEP = list(_sweep_cases())


@pytest.mark.parametrize("path,entry", SWEEP, ids=[
    f"{Path(p).stem}-{e}" for p, e in SWEEP
])
def test_every_entry_exits_with_a_code_and_mode_free_usage_errors(capsys, path, entry):
    # an entry is typed before it is evaluated, so whether it fits the
    # command cannot depend on the mode
    for argv in (["run", path, "--entry", entry], ["denote", path, "--entry", entry],
                 ["normalize", path, "--entry", entry], ["equiv", path, entry, entry]):
        cpu = run_cli(capsys, *argv)
        cpsu = run_cli(capsys, *argv, "--mode", "cpsu", "--fuel", "50")
        assert cpu[0] in (0, 1, 2, 3) and cpsu[0] in (0, 1, 2, 3), argv
        if 3 in (cpu[0], cpsu[0]):
            assert cpu == cpsu, argv


NON_PRINTABLE = """\
def rec Hs : int -> Circ(qubit, qubit) =
  lambda n : int .
    if n = 0 then box q : qubit => output q
    else box q : qubit => (q' <- gate H q; unbox (Hs (n - 1)) q')

def id : T(Circ(qubit, qubit)) = return (box q : qubit => output q)
def zero : T(Circ(qubit, qubit)) = return (Hs (-1))
"""


@pytest.mark.parametrize("entry", ["id", "zero"])
def test_run_of_a_computation_of_circuits_is_a_usage_error_in_both_modes(
        capsys, tmp_path, entry):
    # a T(Circ(...)) entry is rejected from its type, before the fixed
    # point of zero is evaluated (cpu mode cannot, cpsu mode can)
    src = tmp_path / "circuits.ew"
    src.write_text(NON_PRINTABLE)
    want = (3, "", f"usage error: '{entry}' returns non-printable values of type "
                   "Circ(qubit, qubit)\n")
    for mode in (["--mode", "cpu"], ["--mode", "cpsu", "--fuel", "50"]):
        assert run_cli(capsys, "run", str(src), "--entry", entry, *mode) == want


def test_denote_writes_each_number_once_at_12_digits(capsys, monkeypatch):
    import numpy as np

    import ewire.cli
    from ewire.algebra import SuperOp

    parts = [-0.0, 5e-324, 2.5e-310, 0.1 + 0.2, 0.9999999999996, 9.99999999999951e20,
             1e16, -1e16, 1 / 3, 123456789012.5, 1.0, 0.0, -2.5e-310, -0.0, 7e-17, 2.0]
    entries = np.empty(len(parts) // 2, dtype=complex)
    entries.real, entries.imag = parts[0::2], parts[1::2]
    value, written = ewire.cli._value, []

    def crafted(*args):
        v = value(*args)
        written.append(np.resize(entries, v.op.matrix.shape))
        return replace(v, op=SuperOp(v.op.source, v.op.target, written[0]))

    monkeypatch.setattr(ewire.cli, "_value", crafted)
    code, out, _ = run_cli(capsys, "denote", str(PROGRAMS / "classical_control.ew"),
                           "--entry", "cc_host")
    assert code == 0
    want = json.dumps([[float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")]
                       for z in written[0].reshape(-1)])
    assert f'"matrix": {want}, ' in out
    for pair in ("[-0.0, 5e-324]", "[2.5e-310, 0.3]", "[1.0, 1e+21]", "[1e+16, -1e+16]",
                 "[-2.5e-310, -0.0]"):
        assert pair in want


# -- a circ declaration is a boxed def -----------------------------------------------

CIRC_AS_DEF = """
def h : Circ(qubit, qubit) = box q : qubit => (q2 <- gate H q; output q2)
circ c (a : qubit) : qubit = b <- unbox h a; output b
def cd : Circ(qubit, qubit) = box a : qubit => (b <- unbox h a; output b)
def kd : Circ(I, bit) = box () : I => (a <- gate init0 (); a2 <- gate H a; b <- gate meas a2; output b)
"""


def test_normalize_of_a_circ_inlines_the_defs_it_names(capsys, tmp_path):
    src = tmp_path / "circ_as_def.ew"
    src.write_text(CIRC_AS_DEF)
    want = "circ {} (a : qubit) = q2 <- gate H a; output q2\n"
    for entry in ("c", "cd"):
        assert run_cli(capsys, "normalize", str(src), "--entry", entry)[:2] == (
            0, want.format(entry))


def test_run_of_a_closed_circuit_def(capsys, tmp_path):
    src = tmp_path / "circ_as_def.ew"
    src.write_text(CIRC_AS_DEF)
    code, out, _ = run_cli(capsys, "run", str(src), "--entry", "kd", "--json")
    assert code == 0
    assert json.loads(out) == {"outcomes": {"0": 0.5, "1": 0.5}, "diverge_mass": 0.0}


def test_circ_over_a_qlist_is_instantiated(capsys, tmp_path):
    src = tmp_path / "circ_qlist.ew"
    src.write_text("circ rev (qs : qlist) : qlist = output qs\n")
    code, out, _ = run_cli(capsys, "check", str(src), "--qlist-size", "2")
    assert (code, out) == (0, "rev__2 : Circ(qubit * qubit * I, qubit * qubit * I)\n")


@pytest.mark.parametrize("src", [
    "circ rev (qs : qlist) = output qs\n",
    "def rev = box qs : qlist => output qs\n",
], ids=["circ", "def"])
def test_list_circuit_without_output_type_is_instantiated(capsys, tmp_path, src):
    path = tmp_path / "rev.ew"
    path.write_text(src)
    code, out, _ = run_cli(capsys, "check", str(path), "--qlist-size", "2")
    assert (code, out) == (0, "rev__2 : Circ(qubit * qubit * I, qubit * qubit * I)\n")


def test_run_of_an_open_circuit_says_it_is_not_closed(capsys, tmp_path):
    src = tmp_path / "open.ew"
    src.write_text(
        "def h : Circ(qubit, qubit) = box q : qubit => output q\n"
        "def m : T(bit) = run h\n"
    )
    code, out, err = run_cli(capsys, "check", str(src))
    assert (code, out) == (1, "")
    assert err == (
        "error[Mismatch] at 2:21: circuit of type Circ(qubit, qubit) is not "
        "closed: it expects wires of type qubit, and none are given\n"
    )


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_parse_error_prints_its_position_once(capsys, tmp_path, json_flag):
    src = tmp_path / "bad.ew"
    src.write_text("def x = (\n")
    code, out, err = run_cli(capsys, "check", str(src), *(["--json"] if json_flag else []))
    assert code == 1
    if json_flag:
        assert json.loads(out) == {"kind": "ParseError", "span": [2, 0],
                                   "message": "expected a host term"}
    else:
        assert err == "error[ParseError] at 2:0: expected a host term\n"
