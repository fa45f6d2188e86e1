import importlib.util
import json
import os
import resource
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import ewire.cli
import ewire.denote
import ewire.typecheck
from ewire import algebra
from ewire.cli import main
from tests.gen import PROGRAM_FILES, token_mutants
from tests.test_qlist import LIFTS_A_QUBIT, SIZED_BY_OUTPUT

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
SUGAR = ROOT / "tests" / "sugar.ew"


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
    (["check", "programs/flip.ew", "--tol", "1"], 3,
     "usage error: unrecognized arguments: --tol 1"),
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
    # or non-finite tolerance, a header-declared gate, which has no
    # denotation, and a flag the command does not take
    _assert_no_traceback(argv, code, prefix)


# a command takes --mode and --fuel only if it evaluates, and --tol only
# if it tests a map; any other is an unknown flag
FLAGS_A_COMMAND_DOES_NOT_TAKE = [
    (command, flag) for command in ("check", "normalize", "run")
    for flag in (["--mode", "cpsu"], ["--fuel", "50"], ["--tol", "1"])
    if command != "run" or flag[0] == "--tol"
]


@pytest.mark.parametrize("command,flag", FLAGS_A_COMMAND_DOES_NOT_TAKE,
                         ids=[f"{c}{f[0]}" for c, f in FLAGS_A_COMMAND_DOES_NOT_TAKE])
def test_a_flag_a_command_does_not_take_is_a_usage_error(capsys, command, flag):
    assert run_cli(capsys, command, str(PROGRAMS / "flip.ew"), *flag) == (
        3, "", f"usage error: unrecognized arguments: {' '.join(flag)}\n")


def test_run_of_a_closed_circ_with_a_quantum_output_is_a_type_error(tmp_path):
    # run c needs a classical output type; the entry is typed as run c
    # before anything is evaluated
    src = tmp_path / "closed.ew"
    src.write_text("circ c : qubit = q <- gate init0 (); output q\n")
    _assert_no_traceback(["run", str(src), "--entry", "c"], 1, "error[NotClassical]")


@pytest.mark.parametrize("data,offset", [(b"\xff\xfe", 0), (b"-- caf\xe9\n", 6)],
                         ids=["bom", "latin1"])
def test_a_source_that_is_not_utf8_is_a_usage_error(tmp_path, data, offset):
    src = tmp_path / "bad.ew"
    src.write_bytes(data)
    _assert_no_traceback(["check", str(src)], 3,
                         f"usage error: cannot read {src}: not UTF-8 at byte {offset}:")


# a classical type's algebra is the copower k . C, checked against the cap
# before a block or a value is listed, through an init and through a lift
CLASSICAL_OVER_THE_CAP = [
    (5000, "def main = run (init (3 : int))\n", ["run"]),
    (10**30, "def main = run (init (3 : int))\n", ["run"]),
    (10**30, "def c : Circ(int, I) = box x : int => (y <= lift x; output ())\n",
     ["denote", "--entry", "c"]),
]


@pytest.mark.parametrize("k,body,command", CLASSICAL_OVER_THE_CAP,
                         ids=["init-5000", "init-1e30", "lift-1e30"])
def test_a_classical_type_over_the_cap_is_a_resource_limit(tmp_path, k, body, command):
    src = tmp_path / "big.ew"
    src.write_text(f"classical int {k}\n\n{body}")
    _assert_no_traceback([command[0], str(src), *command[1:]], 2,
                         f"resource limit: copower needs element-space dimension {k},")


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


def test_evaluation_starts_no_thread(capsys, monkeypatch):
    # evaluation runs on the calling thread, so a process that cannot
    # start one (under a memory limit, most often) still evaluates
    def start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert run_cli(capsys, "run", str(PROGRAMS / "flip.ew"), "--json") == (
        0, '{"outcomes": {"0": 0.5, "1": 0.5}, "diverge_mass": 0.0}\n', "")


def test_a_deep_fixed_point_needs_no_deep_stack():
    # 20000 unfoldings nest 120000 Python frames; from Python 3.11 they
    # take no C stack, so a 1 MiB stack limit (on the child only) is enough
    def small_stack():
        _, hard = resource.getrlimit(resource.RLIMIT_STACK)
        resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "ewire.cli", "run", "programs/hs.ew", "--mode", "cpsu",
         "--fuel", "20000", "--json"],
        cwd=ROOT, env=_cli_env(), capture_output=True, preexec_fn=small_stack,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, b'{"outcomes": {"0": 0.0, "1": 0.0}, "diverge_mass": 1.0}\n', b"")


def test_a_recursion_limit_reads_the_same_at_any_caller_depth(capsys, monkeypatch):
    # the evaluation starts at the caller's depth, so the call that meets
    # the limit (and CPython's message for it) moves with that depth
    limit = sys.setrecursionlimit
    monkeypatch.setattr(sys, "setrecursionlimit", lambda n: limit(min(n, 20_000)))

    def nested(k):
        if k:
            return nested(k - 1)
        return run_cli(capsys, "run", str(PROGRAMS / "hs.ew"), "--mode", "cpsu",
                       "--fuel", "100000", "--json")

    expected = (2, '{"kind": "RecursionError", "span": null, '
                   '"message": "maximum recursion depth exceeded"}\n', "")
    assert [nested(k) for k in range(6)] == [expected] * 6


class _UnmappableLoader:
    """A loader that fails as numpy's body does when its BLAS library
    cannot be mapped: a page of advice over the error that caused it."""

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        try:
            raise ImportError("libopenblas.so: failed to map segment\nfrom shared object")
        except ImportError as e:
            raise ImportError("\nIMPORTANT: PLEASE READ THIS\n\nOriginal error was: ...") from e


def test_a_numpy_that_fails_to_load_is_a_resource_limit(capsys, monkeypatch):
    # the load runs at the first read of a numpy attribute, here inside
    # the evaluation, on the calling thread
    stub = algebra._lazy(importlib.util.spec_from_loader("numpy", _UnmappableLoader()))
    # setattr would read an attribute of the stub, and so load it
    monkeypatch.setitem(vars(algebra), "np", stub)
    monkeypatch.setitem(vars(ewire.denote), "np", stub)
    assert run_cli(capsys, "run", str(PROGRAMS / "flip.ew"), "--json") == (
        2, "", "resource limit: numpy failed to load: "
        "ImportError: libopenblas.so: failed to map segment from shared object\n")


# prints, after the command, the numpy submodules loaded: none unless
# numpy's body ran
NUMPY_PROBE = (
    "import sys\n"
    "from ewire.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "sys.stdout.flush()\n"
    "print(sum(m.startswith('numpy.') for m in sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _numpy_probe(*argv):
    """Exit code, stdout and the count of numpy submodules loaded of one
    ``ewirec`` command (of a bare ``import ewire``, with no ``argv``) in a
    child process."""
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        cwd=ROOT, env=_cli_env(), capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, int(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv,code", [
    ([], 0),
    (["check", "programs/flip.ew"], 0),
    (["normalize", "programs/teleport.ew", "--entry", "teleport", "--trace"], 0),
    (["run", "programs/hs.ew"], 1),  # cpu mode stops at the fixed point
], ids=["import", "check", "normalize", "run_hs"])
def test_a_command_that_builds_no_map_runs_no_numpy(argv, code):
    returncode, _, submodules = _numpy_probe(*argv)
    assert (returncode, submodules) == (code, 0)


def test_a_command_that_builds_a_map_loads_numpy():
    returncode, out, submodules = _numpy_probe("run", "programs/flip.ew", "--json")
    assert (returncode, out) == (0, '{"outcomes": {"0": 0.5, "1": 0.5}, "diverge_mass": 0.0}\n')
    assert submodules > 0


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


@pytest.mark.parametrize("size", ["3", "4"])
def test_sparse_read_keeps_denote_stdout(capsys, monkeypatch, size):
    argv = ("denote", str(PROGRAMS / "qft.ew"), "--entry", "fourier",
            "--qlist-size", size, "--mode", "cpsu")
    outs = []
    for floor in (0, 1 << 62):
        monkeypatch.setattr(algebra, "_SPARSE_FLOOR", floor)
        outs.append(run_cli(capsys, *argv))
    assert outs[0][0] == 0 and outs[0] == outs[1]


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
                 ["equiv", path, entry, entry]):
        cpu = run_cli(capsys, *argv)
        cpsu = run_cli(capsys, *argv, "--mode", "cpsu", "--fuel", "50")
        assert cpu[0] in (0, 1, 2, 3) and cpsu[0] in (0, 1, 2, 3), argv
        if 3 in (cpu[0], cpsu[0]):
            assert cpu == cpsu, argv
    assert run_cli(capsys, "normalize", path, "--entry", entry)[0] in (0, 1, 2, 3)


def _denote_cases():
    """``denote`` arguments: every circuit entry of ``programs/*.ew`` in cpu
    mode, at ``--tol 0`` and in cpsu mode with fuel 50, and ``fourier`` at
    list sizes 1 to 3 in cpsu mode."""
    from ewire.parser import parse_program
    from ewire.syntax import CircT
    from ewire.typecheck import check_program

    for path in sorted(PROGRAMS.glob("*.ew")):
        if path.name == "qft.ew":
            continue
        checked = check_program(parse_program(path.read_text()))
        for name, ty in checked.def_types.items():
            if isinstance(ty, CircT):
                for extra in ([], ["--tol", "0"], ["--mode", "cpsu", "--fuel", "50"]):
                    yield [str(path), "--entry", name, *extra]
    for n in (1, 2, 3):
        yield [str(PROGRAMS / "qft.ew"), "--entry", "fourier", "--qlist-size", str(n),
               "--mode", "cpsu"]


DENOTE_CASES = list(_denote_cases())


@pytest.mark.parametrize("argv", DENOTE_CASES, ids=[
    "-".join([Path(a[0]).stem, *a[2:]]) for a in DENOTE_CASES
])
def test_denote_prints_what_the_direct_serialiser_prints(capsys, argv):
    # the map the command evaluates, written by json.dumps of its list of
    # [re, im] pairs, with CP and subunitality decided by eigvalsh
    from ewire.cli import _entry, _load, _mode_of, _value, build_parser
    from ewire.denote import EvalError, call_with_stack
    from ewire.syntax import CircT
    from tests.oracle import is_cp_by_eigvalsh, is_subunital_by_eigvalsh, json_by_pairs

    code, out, _ = run_cli(capsys, "denote", *argv)
    args = build_parser().parse_args(["denote", *argv])
    checked, entry = _load(args.file, args.qlist_size, args.entry)
    term, _ = _entry(checked, entry, CircT, "a circuit")
    try:
        value = call_with_stack(lambda: _value(checked, term, _mode_of(args)))
    except EvalError:
        # hs3 needs cpsu mode
        assert (code, out) == (1, "")
        return
    f = value.op
    report = {
        "is_cp": is_cp_by_eigvalsh(f, args.tol),
        "is_unital": algebra.is_unital(f, args.tol),
        "is_subunital": is_subunital_by_eigvalsh(f, args.tol),
    }
    signature = {"in": str(value.w_in), "out": str(value.w_out)}
    assert (code, out) == (0, json_by_pairs(f, signature=signature, report=report) + "\n")


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


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_partiality_error_names_the_init_that_left_the_range(capsys, tmp_path, json_flag):
    # a run-time range error prints the span of its term, as a type error does
    src = tmp_path / "partial.ew"
    src.write_text("classical int 2\n\ncirc two : int =\n  c <- init (1 + 1);\n  output c\n\n"
                   "def main : T(int) = run two\n")
    code, out, err = run_cli(capsys, "run", str(src), "--mode", "cpu",
                             *(["--json"] if json_flag else []))
    assert code == 1
    message = "value 2 out of range for int (cardinality 2)"
    if json_flag:
        assert json.loads(out) == {"kind": "PartialityError", "span": [4, 7], "message": message}
    else:
        assert err == f"error[PartialityError] at 4:7: {message}\n"


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_fixed_point_in_cpu_mode_names_its_declaration(capsys, json_flag):
    # the fixed point of hs.ew is the `def rec Hs` at 4:0; stdout stays
    # empty in plain mode
    code, out, err = run_cli(capsys, "run", str(PROGRAMS / "hs.ew"),
                             *(["--json"] if json_flag else []))
    assert code == 1
    message = "the fixed-point combinator requires cpsu mode"
    if json_flag:
        assert json.loads(out) == {"kind": "EvalError", "span": [4, 0], "message": message}
    else:
        assert (out, err) == ("", f"error[EvalError] at 4:0: {message}\n")


VALUES = """\
circ coin : bit =
  a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b

circ two : bit * bit =
  a <- gate init0 (); a' <- gate H a; x <- gate meas a';
  b <- gate init0 (); b' <- gate H b; y <- gate meas b';
  output (x, y)

circ tagged : I * bit =
  a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output ((), b)

circ none : I = output ()

def pair : T(bit * bit) = run two
def unit_pair : T(1 * bit) = run tagged
def unit : T(1) = run none
def host_pair : T(bit * int) = let x <= run coin in return (x, 3)
def nested : T((bit * 1) * (int * bit)) =
  let x <= run coin in return ((x, ()), (if x then 5 else 7, x))
def merged : T(int) =
  let x <= run coin in let y <= run coin in
  return (if x then 1 else (if y then 1 else 0))
def merged_unit : T(1) = let x <= run coin in return ()
"""

# entry: (outcomes with their printed weights, counts of 20 shots at seed 3)
VALUE_OUTCOMES = {
    "pair": ([("(0, 0)", "0.25"), ("(0, 1)", "0.25"), ("(1, 0)", "0.25"),
              ("(1, 1)", "0.25")],
             [("(0, 0)", 6), ("(0, 1)", 4), ("(1, 0)", 7), ("(1, 1)", 3)]),
    "unit_pair": ([("((), 0)", "0.5"), ("((), 1)", "0.5")],
                  [("((), 0)", 10), ("((), 1)", 10)]),
    "unit": ([("()", "1.0")], [("()", 20)]),
    "host_pair": ([("(0, 3)", "0.5"), ("(1, 3)", "0.5")],
                  [("(0, 3)", 10), ("(1, 3)", 10)]),
    "nested": ([("((0, ()), (7, 0))", "0.5"), ("((1, ()), (5, 1))", "0.5")],
               [("((0, ()), (7, 0))", 10), ("((1, ()), (5, 1))", 10)]),
    "merged": ([("0", "0.25"), ("1", "0.75")], [("0", 6), ("1", 14)]),
    "merged_unit": ([("()", "1.0")], [("()", 20)]),
}


@pytest.mark.parametrize("entry", sorted(VALUE_OUTCOMES))
def test_run_prints_unit_pair_nested_and_merged_outcomes(capsys, tmp_path, entry):
    src = tmp_path / "values.ew"
    src.write_text(VALUES)
    outcomes, counts = VALUE_OUTCOMES[entry]
    text = "".join(f"{k}\t{w}\n" for k, w in outcomes)
    shots_text = text + "counts:\n" + "".join(f"  {k}\t{n}\n" for k, n in counts)
    head = "{\"outcomes\": {" + ", ".join(f'"{k}": {w}' for k, w in outcomes) + "}"
    head += ", \"diverge_mass\": 0.0"
    shots_json = ", \"shots\": 20, \"seed\": 3, \"counts\": {" + ", ".join(
        f'"{k}": {n}' for k, n in counts) + "}"
    shots = ["--shots", "20", "--seed", "3"]
    for flags, want in (([], text), (["--json"], head + "}\n"),
                        (shots, shots_text), (shots + ["--json"], head + shots_json + "}\n")):
        argv = ["run", str(src), "--entry", entry, *flags]
        assert run_cli(capsys, *argv) == (0, want, ""), flags


# each command typechecks its program once; only normalize, whose rewrite
# rules read core syntax, asks for the expanded sugar
ONE_CHECK_CASES = [
    (["check", str(PROGRAMS / "hs.ew")], 0),
    (["run", str(PROGRAMS / "hs.ew"), "--mode", "cpsu"], 0),
    (["run", str(SUGAR)], 0),
    (["denote", str(SUGAR), "--entry", "lift_branch"], 0),
    (["denote", str(PROGRAMS / "qft.ew"), "--entry", "fourier", "--qlist-size", "3",
      "--mode", "cpsu"], 0),
    (["normalize", str(SUGAR), "--entry", "lift_pair", "--trace"], 1),
    (["equiv", str(SUGAR), "lift_qubit", "lift_qubit"], 0),
]


@pytest.mark.parametrize("argv,elaborations", ONE_CHECK_CASES,
                         ids=[" ".join(a[:1] + [Path(a[1]).name] + a[2:])
                              for a, _ in ONE_CHECK_CASES])
def test_every_command_checks_its_program_once(capsys, monkeypatch, argv, elaborations):
    # counted where the command looks them up, and where the typechecker does
    calls = []
    for owner, name in ((ewire.cli, "check_program"), (ewire.cli, "elaborate_sugar"),
                        (ewire.typecheck, "check_program")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls.count("check_program") == 1
    assert calls.count("elaborate_sugar") == elaborations


DIAGNOSTICS = ("error[", "usage error:", "resource limit:", "step limit")


def test_mutated_programs_exit_with_a_code_and_a_diagnostic(capsys, tmp_path):
    # 500 seeded single-token mutations, each token replaced by one of its
    # own lexical kind (or deleted), so that many parse and some evaluate
    path = tmp_path / "mutant.ew"
    codes = {}
    for text in token_mutants(PROGRAM_FILES + [SUGAR], 500, seed=0, same_kind=True):
        path.write_text(text)
        for argv in (["check", str(path)],
                     ["run", str(path), "--mode", "cpsu", "--fuel", "20"]):
            try:
                code, _, err = run_cli(capsys, *argv)
            except Exception as e:
                pytest.fail(f"{argv[0]} raised {e!r} on:\n{text}")
            assert code in (0, 1, 2, 3), (argv[0], code, text)
            if code:
                assert any(d in err for d in DIAGNOSTICS), (argv[0], err, text)
            codes[code] = codes.get(code, 0) + 1
    # the sweep reaches success, errors and usage errors
    assert codes.get(0, 0) > 100 and codes.get(1, 0) > 100 and codes.get(3, 0) > 10

