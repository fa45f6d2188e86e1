from pathlib import Path

import numpy as np
import pytest

from ewire.algebra import frobenius_distance, gate_denotation, op_identity
from ewire.denote import Mode, denote_wire, evaluate_program
from ewire.parser import parse_program
from ewire.qlist import (
    QListError, list_size, monomorphize, qlist_type, subst_qlist,
)
from ewire.syntax import ArrowT, CircT, GateRef, QUBIT, QListW, TensorW, UnitW
from ewire.typecheck import check_program

QFT_SRC = (Path(__file__).resolve().parent.parent / "programs" / "qft.ew").read_text()


def test_qlist_type_shapes():
    assert qlist_type(0) == UnitW()
    assert qlist_type(2) == TensorW(QUBIT, TensorW(QUBIT, UnitW()))


def test_list_size_roundtrip():
    for k in range(5):
        assert list_size(qlist_type(k)) == k


def test_list_size_rejects_non_list():
    with pytest.raises(QListError):
        list_size(QUBIT)


def test_subst_qlist():
    w = TensorW(QUBIT, QListW())
    assert subst_qlist(w, 1) == TensorW(QUBIT, TensorW(QUBIT, UnitW()))


def test_monomorphize_generates_sized_decls():
    prog = parse_program(QFT_SRC)
    mono, entry = monomorphize(prog, 2, "fourier")
    assert entry == "fourier__2"
    names = [d.name for d in mono.decls if hasattr(d, "name")]
    assert "fourier__0" in names and "fourier__1" in names
    assert "length__0" in names and "rotations__1" in names
    # dependency order: every reference points backwards
    seen = set()
    for d in mono.decls:
        if hasattr(d, "name"):
            seen.add(d.name)
    assert set(names) == seen


def _sized(ann, k):
    if isinstance(ann, ArrowT):
        return ArrowT(ann.arg, _sized(ann.result, k))
    return CircT(subst_qlist(ann.w_in, k), subst_qlist(ann.w_out, k))


QFT_INSTANCES = [
    (k, e) for k in range(7) for e in ["fourier", "length", "rotations", None]
]


@pytest.mark.parametrize(
    "size,entry", QFT_INSTANCES, ids=[f"{e}-{k}" for k, e in QFT_INSTANCES]
)
def test_monomorphized_program_typechecks(size, entry):
    # every instance f__k checks at its template's type with qlist := k
    prog = parse_program(QFT_SRC)
    mono, new_entry = monomorphize(prog, size, entry)
    cp = check_program(mono)
    instances = [d.name for d in mono.decls if "__" in getattr(d, "name", "")]
    if entry is not None:
        assert new_entry == f"{entry}__{size}"
    assert instances
    for name in instances:
        template, k = name.rsplit("__", 1)
        assert cp.def_types[name] == _sized(prog.find(template).ann, int(k))


def test_unsized_qlist_program_rejected():
    from ewire.typecheck import TypeCheckError

    prog = parse_program(QFT_SRC)
    with pytest.raises(TypeCheckError):
        check_program(prog)


def test_fourier_size_one_is_hadamard():
    prog = parse_program(QFT_SRC)
    mono, entry = monomorphize(prog, 1, "fourier")
    cp = check_program(mono)
    _, _, env = evaluate_program(cp, mode=Mode.cpsu())
    h = gate_denotation(GateRef("H"))
    assert frobenius_distance(env[entry].op, h) < 1e-12


def test_headtail_becomes_repattern():
    src = """
def swaphead : Circ(qlist, qlist) =
  box qs : qlist =>
    ( (h, t) <- gate headtail qs;
      h2 <- gate X h;
      qs2 <- gate cons (h2, t);
      output qs2 )
"""
    prog = parse_program(src)
    mono, entry = monomorphize(prog, 2, "swaphead")
    cp = check_program(mono)
    _, _, env = evaluate_program(cp)
    from ewire.algebra import op_tensor, op_identity, gate_denotation
    from ewire.denote import denote_wire

    expected = op_tensor(
        gate_denotation(GateRef("X")), op_identity(denote_wire(qlist_type(1)))
    )
    assert frobenius_distance(env[entry].op, expected) < 1e-12


def test_template_uses_a_later_plain_declaration():
    # the instance of f must come after g, which it unboxes
    src = """
def g : Circ(qubit, qubit) = box q : qubit => (q2 <- gate H q; output q2)

def f : Circ(qlist, qlist) =
  box qs : qlist =>
    ( (b, qs) <- gate isempty qs;
      b <= lift b;
      unbox (if b
             then box qs2 : qlist => output qs2
             else box qs2 : qlist =>
               ( (h, t) <- gate headtail qs2;
                 h2 <- unbox g h;
                 qs3 <- gate cons (h2, t);
                 output qs3 ))
            qs )
"""
    mono, _ = monomorphize(parse_program(src), 1, None)
    assert [d.name for d in mono.decls] == ["g", "f__1"]
    cp = check_program(mono)
    _, _, env = evaluate_program(cp)
    assert np.array_equal(env["f__1"].op.matrix, env["g"].op.matrix)


def test_nil_gate():
    src = """
def close : Circ(qlist, qlist) =
  box qs : qlist =>
    ( (b, qs) <- gate isempty qs;
      b <= lift b;
      unbox (if b then box q2 : qlist => output q2
             else box q2 : qlist => output q2) qs )
"""
    prog = parse_program(src)
    mono, entry = monomorphize(prog, 0, "close")
    cp = check_program(mono)
    _, _, env = evaluate_program(cp)
    assert env[entry].op.matrix.shape == (1, 1)


def test_template_with_a_unit_elimination():
    src = """
def f : Circ(I * qlist, qlist) =
  box (u, qs) : I * qlist => (() <- u; output qs)
"""
    mono, entry = monomorphize(parse_program(src), 2, "f")
    _, _, env = evaluate_program(check_program(mono))
    expected = op_identity(denote_wire(qlist_type(2)))
    assert np.array_equal(env[entry].op.matrix, expected.matrix)


# a qlift in a template measures the head, as the same step does in g
QLIFT_IN_A_TEMPLATE = """
def f : Circ(qlist, qlist) =
  box qs : qlist =>
    ( (b, qs) <- gate isempty qs;
      b <= lift b;
      unbox (if b
             then box qs2 : qlist => output qs2
             else box qs2 : qlist =>
               ( (h, t) <- gate headtail qs2;
                 x <= qlift h;
                 c <- init x;
                 n <- gate new c;
                 qs3 <- gate cons (n, t);
                 output qs3 ))
            qs )
circ g (h : qubit, t : I) = (x <= qlift h; c <- init x; n <- gate new c; output (n, t))
"""


def test_qlift_in_a_template():
    prog = parse_program(QLIFT_IN_A_TEMPLATE)
    mono, entry = monomorphize(prog, 2, "f")
    assert str(check_program(mono).def_types[entry]) == (
        "Circ(qubit * qubit * I, qubit * qubit * I)")
    mono, entry = monomorphize(prog, 1, "f")
    _, _, env = evaluate_program(check_program(mono))
    assert frobenius_distance(env[entry].op, env["g"].op) < 1e-12


# a template whose list size only its output fixes
SIZED_BY_OUTPUT = """
def mk : Circ(qubit, qlist) =
  box q : qubit => ( n <- gate nil (); qs <- gate cons (q, n); output qs )
def user : Circ(qubit, qlist) = box q : qubit => ( r <- unbox mk q; output r )
"""

LIFTS_A_QUBIT = """
def bad : Circ(qlist, qlist) =
  box qs : qlist => ((h, t) <- gate headtail qs; x <= lift h; output t)
"""

ILL_FORMED_TEMPLATES = {
    "headtail_on_empty_list": ("""
def bad : Circ(qlist, qubit * qlist) =
  box qs : qlist => ((h, t) <- gate headtail qs; output (h, t))
""", 0),
    "isempty_without_idiom": ("""
def bad : Circ(qlist, bit * qlist) =
  box qs : qlist => ((b, qs2) <- gate isempty qs; output (b, qs2))
""", 1),
    "sized_by_output": (SIZED_BY_OUTPUT, 1),
    "lift_of_a_qubit": (LIFTS_A_QUBIT, 1),
    "pair_pattern_on_a_qubit": ("""
def bad : Circ(qubit * qlist, qubit) =
  box ((a, b), t) : qubit * qlist => output a
""", 1),
    "cons_of_a_non_list": ("""
def bad : Circ(qlist, qlist) =
  box qs : qlist => ((h, t) <- gate headtail qs; qs2 <- gate cons (h, h); output qs2)
""", 1),
    "nil_binding_a_pair": ("""
def bad : Circ(qlist, qlist) = box qs : qlist => ((a, b) <- gate nil (); output qs)
""", 1),
    # without an output type, a use at the template's own size has none yet
    "unannotated_self_use": ("""
circ bad (qs : qlist) = (r <- unbox bad qs; output r)
""", 1),
    "unbound_family": ("""
def bad : Circ(qlist, qlist) =
  box qs : qlist =>
    ( (h, t) <- gate headtail qs;
      h2 <- unbox (nosuch 2) h;
      qs2 <- gate cons (h2, t);
      output qs2 )
""", 1),
}


@pytest.mark.parametrize("case", list(ILL_FORMED_TEMPLATES))
def test_ill_formed_template_raises_qlist_error(case):
    src, size = ILL_FORMED_TEMPLATES[case]
    with pytest.raises(QListError):
        monomorphize(parse_program(src), size, None)


def test_unannotated_family_template_takes_its_output_type_from_its_body():
    src = """
def keep = lambda n : int . box qs : qlist => output qs
circ user (q : qubit, qs : qlist) = (r <- unbox (keep 3) qs; output (q, r))
"""
    mono, entry = monomorphize(parse_program(src), 1, "user")
    types = check_program(mono).def_types
    assert str(types["keep__1"]) == "int -> Circ(qubit * I, qubit * I)"
    assert str(types[entry]) == "Circ(qubit * qubit * I, qubit * qubit * I)"


def test_non_template_entry_passthrough():
    src = "def main : T(bit) = return 1\n"
    prog = parse_program(src)
    mono, entry = monomorphize(prog, 3, "main")
    assert entry == "main"
    assert mono is prog


# a template that rebinds a live wire, or reuses a consumed one, is
# reported as the typechecker reports it, at the step
LINEARITY_IN_TEMPLATES = {
    "rebinds_a_live_wire": ("""
def f : Circ(qlist, qubit) =
  box qs : qlist => ((h, t) <- gate headtail qs; t <- gate H h; output t)
""", "wire 't' rebound while still live", (3, 49)),
    "reuses_a_consumed_wire": ("""
def f : Circ(qlist, qubit * qlist) =
  box qs : qlist => ((h, t) <- gate headtail qs; h2 <- gate H h; h3 <- gate H h;
                     output (h3, t))
""", "wire 'h' already consumed", (3, 65)),
}


@pytest.mark.parametrize("case", list(LINEARITY_IN_TEMPLATES))
def test_linearity_in_a_template_is_reported_at_the_step(case):
    src, message, (line, col) = LINEARITY_IN_TEMPLATES[case]
    with pytest.raises(QListError) as e:
        monomorphize(parse_program(src), 2, None)
    assert str(e.value) == message
    assert (e.value.loc.line, e.value.loc.col) == (line, col)
