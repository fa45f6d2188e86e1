import contextlib
import dataclasses
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ewire import syntax
from ewire.cli import main
from ewire.parser import ParseError, parse_circuit, parse_host_term, parse_program
from ewire.qlist import monomorphize
from ewire.syntax import (
    BIT, QUBIT, CircuitTerm, ClassicalT, ClassicalW, Compose, Fix, Gate,
    GateRef, HostTerm, Init, NotClassicalError, Output, PairElim, PairP,
    ProductT, QLift, QRun, QuantumW, Ret, ShapeMismatch, Span, TensorW,
    UnitP, UnitT, UnitW, Var, WireP, alpha_equiv, children,
    classicalize, free_wires, is_classical, lift_type,
    map_children, pattern_wires, pretty_print, subst_pattern, unlift_type,
)
from ewire.typecheck import check_program

from tests.gen import random_circuit

FLIP = "a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b"
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


# -- type translations --------------------------------------------------------


def test_lift_type_unit():
    assert lift_type(UnitW()) == UnitT()


def test_lift_type_tensor():
    assert lift_type(TensorW(BIT, BIT)) == ProductT(
        ClassicalT("bit", 2), ClassicalT("bit", 2)
    )


def test_lift_type_rejects_quantum():
    with pytest.raises(NotClassicalError):
        lift_type(QUBIT)


def test_classicalize_qubit():
    assert classicalize(QUBIT) == BIT


def test_classicalize_unit():
    assert classicalize(UnitW()) == UnitW()


def test_classicalize_mixed_tensor():
    assert classicalize(TensorW(QUBIT, BIT)) == TensorW(BIT, BIT)


wire_types = st.recursive(
    st.sampled_from([UnitW(), BIT, QUBIT, ClassicalW("int", 8), QuantumW("qutrit", 3)]),
    lambda inner: st.builds(TensorW, inner, inner),
    max_leaves=6,
)


@given(wire_types)
def test_classicalize_idempotent(w):
    cw = classicalize(w)
    assert is_classical(cw)
    assert classicalize(cw) == cw


@given(wire_types)
def test_lift_of_classicalize_total(w):
    lift_type(classicalize(w))


@given(wire_types.filter(is_classical))
def test_unlift_inverts_lift(v):
    assert unlift_type(lift_type(v)) == v


# -- parsing and printing ------------------------------------------------------


def test_parse_smallest_circuit():
    c = parse_circuit("output w")
    assert c == Output(WireP("w"))


def test_parse_flip_shape():
    c = parse_circuit(FLIP)
    # four constructors: three gates and an output
    names = []
    while hasattr(c, "rest"):
        names.append(c.gate.name)
        c = c.rest
    assert names == ["init0", "H", "meas"]
    assert isinstance(c, Output)


def test_parse_box_pair_annotation():
    t = parse_host_term("box (a : qubit, b : qubit) => output (a, b)")
    assert t.w_in == TensorW(QUBIT, QUBIT)
    assert t.pat == PairP(WireP("a"), WireP("b"))


def test_parse_box_unit_pattern():
    t = parse_host_term("box () => output ()")
    assert t.pat == UnitP()
    assert t.w_in == UnitW()


# -- box annotations ------------------------------------------------------------

# an annotation is split onto its part's wires, and a wire given two
# types is rejected at the annotation, whether or not another part of
# the pattern is annotated
ANNOTATION_CONFLICTS = {
    "unannotated_sibling": "box (a, c : qubit) : qubit * bit => output (a, c)",
    "annotated_sibling": "box (a : qubit, c : qubit) : qubit * bit => output (a, c)",
    "nested": "box ((a, b), c : qubit) : (qubit * qubit) * bit => output c",
    "outer_pair": "box ((a, b) : qubit * qubit, c) : (qubit * bit) * bit => output c",
}


@pytest.mark.parametrize("case", list(ANNOTATION_CONFLICTS))
def test_conflicting_box_annotations_rejected(case):
    text = ANNOTATION_CONFLICTS[case]
    with pytest.raises(ParseError) as e:
        parse_host_term(text)
    assert e.value.message == "conflicting pattern annotations: qubit vs bit"
    assert (e.value.line, e.value.col) == (1, text.index("=>"))


# a whole-pattern annotation that does not split stands as written only
# when no part of the pattern is annotated (as in a qlist template);
# otherwise it is rejected where it ends
def test_unsplittable_whole_annotation_rejected_if_a_part_is_annotated():
    text = "box ((a, b : qubit * bit), c : I) : qubit * qubit => output ((a, b), c)"
    with pytest.raises(ParseError) as e:
        parse_host_term(text)
    assert e.value.message == "pair pattern does not match qubit"
    assert (e.value.line, e.value.col) == (1, text.index("=>"))


# the parser keeps such an annotation whole, and the printer writes it back
# whole: ``pattern : W``, with no inner annotation
@pytest.mark.parametrize("text", [
    "box ((a, b), t) : qubit * qubit => output a",
    "box (a, (b, c)) : qubit * bit => output (a, (b, c))",
])
def test_unsplittable_whole_annotation_prints_whole(text):
    box = parse_host_term(text)
    printed = pretty_print(box)
    assert printed.startswith(text[:text.index("=>")])
    assert alpha_equiv(parse_host_term(printed), box)


def _pattern_tree(wires, rng):
    """A random binder over ``wires`` (in order), with its type; a part
    with no wire is ``()``."""
    if not wires:
        return UnitP(), UnitW()
    if len(wires) == 1 and rng.random() < 0.8:
        return WireP(wires[0][0]), wires[0][1]
    k = rng.randint(0, len(wires))
    (l, lw), (r, rw) = _pattern_tree(wires[:k], rng), _pattern_tree(wires[k:], rng)
    return PairP(l, r), TensorW(lw, rw)


def _parts(p, path=()):
    yield path, p
    if isinstance(p, PairP):
        yield from _parts(p.left, path + (0,))
        yield from _parts(p.right, path + (1,))


def _annotated(p, w, annotated, changed=None, path=()):
    """Source of the binder ``p : w``, annotated at the parts whose paths
    are in ``annotated``, the part at ``changed`` with another type."""
    match p:
        case WireP(x):
            text = x
        case UnitP():
            text = "()"
        case PairP(l, r):
            text = (f"({_annotated(l, w.left, annotated, changed, path + (0,))}, "
                    f"{_annotated(r, w.right, annotated, changed, path + (1,))})")
    if path in annotated:
        text += f" : {pretty_print(_other_type(w) if path == changed else w)}"
    return text


def _other_type(w):
    """A wire type other than ``w``: its first leaf changed."""
    if isinstance(w, TensorW):
        return TensorW(_other_type(w.left), w.right)
    return {QUBIT: BIT, BIT: QUBIT, UnitW(): QUBIT}[w]


@pytest.mark.parametrize("seed", range(60))
def test_box_annotations_on_generated_contexts(seed):
    # a generated circuit's context boxed as a def, its binder annotated
    # on every wire, on pairs, on the whole pattern, or at random parts
    import random

    rng = random.Random(seed)
    omega, body = random_circuit(seed)
    p, w = _pattern_tree(list(omega), rng)
    parts = dict(_parts(p))
    placement = ["wire", "pair", "whole", "mixed"][seed % 4]
    annotated = {
        "wire": set(),
        "pair": {q for q, part in parts.items()
                 if isinstance(part, PairP) and rng.random() < 0.5},
        "whole": {()},
        "mixed": {q for q in parts if rng.random() < 0.4},
    }[placement]
    leaves = [q for q, part in parts.items() if isinstance(part, WireP)]
    annotated |= {q for q in leaves
                  if not any(q[:i] in annotated for i in range(len(q) + 1))}

    def source(changed=None):
        pat = _annotated(p, w, annotated, changed)
        return f"def f = box {pat} => ({pretty_print(body)})\n"

    box = parse_program(source()).decls[0].term
    assert (box.pat, box.w_in) == (p, w)
    assert alpha_equiv(parse_host_term(pretty_print(box)), box)
    # changing a part's annotation contradicts the other annotations of
    # its wires, if every wire of it has one
    for q in annotated:
        wires = [x for x in leaves if x[:len(q)] == q]
        if all(any(x[:i] in annotated - {q} for i in range(len(x) + 1))
               for x in wires):
            with pytest.raises(ParseError):
                parse_program(source(changed=q))


def test_unannotated_box_wire_rejected():
    with pytest.raises(ParseError) as e:
        parse_host_term("box (a : qubit, b) => output (a, b)")
    assert e.value.message == "box pattern needs a complete type annotation"


# -- header declarations ------------------------------------------------------

# each is rejected at the declaration that breaks the rule
HEADER_ERRORS = {
    "second_classical": ("classical color 3\nclassical color 2\n",
                         "duplicate declaration 'color'"),
    "second_int": ("classical int 6\nclassical int 6\n", "duplicate declaration 'int'"),
    "second_gate": ("gate g : qubit -> qubit\ngate g : qubit -> qubit\n",
                    "duplicate declaration 'g'"),
    "bit_cardinality": ("classical color 3\nclassical bit 3\n",
                        "bit is built in with cardinality 2"),
    "built_in_gate": ("gate g : qubit -> qubit\ngate meas : qubit -> qubit\n",
                      "gate 'meas' is built in"),
    "list_gate": ("gate g : qubit -> qubit\ngate cons : qubit -> qubit\n",
                  "gate 'cons' is built in"),
    "qlist_gate": ("gate g : qubit -> qubit\ngate h : qubit * qlist -> qlist\n",
                   "declared gate 'h' cannot act on qlist wires"),
    # a classical type named like a wire type would be quantum in circuits
    # and classical in host types
    "classical_qubit": ("classical color 3\nclassical qubit 3\n",
                        "'qubit' is a built-in wire type"),
    "classical_unit": ("classical color 3\nclassical I 2\n",
                       "'I' is a built-in wire type"),
    "classical_qlist": ("classical color 3\nclassical qlist 4\n",
                        "'qlist' is a built-in wire type"),
}


@pytest.mark.parametrize("case", list(HEADER_ERRORS))
def test_header_declaration_rejected_at_its_span(case):
    text, message = HEADER_ERRORS[case]
    with pytest.raises(ParseError) as e:
        parse_program(text + "circ c (q : qubit) : qubit = output q\n")
    assert (e.value.message, e.value.line, e.value.col) == (message, 2, 0)


def test_built_in_classical_bases_may_be_declared_once():
    prog = parse_program("classical int 6\nclassical bit 2\n"
                         "def n : int = 5\ndef b : bit = 1\n")
    assert check_program(prog).def_types["n"] == ClassicalT("int", 6)


def test_pretty_print_output():
    assert pretty_print(Output(WireP("w"))) == "output w"


def test_pretty_print_pattern():
    assert pretty_print(PairP(UnitP(), WireP("w"))) == "((), w)"


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_circuit("output ,")
    assert e.value.line == 1
    assert e.value.col > 0


# how the parser settles what a '(' opens: a binding statement iff a
# pattern parses there and '<-' or '<=' follows; after 'p <-', an
# eliminator's pattern iff one parses, else a circuit
_H_Q = Gate(WireP("x"), GateRef("H"), WireP("q"), Output(WireP("x")))
_CNOT = GateRef("CNOT")
PAREN_DECISIONS = {
    "pattern_statement": (
        "(a, b) <- gate CNOT (x, y); output (a, b)",
        Gate(PairP(WireP("a"), WireP("b")), _CNOT, PairP(WireP("x"), WireP("y")),
             Output(PairP(WireP("a"), WireP("b")))),
    ),
    "parenthesised_circuit": ("(x <- gate H q; output x)", _H_Q),
    "parenthesised_pattern_statement": (
        "((a, b)) <- gate CNOT (x, y); output (a, b)",
        Gate(PairP(WireP("a"), WireP("b")), _CNOT, PairP(WireP("x"), WireP("y")),
             Output(PairP(WireP("a"), WireP("b")))),
    ),
    "eliminator_pattern": (
        "(a, b) <- (x, y); output (b, a)",
        PairElim(PairP(WireP("a"), WireP("b")), PairP(WireP("x"), WireP("y")),
                 Output(PairP(WireP("b"), WireP("a")))),
    ),
    "circuit_right_hand_side": (
        "z <- (x <- gate H q; output x); output z",
        Compose(WireP("z"), _H_Q, Output(WireP("z"))),
    ),
}


@pytest.mark.parametrize("case", list(PAREN_DECISIONS))
def test_parser_settles_an_open_paren(case):
    text, expected = PAREN_DECISIONS[case]
    assert parse_circuit(text) == expected


def test_parenthesised_wire_is_no_eliminator_binder():
    with pytest.raises(ParseError) as e:
        parse_circuit("p <- (q); output p")
    assert (e.value.message, e.value.line, e.value.col) == (
        "left side of a pattern elimination must be () or a pair of wires", 1, 0,
    )


ROUNDTRIP_CIRCUITS = [
    "output w",
    "output ((), w)",
    FLIP,
    "x <- gate meas a; (x, y) <- gate (bit-control X) (x, b); () <- gate discard x; output y",
    "w <- (p2 <- gate H p1; output p2); output w",
    "x <= lift b; n <- init x; output n",
    "u <- unbox (box q : qubit => output q) v; output u",
    "(w1, w2) <- p; output (w2, w1)",
    "() <- u; output q",
    "q <- gate (control H) (c, t); output q",
    "r <- gate (R 3) q; output r",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CIRCUITS)
def test_circuit_roundtrip(text):
    c = parse_circuit(text)
    again = parse_circuit(pretty_print(c))
    assert alpha_equiv(c, again)


ROUNDTRIP_HOSTS = [
    "lambda x : int . x + 1",
    "let x <= run (b <- init (0 : bit); output b) in return x",
    "if n = 0 then box q : qubit => output q else box q : qubit => output q",
    "box (v : bit, w : qubit) => (x <= lift v; unbox (f x) w)",
    "(fst c) (snd c)",
    "Y[int, qubit, qubit] (lambda f : int -> Circ(qubit, qubit) . lambda n : int . f n)",
    "CR (m - n)",
    "(3 : int)",
    "return (1, ())",
    # parenthesised types: a product on a product's left, an arrow on
    # either side of a product and as an arrow's argument
    "lambda p : (int * int) * int . p",
    "lambda p : (int -> int) * int . p",
    "lambda p : int * (int -> int) . p",
    "lambda f : (int -> int) -> int . f",
    # an ascription of a term that is no literal stays an ascription
    "lambda x : int . (x : int)",
]


@pytest.mark.parametrize("text", ROUNDTRIP_HOSTS)
def test_host_roundtrip(text):
    t = parse_host_term(text)
    again = parse_host_term(pretty_print(t))
    assert alpha_equiv(t, again)


@pytest.mark.parametrize("left,right,equal", [
    ("lambda x : int . x + 1", "lambda y : int . y + 1", True),
    ("lambda x : int . x + 1", "lambda y : int . y - 1", False),
    ("lambda x : int . CR x", "lambda y : int . R y", False),
    ("(1 : bit)", "(1 : int)", False),
    ("if (0 : bit) then 1 else 2", "if (0 : bit) then 1 else 3", False),
    ("(fst (1, 2) : int)", "(fst (1, 2) : bit)", False),
])
def test_alpha_equiv_compares_data_fields(left, right, equal):
    assert alpha_equiv(parse_host_term(left), parse_host_term(right)) is equal


def test_program_roundtrip():
    src = """
classical trit 3
gate mygate : qubit -> trit

circ flip : bit =
  a <- gate init0 (); a' <- gate H a; b <- gate meas a'; output b

def main : T(bit) = run flip
"""
    p = parse_program(src)
    p2 = parse_program(pretty_print(p))
    assert len(p.decls) == len(p2.decls)
    for d, d2 in zip(p.decls, p2.decls):
        if hasattr(d, "term"):
            assert alpha_equiv(d.term, d2.term)


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.ew")), ids=lambda p: p.stem)
def test_every_program_roundtrips_through_the_printer(path):
    # a circ declaration prints as the boxed def it parses to
    p = parse_program(path.read_text())
    p2 = parse_program(pretty_print(p))
    assert [getattr(d, "name", None) for d in p.decls] == [
        getattr(d, "name", None) for d in p2.decls]
    for d, d2 in zip(p.decls, p2.decls):
        if hasattr(d, "term"):
            assert alpha_equiv(d.term, d2.term)
    if path.name == "qft.ew":
        p, p2 = (monomorphize(q, 2, None)[0] for q in (p, p2))
    assert check_program(p).def_types == check_program(p2).def_types


def test_qlift_declarations_roundtrip_through_the_printer():
    sugar = Path(__file__).resolve().parent / "sugar.ew"
    decls = [d for d in parse_program(sugar.read_text()).decls
             if any(isinstance(n, QLift) for n in _nodes(d.term))]
    assert [d.name for d in decls] == ["lift_qubit", "lift_pair", "lift_unit", "lift_branch"]
    for d in decls:
        (d2,) = parse_program(pretty_print(d)).decls
        assert d2.name == d.name and alpha_equiv(d.term, d2.term)


def _nodes(t):
    yield t
    for c in children(t):
        yield from _nodes(c)


def test_comments_and_directives():
    p = parse_program("classical digit 10 -- a decimal base\n")
    assert p.classical_bases()["digit"] == 10


# -- substitution ---------------------------------------------------------------


def test_subst_single_wire():
    c = parse_circuit("output w")
    assert subst_pattern(c, WireP("w"), WireP("v")) == parse_circuit("output v")


def test_subst_componentwise():
    c = parse_circuit("q <- gate H w1; output (q, w2)")
    out = subst_pattern(
        c, PairP(WireP("w1"), WireP("w2")), PairP(WireP("p1"), WireP("p2"))
    )
    assert alpha_equiv(out, parse_circuit("q <- gate H p1; output (q, p2)"))


def test_subst_shape_mismatch():
    c = parse_circuit("output (w1, w2)")
    with pytest.raises(ShapeMismatch):
        subst_pattern(c, PairP(WireP("w1"), WireP("w2")), WireP("v"))


def test_subst_splices_composite_for_wire():
    c = parse_circuit("(a, b) <- w; output (b, a)")
    out = subst_pattern(c, WireP("w"), PairP(WireP("x"), WireP("y")))
    assert alpha_equiv(out, parse_circuit("(a, b) <- (x, y); output (b, a)"))


def test_subst_avoids_binder_capture():
    # substituting v for w must not let the inner binder v capture it
    c = parse_circuit("v <- gate H w; output (v, u)")
    out = subst_pattern(c, WireP("u"), WireP("v"))
    assert "v" in free_wires(out)
    binder = out.out_pat
    assert binder != WireP("v")
    assert alpha_equiv(out, parse_circuit("z <- gate H w; output (z, v)"))


def test_subst_under_lift_keeps_host_binder():
    c = parse_circuit("x <= lift b; n <- init x; output (n, w)")
    out = subst_pattern(c, WireP("w"), WireP("v"))
    assert alpha_equiv(
        out, parse_circuit("x <= lift b; n <- init x; output (n, v)")
    )


def test_freshen_var_renames_a_clashing_host_binder():
    scope = parse_circuit("a <- init x; b <- init x_1; output (a, b)")
    assert syntax.freshen_var("x", scope, {"y"}) == ("x", scope)
    # the fresh name avoids avoid and the scope's free host variables
    name, out = syntax.freshen_var("x", scope, {"x"})
    assert name == "x_2"
    assert alpha_equiv(out, parse_circuit("a <- init x_2; b <- init x_1; output (a, b)"))
    # subst_host renames a binder that would capture the substituted term
    c = parse_circuit("y <= lift b; n <- init x; output n")
    out = syntax.subst_host(c, "x", Var("y"))
    assert out.var != "y" and syntax.free_host_vars(out) == {"y"}
    assert alpha_equiv(out, parse_circuit("z <= lift b; n <- init y; output n"))


def test_free_wires():
    c = parse_circuit("q <- gate H q; output (q, r)")
    assert free_wires(c) == {"q", "r"}


def test_pattern_wires_order():
    p = PairP(PairP(WireP("a"), UnitP()), WireP("b"))
    assert pattern_wires(p) == ["a", "b"]


# -- properties over generated terms ------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_roundtrip_on_generated_circuits(seed):
    from tests.gen import random_circuit

    _, term = random_circuit(seed + 4000)
    again = parse_circuit(pretty_print(term))
    assert alpha_equiv(term, again)


@pytest.mark.parametrize("seed", range(15))
def test_subst_preserves_typing(seed):
    from tests.gen import random_circuit
    from ewire.typecheck import check_circuit

    omega, term = random_circuit(seed + 6000)
    if not omega:
        pytest.skip("closed circuit")
    w = check_circuit({}, omega, term)
    old = omega[0][0]
    renamed_ctx = ((old + "_renamed", omega[0][1]),) + tuple(omega[1:])
    renamed = subst_pattern(term, WireP(old), WireP(old + "_renamed"))
    assert check_circuit({}, renamed_ctx, renamed) == w


@given(st.text(max_size=60))
def test_parser_never_crashes_on_junk(text):
    try:
        parse_program(text)
    except ParseError:
        pass


@given(st.text(alphabet="abqw<->=();:,*. 0123456789", max_size=40))
def test_circuit_parser_never_crashes_on_near_miss(text):
    try:
        parse_circuit(text)
    except ParseError:
        pass


PROGRAM_TEXTS = [p.read_text() for p in sorted(PROGRAMS.glob("*.ew"))]

EW_TOKENS = [
    "def", "circ", "gate", "classical", "main", "f", "x", "q", ":", "=", "T(bit)",
    "bit", "int", "qubit", "I", "Circ(qubit, qubit)", "Circ(I, bit)", "run", "qrun",
    "box", "=>", "output", "<-", "<=", ";", "(", ")", ",", "lambda", ".", "let",
    "in", "return", "lift", "qlift", "init", "unbox", "Y[int, qubit, qubit]", "if",
    "then", "else", "0", "1", "-1", "+", "-", "fst", "snd", "H", "meas", "init0",
    "discard", "CNOT", "*", "->", "()", "(0 : bit)", "CR", "qlist", "isempty", "\n",
]


def _splice(args):
    text, at, length, insert = args
    at %= len(text) + 1
    return text[:at] + insert + text[at + length:]


junk_sources = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(EW_TOKENS), max_size=40).map(" ".join),
    st.tuples(
        st.sampled_from(PROGRAM_TEXTS), st.integers(0, 2000), st.integers(0, 30),
        st.sampled_from(["", *EW_TOKENS]),
    ).map(_splice),
)


@settings(max_examples=120, deadline=None)
@given(
    text=junk_sources,
    argv=st.sampled_from([
        ["check"], ["check", "--json"], ["run"], ["run", "--mode", "cpsu", "--fuel", "30"],
        ["normalize"], ["normalize", "--entry", "teleport", "--trace"],
    ]),
)
def test_cli_never_raises_on_junk(tmp_path_factory, text, argv):
    src = tmp_path_factory.getbasetemp() / "junk.ew"
    src.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(src), *argv[1:]])
    assert code in (0, 1, 2, 3)


# -- generic traversal ------------------------------------------------------------

# the fields of every term constructor that hold host or circuit subterms
TERM_FIELDS = {
    syntax.Var: (),
    syntax.Lam: ("body",),
    syntax.App: ("fn", "arg"),
    syntax.UnitVal: (),
    syntax.Pair: ("left", "right"),
    syntax.Proj: ("arg",),
    syntax.Ret: ("arg",),
    syntax.Bind: ("arg", "body"),
    syntax.Box: ("body",),
    syntax.Run: ("circuit",),
    syntax.IntLit: (),
    syntax.ClassicalLit: (),
    syntax.If: ("cond", "then", "orelse"),
    syntax.Prim: ("left", "right"),
    syntax.Fix: (),
    syntax.GateFam: ("index",),
    syntax.Ascribe: ("term",),
    syntax.QRun: ("circuit",),
    syntax.Output: (),
    syntax.Compose: ("first", "rest"),
    syntax.UnitElim: ("rest",),
    syntax.PairElim: ("rest",),
    syntax.Gate: ("rest",),
    syntax.Unbox: ("term",),
    syntax.Lift: ("rest",),
    syntax.Init: ("term",),
    syntax.QLift: ("rest",),
}

# a value for every other field, by its annotation
FILLERS = {
    "str": "x",
    "int": 1,
    "Pattern": WireP("w"),
    "HostType": UnitT(),
    "WireType": BIT,
    "GateRef": GateRef("H"),
    "Optional[Span]": Span(3, 7),
}

FIX = Fix(UnitT(), BIT, BIT)


def _leaf(name, kind):
    return Var(f"h_{name}") if kind == "HostTerm" else Output(WireP(f"c_{name}"))


def _instance(cls, fill=_leaf):
    """An instance of ``cls`` whose term fields hold ``fill(name, kind)``."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in TERM_FIELDS[cls]:
            kwargs[f.name] = fill(f.name, f.type)
        else:
            kwargs[f.name] = FILLERS[f.type]
    return cls(**kwargs)


def test_term_field_table_covers_every_constructor():
    concrete = {
        c for c in vars(syntax).values()
        if isinstance(c, type) and issubclass(c, (HostTerm, CircuitTerm))
        and c not in (HostTerm, CircuitTerm)
    }
    assert set(TERM_FIELDS) == concrete
    assert len(concrete) == 27


@pytest.mark.parametrize("cls", list(TERM_FIELDS), ids=lambda c: c.__name__)
def test_children_lists_exactly_the_term_fields(cls):
    n = _instance(cls)
    assert children(n) == tuple(_leaf(f.name, f.type) for f in dataclasses.fields(cls)
                                if f.name in TERM_FIELDS[cls])
    others = [getattr(n, f.name) for f in dataclasses.fields(cls)
              if f.name not in TERM_FIELDS[cls]]
    assert not any(isinstance(v, (HostTerm, CircuitTerm)) for v in others)


@pytest.mark.parametrize("cls", list(TERM_FIELDS), ids=lambda c: c.__name__)
def test_map_children_rebuilds_and_keeps_loc(cls):
    n = _instance(cls)
    same = map_children(n, lambda c: c)
    assert same == n and same.loc == n.loc == Span(3, 7)
    if not TERM_FIELDS[cls]:
        assert same is n
    wrapped = map_children(n, lambda c: Ret(c) if isinstance(c, HostTerm) else Init(Var("y")))
    assert wrapped.loc == n.loc
    for f in dataclasses.fields(cls):
        old, new = getattr(n, f.name), getattr(wrapped, f.name)
        if f.name not in TERM_FIELDS[cls]:
            assert new == old
        elif f.type == "HostTerm":
            assert new == Ret(old)
        else:
            assert new == Init(Var("y"))


def _plant(target, field=None):
    """A fill that puts ``target`` (a host term) into term field
    ``field``, or into every term field."""
    def fill(name, kind):
        if field not in (None, name):
            return _leaf(name, kind)
        return target if kind == "HostTerm" else Init(target)
    return fill


def _occurs(node, kinds) -> bool:
    """Whether a node of class ``kinds`` occurs in ``node``, found by
    the generic walk."""
    return isinstance(node, kinds) or any(_occurs(c, kinds) for c in children(node))


@pytest.mark.parametrize(
    "cls", [c for c, names in TERM_FIELDS.items() if names], ids=lambda c: c.__name__
)
def test_contains_finds_a_node_under_every_constructor(cls):
    # children, applied recursively, reaches a node planted at any depth
    sugar = (QRun, QLift)
    assert not _occurs(_instance(cls), Fix)
    assert _occurs(_instance(cls), sugar) == issubclass(cls, sugar)
    assert _occurs(_instance(cls, _plant(FIX)), Fix)
    assert _occurs(_instance(cls, _plant(QRun(Output(UnitP())))), sugar)
    # one planted field at a time, so no field is skipped
    for name in TERM_FIELDS[cls]:
        assert _occurs(_instance(cls, _plant(FIX, name)), Fix)
