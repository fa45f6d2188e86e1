"""Concrete grammar and parser for ``.ew`` source files.

The surface syntax is line-oriented inside circuits (statements joined
by ``;``) with an ML-flavoured host language.  Comments run from ``--``
to end of line.  Header directives::

    classical <name> <cardinality>
    gate <name> : <W> -> <W>

Each declares its name once.  ``bit`` keeps cardinality 2, and a gate
may neither take a built-in gate's name nor act on ``qlist`` wires.

Declarations::

    def <name> [: <A>] = <host term>
    def rec <name> : <A> -> Circ(<W1>, <W2>) = <host term>
    circ <name> [(<w1> : <W1>, ..., <wn> : <Wn>)] [: <W>] = <circuit>

A ``circ`` declaration is sugar for a boxed ``def``: it parses to
``def <name> [: Circ(W1 * (... * Wn), W)] = box (w1, (..., wn)) : W1 *
(... * Wn) => <circuit>``, with ``I`` and ``()`` for an empty context.
``run f`` and ``qrun f`` of a name ``f`` stand for ``run (unbox f ())``.

Any part of a box's binder may be annotated ``: W``; ``bind_pattern``
splits W onto the part's wires, and a wire given two types is an error.

The pattern grammar (``Parser.pattern``) also settles what a ``(``
opens, by trying it and rewinding: in circuit position, a binding
statement if a pattern parses there and ``<-`` or ``<=`` follows it,
else a parenthesised circuit; after ``p <-``, the pattern of a ``()``
or ``(w1, w2)`` eliminator if one parses there, else a circuit.

Wire and host variables live in separate namespaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import BUILTIN_GATES
from .qlist import LIST_GATES
from .syntax import (
    App, Ascribe, ArrowT, Bind, Box, CircT, ClassicalDecl,
    ClassicalLit, ClassicalT, ClassicalW, Compose, DefDecl,
    DEFAULT_BASES, Fix, Gate, GateDecl, GateFam, GateRef,
    HostTerm, HostType, If, Init, IntLit, Lam, Lift, MonadT, Output, Pair,
    PairElim, PairP, Pattern, Prim, Program, Proj, ProductT, QListW, QUBIT,
    QLift, QRun, Ret, Run, Span, TensorW, UnitElim, UnitP, UnitT,
    UnitVal, UnitW, Unbox, Var, WireP, WireType, mentions_qlist,
    pattern_linear, pattern_wires,
)
from .typecheck import TypeCheckError, bind_pattern, pattern_type


class ParseError(Exception):
    def __init__(self, message, line=0, col=0, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)


KEYWORDS = {
    "output", "gate", "unbox", "box", "lift", "qlift", "init", "run",
    "qrun", "lambda", "let", "in", "return", "if", "then", "else", "fst",
    "snd", "def", "circ", "rec", "classical", "Y", "Circ", "T",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>--[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>=>|<-|<=|->|[()\[\],;:.*+\-=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'ident' | keyword | punct string | 'eof'
    text: str
    line: int
    col: int

    @property
    def span(self):
        return Span(self.line, self.col)


def tokenize(text: str) -> list[Token]:
    toks = []
    line, col, i = 1, 0, 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "comment"):
            nl = value.count("\n")
            if nl:
                line += nl
                col = len(value) - value.rfind("\n") - 1
            else:
                col += len(value)
        else:
            if kind == "ident" and value in KEYWORDS:
                toks.append(Token(value, value, line, col))
            elif kind == "punct":
                toks.append(Token(value, value, line, col))
            else:
                toks.append(Token(kind, value, line, col))
            col += len(value)
        i = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, tokens: list[Token], bases: dict[str, int]):
        self.toks = tokens
        self.pos = 0
        self.bases = dict(bases)

    # -- token plumbing ---------------------------------------------------

    def peek(self, k=0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    def accept(self, kind):
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text!r}", t.line, t.col, [kind]
            )
        return self.next()

    def fail(self, message, expected=()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    # -- wire types -------------------------------------------------------

    def wire_type(self) -> WireType:
        left = self.wire_atom()
        if self.accept("*"):
            return TensorW(left, self.wire_type())
        return left

    def wire_atom(self) -> WireType:
        t = self.peek()
        if t.kind == "(":
            self.next()
            w = self.wire_type()
            self.expect(")")
            return w
        if t.kind == "ident":
            self.next()
            if t.text == "I":
                return UnitW()
            if t.text == "qubit":
                return QUBIT
            if t.text == "qlist":
                return QListW()
            if t.text in self.bases:
                return ClassicalW(t.text, self.bases[t.text])
            raise ParseError(
                f"unknown wire type {t.text!r} (declare it with 'classical')",
                t.line, t.col,
            )
        self.fail("expected a wire type", ["I", "qubit", "bit", "("])

    # -- host types --------------------------------------------------------

    def host_type(self) -> HostType:
        left = self.host_product()
        if self.accept("->"):
            return ArrowT(left, self.host_type())
        return left

    def host_product(self) -> HostType:
        left = self.host_type_atom()
        if self.accept("*"):
            return ProductT(left, self.host_product())
        return left

    def host_type_atom(self) -> HostType:
        t = self.peek()
        if t.kind == "int" and t.text == "1":
            self.next()
            return UnitT()
        if t.kind == "T":
            self.next()
            self.expect("(")
            a = self.host_type()
            self.expect(")")
            return MonadT(a)
        if t.kind == "Circ":
            self.next()
            self.expect("(")
            w1 = self.wire_type()
            self.expect(",")
            w2 = self.wire_type()
            self.expect(")")
            return CircT(w1, w2)
        if t.kind == "(":
            self.next()
            a = self.host_type()
            self.expect(")")
            return a
        if t.kind == "ident":
            self.next()
            if t.text in self.bases:
                return ClassicalT(t.text, self.bases[t.text])
            raise ParseError(f"unknown host type {t.text!r}", t.line, t.col)
        self.fail("expected a host type", ["1", "T", "Circ", "("])

    # -- patterns -----------------------------------------------------------

    def pattern(self, types=None) -> Pattern:
        """The pattern grammar; parts are annotated into ``types`` if given."""
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return WireP(t.text)
        if t.kind != "(":
            self.fail("expected a pattern", ["(", "identifier"])
        self.next()
        if self.accept(")"):
            return UnitP()
        p = self.pattern(types)
        self._annotation(types, p)
        if self.accept(","):
            q = self.pattern(types)
            self._annotation(types, q)
            p = PairP(p, q)
        self.expect(")")
        return p

    def annotated_pattern(self):
        """A box's binder pattern and type: the whole pattern's annotation,
        or else the type that its wires' annotations assemble."""
        types = {}
        p = self.pattern(types)
        w = self._annotation(types, p, whole=True)
        if w is None and not all(x in types for x in pattern_wires(p)):
            self.fail("box pattern needs a complete type annotation")
        return p, pattern_type(types, p) if w is None else w

    def _annotation(self, types, p, whole=False):
        """An optional ': W' after the part ``p``, split onto its wires and
        returned.  A W that does not split fails, unless it is the ``whole``
        pattern's and a wire has no other annotation: W is the box's type."""
        if types is None or not self.accept(":"):
            return None
        w = self.wire_type()
        try:
            bound = bind_pattern(p, w)
        except TypeCheckError as e:
            if whole and not all(x in types for x in pattern_wires(p)):
                return w
            self.fail(e.message)
        for x, ty in bound:
            if types.setdefault(x, ty) != ty:
                self.fail(f"conflicting pattern annotations: {types[x]} vs {ty}")
        return w

    # -- circuits ------------------------------------------------------------

    def circuit(self):
        t = self.peek()
        if t.kind == "output":
            self.next()
            return Output(self.pattern(), loc=t.span)
        if t.kind == "unbox":
            self.next()
            term = self.host_atom()
            return Unbox(term, self.pattern(), loc=t.span)
        if t.kind == "init":
            self.next()
            return Init(self.host_atom(), loc=t.span)
        if t.kind == "(" and self._after_pattern() not in ("<-", "<="):
            self.next()
            c = self.circuit()
            self.expect(")")
            return c
        # otherwise: a binding statement
        return self.statement()

    def _after_pattern(self):
        """Lookahead: the kind of the token that follows a pattern parsed
        here, or None if no pattern parses; the position is kept."""
        start = self.pos
        try:
            self.pattern()
            return self.peek().kind
        except ParseError:
            return None
        finally:
            self.pos = start

    def statement(self):
        t = self.peek()
        pat = self.pattern()
        if self.accept("<="):
            kw = self.peek()
            if kw.kind not in ("lift", "qlift"):
                self.fail("expected 'lift' or 'qlift' after '<='")
            self.next()
            if not isinstance(pat, WireP):
                raise ParseError(
                    "lift binds a single host variable", t.line, t.col
                )
            src = self.pattern()
            self.expect(";")
            rest = self.circuit()
            cls = Lift if kw.kind == "lift" else QLift
            return cls(pat.name, src, rest, loc=t.span)
        self.expect("<-")
        if self.accept("gate"):
            g = self.gate_spec()
            in_pat = self.pattern()
            self.expect(";")
            rest = self.circuit()
            self._check_pattern(pat, t)
            return Gate(pat, g, in_pat, rest, loc=t.span)
        if self._after_pattern() is not None:
            # eliminator form: () <- p  |  (w1, w2) <- p
            src = self.pattern()
            self.expect(";")
            rest = self.circuit()
            match pat:
                case UnitP():
                    return UnitElim(src, rest, loc=t.span)
                case PairP(WireP(w1), WireP(w2)):
                    return PairElim(w1, w2, src, rest, loc=t.span)
            raise ParseError(
                "left side of a pattern elimination must be () or a pair of wires",
                t.line, t.col,
            )
        if self.peek().kind not in ("output", "unbox", "init", "("):
            self.fail("expected a circuit or pattern after '<-'")
        first = self.circuit()
        self.expect(";")
        rest = self.circuit()
        self._check_pattern(pat, t)
        return Compose(pat, first, rest, loc=t.span)

    def _check_pattern(self, pat, tok):
        if not pattern_linear(pat):
            raise ParseError(
                f"duplicate wire name in pattern {pat}", tok.line, tok.col
            )

    def gate_spec(self) -> GateRef:
        t = self.peek()
        if t.kind == "(":
            self.next()
            g = self.gate_spec()
            self.expect(")")
            return g
        if t.kind == "ident" and t.text == "bit" and self.peek(1).kind == "-":
            self.next()
            self.expect("-")
            ctrl = self.expect("ident")
            if ctrl.text != "control":
                raise ParseError("expected 'control' after 'bit-'", ctrl.line, ctrl.col)
            return GateRef("bit-control", sub=self.gate_spec())
        if t.kind == "ident" and t.text == "control":
            self.next()
            return GateRef("control", sub=self.gate_spec())
        # Y is both a gate name and the fixed-point keyword; in gate
        # position only the gate reading makes sense
        if t.kind == "Y":
            self.next()
            return GateRef("Y")
        name = self.expect("ident")
        if self.at("int"):
            ix = int(self.next().text)
            return GateRef(name.text, index=ix)
        return GateRef(name.text)

    # -- host terms ------------------------------------------------------------

    def host_term(self) -> HostTerm:
        t = self.peek()
        if t.kind == "lambda":
            self.next()
            x = self.expect("ident")
            self.expect(":")
            a = self.host_type()
            self.expect(".")
            return Lam(x.text, a, self.host_term(), loc=t.span)
        if t.kind == "let":
            self.next()
            x = self.expect("ident")
            self.expect("<=")
            arg = self.host_term()
            self.expect("in")
            return Bind(arg, x.text, self.host_term(), loc=t.span)
        if t.kind == "if":
            self.next()
            c = self.host_cmp()
            self.expect("then")
            th = self.host_term()
            self.expect("else")
            return If(c, th, self.host_term(), loc=t.span)
        if t.kind == "return":
            self.next()
            return Ret(self.host_app(), loc=t.span)
        if t.kind == "box":
            self.next()
            p, w = self.annotated_pattern()
            if not pattern_linear(p):
                raise ParseError(f"duplicate wire in pattern {p}", t.line, t.col)
            self.expect("=>")
            body = self.circuit()
            return Box(p, w, body, loc=t.span)
        if t.kind in ("run", "qrun"):
            self.next()
            circ = self._run_argument()
            cls = Run if t.kind == "run" else QRun
            return cls(circ, loc=t.span)
        return self.host_cmp()

    def _run_argument(self):
        t = self.peek()
        if t.kind == "(":
            self.next()
            c = self.circuit()
            self.expect(")")
            return c
        if t.kind == "ident":
            return Unbox(Var(self.next().text, loc=t.span), UnitP(), loc=t.span)
        return self.circuit()

    def host_cmp(self) -> HostTerm:
        left = self.host_add()
        t = self.peek()
        if self.accept("="):
            return Prim("=", left, self.host_add(), loc=t.span)
        return left

    def host_add(self) -> HostTerm:
        left = self.host_app()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            left = Prim(op.kind, left, self.host_app(), loc=op.span)
        return left

    def host_app(self) -> HostTerm:
        t = self.peek()
        if t.kind in ("fst", "snd"):
            self.next()
            f = Proj(1 if t.kind == "fst" else 2, self.host_atom(), loc=t.span)
        elif t.kind == "ident" and t.text in ("CR", "R") and self._atom_follows(1):
            self.next()
            f = GateFam(t.text, self.host_atom(), loc=t.span)
        else:
            f = self.host_atom()
        while self._atom_follows(0):
            f = App(f, self.host_atom(), loc=self.peek().span)
        return f

    def _atom_follows(self, k) -> bool:
        t = self.peek(k)
        if t.kind in ("ident", "int", "Y"):
            return True
        if t.kind == "(":
            return True
        return False

    def host_atom(self) -> HostTerm:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Var(t.text, loc=t.span)
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), loc=t.span)
        if t.kind == "Y":
            self.next()
            self.expect("[")
            a = self.host_type()
            self.expect(",")
            w1 = self.wire_type()
            self.expect(",")
            w2 = self.wire_type()
            self.expect("]")
            return Fix(a, w1, w2, loc=t.span)
        if t.kind == "(":
            self.next()
            if self.accept(")"):
                return UnitVal(loc=t.span)
            if self.at("-") and self.peek(1).kind == "int":
                self.next()
                v = self.next()
                self.expect(")")
                return IntLit(-int(v.text), loc=t.span)
            inner = self.host_term()
            if self.accept(","):
                right = self.host_term()
                self.expect(")")
                return Pair(inner, right, loc=t.span)
            if self.accept(":"):
                ann = self.host_type()
                self.expect(")")
                if isinstance(inner, IntLit) and isinstance(ann, ClassicalT):
                    return ClassicalLit(ann.name, ann.cardinality, inner.value, loc=t.span)
                return Ascribe(inner, ann, loc=t.span)
            self.expect(")")
            return inner
        self.fail("expected a host term", ["identifier", "literal", "("])

    # -- declarations -----------------------------------------------------------

    def program(self) -> Program:
        decls = []
        names = set()  # (kind, name): defs, classical bases and gates apart
        while not self.at("eof"):
            d = self.declaration()
            if (type(d), d.name) in names:
                raise ParseError(
                    f"duplicate declaration {d.name!r}", d.loc.line, d.loc.col
                )
            names.add((type(d), d.name))
            decls.append(d)
        return Program(tuple(decls))

    def declaration(self):
        t = self.peek()
        if t.kind == "classical":
            self.next()
            name = self.expect("ident")
            card = self.expect("int")
            if int(card.text) < 1:
                raise ParseError("cardinality must be >= 1", card.line, card.col)
            if name.text == "bit" and int(card.text) != 2:
                raise ParseError("bit is built in with cardinality 2", t.line, t.col)
            self.bases[name.text] = int(card.text)
            return ClassicalDecl(name.text, int(card.text), loc=t.span)
        if t.kind == "gate":
            self.next()
            name = self.expect("ident")
            self.expect(":")
            w1 = self.wire_type()
            self.expect("->")
            w2 = self.wire_type()
            if name.text in LIST_GATES | {g.name for g in BUILTIN_GATES}:
                raise ParseError(f"gate {name.text!r} is built in", t.line, t.col)
            if mentions_qlist(w1) or mentions_qlist(w2):
                message = f"declared gate {name.text!r} cannot act on qlist wires"
                raise ParseError(message, t.line, t.col)
            return GateDecl(name.text, w1, w2, loc=t.span)
        if t.kind == "def":
            self.next()
            if self.accept("rec"):
                return self._rec_def(t)
            name = self.expect("ident")
            ann = None
            if self.accept(":"):
                ann = self.host_type()
            self.expect("=")
            term = self.host_term()
            return DefDecl(name.text, ann, term, loc=t.span)
        if t.kind == "circ":
            self.next()
            name = self.expect("ident")
            ctx = []
            if self.at("(") and self.peek(1).kind == "ident" and self.peek(2).kind == ":":
                self.next()
                while True:
                    w = self.expect("ident")
                    self.expect(":")
                    ty = self.wire_type()
                    ctx.append((w.text, ty))
                    if not self.accept(","):
                        break
                self.expect(")")
            pat = UnitP()
            for w, _ in reversed(ctx):
                pat = WireP(w) if isinstance(pat, UnitP) else PairP(WireP(w), pat)
            if not pattern_linear(pat):
                raise ParseError(f"duplicate wire in pattern {pat}", t.line, t.col)
            dom = pattern_type(dict(ctx), pat)
            ann = None
            if self.accept(":"):
                ann = CircT(dom, self.wire_type())
            self.expect("=")
            box = Box(pat, dom, self.circuit(), loc=t.span)
            return DefDecl(name.text, ann, box, loc=t.span)
        self.fail("expected a declaration", ["def", "circ", "classical", "gate"])

    def _rec_def(self, t):
        """def rec f : A -> Circ(W1, W2) = t  desugars to the fixed-point
        combinator applied to 'lambda f . t'."""
        name = self.expect("ident")
        self.expect(":")
        ann = self.host_type()
        if not (isinstance(ann, ArrowT) and isinstance(ann.result, CircT)):
            raise ParseError(
                "recursive definitions must have type A -> Circ(W1, W2)",
                t.line, t.col,
            )
        self.expect("=")
        body = self.host_term()
        fix = Fix(ann.arg, ann.result.w_in, ann.result.w_out, loc=t.span)
        term = App(fix, Lam(name.text, ann, body, loc=t.span), loc=t.span)
        return DefDecl(name.text, ann, term, loc=t.span)


def parse_program(text: str) -> Program:
    """Parse a complete ``.ew`` source file."""
    p = Parser(tokenize(text), DEFAULT_BASES)
    return p.program()


def parse_circuit(text: str, bases: dict[str, int] | None = None):
    """Parse a bare circuit term (mainly for tests and tooling)."""
    p = Parser(tokenize(text), bases or DEFAULT_BASES)
    c = p.circuit()
    p.expect("eof")
    return c


def parse_host_term(text: str, bases: dict[str, int] | None = None) -> HostTerm:
    """Parse a bare host term."""
    p = Parser(tokenize(text), bases or DEFAULT_BASES)
    t = p.host_term()
    p.expect("eof")
    return t
