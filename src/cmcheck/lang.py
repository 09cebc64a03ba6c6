"""Program representation: expressions, control-flow automata, and frontends.

A program is a control-flow automaton (CFA): integer locations connected by
edges labeled with one operation each (assignment, assume, or havoc).  Two
frontends produce CFAs: the mini imperative language (``.imp`` files, parsed
by :func:`parse_program`) and a direct textual CFA format (``.cfa`` files,
parsed by :func:`parse_cfa`).  They share one tokenizer and one expression
parser, and each checks that an operation names only declared variables
where it reads the operation, so every input error is a positioned
ParseError and a parsed CFA needs no second validation.

Variables range over mathematical integers.  Machine bounds exist only in
the optional overflow-monitoring analysis, never here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

LocationId = int
EdgeId = int

# Deepest nesting the parsers accept.  Parentheses, unary operators and
# statements inside statements nest at most this deep, counted together,
# and every expression tree is at most this high; deeper input is a
# ParseError.  Parsing, evaluation, linearization and rendering recurse
# once per level, so the limit keeps them inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(Exception):
    """Syntax or scoping error, carrying a 1-based source position.

    ``source`` names the file the position is in, when it is known.
    """

    def __init__(self, message: str, line: int, col: int, source: Optional[str] = None):
        where = f"{line}:{col}" if source is None else f"{source}:{line}:{col}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.source = source


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class Cmp:
    op: str  # '<', '<=', '==', '!=', '>=', '>'
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Not:
    arg: "BoolExpr"


@dataclass(frozen=True)
class BoolConst:
    value: bool


ArithExpr = Union[Var, Const, BinOp]
BoolExpr = Union[Cmp, And, Or, Not, BoolConst]
Expr = Union[ArithExpr, BoolExpr]


def expr_height(e: Expr) -> int:
    """Levels of the expression tree (a leaf is 1), computed without recursion."""
    height = 0
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, (BinOp, Cmp, And, Or)):
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
        elif isinstance(node, Not):
            stack.append((node.arg, level + 1))
    return height


def variables_of(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Const, BoolConst)):
        return set()
    if isinstance(e, (BinOp, Cmp, And, Or)):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Not):
        return variables_of(e.arg)
    raise TypeError(f"not an expression: {e!r}")


def eval_arith(e: ArithExpr, store: Mapping[str, Optional[int]]) -> Optional[int]:
    """Evaluate an arithmetic expression; ``None`` means unknown (top)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return store.get(e.name)
    if isinstance(e, BinOp):
        a = eval_arith(e.left, store)
        b = eval_arith(e.right, store)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
    raise TypeError(f"not an arithmetic expression: {e!r}")


_CMP_FN = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}

# The comparison tokens both parsers accept: ``=`` reads as ``==``.
CMP_OPS = (*_CMP_FN, "=")


def eval_bool(e: BoolExpr, store: Mapping[str, Optional[int]]) -> Optional[bool]:
    """Three-valued evaluation: ``None`` when an unknown operand decides."""
    if isinstance(e, BoolConst):
        return e.value
    if isinstance(e, Cmp):
        a = eval_arith(e.left, store)
        b = eval_arith(e.right, store)
        if a is None or b is None:
            return None
        return _CMP_FN[e.op](a, b)
    if isinstance(e, Not):
        v = eval_bool(e.arg, store)
        return None if v is None else not v
    if isinstance(e, And):
        a = eval_bool(e.left, store)
        b = eval_bool(e.right, store)
        if a is False or b is False:
            return False
        if a is None or b is None:
            return None
        return True
    if isinstance(e, Or):
        a = eval_bool(e.left, store)
        b = eval_bool(e.right, store)
        if a is True or b is True:
            return True
        if a is None or b is None:
            return None
        return False
    raise TypeError(f"not a boolean expression: {e!r}")


def render_expr(e: Expr) -> str:
    """Deterministic infix rendering, re-parseable by both frontends."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, BoolConst):
        return "true" if e.value else "false"
    if isinstance(e, BinOp):
        l, r = render_expr(e.left), render_expr(e.right)
        if isinstance(e.left, BinOp) and e.op == "*" and e.left.op != "*":
            l = f"({l})"
        if isinstance(e.right, BinOp) and (e.op in "-*"):
            r = f"({r})"
        return f"{l} {e.op} {r}"
    if isinstance(e, Cmp):
        return f"{render_expr(e.left)} {e.op} {render_expr(e.right)}"
    if isinstance(e, Not):
        return f"!({render_expr(e.arg)})"
    if isinstance(e, And):
        l = render_expr(e.left)
        r = render_expr(e.right)
        if isinstance(e.left, Or):
            l = f"({l})"
        if isinstance(e.right, Or):
            r = f"({r})"
        return f"{l} && {r}"
    if isinstance(e, Or):
        return f"{render_expr(e.left)} || {render_expr(e.right)}"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Operations, edges, CFA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    var: str
    expr: ArithExpr


@dataclass(frozen=True)
class Assume:
    expr: BoolExpr


@dataclass(frozen=True)
class Havoc:
    var: str


Operation = Union[Assign, Assume, Havoc]


def render_op(op: Operation) -> str:
    if isinstance(op, Assign):
        return f"{op.var} := {render_expr(op.expr)}"
    if isinstance(op, Assume):
        return f"assume {render_expr(op.expr)}"
    if isinstance(op, Havoc):
        return f"havoc {op.var}"
    raise TypeError(f"not an operation: {op!r}")


@dataclass(frozen=True)
class Edge:
    id: EdgeId
    source: LocationId
    target: LocationId
    op: Operation

    def __repr__(self) -> str:
        return f"Edge({self.id}: L{self.source} -> L{self.target}: {render_op(self.op)})"


@dataclass
class Cfa:
    """Immutable after construction; share freely.

    Only the two frontends build one.  Edge ids are dense in file order,
    every location an edge or the header names is in ``locations``, and
    every variable an edge names is in ``variables``.

    ``error_info`` maps error locations to a human-readable description of
    the assertion they guard (empty for CFAs read from ``.cfa`` files).
    """

    variables: tuple[str, ...]
    initial: LocationId
    error_locations: frozenset[LocationId]
    edges: tuple[Edge, ...]
    locations: frozenset[LocationId]
    error_info: dict[LocationId, str] = field(default_factory=dict)

    def __post_init__(self):
        out: dict[LocationId, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.source, []).append(e)
        self._out = {loc: tuple(es) for loc, es in out.items()}

    def edges_from(self, loc: LocationId) -> tuple[Edge, ...]:
        return self._out.get(loc, ())


# ---------------------------------------------------------------------------
# Tokenizer (shared by both frontends)
# ---------------------------------------------------------------------------

_PUNCT = (
    ":=", "==", "!=", "<=", ">=", "&&", "||", "->",
    "(", ")", "{", "}", ";", ",", "<", ">", "=", "!", "+", "-", "*", ":", "&", "|",
)

# One alternative per token class, tried in order; _PUNCT lists its
# two-character tokens first, so the longest one matches.
_TOKEN = re.compile("|".join((
    r"(?P<newline>\n)",
    r"(?P<blank>[ \t\r]+)",
    r"(?P<comment>(?://|\#)[^\n]*)",
    r"(?P<int>[0-9]+)",
    r"(?P<name>[^\W\d]\w*)",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
)))


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'name', 'int', 'punct', 'eof'
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    """Tokens of ``src``; a column is the offset from the line start, plus 1."""
    toks: list[_Tok] = []
    line, line_start, pos = 1, 0, 0
    while (m := _TOKEN.match(src, pos)) is not None:
        kind, text = m.lastgroup, m.group()
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            break  # a numeric sign such as '²' starts no token
        elif kind != "blank" and kind != "comment":
            toks.append(_Tok(kind, text, line, pos - line_start + 1))
        pos = m.end()
    if pos < len(src):
        raise ParseError(f"unexpected character {src[pos]!r}", line, pos - line_start + 1)
    toks.append(_Tok("eof", "", line, pos - line_start + 1))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.declared: list[str] = []

    def nested(self, tok: _Tok, parse, *args):
        """``parse(*args)`` one level deeper; a ParseError past MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def bounded(self, parse, tok: _Tok) -> Expr:
        """``parse()``, rejecting a tree more than MAX_NESTING levels high."""
        start = self.pos
        e = parse()
        # Every level of the tree takes at least one token of its own.
        if self.pos - start > MAX_NESTING and expr_height(e) > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             tok.line, tok.col)
        return e

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        if self.peek().kind != "eof" and self.peek().text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def declare(self) -> None:
        """Read ``NAME (',' NAME)*`` into ``declared``."""
        while True:
            t = self.next()
            if t.kind != "name":
                raise ParseError("expected variable name", t.line, t.col)
            if t.text in self.declared:
                raise ParseError(f"duplicate declaration of {t.text!r}", t.line, t.col)
            if t.text == "pc":
                raise ParseError("'pc' is reserved for the program counter", t.line, t.col)
            self.declared.append(t.text)
            if not self.accept(","):
                return

    def check_declared(self, e: Expr, tok: _Tok) -> None:
        """A ParseError at ``tok`` for the first undeclared variable of ``e``."""
        for v in sorted(variables_of(e)):
            if v not in self.declared:
                raise ParseError(f"undeclared variable {v!r}", tok.line, tok.col)

    # Expression grammar, lowest precedence first:
    #   bexpr := bterm ('||' bterm)*
    #   bterm := bfact ('&&' bfact)*
    #   bfact := '!' bfact | comparison | 'true' | 'false' | '(' bexpr ')'
    #   arith := term (('+'|'-') term)*
    #   term  := factor ('*' factor)*
    #   factor := INT | NAME | '-' factor | '(' arith ')'

    def bool_expr(self) -> BoolExpr:
        e = self.bool_term()
        while self.accept("||"):
            e = Or(e, self.bool_term())
        return e

    def bool_term(self) -> BoolExpr:
        e = self.bool_factor()
        while self.accept("&&"):
            e = And(e, self.bool_factor())
        return e

    def bool_factor(self) -> BoolExpr:
        t = self.peek()
        if t.text == "!":
            self.next()
            return Not(self.nested(t, self.bool_factor))
        if t.kind == "name" and t.text == "true":
            self.next()
            return BoolConst(True)
        if t.kind == "name" and t.text == "false":
            self.next()
            return BoolConst(False)
        if t.text == "(":
            # Parenthesized boolean or arithmetic left operand: backtrack on failure.
            saved = self.pos
            self.next()
            try:
                e = self.nested(t, self.bool_expr)
                self.expect(")")
                if self.peek().text in CMP_OPS:
                    raise ParseError("comparison of boolean", t.line, t.col)
                return e
            except ParseError:
                self.pos = saved
        return self.comparison()

    def comparison(self) -> Cmp:
        left = self.arith_expr()
        t = self.peek()
        if t.text not in CMP_OPS:
            self.fail(f"expected comparison operator, found {t.text!r}")
        self.next()
        op = "==" if t.text == "=" else t.text
        right = self.arith_expr()
        return Cmp(op, left, right)

    def arith_expr(self) -> ArithExpr:
        e = self.arith_term()
        while True:
            if self.accept("+"):
                e = BinOp("+", e, self.arith_term())
            elif self.accept("-"):
                e = BinOp("-", e, self.arith_term())
            else:
                return e

    def arith_term(self) -> ArithExpr:
        e = self.arith_factor()
        while self.accept("*"):
            e = BinOp("*", e, self.arith_factor())
        return e

    def arith_factor(self) -> ArithExpr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Const(int(t.text))
        if t.text == "-":
            self.next()
            inner = self.nested(t, self.arith_factor)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return BinOp("-", Const(0), inner)
        if t.kind == "name":
            self.next()
            return Var(t.text)
        if t.text == "(":
            self.next()
            e = self.nested(t, self.arith_expr)
            self.expect(")")
            return e
        self.fail(f"expected expression, found {t.text or 'end of input'!r}")


# ---------------------------------------------------------------------------
# Mini-language frontend
# ---------------------------------------------------------------------------

class _ProgramParser(_Parser):
    """Compiles each statement to CFA edges as it reads it."""

    def __init__(self, src: str):
        super().__init__(src)
        self.n_locs = 0
        self.edges: list[Edge] = []
        self.error_info: dict[LocationId, str] = {}

    def fresh(self) -> LocationId:
        self.n_locs += 1
        return self.n_locs - 1

    def edge(self, src: LocationId, op: Operation, dst: Optional[LocationId] = None) -> LocationId:
        """Add the edge ``src -op-> dst``, into a fresh location when ``dst``
        is None, and return its target."""
        if dst is None:
            dst = self.fresh()
        self.edges.append(Edge(len(self.edges), src, dst, op))
        return dst

    def parse(self) -> Cfa:
        while self.accept("int"):
            self.declare()
            self.expect(";")
        entry = self.fresh()
        self.stmt_seq(entry, stop="")
        return Cfa(
            variables=tuple(self.declared),
            initial=entry,
            error_locations=frozenset(self.error_info),
            edges=tuple(self.edges),
            locations=frozenset(range(self.n_locs)),
            error_info=self.error_info,
        )

    def condition(self, keyword: _Tok) -> BoolExpr:
        """``keyword '(' bexpr ')'``, over declared variables."""
        self.next()
        self.expect("(")
        cond = self.bounded(self.bool_expr, keyword)
        self.check_declared(cond, keyword)
        self.expect(")")
        return cond

    def stmt_seq(self, loc: LocationId, stop: str) -> LocationId:
        """Statements up to the token ``stop`` ("" for the end of input)."""
        while self.peek().kind != "eof" and self.peek().text != stop:
            loc = self.stmt(loc)
        return loc

    def stmt(self, loc: LocationId) -> LocationId:
        return self.nested(self.peek(), self._stmt, loc)

    def _stmt(self, loc: LocationId) -> LocationId:
        t = self.peek()
        if t.text == "int":
            raise ParseError("declarations must precede statements", t.line, t.col)
        if t.text == "{":
            self.next()
            loc = self.stmt_seq(loc, stop="}")
            self.expect("}")
            return loc
        if t.text == "havoc":
            self.next()
            name = self.peek()
            if name.kind != "name":
                self.fail("expected variable name after havoc")
            self.check_declared(Var(name.text), name)
            self.next()
            self.expect(";")
            return self.edge(loc, Havoc(name.text))
        if t.text == "if":
            cond = self.condition(t)
            then_end = self.stmt(self.edge(loc, Assume(cond)))
            if self.peek().text == "else":
                self.next()
                else_end = self.stmt(self.edge(loc, Assume(Not(cond))))
                join = self.edge(then_end, Assume(BoolConst(True)))
                return self.edge(else_end, Assume(BoolConst(True)), join)
            self.edge(loc, Assume(Not(cond)), then_end)
            return then_end
        if t.text == "while":
            cond = self.condition(t)
            body_start = self.edge(loc, Assume(cond))
            after = self.edge(loc, Assume(Not(cond)))
            self.edge(self.stmt(body_start), Assume(BoolConst(True)), loc)
            return after
        if t.text == "assert":
            cond = self.condition(t)
            self.expect(";")
            err = self.edge(loc, Assume(Not(cond)))
            self.error_info[err] = f"assert({render_expr(cond)}) at line {t.line}"
            return self.edge(loc, Assume(cond))
        if t.kind == "name":
            name = self.next()
            self.check_declared(Var(name.text), name)
            self.expect(":=")
            if self.peek().text == "nondet":
                self.next()
                self.expect("(")
                self.expect(")")
                if self.peek().text != ";":
                    tt = self.peek()
                    raise ParseError("nondet() must be the whole right-hand side", tt.line, tt.col)
                self.expect(";")
                return self.edge(loc, Havoc(name.text))
            rhs = self.bounded(self.arith_expr, name)
            if "nondet" in variables_of(rhs):
                raise ParseError("nondet() must be the whole right-hand side", name.line, name.col)
            self.check_declared(rhs, name)
            self.expect(";")
            return self.edge(loc, Assign(name.text, rhs))
        self.fail(f"expected statement, found {t.text or 'end of input'!r}")


def parse_program(source_text: str) -> Cfa:
    """Compile mini-language text to a CFA.

    ``assert(e)`` becomes an ``assume !(e)`` edge into a fresh error
    location plus an ``assume e`` continuation edge; branches and loops
    compile to pairs of complementary assume edges.
    """
    return _ProgramParser(source_text).parse()


# ---------------------------------------------------------------------------
# Direct CFA text format
# ---------------------------------------------------------------------------

def _parse_loc(tok: _Tok) -> LocationId:
    digits = tok.text[1:]
    if tok.kind == "name" and tok.text.startswith("L") and digits.isascii() and digits.isdigit():
        return int(digits)
    raise ParseError(f"expected location (L<n>), found {tok.text!r}", tok.line, tok.col)


def parse_cfa(source_text: str) -> Cfa:
    """Parse the textual CFA format.

    ``vars: x, y;`` and ``init: L0;`` come first, then any ``error: L3, L4;``
    lines, then one ``L0 -> L1: <operation>;`` line per edge, where the
    operation is ``x := <arith>``, ``assume <bool>`` or ``havoc x``.  Edge
    ids follow file order.
    """
    p = _Parser(source_text)
    errors: set[LocationId] = set()
    edges: list[Edge] = []
    locations: set[LocationId] = set()

    p.expect("vars")
    p.expect(":")
    if p.peek().text != ";":
        p.declare()
    p.expect(";")
    p.expect("init")
    p.expect(":")
    initial = _parse_loc(p.next())
    locations.add(initial)
    p.expect(";")
    while p.peek().text == "error":
        p.next()
        p.expect(":")
        while True:
            l = _parse_loc(p.next())
            errors.add(l)
            locations.add(l)
            if not p.accept(","):
                break
        p.expect(";")

    while p.peek().kind != "eof":
        src = _parse_loc(p.next())
        p.expect("->")
        dst = _parse_loc(p.next())
        p.expect(":")
        locations.add(src)
        locations.add(dst)
        t = p.peek()
        op: Operation
        if t.text == "assume":
            p.next()
            cond = p.bounded(p.bool_expr, t)
            p.check_declared(cond, t)
            op = Assume(cond)
        elif t.text == "havoc":
            p.next()
            v = p.next()
            if v.kind != "name":
                raise ParseError("expected variable after havoc", v.line, v.col)
            p.check_declared(Var(v.text), v)
            op = Havoc(v.text)
        else:
            v = p.next()
            if v.kind != "name":
                raise ParseError("expected operation", v.line, v.col)
            p.check_declared(Var(v.text), v)
            p.expect(":=")
            rhs = p.bounded(p.arith_expr, v)
            p.check_declared(rhs, v)
            op = Assign(v.text, rhs)
        p.expect(";")
        edges.append(Edge(len(edges), src, dst, op))

    return Cfa(
        variables=tuple(p.declared),
        initial=initial,
        error_locations=frozenset(errors),
        edges=tuple(edges),
        locations=frozenset(locations),
    )
