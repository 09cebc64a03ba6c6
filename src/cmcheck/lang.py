"""Program representation: expressions, control-flow automata, and frontends.

A program is a control-flow automaton (CFA): integer locations connected by
edges labeled with one operation each (assignment, assume, or havoc).  Two
frontends produce CFAs: the mini imperative language (``.imp`` files, parsed
by :func:`parse_program`) and a direct textual CFA format (``.cfa`` files,
:func:`parse_cfa` / :func:`serialize_cfa`).

Variables range over mathematical integers.  Machine bounds exist only in
the optional overflow-monitoring analysis, never here.
"""

from __future__ import annotations

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
        self.validate()

    def edges_from(self, loc: LocationId) -> tuple[Edge, ...]:
        return self._out.get(loc, ())

    def validate(self) -> None:
        if self.initial not in self.locations:
            raise ValueError(f"initial location L{self.initial} undeclared")
        for l in self.error_locations:
            if l not in self.locations:
                raise ValueError(f"error location L{l} undeclared")
        declared = set(self.variables)
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise ValueError(f"edge ids not dense: expected {i}, got {e.id}")
            if e.source not in self.locations or e.target not in self.locations:
                raise ValueError(f"edge {e.id} references undeclared location")
            used = set()
            if isinstance(e.op, Assign):
                used = {e.op.var} | variables_of(e.op.expr)
            elif isinstance(e.op, Assume):
                used = variables_of(e.op.expr)
            elif isinstance(e.op, Havoc):
                used = {e.op.var}
            missing = used - declared
            if missing:
                raise ValueError(f"edge {e.id} uses undeclared variable(s) {sorted(missing)}")


# ---------------------------------------------------------------------------
# Tokenizer (shared by both frontends)
# ---------------------------------------------------------------------------

_PUNCT = (
    ":=", "==", "!=", "<=", ">=", "&&", "||", "->",
    "(", ")", "{", "}", ";", ",", "<", ">", "=", "!", "+", "-", "*", ":", "&", "|",
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'name', 'int', 'punct', 'eof'
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i) or c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(_Tok("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0

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
                if self.peek().text in ("<", "<=", "==", "=", "!=", ">=", ">"):
                    raise ParseError("comparison of boolean", t.line, t.col)
                return e
            except ParseError:
                self.pos = saved
        return self.comparison()

    def comparison(self) -> Cmp:
        left = self.arith_expr()
        t = self.peek()
        if t.text not in ("<", "<=", "==", "=", "!=", ">=", ">"):
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

class _CfaBuilder:
    def __init__(self):
        self.n_locs = 0
        self.edges: list[Edge] = []
        self.error_locations: set[LocationId] = set()
        self.error_info: dict[LocationId, str] = {}

    def fresh(self) -> LocationId:
        self.n_locs += 1
        return self.n_locs - 1

    def edge(self, src: LocationId, dst: LocationId, op: Operation) -> None:
        self.edges.append(Edge(len(self.edges), src, dst, op))


class _ProgramParser(_Parser):
    def __init__(self, src: str):
        super().__init__(src)
        self.declared: list[str] = []

    def parse(self) -> Cfa:
        while self.peek().text == "int":
            self.next()
            while True:
                t = self.peek()
                if t.kind != "name":
                    self.fail("expected variable name")
                if t.text in self.declared:
                    raise ParseError(f"duplicate declaration of {t.text!r}", t.line, t.col)
                self.declared.append(self.next().text)
                if not self.accept(","):
                    break
            self.expect(";")
        b = _CfaBuilder()
        entry = b.fresh()
        exit_loc = self.stmt_seq(b, entry, stop_tokens=("", ))
        t = self.peek()
        if t.kind != "eof":
            self.fail(f"unexpected {t.text!r}")
        return Cfa(
            variables=tuple(self.declared),
            initial=entry,
            error_locations=frozenset(b.error_locations),
            edges=tuple(b.edges),
            locations=frozenset(range(b.n_locs)),
            error_info=b.error_info,
        )

    def check_declared(self, e: Expr, tok: _Tok) -> None:
        for v in sorted(variables_of(e)):
            if v not in self.declared:
                raise ParseError(f"undeclared variable {v!r}", tok.line, tok.col)

    def stmt_seq(self, b: _CfaBuilder, loc: LocationId, stop_tokens: tuple[str, ...]) -> LocationId:
        while self.peek().kind != "eof" and self.peek().text not in stop_tokens:
            loc = self.stmt(b, loc)
        return loc

    def stmt(self, b: _CfaBuilder, loc: LocationId) -> LocationId:
        return self.nested(self.peek(), self._stmt, b, loc)

    def _stmt(self, b: _CfaBuilder, loc: LocationId) -> LocationId:
        t = self.peek()
        if t.text == "int":
            raise ParseError("declarations must precede statements", t.line, t.col)
        if t.text == "{":
            self.next()
            loc = self.stmt_seq(b, loc, stop_tokens=("}",))
            self.expect("}")
            return loc
        if t.text == "havoc":
            self.next()
            name = self.peek()
            if name.kind != "name":
                self.fail("expected variable name after havoc")
            if name.text not in self.declared:
                raise ParseError(f"undeclared variable {name.text!r}", name.line, name.col)
            self.next()
            self.expect(";")
            nxt = b.fresh()
            b.edge(loc, nxt, Havoc(name.text))
            return nxt
        if t.text == "if":
            self.next()
            self.expect("(")
            cond = self.bounded(self.bool_expr, t)
            self.check_declared(cond, t)
            self.expect(")")
            then_start = b.fresh()
            b.edge(loc, then_start, Assume(cond))
            then_end = self.stmt(b, then_start)
            if self.peek().text == "else":
                self.next()
                else_start = b.fresh()
                b.edge(loc, else_start, Assume(Not(cond)))
                else_end = self.stmt(b, else_start)
                join = b.fresh()
                b.edge(then_end, join, Assume(BoolConst(True)))
                b.edge(else_end, join, Assume(BoolConst(True)))
                return join
            b.edge(loc, then_end, Assume(Not(cond)))
            return then_end
        if t.text == "while":
            self.next()
            self.expect("(")
            cond = self.bounded(self.bool_expr, t)
            self.check_declared(cond, t)
            self.expect(")")
            body_start = b.fresh()
            b.edge(loc, body_start, Assume(cond))
            after = b.fresh()
            b.edge(loc, after, Assume(Not(cond)))
            body_end = self.stmt(b, body_start)
            b.edge(body_end, loc, Assume(BoolConst(True)))
            return after
        if t.text == "assert":
            self.next()
            self.expect("(")
            cond = self.bounded(self.bool_expr, t)
            self.check_declared(cond, t)
            self.expect(")")
            self.expect(";")
            err = b.fresh()
            b.error_locations.add(err)
            b.error_info[err] = f"assert({render_expr(cond)}) at line {t.line}"
            b.edge(loc, err, Assume(Not(cond)))
            nxt = b.fresh()
            b.edge(loc, nxt, Assume(cond))
            return nxt
        if t.kind == "name":
            name = self.next()
            if name.text not in self.declared:
                raise ParseError(f"undeclared variable {name.text!r}", name.line, name.col)
            self.expect(":=")
            if self.peek().text == "nondet":
                self.next()
                self.expect("(")
                self.expect(")")
                if self.peek().text != ";":
                    tt = self.peek()
                    raise ParseError("nondet() must be the whole right-hand side", tt.line, tt.col)
                self.expect(";")
                nxt = b.fresh()
                b.edge(loc, nxt, Havoc(name.text))
                return nxt
            rhs = self.bounded(self.arith_expr, name)
            if "nondet" in variables_of(rhs):
                raise ParseError("nondet() must be the whole right-hand side", name.line, name.col)
            self.check_declared(rhs, name)
            self.expect(";")
            nxt = b.fresh()
            b.edge(loc, nxt, Assign(name.text, rhs))
            return nxt
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
    if tok.kind == "name" and tok.text.startswith("L") and tok.text[1:].isdigit():
        return int(tok.text[1:])
    raise ParseError(f"expected location (L<n>), found {tok.text!r}", tok.line, tok.col)


def parse_cfa(source_text: str) -> Cfa:
    """Parse the textual CFA format (see serialize_cfa for the layout)."""
    p = _Parser(source_text)
    variables: list[str] = []
    initial: Optional[LocationId] = None
    errors: set[LocationId] = set()
    edges: list[Edge] = []
    locations: set[LocationId] = set()

    p.expect("vars")
    p.expect(":")
    if p.peek().text != ";":
        while True:
            t = p.next()
            if t.kind != "name":
                raise ParseError("expected variable name", t.line, t.col)
            if t.text in variables:
                raise ParseError(f"duplicate variable {t.text!r}", t.line, t.col)
            variables.append(t.text)
            if not p.accept(","):
                break
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
            op = Assume(p.bounded(p.bool_expr, t))
        elif t.text == "havoc":
            p.next()
            v = p.next()
            if v.kind != "name":
                raise ParseError("expected variable after havoc", v.line, v.col)
            op = Havoc(v.text)
        else:
            v = p.next()
            if v.kind != "name":
                raise ParseError("expected operation", v.line, v.col)
            p.expect(":=")
            op = Assign(v.text, p.bounded(p.arith_expr, v))
        p.expect(";")
        edges.append(Edge(len(edges), src, dst, op))

    return Cfa(
        variables=tuple(variables),
        initial=initial,
        error_locations=frozenset(errors),
        edges=tuple(edges),
        locations=frozenset(locations),
    )


def serialize_cfa(cfa: Cfa) -> str:
    """Deterministic inverse of parse_cfa; edge ids follow file order."""
    lines = [f"vars: {', '.join(cfa.variables)};"]
    lines.append(f"init: L{cfa.initial};")
    if cfa.error_locations:
        errs = ", ".join(f"L{l}" for l in sorted(cfa.error_locations))
        lines.append(f"error: {errs};")
    for e in cfa.edges:
        lines.append(f"L{e.source} -> L{e.target}: {render_op(e.op)};")
    return "\n".join(lines) + "\n"
