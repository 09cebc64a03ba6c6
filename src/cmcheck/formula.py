"""Quantifier-free formulas over linear integer atoms.

An atom is a normalized linear constraint ``sum(c_i * t_i) <= k`` or
``... = k`` whose terms are either named variables (``x``, ``pc``, SSA
names like ``x@3``) or opaque product terms.  Products of two non-constant
expressions are never expanded; they become uninterpreted terms, so any
reasoning about them is conservative.

Formulas are canonical on construction: and/or arguments are flattened,
deduplicated and sorted, negation is pushed to the atoms (only equality
atoms keep an explicit negation node), and trivial truth is folded away.
Structural equality of canonical formulas is therefore deterministic.
Every term, atom and formula node computes its hash once, on first use,
and keeps it (``_memo_hash``), so hashing a large state formula again
costs one attribute lookup instead of a walk over its tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Mapping, Union

from . import lang


class FormulaTooLarge(Exception):
    """Raised when normalization exceeds the configured clause bound."""


def _memo_hash(cls):
    """Make the frozen dataclass ``cls`` compute its hash once and keep it.

    The value is the one the dataclass generates, ``hash((field, ...))``,
    so hash-ordered containers behave exactly as without the memo.  It is
    kept in the instance dict under ``_hash``, which equality ignores, and
    ``__getstate__`` leaves it out, so pickle and copy recompute it:
    string hashes are seeded per process.  The class-level ``None``
    makes the first lookup a plain miss instead of a raised
    AttributeError.
    """
    generated = cls.__hash__
    cls._hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------------------
# Terms and linear expressions
# ---------------------------------------------------------------------------

@_memo_hash
@dataclass(frozen=True)
class VarTerm:
    name: str


@_memo_hash
@dataclass(frozen=True)
class ProdTerm:
    """Opaque product of two linear expressions (uninterpreted)."""

    left: "LinExpr"
    right: "LinExpr"


Term = Union[VarTerm, ProdTerm]


@_memo_hash
@dataclass(frozen=True)
class LinExpr:
    """``sum(coeff * term) + const`` with sorted terms and no zero coeffs."""

    terms: tuple[tuple[Term, int], ...]
    const: int

    def is_const(self) -> bool:
        return not self.terms


def term_key(t: Term):
    if isinstance(t, VarTerm):
        return (0, t.name)
    return (1, lin_key(t.left), lin_key(t.right))


def lin_key(lin: LinExpr):
    return (tuple((term_key(t), c) for t, c in lin.terms), lin.const)


def make_lin(coeffs: Iterable[tuple[Term, int]], const: int = 0) -> LinExpr:
    acc: dict = {}
    for t, c in coeffs:
        if c:
            acc[t] = acc.get(t, 0) + c
    pruned = [(t, c) for t, c in acc.items() if c != 0]
    pruned.sort(key=lambda tc: term_key(tc[0]))
    return LinExpr(tuple(pruned), const)


def lin_const(k: int) -> LinExpr:
    return LinExpr((), k)


def lin_var(name: str) -> LinExpr:
    return LinExpr(((VarTerm(name), 1),), 0)


def lin_add(a: LinExpr, b: LinExpr) -> LinExpr:
    return make_lin(list(a.terms) + list(b.terms), a.const + b.const)


def lin_scale(a: LinExpr, k: int) -> LinExpr:
    if k == 0:
        return lin_const(0)
    return LinExpr(tuple((t, c * k) for t, c in a.terms), a.const * k)


def lin_sub(a: LinExpr, b: LinExpr) -> LinExpr:
    return lin_add(a, lin_scale(b, -1))


def _lin_content(a: LinExpr) -> tuple[int, LinExpr]:
    """Factor out the integer content, leaving a positive-leading primitive."""
    g = abs(a.const)
    for _, c in a.terms:
        g = gcd(g, abs(c))
    if g == 0:
        return 1, a
    if a.terms[0][1] < 0:
        g = -g
    if g == 1:
        return 1, a
    return g, LinExpr(tuple((t, c // g) for t, c in a.terms), a.const // g)


def lin_mul(a: LinExpr, b: LinExpr) -> LinExpr:
    """Multiply; a product of two non-constant expressions becomes opaque.

    Integer content is hoisted out of the factors so that e.g. (2x)*y and
    2*(x*y) denote the same opaque term with coefficient 2.
    """
    if a.is_const():
        return lin_scale(b, a.const)
    if b.is_const():
        return lin_scale(a, b.const)
    ca, pa = _lin_content(a)
    cb, pb = _lin_content(b)
    lo, hi = (pa, pb) if lin_key(pa) <= lin_key(pb) else (pb, pa)
    return LinExpr(((ProdTerm(lo, hi), ca * cb),), 0)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

LE = "<="
EQ = "="


@_memo_hash
@dataclass(frozen=True)
class Atom:
    """Canonical ``sum(coeff * term) op bound`` with op in {<=, =}.

    Coefficients are gcd-reduced (with floor-tightened bound for <=), and
    equality atoms have a positive leading coefficient.
    """

    terms: tuple[tuple[Term, int], ...]
    op: str
    bound: int

    def negated(self) -> "Formula":
        if self.op == LE:
            # not(t <= k)  <=>  t >= k+1  <=>  -t <= -k-1
            return AtomF(Atom(tuple((t, -c) for t, c in self.terms), LE, -self.bound - 1))
        return NotF(AtomF(self))


def atom_key(a: Atom):
    return (tuple((term_key(t), c) for t, c in a.terms), a.op, a.bound)


def positive_form(a: Atom) -> Atom:
    """Representative of the {atom, complement} pair (predicate dedup)."""
    if a.op == LE and a.terms[0][1] < 0:
        return Atom(tuple((t, -c) for t, c in a.terms), LE, -a.bound - 1)
    return a


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    __slots__ = ()


@_memo_hash
@dataclass(frozen=True)
class TrueF(Formula):
    pass


@_memo_hash
@dataclass(frozen=True)
class FalseF(Formula):
    pass


@_memo_hash
@dataclass(frozen=True)
class AtomF(Formula):
    atom: Atom


@_memo_hash
@dataclass(frozen=True)
class NotF(Formula):
    arg: Formula  # canonically only around equality atoms


@_memo_hash
@dataclass(frozen=True)
class AndF(Formula):
    args: tuple[Formula, ...]


@_memo_hash
@dataclass(frozen=True)
class OrF(Formula):
    args: tuple[Formula, ...]


TRUE = TrueF()
FALSE = FalseF()


def formula_key(f: Formula):
    if isinstance(f, TrueF):
        return (0,)
    if isinstance(f, FalseF):
        return (1,)
    if isinstance(f, AtomF):
        return (2, atom_key(f.atom))
    if isinstance(f, NotF):
        return (3, formula_key(f.arg))
    if isinstance(f, AndF):
        return (4, tuple(formula_key(a) for a in f.args))
    return (5, tuple(formula_key(a) for a in f.args))


def _literal_complement_key(f: Formula, key):
    """``formula_key(f_not(f))`` for a literal ``f`` whose key is ``key``.

    It is read off ``key``, for cheap x & !x detection among literals: a
    negated equality's complement is its atom, an equality's is its
    negation, and a ``<=`` atom's negates its coefficients and takes the
    bound ``-bound - 1`` (``Atom.negated``).  None for other formulas.
    """
    if isinstance(f, NotF):
        return key[1]
    if isinstance(f, AtomF):
        if f.atom.op == EQ:
            return (3, key)
        terms, _, bound = key[1]
        return (2, (tuple((t, -c) for t, c in terms), LE, -bound - 1))
    return None


def mk_atom(lin: LinExpr, op: str, rhs: int = 0) -> Formula:
    """Normalize ``lin op rhs`` into an atom (or a truth constant)."""
    bound = rhs - lin.const
    terms = lin.terms
    if not terms:
        ok = (0 <= bound) if op == LE else (0 == bound)
        return TRUE if ok else FALSE
    g = 0
    for _, c in terms:
        g = gcd(g, abs(c))
    if g > 1:
        if op == LE:
            bound = bound // g  # floor: sound integer tightening
            terms = tuple((t, c // g) for t, c in terms)
        elif bound % g == 0:
            # Divisibility gaps (e.g. 2x = 3) keep their coefficients; the
            # solver answers MaybeSat for them rather than reasoning mod g.
            bound = bound // g
            terms = tuple((t, c // g) for t, c in terms)
    if op == EQ and terms[0][1] < 0:
        terms = tuple((t, -c) for t, c in terms)
        bound = -bound
    return AtomF(Atom(terms, op, bound))


def f_not(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, AtomF):
        return f.atom.negated()
    if isinstance(f, NotF):
        return f.arg
    if isinstance(f, AndF):
        return f_or(f_not(a) for a in f.args)
    return f_and(f_not(a) for a in f.args)


def _assemble(args: Iterable[Formula], kind, absorb: Formula, unit: Formula):
    flat: dict = {}
    for a in args:
        if isinstance(a, kind):
            for sub in a.args:
                flat[formula_key(sub)] = sub
        elif a == absorb:
            return absorb, None
        elif a != unit:
            flat[formula_key(a)] = a
    for key, a in flat.items():
        neg = _literal_complement_key(a, key)
        if neg is not None and neg in flat:
            return absorb, None
    ordered = tuple(a for _, a in sorted(flat.items(), key=lambda kv: kv[0]))
    return None, ordered


def f_and(args: Iterable[Formula]) -> Formula:
    short, ordered = _assemble(args, AndF, FALSE, TRUE)
    if short is not None:
        return short
    if not ordered:
        return TRUE
    if len(ordered) == 1:
        return ordered[0]
    return AndF(ordered)


def f_or(args: Iterable[Formula]) -> Formula:
    short, ordered = _assemble(args, OrF, TRUE, FALSE)
    if short is not None:
        return short
    if not ordered:
        return FALSE
    if len(ordered) == 1:
        return ordered[0]
    return OrF(ordered)


def f_implies(a: Formula, b: Formula) -> Formula:
    return f_or([f_not(a), b])


def atoms_of(f: Formula) -> list[Atom]:
    """All atom occurrences, in deterministic traversal order."""
    out: list[Atom] = []

    def walk(g: Formula):
        if isinstance(g, AtomF):
            out.append(g.atom)
        elif isinstance(g, NotF):
            walk(g.arg)
        elif isinstance(g, (AndF, OrF)):
            for a in g.args:
                walk(a)

    walk(f)
    return out


def atom_count(f: Formula) -> int:
    return len(atoms_of(f))


# ---------------------------------------------------------------------------
# Substitution / renaming / evaluation
# ---------------------------------------------------------------------------

def lin_rename(lin: LinExpr, fn: Callable[[str], str]) -> LinExpr:
    acc: list[tuple[Term, int]] = []
    for t, c in lin.terms:
        if isinstance(t, VarTerm):
            acc.append((VarTerm(fn(t.name)), c))
        else:
            acc.append((ProdTerm(lin_rename(t.left, fn), lin_rename(t.right, fn)), c))
    return make_lin(acc, lin.const)


def _map_atoms(f: Formula, lin_fn: Callable[[LinExpr], LinExpr]) -> Formula:
    """``f`` with each atom's left-hand side rewritten by ``lin_fn``."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, AtomF):
        a = f.atom
        return mk_atom(lin_fn(LinExpr(a.terms, 0)), a.op, a.bound)
    if isinstance(f, NotF):
        return f_not(_map_atoms(f.arg, lin_fn))
    if isinstance(f, AndF):
        return f_and(_map_atoms(g, lin_fn) for g in f.args)
    return f_or(_map_atoms(g, lin_fn) for g in f.args)


def rename_vars(f: Formula, fn: Callable[[str], str]) -> Formula:
    return _map_atoms(f, lambda lin: lin_rename(lin, fn))


def lin_substitute(lin: LinExpr, name: str, repl: LinExpr) -> LinExpr:
    acc = lin_const(lin.const)
    for t, c in lin.terms:
        if isinstance(t, VarTerm):
            part = lin_scale(repl, c) if t.name == name else make_lin([(t, c)])
        else:
            lsub = lin_substitute(t.left, name, repl)
            rsub = lin_substitute(t.right, name, repl)
            part = lin_scale(lin_mul(lsub, rsub), c)
        acc = lin_add(acc, part)
    return acc


def substitute(f: Formula, name: str, repl: LinExpr) -> Formula:
    return _map_atoms(f, lambda lin: lin_substitute(lin, name, repl))


def eval_lin(lin: LinExpr, store: Mapping[str, int]) -> int:
    v = lin.const
    for t, c in lin.terms:
        if isinstance(t, VarTerm):
            v += c * store[t.name]
        else:
            v += c * eval_lin(t.left, store) * eval_lin(t.right, store)
    return v


def evaluate(f: Formula, store: Mapping[str, int]) -> bool:
    """Total concrete evaluation; products are computed exactly."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, AtomF):
        a = f.atom
        v = eval_lin(LinExpr(a.terms, 0), store)
        return v <= a.bound if a.op == LE else v == a.bound
    if isinstance(f, NotF):
        return not evaluate(f.arg, store)
    if isinstance(f, AndF):
        return all(evaluate(g, store) for g in f.args)
    return any(evaluate(g, store) for g in f.args)


# ---------------------------------------------------------------------------
# Conversion from language expressions
# ---------------------------------------------------------------------------

def linearize(e: lang.ArithExpr, var_fn: Callable[[str], LinExpr] = lin_var) -> LinExpr:
    if isinstance(e, lang.Const):
        return lin_const(e.value)
    if isinstance(e, lang.Var):
        return var_fn(e.name)
    if isinstance(e, lang.BinOp):
        a = linearize(e.left, var_fn)
        b = linearize(e.right, var_fn)
        if e.op == "+":
            return lin_add(a, b)
        if e.op == "-":
            return lin_sub(a, b)
        return lin_mul(a, b)
    raise TypeError(f"not an arithmetic expression: {e!r}")


_CMP_TO_ATOM = {
    "<": lambda d: mk_atom(d, LE, -1),
    "<=": lambda d: mk_atom(d, LE, 0),
    "==": lambda d: mk_atom(d, EQ, 0),
    "!=": lambda d: f_not(mk_atom(d, EQ, 0)),
    ">=": lambda d: mk_atom(lin_scale(d, -1), LE, 0),
    ">": lambda d: mk_atom(lin_scale(d, -1), LE, -1),
}


def bexpr_to_formula(e: lang.BoolExpr, var_fn: Callable[[str], LinExpr] = lin_var) -> Formula:
    if isinstance(e, lang.BoolConst):
        return TRUE if e.value else FALSE
    if isinstance(e, lang.Cmp):
        diff = lin_sub(linearize(e.left, var_fn), linearize(e.right, var_fn))
        return _CMP_TO_ATOM[e.op](diff)
    if isinstance(e, lang.Not):
        return f_not(bexpr_to_formula(e.arg, var_fn))
    if isinstance(e, lang.And):
        return f_and([bexpr_to_formula(e.left, var_fn), bexpr_to_formula(e.right, var_fn)])
    if isinstance(e, lang.Or):
        return f_or([bexpr_to_formula(e.left, var_fn), bexpr_to_formula(e.right, var_fn)])
    raise TypeError(f"not a boolean expression: {e!r}")


# ---------------------------------------------------------------------------
# Text rendering and parsing
# ---------------------------------------------------------------------------

def render_term(t: Term) -> str:
    if isinstance(t, VarTerm):
        return t.name
    return f"({render_lin(t.left)})*({render_lin(t.right)})"


def render_lin(lin: LinExpr) -> str:
    parts: list[str] = []
    for t, c in lin.terms:
        txt = render_term(t)
        if not parts:
            if c == 1:
                parts.append(txt)
            elif c == -1:
                parts.append(f"-{txt}")
            else:
                parts.append(f"{c}*{txt}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f"{sign} {txt}" if mag == 1 else f"{sign} {mag}*{txt}")
    if lin.const or not parts:
        if not parts:
            parts.append(str(lin.const))
        else:
            sign = "+" if lin.const > 0 else "-"
            parts.append(f"{sign} {abs(lin.const)}")
    return " ".join(parts)


def render_atom(a: Atom) -> str:
    if a.op == LE and a.terms[0][1] < 0:
        # Negative leading coefficient reads better flipped: -r + x <= 0
        # becomes r - x >= 0.  Both forms parse back to the same atom.
        flipped = LinExpr(tuple((t, -c) for t, c in a.terms), 0)
        return f"{render_lin(flipped)} >= {-a.bound}"
    return f"{render_lin(LinExpr(a.terms, 0))} {a.op} {a.bound}"


def render_formula(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, AtomF):
        return f"({render_atom(f.atom)})"
    if isinstance(f, NotF):
        return f"!{render_formula(f.arg)}"
    if isinstance(f, AndF):
        return " & ".join(
            f"({render_formula(a)})" if isinstance(a, OrF) else render_formula(a) for a in f.args
        )
    return " | ".join(render_formula(a) for a in f.args)


def parse_formula(text: str) -> Formula:
    """Parse the assumption-file formula syntax.

    Infix comparisons over +, -, * arithmetic; connectives ``&``, ``|``,
    ``!``; constants ``true``/``false``; ``a -> b`` sugar for ``!a | b``.
    Input nested deeper than ``lang.MAX_NESTING`` is a ParseError.
    """
    p = lang._Parser(text)
    f = _parse_implication(p)
    if p.peek().kind != "eof":
        p.fail("trailing input after formula")
    return f


def _parse_implication(p: "lang._Parser") -> Formula:
    left = _parse_or(p)
    t = p.peek()
    if p.accept("->"):
        right = p.nested(t, _parse_implication, p)
        return f_implies(left, right)
    return left


def _parse_or(p) -> Formula:
    f = _parse_and(p)
    args = [f]
    while p.accept("|") or p.accept("||"):
        args.append(_parse_and(p))
    return f_or(args) if len(args) > 1 else f


def _parse_and(p) -> Formula:
    f = _parse_not(p)
    args = [f]
    while p.accept("&") or p.accept("&&"):
        args.append(_parse_not(p))
    return f_and(args) if len(args) > 1 else f


def _parse_not(p) -> Formula:
    t = p.peek()
    if p.accept("!"):
        return f_not(p.nested(t, _parse_not, p))
    return _parse_formula_atom(p)


def _parse_formula_atom(p) -> Formula:
    t = p.peek()
    if t.kind == "name" and t.text == "true":
        p.next()
        return TRUE
    if t.kind == "name" and t.text == "false":
        p.next()
        return FALSE
    if t.text == "(":
        saved = p.pos
        p.next()
        try:
            f = p.nested(t, _parse_implication, p)
            p.expect(")")
            if p.peek().text in (*lang.CMP_OPS, "*", "+", "-"):
                raise lang.ParseError("arithmetic context", t.line, t.col)
            return f
        except lang.ParseError:
            p.pos = saved
    cmp = p.bounded(p.comparison, t)
    return bexpr_to_formula(cmp)
