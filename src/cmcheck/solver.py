"""Three-valued satisfiability, entailment, and the SSA encoding of an edge.

The decision procedure is deliberately self-contained: normalize to DNF
(bounded), then per clause run integer Fourier-Motzkin elimination
(combination results are gcd-reduced with floor-tightened bounds).  When
the projection is rationally satisfiable, its elimination record yields
an integer witness by back-substitution (``_kernels``).

A query does only the work its answer needs:

- ``check_sat`` takes the clauses of ``to_dnf`` one at a time, in its
  order (``_clauses``), and stops at the first satisfiable one.  A
  conjunction's clauses come from a depth-first product of its
  conjuncts' DNFs (``_conjoin``); the clause bound is checked on the
  factor sizes before the first clause, so FormulaTooLarge is raised
  exactly when the whole DNF would exceed it.
- There is one Fourier-Motzkin kernel (``_fm``).  It runs on sparse
  integer rows, ``{term number: coefficient}``, with terms numbered in
  ``term_key`` order, so a wide clause costs what its nonzero
  coefficients cost.  Only the witness search reads an elimination
  record; ``_fm_eliminate`` asks the kernel for one and maps it back to
  terms.

Predicate abstraction asks only which minterms over the predicates are
not refuted (``Solver.sat_minterms``): the formula's DNF is computed once,
each clause is extended one predicate literal at a time, and a prefix
that Fourier-Motzkin refutes is dropped with all its extensions, without
any record or witness search (Lahiri, Nieuwenhuis and Oliveras, "SMT
Techniques for Fast Predicate Abstraction", CAV 2006).  The query's terms
are numbered once, and each prefix extends its parent's rows.  Its bound
counts the prefixes the search visits, not the size of the full product,
so a query whose pruned search is small answers however many minterms it
could have had.

Unsat answers are sound; Sat is only reported with a concrete integer
witness; everything else is MaybeSat.  Opaque product terms are free
dimensions here, which keeps all answers conservative for nonlinear
programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional, Sequence

from . import _kernels as kernels
from . import formula as F
from . import lang

UNSAT = "unsat"
SAT = "sat"
MAYBE = "maybe"


@dataclass(frozen=True)
class SatResult:
    kind: str
    witness: Optional[dict] = None  # Term -> int, only for SAT


# Fourier-Motzkin gives up (MaybeSat) once a round derives more constraints.
FM_CONSTRAINT_BOUND = 4000
# Queries whose DNF would exceed this many clauses, and minterm searches
# that would visit more than this many prefixes, raise FormulaTooLarge.
DNF_CLAUSE_BOUND = 4096


# ---------------------------------------------------------------------------
# DNF
# ---------------------------------------------------------------------------

def _neq_clauses(atom: F.Atom) -> tuple[F.Atom, F.Atom]:
    """not(t = k)  ->  (t <= k-1) or (-t <= -k-1), both canonical atoms."""
    low = F.mk_atom(F.LinExpr(atom.terms, 0), F.LE, atom.bound - 1)
    neg = tuple((t, -c) for t, c in atom.terms)
    high = F.mk_atom(F.LinExpr(neg, 0), F.LE, -atom.bound - 1)
    assert isinstance(low, F.AtomF) and isinstance(high, F.AtomF)
    return low.atom, high.atom


def to_dnf(f: F.Formula) -> list[tuple[F.Atom, ...]]:
    """Disjunctive normal form as atom tuples; raises FormulaTooLarge past
    ``DNF_CLAUSE_BOUND`` clauses."""
    return list(_clauses(f))


def _clauses(f: F.Formula) -> Iterator[tuple[F.Atom, ...]]:
    """The clauses of ``to_dnf(f)``, in its order.

    A conjunction's clauses are made one at a time (``_conjoin``), so a
    caller that stops early never builds the rest; FormulaTooLarge is
    still raised before the first one.
    """
    if isinstance(f, F.TrueF):
        return iter([()])
    if isinstance(f, F.FalseF):
        return iter([])
    if isinstance(f, F.AtomF):
        return iter([(f.atom,)])
    if isinstance(f, F.NotF):
        inner = f.arg
        if isinstance(inner, F.AtomF) and inner.atom.op == F.EQ:
            a, b = _neq_clauses(inner.atom)
            return iter([(a,), (b,)])
        return _clauses(F.f_not(inner))
    if isinstance(f, F.OrF):
        out: list[tuple[F.Atom, ...]] = []
        for a in f.args:
            out.extend(_clauses(a))
            if len(out) > DNF_CLAUSE_BOUND:
                raise F.FormulaTooLarge(f"DNF exceeds {DNF_CLAUSE_BOUND} clauses")
        return iter(out)
    assert isinstance(f, F.AndF)
    return _conjoin([to_dnf(a) for a in f.args])


def _conjoin(factors: list[list[tuple[F.Atom, ...]]]) -> Iterator[tuple[F.Atom, ...]]:
    """The DNF of a conjunction, given the DNF of each conjunct, one clause
    at a time.

    Clauses come in product order, the first factor outermost, and each
    joins its atoms in factor order without repeats.  The bound is checked
    before the first clause: FormulaTooLarge when a running product of the
    factor sizes passes ``DNF_CLAUSE_BOUND``, which is when building the
    product eagerly would pass it.
    """
    size = 1
    for options in factors:
        size *= len(options)
        if size > DNF_CLAUSE_BOUND:
            raise F.FormulaTooLarge(f"DNF exceeds {DNF_CLAUSE_BOUND} clauses")
    return _product(factors) if size else iter([])


def _product(factors: list[list[tuple[F.Atom, ...]]]) -> Iterator[tuple[F.Atom, ...]]:
    # Depth first, on an explicit stack, so a conjunction of any width
    # stays off the recursion limit.  One prefix holds the chosen clauses'
    # atoms in order; each level removes what its last clause added before
    # it takes the next, so the prefix is merged once per choice.
    prefix: dict[F.Atom, None] = {}
    added: list = [()] * len(factors)
    choices = [iter(factors[0])]
    while choices:
        k = len(choices) - 1
        for a in added[k]:
            del prefix[a]
        added[k] = ()
        clause = next(choices[k], None)
        if clause is None:
            choices.pop()
            continue
        added[k] = [a for a in clause if a not in prefix]
        prefix.update(dict.fromkeys(added[k]))
        if k + 1 < len(factors):
            choices.append(iter(factors[k + 1]))
        else:
            yield tuple(prefix)


# ---------------------------------------------------------------------------
# Conjunct decision: Fourier-Motzkin, then a witness by back-substitution
# ---------------------------------------------------------------------------

# A constraint: {term number: nonzero coefficient}, bound.
Row = tuple[dict, int]


def _numbering(atoms) -> dict:
    """Term -> number, numbering the atoms' terms in ``term_key`` order."""
    terms = sorted({t for a in atoms for t, _ in a.terms}, key=F.term_key)
    return {t: i for i, t in enumerate(terms)}


def _rows(atoms, number: dict) -> Optional[list[Row]]:
    """The atoms as rows ``(coeffs, bound)``, meaning
    ``sum(coeffs[v] * term number v) <= bound``; an equality gives two rows.

    None when a term-less atom is false; a true one gives no row.
    """
    rows = []
    for a in atoms:
        if not a.terms:
            if not (0 <= a.bound if a.op == F.LE else a.bound == 0):
                return None
            continue
        coeffs = {number[t]: c for t, c in a.terms}
        rows.append((coeffs, a.bound))
        if a.op == F.EQ:
            rows.append(({v: -c for v, c in coeffs.items()}, -a.bound))
    return rows


def _fm(live: list[Row], steps: Optional[list] = None):
    """Integer Fourier-Motzkin elimination on sparse rows.

    Returns True when integer-unsat is proven, None when a round derives
    more than ``FM_CONSTRAINT_BOUND`` rows, and False otherwise.  The
    cheapest term is eliminated first (fewest upper-times-lower pairs),
    ties going to the smaller number.  Combinations are gcd-reduced, with
    floor-tightened bounds.  With ``steps``, each round appends ``(term
    number, the rows that mentioned it)``.  The rows are not modified.
    """
    while live:
        count: dict[int, list[int]] = {}  # number -> [uppers, lowers]
        for coeffs, _ in live:
            for v, c in coeffs.items():
                ud = count.get(v)
                if ud is None:
                    ud = count[v] = [0, 0]
                ud[c < 0] += 1
        var = cost = -1
        for v, (ups, downs) in count.items():
            if var < 0 or ups * downs < cost or (ups * downs == cost and v < var):
                var, cost = v, ups * downs
        uppers = []
        lowers = []
        nxt = []
        for row in live:
            c = row[0].get(var, 0)
            if c > 0:
                uppers.append(row)
            elif c < 0:
                lowers.append(row)
            else:
                nxt.append(row)
        if steps is not None:
            steps.append((var, uppers + lowers))
        for uc, ub in uppers:
            a = uc[var]
            for lc, lb in lowers:
                b = -lc[var]
                # var cancels (b*a + a*(-b) = 0) and goes with the other zeros.
                comb = {}
                for v in uc.keys() | lc.keys():
                    c = b * uc.get(v, 0) + a * lc.get(v, 0)
                    if c:
                        comb[v] = c
                bound = b * ub + a * lb
                if not comb:
                    if bound < 0:
                        return True
                    continue
                g = gcd(*comb.values())
                if g > 1:
                    comb = {v: c // g for v, c in comb.items()}
                    bound //= g  # floor: integer tightening on derived bounds
                nxt.append((comb, bound))
                if len(nxt) > FM_CONSTRAINT_BOUND:
                    return None
        live = nxt
    return False


def _fm_eliminate(atoms: Sequence[F.Atom]):
    """Integer Fourier-Motzkin projection of one conjunct, with its record.

    Returns True when integer-unsat is proven, None when a round derives
    more than ``FM_CONSTRAINT_BOUND`` constraints, and otherwise the steps
    ``(term, constraints)`` in elimination order.  Each step holds the
    constraints that mentioned its term when it was eliminated; they
    mention only terms that come later in the list.  Terms that drop out
    unpicked (every constraint on them went away with a one-sided
    elimination, or their coefficients cancelled) come last, with no
    constraints, so back-substitution fixes them first and can still
    back off their values.

    Terms are numbered in ``term_key`` order (``_numbering``), so ties in
    the cheapest-term choice go to the smaller ``term_key``; the record is
    mapped back to ``{term: coeff}`` constraints only on return.
    """
    number = _numbering(atoms)
    live = _rows(atoms, number)
    if live is None:
        return True
    steps: list = []
    refuted = _fm(live, steps)
    if refuted is not False:
        return refuted
    terms = list(number)
    picked = {v for v, _ in steps}
    steps.extend((v, []) for v in range(len(terms)) if v not in picked)
    return [(terms[v], [({terms[u]: c for u, c in coeffs.items()}, bound)
                        for coeffs, bound in rows])
            for v, rows in steps]


class Solver:
    """Decision procedures with per-instance result caches."""

    def __init__(self):
        self._sat_cache: dict[F.Formula, SatResult] = {}
        self._entails_cache: dict[tuple[F.Formula, F.Formula], bool] = {}
        self.stats = {"sat_queries": 0, "witness_searches": 0}

    # -- satisfiability ----------------------------------------------------

    def check_sat(self, f: F.Formula) -> SatResult:
        cached = self._sat_cache.get(f)
        if cached is not None:
            return cached
        self.stats["sat_queries"] += 1
        # true has one empty clause (SAT), false has none (UNSAT).
        r = SatResult(UNSAT)
        for clause in _clauses(f):
            answer = self._clause_sat(clause)
            if answer.kind != UNSAT:  # MAYBE stands unless a later clause is SAT
                r = answer
                if r.kind == SAT:
                    break
        self._sat_cache[f] = r
        return r

    def _clause_sat(self, atoms: tuple[F.Atom, ...]) -> SatResult:
        if not atoms:
            return SatResult(SAT, {})
        steps = _fm_eliminate(atoms)
        if steps is True:
            return SatResult(UNSAT)
        if steps is None:
            return SatResult(MAYBE)
        self.stats["witness_searches"] += 1
        witness = kernels.find_conjunction_witness(steps)
        if witness is None:
            # Rationally satisfiable, but back-substitution found no
            # integer point within its budget (e.g. a divisibility gap).
            return SatResult(MAYBE)
        return SatResult(SAT, witness)

    def sat_minterms(self, f: F.Formula, preds: Sequence[F.Formula]) -> list[int]:
        """Sorted bit-vectors ``b`` for which ``f & minterm(b)`` is not refuted.

        Bit i of ``b`` set means ``preds[i]`` holds, clear means its
        negation holds.  DNF(f), and the DNFs of each predicate and its
        negation, are computed once per call; each clause of DNF(f) is
        extended one predicate literal at a time, in index order, and a
        prefix that Fourier-Motzkin refutes is dropped with all its
        extensions.  Raises FormulaTooLarge once the search has visited
        more than ``DNF_CLAUSE_BOUND`` prefixes (a clause of DNF(f) and
        each of its extensions, refuted ones included), so the bound
        counts the work done, not the size of the product.
        """
        clauses = to_dnf(f)
        # literals[i][v]: the DNF of preds[i] (v = 1) or of its negation (v = 0)
        literals = [(to_dnf(F.f_not(p)), to_dnf(p)) for p in preds]
        # One numbering for the whole query: it orders any prefix's terms
        # as the prefix's own numbering would, so each prefix is decided as
        # _fm_eliminate decides it alone.
        dnfs = [clauses, *(dnf for pair in literals for dnf in pair)]
        number = _numbering(a for dnf in dnfs for clause in dnf for a in clause)
        found: set[int] = set()
        visits = 0

        def extend(prefix: dict, live: list[Row], i: int, bits: int, grew: bool) -> None:
            nonlocal visits
            visits += 1
            if visits > DNF_CLAUSE_BOUND:
                raise F.FormulaTooLarge(
                    f"minterm search visits more than {DNF_CLAUSE_BOUND} prefixes")
            if grew and _fm(live) is True:
                return
            if i == len(literals):
                found.add(bits)
                return
            for value, options in enumerate(literals[i]):
                for clause in options:
                    # A literal already in the prefix cannot refute it.
                    new = [a for a in clause if a not in prefix]
                    more = _rows(new, number)
                    if more is not None:
                        extend({**prefix, **dict.fromkeys(new)}, live + more,
                               i + 1, bits | (value << i), bool(new))

        for clause in clauses:
            live = _rows(clause, number)
            if live is not None:
                extend(dict.fromkeys(clause), live, 0, 0, True)
        return sorted(found)

    # -- entailment ---------------------------------------------------------

    def entails(self, f: F.Formula, g: F.Formula) -> bool:
        """Yes (True) iff f & !g is provably unsat; Unknown (False) otherwise."""
        key = (f, g)
        cached = self._entails_cache.get(key)
        if cached is not None:
            return cached
        try:
            r = self.check_sat(F.f_and([f, F.f_not(g)])).kind == UNSAT
        except F.FormulaTooLarge:
            r = False
        self._entails_cache[key] = r
        return r


# ---------------------------------------------------------------------------
# SSA encoding
# ---------------------------------------------------------------------------

def ssa_name(var: str, idx: int) -> str:
    return f"{var}@{idx}"


def encode_edge(edge: lang.Edge, idx: dict[str, int],
                consts: Optional[dict[str, int]] = None) -> F.Formula:
    """Strongest-postcondition constraint of one edge in SSA form.

    Variables are read at their index in ``idx`` (0 when absent); an
    assigned or havocked variable moves to its next index, in ``idx``.
    A havoc constrains nothing.  With ``consts`` (SSA name -> value), a
    read of a known constant is that constant, and an assignment of a
    constant is recorded there and constrains nothing.
    """
    def var_fn(name: str) -> F.LinExpr:
        ssa = ssa_name(name, idx.get(name, 0))
        if consts is not None and ssa in consts:
            return F.lin_const(consts[ssa])
        return F.lin_var(ssa)

    op = edge.op
    if isinstance(op, lang.Assume):
        return F.bexpr_to_formula(op.expr, var_fn)
    if isinstance(op, lang.Assign):
        rhs = F.linearize(op.expr, var_fn)
        k = idx[op.var] = idx.get(op.var, 0) + 1
        if consts is not None and rhs.is_const():
            consts[ssa_name(op.var, k)] = rhs.const
            return F.TRUE
        return F.mk_atom(F.lin_sub(F.lin_var(ssa_name(op.var, k)), rhs), F.EQ, 0)
    assert isinstance(op, lang.Havoc)
    idx[op.var] = idx.get(op.var, 0) + 1
    return F.TRUE
