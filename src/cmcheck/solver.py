"""Three-valued satisfiability, entailment, and SSA path formulas.

The decision procedure is deliberately self-contained: normalize to DNF
(bounded), then per conjunct run integer Fourier-Motzkin elimination
(combination results are gcd-reduced with floor-tightened bounds) over
terms numbered in ``term_key`` order.  When the projection is rationally
satisfiable, its elimination record yields an integer witness by
back-substitution (``_kernels``).

Predicate abstraction asks only which minterms over the predicates are
not refuted (``Solver.sat_minterms``): the formula's DNF is computed once,
each clause is extended one predicate literal at a time, and a prefix
that Fourier-Motzkin refutes is dropped with all its extensions, without
any witness search (Lahiri, Nieuwenhuis and Oliveras, "SMT Techniques for
Fast Predicate Abstraction", CAV 2006).

Unsat answers are sound; Sat is only reported with a concrete integer
witness; everything else is MaybeSat.  Opaque product terms are free
dimensions here, which keeps all answers conservative for nonlinear
programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

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


def to_dnf(f: F.Formula, clause_bound: int) -> list[tuple[F.Atom, ...]]:
    """Disjunctive normal form as atom tuples; raises FormulaTooLarge."""

    def walk(g: F.Formula) -> list[tuple[F.Atom, ...]]:
        if isinstance(g, F.TrueF):
            return [()]
        if isinstance(g, F.FalseF):
            return []
        if isinstance(g, F.AtomF):
            return [(g.atom,)]
        if isinstance(g, F.NotF):
            inner = g.arg
            if isinstance(inner, F.AtomF) and inner.atom.op == F.EQ:
                a, b = _neq_clauses(inner.atom)
                return [(a,), (b,)]
            return walk(F.f_not(inner))
        if isinstance(g, F.OrF):
            out: list[tuple[F.Atom, ...]] = []
            for a in g.args:
                out.extend(walk(a))
                if len(out) > clause_bound:
                    raise F.FormulaTooLarge(f"DNF exceeds {clause_bound} clauses")
            return out
        assert isinstance(g, F.AndF)
        acc: list[tuple[F.Atom, ...]] = [()]
        for a in g.args:
            sub = walk(a)
            nxt: list[tuple[F.Atom, ...]] = []
            for left in acc:
                for right in sub:
                    merged = dict.fromkeys(left)
                    merged.update(dict.fromkeys(right))
                    nxt.append(tuple(merged))
                    if len(nxt) > clause_bound:
                        raise F.FormulaTooLarge(f"DNF exceeds {clause_bound} clauses")
            acc = nxt
        return acc

    return walk(f)


# ---------------------------------------------------------------------------
# Conjunct decision: Fourier-Motzkin, then a witness by back-substitution
# ---------------------------------------------------------------------------

def _fm_eliminate(atoms: Sequence[F.Atom], max_constraints: int):
    """Integer Fourier-Motzkin projection of one conjunct, with its record.

    Returns True when integer-unsat is proven, None when a round derives
    more than ``max_constraints`` constraints, and otherwise the steps
    ``(term, constraints)`` in elimination order.  Each step holds the
    constraints that mentioned its term when it was eliminated; they
    mention only terms that come later in the list.  Terms that drop out
    unpicked (every constraint on them went away with a one-sided
    elimination, or their coefficients cancelled) come last, with no
    constraints, so back-substitution fixes them first and can still
    back off their values.

    Elimination runs on terms numbered in ``term_key`` order, so ties in
    the cheapest-term choice go to the smaller ``term_key``; the record is
    mapped back to terms only on return.
    """
    terms = sorted({t for a in atoms for t, _ in a.terms}, key=F.term_key)
    number = {t: i for i, t in enumerate(terms)}

    # Each constraint means sum(coeff * term) <= bound; equalities split.
    live: list[tuple[dict, int]] = []
    for a in atoms:
        if not a.terms:
            if not (0 <= a.bound if a.op == F.LE else a.bound == 0):
                return True
            continue
        coeffs = {number[t]: c for t, c in a.terms}
        live.append((coeffs, a.bound))
        if a.op == F.EQ:
            live.append(({v: -c for v, c in coeffs.items()}, -a.bound))
    remaining = set(range(len(terms)))

    steps: list[tuple[int, list[tuple[dict, int]]]] = []
    ups = [0] * len(terms)
    downs = [0] * len(terms)
    while live:
        for v in remaining:
            ups[v] = downs[v] = 0
        for coeffs, _ in live:
            for v, c in coeffs.items():
                if c > 0:
                    ups[v] += 1
                else:
                    downs[v] += 1
        # Eliminate the cheapest term; ties go to the smallest term_key.
        var = min((v for v in remaining if ups[v] or downs[v]),
                  key=lambda v: (ups[v] * downs[v], v))
        uppers = []
        lowers = []
        nxt = []
        for coeffs, bound in live:
            c = coeffs.get(var, 0)
            if c > 0:
                uppers.append((coeffs, bound))
            elif c < 0:
                lowers.append((coeffs, bound))
            else:
                nxt.append((coeffs, bound))
        steps.append((var, uppers + lowers))
        remaining.discard(var)
        for uc, ub in uppers:
            a = uc[var]
            for lc, lb in lowers:
                b = -lc[var]
                comb = {v: b * c for v, c in uc.items() if v != var}
                for v, c in lc.items():
                    if v != var:
                        comb[v] = comb.get(v, 0) + a * c
                comb = {v: c for v, c in comb.items() if c}
                bound = b * ub + a * lb
                if not comb:
                    if bound < 0:
                        return True
                    continue
                g = 0
                for c in comb.values():
                    g = gcd(g, abs(c))
                if g > 1:
                    comb = {v: c // g for v, c in comb.items()}
                    bound //= g  # floor: integer tightening on derived bounds
                nxt.append((comb, bound))
                if len(nxt) > max_constraints:
                    return None
        live = nxt
    steps.extend((v, []) for v in sorted(remaining))
    return [(terms[v], [({terms[u]: c for u, c in coeffs.items()}, bound)
                        for coeffs, bound in cs])
            for v, cs in steps]


class Solver:
    """Decision procedures with per-instance result caches."""

    def __init__(self, dnf_clause_bound: int = 4096):
        self.dnf_clause_bound = dnf_clause_bound
        self._sat_cache: dict[F.Formula, SatResult] = {}
        self._entails_cache: dict[tuple[F.Formula, F.Formula], bool] = {}
        # Predicate -> (DNF of its negation, DNF of itself), for sat_minterms.
        self._literal_dnfs: dict[F.Formula, tuple[list, list]] = {}
        self.stats = {"sat_queries": 0, "witness_searches": 0}

    # -- satisfiability ----------------------------------------------------

    def check_sat(self, f: F.Formula) -> SatResult:
        cached = self._sat_cache.get(f)
        if cached is not None:
            return cached
        self.stats["sat_queries"] += 1
        if isinstance(f, F.TrueF):
            r = SatResult(SAT, {})
        elif isinstance(f, F.FalseF):
            r = SatResult(UNSAT)
        else:
            r = self._check_sat_uncached(f)
        self._sat_cache[f] = r
        return r

    def _check_sat_uncached(self, f: F.Formula) -> SatResult:
        clauses = to_dnf(f, self.dnf_clause_bound)
        saw_maybe = False
        for clause in clauses:
            r = self._clause_sat(clause)
            if r.kind == SAT:
                return r
            if r.kind == MAYBE:
                saw_maybe = True
        return SatResult(MAYBE) if saw_maybe else SatResult(UNSAT)

    def _clause_sat(self, atoms: tuple[F.Atom, ...]) -> SatResult:
        if not atoms:
            return SatResult(SAT, {})
        steps = _fm_eliminate(atoms, FM_CONSTRAINT_BOUND)
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
        negation holds.  DNF(f) is computed once, and the DNFs of each
        predicate and its negation once per solver; each clause of DNF(f) is
        extended one predicate literal at a time, in index order, and a
        prefix that Fourier-Motzkin refutes is dropped with all its
        extensions.  Raises FormulaTooLarge when the clauses of the
        largest minterm query would exceed ``dnf_clause_bound``.
        """
        bound = self.dnf_clause_bound
        clauses = to_dnf(f, bound)
        # literals[i][v]: the DNF of preds[i] (v = 1) or of its negation (v = 0)
        literals = []
        for p in preds:
            pair = self._literal_dnfs.get(p)
            if pair is None:
                pair = self._literal_dnfs[p] = (to_dnf(F.f_not(p), bound), to_dnf(p, bound))
            literals.append(pair)
        size = len(clauses)
        for neg, pos in literals:
            size *= max(len(neg), len(pos))
        if size > bound:
            raise F.FormulaTooLarge(f"minterm queries exceed {bound} clauses")
        found: set[int] = set()

        def extend(prefix: dict, i: int, bits: int, grew: bool) -> None:
            if grew and _fm_eliminate(tuple(prefix), FM_CONSTRAINT_BOUND) is True:
                return
            if i == len(literals):
                found.add(bits)
                return
            for value, options in enumerate(literals[i]):
                for clause in options:
                    merged = dict(prefix)
                    merged.update(dict.fromkeys(clause))
                    # A literal already in the prefix cannot refute it.
                    extend(merged, i + 1, bits | (value << i), len(merged) > len(prefix))

        for clause in clauses:
            extend(dict.fromkeys(clause), 0, 0, True)
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
# SSA path formulas
# ---------------------------------------------------------------------------

def ssa_name(var: str, idx: int) -> str:
    return f"{var}@{idx}"


@dataclass
class PathFormula:
    """Strongest-postcondition encoding of an edge sequence."""

    constraints: tuple[F.Formula, ...]
    ssa: dict[str, int]

    @property
    def formula(self) -> F.Formula:
        return F.f_and(self.constraints)


def extend_path_formula(pf: PathFormula, edge: lang.Edge) -> PathFormula:
    idx = dict(pf.ssa)

    def var_fn(name: str) -> F.LinExpr:
        return F.lin_var(ssa_name(name, idx.get(name, 0)))

    op = edge.op
    constraints = pf.constraints
    if isinstance(op, lang.Assign):
        rhs = F.linearize(op.expr, var_fn)
        k = idx.get(op.var, 0) + 1
        idx[op.var] = k
        lhs = F.lin_var(ssa_name(op.var, k))
        constraints = constraints + (F.mk_atom(F.lin_sub(lhs, rhs), F.EQ, 0),)
    elif isinstance(op, lang.Assume):
        constraints = constraints + (F.bexpr_to_formula(op.expr, var_fn),)
    else:
        assert isinstance(op, lang.Havoc)
        idx[op.var] = idx.get(op.var, 0) + 1
    return PathFormula(constraints, idx)
