"""Three-valued satisfiability, entailment, and SSA path formulas.

The decision procedure is deliberately self-contained: normalize to DNF
(bounded), then per conjunct run integer Fourier-Motzkin elimination
(combination results are gcd-reduced with floor-tightened bounds).  When
the projection is rationally satisfiable, its elimination record yields
an integer witness by back-substitution (``_kernels``).

Unsat answers are sound; Sat is only reported with a concrete integer
witness; everything else is MaybeSat.  Opaque product terms are free
dimensions here, which keeps all answers conservative for nonlinear
programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class SolverConfig:
    dnf_clause_bound: int = 4096


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

def _as_le_constraints(atoms: Sequence[F.Atom]) -> list[tuple[dict, int]]:
    """Each constraint means sum(coeff * term) <= bound; equalities split."""
    cs: list[tuple[dict, int]] = []
    for a in atoms:
        coeffs = {t: c for t, c in a.terms}
        cs.append((coeffs, a.bound))
        if a.op == F.EQ:
            cs.append(({t: -c for t, c in coeffs.items()}, -a.bound))
    return cs


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
    """
    live: list[tuple[dict, int]] = []
    for coeffs, bound in _as_le_constraints(atoms):
        if coeffs:
            live.append((coeffs, bound))
        elif bound < 0:
            return True
    remaining = {}
    for coeffs, _ in live:
        for t in coeffs:
            remaining.setdefault(F.term_key(t), t)

    steps: list[tuple[F.Term, list[tuple[dict, int]]]] = []
    while live:
        terms = {}
        for coeffs, _ in live:
            for t in coeffs:
                terms.setdefault(F.term_key(t), t)
        # Pick the cheapest variable to eliminate, deterministically.
        best = None
        for key, t in sorted(terms.items()):
            ups = sum(1 for c, _ in live if c.get(t, 0) > 0)
            downs = sum(1 for c, _ in live if c.get(t, 0) < 0)
            cost = ups * downs
            if best is None or cost < best[0]:
                best = (cost, key, t)
        _, key, var = best
        uppers = [(c, b) for c, b in live if c.get(var, 0) > 0]
        lowers = [(c, b) for c, b in live if c.get(var, 0) < 0]
        steps.append((var, uppers + lowers))
        del remaining[key]
        nxt = [(c, b) for c, b in live if c.get(var, 0) == 0]
        for uc, ub in uppers:
            a = uc[var]
            for lc, lb in lowers:
                b = -lc[var]
                comb: dict = {}
                for t, c in uc.items():
                    if t != var:
                        comb[t] = comb.get(t, 0) + b * c
                for t, c in lc.items():
                    if t != var:
                        comb[t] = comb.get(t, 0) + a * c
                comb = {t: c for t, c in comb.items() if c}
                bound = b * ub + a * lb
                if not comb:
                    if bound < 0:
                        return True
                    continue
                g = 0
                for c in comb.values():
                    g = gcd(g, abs(c))
                if g > 1:
                    comb = {t: c // g for t, c in comb.items()}
                    bound //= g  # floor: integer tightening on derived bounds
                nxt.append((comb, bound))
                if len(nxt) > max_constraints:
                    return None
        live = nxt
    steps.extend((t, []) for _, t in sorted(remaining.items()))
    return steps


class Solver:
    """Decision procedures with per-instance result caches."""

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._sat_cache: dict[F.Formula, SatResult] = {}
        self._entails_cache: dict[tuple[F.Formula, F.Formula], bool] = {}
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
        clauses = to_dnf(f, self.config.dnf_clause_bound)
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


def build_path_formula(edges: Iterable[lang.Edge]) -> PathFormula:
    pf = PathFormula((), {})
    for e in edges:
        pf = extend_path_formula(pf, e)
    return pf
