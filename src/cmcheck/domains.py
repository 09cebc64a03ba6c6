"""Analysis domains: explicit values, predicate abstraction, and none.

Each domain is a component consumed by the composite CPA: it provides
transfer/coverage/rendering over its own states and leaves locations,
assumptions, and bookkeeping to the composition.  ``NoDomain`` tracks
nothing, so the composite over it is the location analysis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import formula as F, lang, solver as solver_mod

log = logging.getLogger("cmcheck")

# Explicit values beyond this magnitude are demoted to top to keep bigint
# growth bounded; the concrete oracle keeps exact arithmetic.
VALUE_LIMIT = 2 ** 63


class AbstractionFailure(Exception):
    """A successor abstraction could not be computed (formula too large)."""


# ---------------------------------------------------------------------------
# Explicit-value domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExplicitState:
    """Partial map variable -> value; absent means top (unknown)."""

    bindings: tuple[tuple[str, int], ...]

    def get(self, var: str) -> Optional[int]:
        for v, val in self.bindings:
            if v == var:
                return val
        return None

    def store(self) -> dict[str, Optional[int]]:
        return dict(self.bindings)

    def shape(self) -> tuple[str, ...]:
        """The variables this store defines, in binding order."""
        return tuple([v for v, _ in self.bindings])

    def with_binding(self, var: str, value: Optional[int]) -> "ExplicitState":
        items = [(v, val) for v, val in self.bindings if v != var]
        if value is not None:
            items.append((var, value))
        items.sort()
        return ExplicitState(tuple(items))


class ExplicitDomain:
    """Composite-CPA component for explicit value tracking."""

    name = "explicit"

    def initial(self, cfa: lang.Cfa) -> ExplicitState:
        return ExplicitState(tuple(sorted((v, 0) for v in cfa.variables)))

    def transfer(self, state: ExplicitState, edge: lang.Edge) -> list[ExplicitState]:
        op = edge.op
        if isinstance(op, lang.Assign):
            val = lang.eval_arith(op.expr, state.store())
            if val is not None and abs(val) > VALUE_LIMIT:
                log.warning("explicit value overflow for %s; widening to top", op.var)
                val = None
            return [state.with_binding(op.var, val)]
        if isinstance(op, lang.Assume):
            truth = lang.eval_bool(op.expr, state.store())
            return [] if truth is False else [state]
        assert isinstance(op, lang.Havoc)
        return [state.with_binding(op.var, None)]

    def covers(self, state: ExplicitState, candidate: ExplicitState) -> bool:
        """candidate subsumes state iff it is less defined and agrees pointwise."""
        defined = dict(state.bindings)
        for v, val in candidate.bindings:
            if defined.get(v) != val:
                return False
        return True

    def top(self) -> ExplicitState:
        return ExplicitState(())

    def render(self, state: ExplicitState) -> F.Formula:
        return F.f_and(
            F.mk_atom(F.lin_sub(F.lin_var(v), F.lin_const(val)), F.EQ, 0)
            for v, val in state.bindings
        )

    def cover_keys(self, state: ExplicitState, shapes):
        """The sub-stores of ``state`` with one of the given shapes.

        Only a sub-store can cover ``state``, so reached covers are found
        by looking these up.  ``shapes`` are the shapes reached at the
        state's stop-check key; each that ``state`` defines gives one
        projection.  They come strongest first, in descending order of
        the subset mask over ``state.bindings`` (bit i for binding i),
        which is the order of the full 2^n sub-store enumeration.
        """
        bindings = state.bindings
        values = dict(bindings)
        found = []
        for shape in shapes:
            for v in shape:
                if v not in values:
                    break
            else:
                found.append(shape)
        # Bindings are sorted and distinct, so distinct shapes have distinct
        # masks, and a shape as long as the store is the store's own.
        if len(found) > 1:
            bits = {v: 1 << i for i, (v, _) in enumerate(bindings)}
            found.sort(key=lambda shape: sum(bits[v] for v in shape), reverse=True)
        n = len(bindings)
        for shape in found:
            if len(shape) == n:
                yield state
            else:
                yield ExplicitState(tuple((v, values[v]) for v in shape))


# ---------------------------------------------------------------------------
# Predicate abstraction domain
# ---------------------------------------------------------------------------

@dataclass
class Precision:
    """Tracked predicates: per-location plus global; grows monotonically."""

    per_loc: dict[int, dict[F.Atom, None]] = field(default_factory=dict)
    global_atoms: dict[F.Atom, None] = field(default_factory=dict)
    epoch: int = 0

    def atoms_at(self, loc: int) -> tuple[F.Atom, ...]:
        merged: dict = dict(self.global_atoms)
        merged.update(self.per_loc.get(loc, {}))
        return tuple(sorted(merged, key=F.atom_key))

    def add(self, loc: Optional[int], atom: F.Atom) -> bool:
        atom = F.positive_form(atom)
        table = self.global_atoms if loc is None else self.per_loc.setdefault(loc, {})
        if atom in table:
            return False
        table[atom] = None
        self.epoch += 1
        return True

    def atom_total(self) -> int:
        return len(self.global_atoms) + sum(len(t) for t in self.per_loc.values())


def reduce_cubes(minterms: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Prime implicants of the minterm set, as (value, care-mask) cubes.

    Deterministic and exact: the union of all prime implicants equals the
    original function, so this is canonicalization, not approximation.
    """
    if not minterms:
        return []
    full = (1 << n) - 1
    cubes = {(m, full) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while cubes:
        nxt: set[tuple[int, int]] = set()
        used: set[tuple[int, int]] = set()
        ordered = sorted(cubes)
        for i, (v1, m1) in enumerate(ordered):
            for v2, m2 in ordered[i + 1:]:
                if m1 != m2:
                    continue
                diff = (v1 ^ v2) & m1
                if diff and (diff & (diff - 1)) == 0:
                    nm = m1 & ~diff
                    nxt.add((v1 & nm, nm))
                    used.add((v1, m1))
                    used.add((v2, m2))
        primes |= cubes - used
        cubes = nxt
    return sorted(primes)


def cubes_to_formula(cubes: Sequence[tuple[int, int]], pi: Sequence[F.Atom]) -> F.Formula:
    disjuncts = []
    for value, mask in cubes:
        literals = []
        for i, p in enumerate(pi):
            if (mask >> i) & 1:
                lit = F.AtomF(p)
                if not (value >> i) & 1:
                    lit = F.f_not(lit)
                literals.append(lit)
        disjuncts.append(F.f_and(literals))
    return F.f_or(disjuncts)


class PredicateDomain:
    """Boolean predicate abstraction over the current precision.

    Successor abstraction is the strongest boolean combination of the
    target location's predicates implied by the strongest postcondition:
    up to ``minterm_bound`` predicates, the disjunction of the minterms the
    solver does not refute (``Solver.sat_minterms``, one pruned enumeration
    per transfer); above it, the (weaker but sound) cartesian abstraction.
    """

    name = "predicate"

    def __init__(self, solver: solver_mod.Solver, precision: Precision,
                 minterm_bound: int = 8):
        self.solver = solver
        self.precision = precision
        self.minterm_bound = minterm_bound
        self._cache: dict = {}

    def initial(self, cfa: lang.Cfa) -> F.Formula:
        return F.TRUE

    def top(self) -> F.Formula:
        return F.TRUE

    def render(self, state) -> F.Formula:
        return state

    def covers(self, state, candidate):
        if state == candidate:
            return True
        return self.solver.entails(state, candidate)

    def transfer(self, state: F.Formula, edge: lang.Edge) -> list[F.Formula]:
        key = (state, edge.id, self.precision.epoch)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._transfer_uncached(state, edge)
            self._cache[key] = hit
        return list(hit)

    def _transfer_uncached(self, state: F.Formula, edge: lang.Edge) -> list[F.Formula]:
        if isinstance(state, F.FalseF):
            return []
        premise = F.rename_vars(state, lambda n: solver_mod.ssa_name(n, 0))
        pf = solver_mod.extend_path_formula(solver_mod.PathFormula((), {}), edge)
        sp = F.f_and((premise,) + pf.constraints)

        def at_latest(name: str) -> str:
            return solver_mod.ssa_name(name, pf.ssa.get(name, 0))

        pi = self.precision.atoms_at(edge.target)
        try:
            if len(pi) <= self.minterm_bound:
                return self._boolean_abstraction(sp, pi, at_latest)
            return self._cartesian_abstraction(sp, pi, at_latest)
        except F.FormulaTooLarge as exc:
            raise AbstractionFailure(str(exc)) from exc

    def _boolean_abstraction(self, sp, pi, at_latest) -> list[F.Formula]:
        ssa_preds = [F.rename_vars(F.AtomF(p), at_latest) for p in pi]
        survivors = self.solver.sat_minterms(sp, ssa_preds)
        if not survivors:
            return []
        return [cubes_to_formula(reduce_cubes(survivors, len(pi)), pi)]

    def _cartesian_abstraction(self, sp, pi, at_latest) -> list[F.Formula]:
        if self.solver.check_sat(sp).kind == solver_mod.UNSAT:
            return []
        parts = []
        for p in pi:
            ssa_pred = F.rename_vars(F.AtomF(p), at_latest)
            if self.solver.entails(sp, ssa_pred):
                parts.append(F.AtomF(p))
            elif self.solver.entails(sp, F.f_not(ssa_pred)):
                parts.append(F.f_not(F.AtomF(p)))
        return [F.f_and(parts)]


class NoDomain:
    """Placeholder when only locations (plus bookkeeping) are tracked."""

    name = "none"

    def initial(self, cfa):
        return None

    def transfer(self, state, edge):
        return [None]

    def covers(self, state, candidate):
        return True

    def top(self):
        return None

    def render(self, state) -> F.Formula:
        return F.TRUE
