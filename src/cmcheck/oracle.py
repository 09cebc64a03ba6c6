"""The concrete semantics, which tests check against and ``refine`` replays by.

A concrete state is a program counter plus a total integer store.  The
bounded enumerator explores every execution from the all-zeros initial
store, resolving havoc over a small range, which makes it an exhaustive
oracle at desk scale (document the bounds whenever it backs a claim).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import assumptions as A
from . import formula as F
from . import lang

ConcreteState = tuple[int, tuple[tuple[str, int], ...]]  # (pc, sorted bindings)


def make_state(pc: int, store: dict[str, int]) -> ConcreteState:
    return (pc, tuple(sorted(store.items())))


def store_of(state: ConcreteState) -> dict[str, int]:
    return dict(state[1])


def initial_state(cfa: lang.Cfa) -> ConcreteState:
    return make_state(cfa.initial, {v: 0 for v in cfa.variables})


def step(state: ConcreteState, edge: lang.Edge) -> Optional[ConcreteState]:
    """Deterministic single step; havoc must be expanded by the caller."""
    pc, bindings = state
    if pc != edge.source:
        return None
    store = dict(bindings)
    op = edge.op
    if isinstance(op, lang.Assign):
        store[op.var] = lang.eval_arith(op.expr, store)
        return make_state(edge.target, store)
    if isinstance(op, lang.Assume):
        return make_state(edge.target, store) if lang.eval_bool(op.expr, store) else None
    raise ValueError("havoc edges have no deterministic step; expand over a range")


def successors(state: ConcreteState, edge: lang.Edge,
               havoc_range: tuple[int, int]) -> list[ConcreteState]:
    if isinstance(edge.op, lang.Havoc):
        pc, bindings = state
        if pc != edge.source:
            return []
        out = []
        store = dict(bindings)
        for v in range(havoc_range[0], havoc_range[1] + 1):
            store[edge.op.var] = v
            out.append(make_state(edge.target, store))
        return out
    nxt = step(state, edge)
    return [nxt] if nxt is not None else []


@dataclass
class ReachResult:
    states: set[ConcreteState]
    error_hit: bool
    witness: Optional[list[tuple[lang.Edge, ConcreteState]]]
    budget_exceeded: bool


def enumerate_reachable(cfa: lang.Cfa, havoc_range: tuple[int, int] = (0, 4),
                        max_states: int = 10_000, order: str = "bfs") -> ReachResult:
    """Bounded exhaustive reachability from the all-zeros initial store."""
    init = initial_state(cfa)
    seen: set[ConcreteState] = {init}
    parents: dict[ConcreteState, tuple[ConcreteState, lang.Edge]] = {}
    frontier = deque([init])
    error_state: Optional[ConcreteState] = None
    budget_exceeded = False
    while frontier:
        cur = frontier.popleft() if order == "bfs" else frontier.pop()
        if cur[0] in cfa.error_locations and error_state is None:
            error_state = cur
        for edge in cfa.edges_from(cur[0]):
            for nxt in successors(cur, edge, havoc_range):
                if nxt in seen:
                    continue
                if len(seen) >= max_states:
                    budget_exceeded = True
                    frontier.clear()
                    break
                seen.add(nxt)
                parents[nxt] = (cur, edge)
                frontier.append(nxt)
            if budget_exceeded:
                break
    witness = None
    if error_state is not None:
        trail: list[tuple[lang.Edge, ConcreteState]] = []
        cur = error_state
        while cur in parents:
            prev, edge = parents[cur]
            trail.append((edge, cur))
            cur = prev
        witness = list(reversed(trail))
    return ReachResult(seen, error_state is not None, witness, budget_exceeded)


# ---------------------------------------------------------------------------
# Condition soundness checking
# ---------------------------------------------------------------------------

def split_condition_by_location(psi: F.Formula):
    """Group psi's clauses by the location their pc-guard names.

    Returns (by_loc, general): clauses shaped like ``!(pc = l) | body``
    index under l; anything else must hold at every state.
    """
    clauses = list(psi.args) if isinstance(psi, F.AndF) else [psi]
    by_loc: dict[int, list[F.Formula]] = {}
    general: list[F.Formula] = []
    for clause in clauses:
        if isinstance(clause, F.TrueF):
            continue
        guard = A.pc_guard(clause)
        if guard is None:
            general.append(clause)
        else:
            by_loc.setdefault(guard[0], []).append(guard[1])
    return by_loc, general


def state_satisfies_condition(split, state: ConcreteState) -> bool:
    by_loc, general = split
    pc, bindings = state
    store = dict(bindings)
    store["pc"] = pc
    for clause in general:
        if not F.evaluate(clause, store):
            return False
    for body in by_loc.get(pc, ()):
        if not F.evaluate(body, store):
            return False
    return True


def condition_avoids_error(cfa: lang.Cfa, psi: F.Formula,
                           havoc_range: tuple[int, int] = (0, 4),
                           max_states: int = 10_000) -> Optional[bool]:
    """True iff no execution staying inside psi reaches an error location.

    Explores the reachable concrete subgraph restricted to psi-satisfying
    states.  None means the state budget was exhausted (undecided).
    """
    split = split_condition_by_location(psi)
    init = initial_state(cfa)
    if not state_satisfies_condition(split, init):
        return True
    seen = {init}
    frontier = deque([init])
    while frontier:
        cur = frontier.popleft()
        if cur[0] in cfa.error_locations:
            return False
        for edge in cfa.edges_from(cur[0]):
            for nxt in successors(cur, edge, havoc_range):
                if nxt in seen or not state_satisfies_condition(split, nxt):
                    continue
                if len(seen) >= max_states:
                    return None
                seen.add(nxt)
                frontier.append(nxt)
    return True
