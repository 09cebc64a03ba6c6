"""Shared test machinery: program generator and a naive reference engine."""

from __future__ import annotations

import random

from cmcheck import domains as D
from cmcheck import engine, formula as F, lang, oracle, refine
from cmcheck import solver as S
from cmcheck.assumptions import CompositeCpa


# ---------------------------------------------------------------------------
# Random mini-language programs
# ---------------------------------------------------------------------------

VARS = ["a", "b", "c", "d"]


def _rand_term(rng: random.Random, vars_in_scope: list[str]) -> str:
    roll = rng.random()
    if roll < 0.45 or not vars_in_scope:
        return str(rng.randint(-4, 4))
    return rng.choice(vars_in_scope)


def _rand_expr(rng: random.Random, vars_in_scope: list[str], allow_mult: bool) -> str:
    a = _rand_term(rng, vars_in_scope)
    roll = rng.random()
    if roll < 0.35:
        return a
    b = _rand_term(rng, vars_in_scope)
    if allow_mult and roll > 0.92:
        return f"{a} * {b}"
    op = rng.choice(["+", "+", "-"])
    return f"{a} {op} {b}"


def _rand_cmp(rng: random.Random, vars_in_scope: list[str]) -> str:
    lhs = rng.choice(vars_in_scope) if vars_in_scope else "0"
    op = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
    rhs = _rand_term(rng, vars_in_scope)
    return f"{lhs} {op} {rhs}"


def _rand_stmts(rng: random.Random, vars_in_scope: list[str], depth: int,
                budget: list[int], allow_mult: bool) -> list[str]:
    out: list[str] = []
    n = rng.randint(1, 3)
    for _ in range(n):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        roll = rng.random()
        pad = "  " * depth
        if roll < 0.40:
            v = rng.choice(vars_in_scope)
            out.append(f"{pad}{v} := {_rand_expr(rng, vars_in_scope, allow_mult)};")
        elif roll < 0.52:
            v = rng.choice(vars_in_scope)
            out.append(f"{pad}havoc {v};")
        elif roll < 0.64:
            out.append(f"{pad}assert({_rand_cmp(rng, vars_in_scope)});")
        elif roll < 0.84 and depth < 2:
            body = _rand_stmts(rng, vars_in_scope, depth + 1, budget, allow_mult)
            out.append(f"{pad}if ({_rand_cmp(rng, vars_in_scope)}) {{")
            out.extend(body)
            if rng.random() < 0.4:
                out.append(f"{pad}}} else {{")
                out.extend(_rand_stmts(rng, vars_in_scope, depth + 1, budget, allow_mult))
            out.append(f"{pad}}}")
        elif depth < 2:
            v = rng.choice(vars_in_scope)
            bound = rng.randint(1, 4)
            out.append(f"{pad}{v} := 0;")
            out.append(f"{pad}while ({v} < {bound}) {{")
            inner = _rand_stmts(rng, vars_in_scope, depth + 1, budget, allow_mult)
            out.extend(inner)
            out.append(f"{'  ' * (depth + 1)}{v} := {v} + 1;")
            out.append(f"{pad}}}")
        else:
            v = rng.choice(vars_in_scope)
            out.append(f"{pad}{v} := {_rand_expr(rng, vars_in_scope, allow_mult)};")
    return out


def random_program_text(rng: random.Random, n_vars: int = 3,
                        allow_mult: bool = False) -> str:
    names = VARS[:n_vars]
    lines = [f"int {', '.join(names)};"]
    budget = [rng.randint(3, 9)]
    lines.extend(_rand_stmts(rng, names, 0, budget, allow_mult))
    return "\n".join(lines) + "\n"


def random_cfa(rng: random.Random, n_vars: int = 3, max_locations: int = 20,
               allow_mult: bool = False, require_assert: bool = False) -> lang.Cfa:
    """A parsed random program within the location budget (resamples)."""
    for _ in range(200):
        text = random_program_text(rng, n_vars=n_vars, allow_mult=allow_mult)
        cfa = lang.parse_program(text)
        if len(cfa.locations) > max_locations:
            continue
        if require_assert and not cfa.error_locations:
            continue
        res = oracle.enumerate_reachable(cfa, havoc_range=(0, 4), max_states=8000)
        if res.budget_exceeded:
            continue
        return cfa
    raise RuntimeError("could not generate a suitable program")


# ---------------------------------------------------------------------------
# Independent reference implementation of the worklist algorithm
# ---------------------------------------------------------------------------

def reference_reached(cfa: lang.Cfa, cpa: CompositeCpa, order: str = "dfs") -> list:
    """Naive list-based worklist run: no ART, no indexes, no shortcuts."""
    init = cpa.initial_state(cfa)
    reached = [init]
    waitlist = [init]
    while waitlist:
        state = waitlist.pop(-1) if order == "dfs" else waitlist.pop(0)
        for edge in cfa.edges_from(cpa.location_of(state)):
            for succ, _assumption in cpa.successors(state, edge):
                for old in list(reached):
                    merged = cpa.merge(succ, old)
                    if merged != old:
                        reached[reached.index(old)] = merged
                        if old in waitlist:
                            waitlist[waitlist.index(old)] = merged
                        else:
                            waitlist.append(merged)
                if not any(cpa.covers(succ, r) for r in reached):
                    reached.append(succ)
                    waitlist.append(succ)
    return reached


def reference_cover_keys(self, state: D.ExplicitState, shapes):
    """Every sub-store of ``state``, all 2^n masks in descending order.

    Stands in for ``ExplicitDomain.cover_keys``, which yields only the
    sub-stores whose shapes were reached; the reached-shape filter must
    not change which cover a stop check finds.
    """
    items = state.bindings
    n = len(items)
    for mask in range((1 << n) - 1, -1, -1):
        yield D.ExplicitState(tuple(items[i] for i in range(n) if (mask >> i) & 1))


def reference_mine_predicates(path, pivot: int, cpa: CompositeCpa) -> set:
    """``refine.mine_predicates`` without its per-call tables.

    Re-converts, re-linearizes and re-substitutes on every edge visit; the
    shipped version must mine the same set.
    """
    current: dict = {}
    collected: dict = {}

    def note(atom: F.Atom, depth: int):
        if any(isinstance(t, F.ProdTerm) for t, _ in atom.terms):
            return  # opaque products are untrackable for the linear domain
        pos = F.positive_form(atom)
        key = F.atom_key(pos)
        current[key] = (pos, depth)
        collected[key] = pos

    for edge in reversed(path.edges):
        op = edge.op
        if isinstance(op, lang.Assume):
            for atom in F.atoms_of(F.bexpr_to_formula(op.expr)):
                note(atom, 0)
        elif isinstance(op, lang.Assign):
            repl = F.linearize(op.expr)
            for key, (atom, depth) in list(current.items()):
                if op.var not in refine._atom_vars(atom):
                    continue
                del current[key]
                if depth >= refine.MAX_WP_DEPTH:
                    continue
                sub = F.substitute(F.AtomF(atom), op.var, repl)
                if isinstance(sub, F.AtomF):
                    note(sub.atom, depth + 1)
        else:
            for key, (atom, _) in list(current.items()):
                if op.var in refine._atom_vars(atom):
                    del current[key]

    locations = {cpa.location_of(path.nodes[i].state) for i in range(pivot + 1)}
    return {(loc, atom) for loc in locations for atom in collected.values()}


def engine_reached_states(cfa: lang.Cfa, cpa: CompositeCpa, order: str = "dfs") -> list:
    rs = engine.RunState(cfa, cpa, order=order)
    result = engine.run_cpa(rs)
    assert result.status == "empty"
    return [n.state for n in rs.reached_nodes()], rs


def replay_witness(cfa: lang.Cfa, witness) -> bool:
    """Re-execute a confirmed counterexample; True iff it ends in an error."""
    state = oracle.initial_state(cfa)
    for edge, expected_store in witness:
        if isinstance(edge.op, lang.Havoc):
            store = oracle.store_of(state)
            store[edge.op.var] = expected_store[edge.op.var]
            state = oracle.make_state(edge.target, store)
        else:
            nxt = oracle.step(state, edge)
            if nxt is None:
                return False
            state = nxt
        if oracle.store_of(state) != expected_store:
            return False
    return state[0] in cfa.error_locations


def path_formula(edges) -> S.PathFormula:
    """SSA path formula of an edge sequence, one shipped step per edge."""
    pf = S.PathFormula((), {})
    for e in edges:
        pf = S.extend_path_formula(pf, e)
    return pf
