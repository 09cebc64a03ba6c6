"""Shared test machinery: program generators and independent references.

The references check meaning, not a copy of the code: a naive worklist
run (for the engine), the full 2^n sub-store enumeration (for the shape
index), the CPA contract of a finished run against the concrete
semantics of ``oracle`` (for every post and cover), witness replay, and
brute-force sweeps of an integer box (for the solver and the predicate
abstraction).
"""

from __future__ import annotations

import gc
import itertools
import random
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Optional, Sequence

from cmcheck import conditions as C
from cmcheck import domains as D
from cmcheck import engine, formula as F, lang, oracle
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


def serialize_cfa(cfa: lang.Cfa) -> str:
    """Deterministic inverse of ``lang.parse_cfa``; edge ids follow file order."""
    lines = [f"vars: {', '.join(cfa.variables)};"]
    lines.append(f"init: L{cfa.initial};")
    if cfa.error_locations:
        errs = ", ".join(f"L{l}" for l in sorted(cfa.error_locations))
        lines.append(f"error: {errs};")
    for e in cfa.edges:
        lines.append(f"L{e.source} -> L{e.target}: {lang.render_op(e.op)};")
    return "\n".join(lines) + "\n"


def br_program(k: int) -> str:
    """``br_k``: havoc c, then run only part c of ``nonlinear_square``'s
    square and loop repeated k times (square 0, loop 0, ..., loop k-1), as
    nested ifs on c with the last loop in the final else."""
    parts = []
    for j in range(k):
        parts.append(f"x_{j} := 123456 + {j}; r_{j} := x_{j} * x_{j}; assert(r_{j} >= x_{j});")
        parts.append(f"i_{j} := 0; while (i_{j} < 1000000) {{ i_{j} := i_{j} + 1; }} "
                     f"assert(i_{j} >= 1000000);")
    body = parts[-1]
    for n in range(2 * k - 2, -1, -1):
        body = f"if (c == {n}) {{ {parts[n]} }} else {{ {body} }}"
    names = " ".join(f"int x_{j}; int r_{j}; int i_{j};" for j in range(k))
    return f"int c; {names}\nhavoc c;\n{body}\n"


# ---------------------------------------------------------------------------
# Independent reference implementation of the worklist algorithm
# ---------------------------------------------------------------------------

def reference_reached(cfa: lang.Cfa, cpa: CompositeCpa, order: str = "dfs") -> list:
    """Naive list-based worklist run: no ART, no indexes, no shortcuts."""
    init = cpa.initial_state()
    reached = [init]
    waitlist = [init]
    while waitlist:
        state = waitlist.pop(-1) if order == "dfs" else waitlist.pop(0)
        for edge in cfa.edges_from(state.location):
            for succ in cpa.successors(state, edge):
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


def reference_cover_keys(self, state: D.ExplicitState, key):
    """Every sub-store of ``state``, all 2^n masks in descending order.

    Stands in for ``ExplicitDomain.cover_keys``, which yields only the
    sub-stores whose shapes were seen at stop-check key ``key``; the
    seen-shape filter must not change which cover a stop check finds.
    """
    items = state.bindings
    n = len(items)
    for mask in range((1 << n) - 1, -1, -1):
        yield D.ExplicitState(tuple(items[i] for i in range(n) if (mask >> i) & 1))


# ---------------------------------------------------------------------------
# Contracts against the concrete semantics
# ---------------------------------------------------------------------------

def states_by_location(ground: oracle.ReachResult) -> dict[int, list]:
    """The bounded-reachable concrete states by location, each with its store."""
    by_loc: dict[int, list] = {}
    for state in sorted(ground.states):
        by_loc.setdefault(state[0], []).append((state, oracle.store_of(state)))
    return by_loc


def contract_violations(where: str, rs: engine.RunState, states_at: dict,
                        counts: Counter, havoc_range=(0, 4)) -> list[str]:
    """The CPA contract of a finished run, checked on concrete states.

    Post: for each reached node that is not covered, removed or excluded,
    each concrete state s at its location with s |= render(domain) and
    s |= assumption, and each edge out of it, every concrete successor of
    s satisfies the render of some ``successors`` result (recomputed, so
    a predicate post uses the final precision, which only grows).  Runs
    with an observer skip it, since the observer prunes verified paths.
    Covers: for each live covered node c with cover k and each concrete
    state s at c's location, s |= render(c) implies s |= render(k), and
    s |= k's assumption implies s |= c's assumption.  ``counts`` gets the
    number of steps and cover checks; each violation names ``where``, the
    node, the edge and the store.
    """
    cpa = rs.cpa
    render = cpa.domain.render
    out = []
    for node in rs.reached_nodes() if cpa.observer is None else ():
        state = node.state
        pre = F.f_and([render(state.domain), state.assumption])
        inside = [(s, store) for s, store in states_at.get(state.location, ())
                  if F.evaluate(pre, store)]
        if not inside:
            continue  # an excluded node's assumption is false
        for edge in cpa.cfa.edges_from(state.location):
            posts = [render(succ.domain) for succ in cpa.successors(state, edge)]
            for s, store in inside:
                for s2 in oracle.successors(s, edge, havoc_range):
                    counts["post"] += 1
                    if not any(F.evaluate(p, oracle.store_of(s2)) for p in posts):
                        out.append(f"{where}: post of nid {node.nid} along {edge} "
                                   f"misses {oracle.store_of(s2)} from store {store}")
    for node in rs.nodes:
        cover = node.covered_by
        if cover is None or node.removed:
            continue
        c, k = node.state, cover.state
        c_domain, k_domain = render(c.domain), render(k.domain)
        for _, store in states_at.get(c.location, ()):
            counts["cover"] += 1
            if F.evaluate(c_domain, store) and not F.evaluate(k_domain, store):
                out.append(f"{where}: cover nid {cover.nid} misses store {store} "
                           f"of nid {node.nid} (edge {node.edge})")
            if F.evaluate(k.assumption, store) and not F.evaluate(c.assumption, store):
                out.append(f"{where}: cover nid {cover.nid} assumes store {store} "
                           f"that nid {node.nid} (edge {node.edge}) excludes")
    return out


# Fuel for engine_reached_states: its callers' runs finish within 61 posts,
# so a run that halts here has stopped terminating (say, a condition
# component that no longer excludes) and fails the assert instead of hanging.
ENGINE_TEST_FUEL = 10_000


def engine_reached_states(cpa: CompositeCpa, order: str = "dfs") -> list:
    rs = engine.RunState(cpa, order=order)
    monitor = C.GlobalMonitor(max_fuel=ENGINE_TEST_FUEL)
    assert engine.run_cpa(rs, monitor) is None and not monitor.halted
    return [n.state for n in rs.reached_nodes()], rs


@contextmanager
def counting_calls(owner, name: str):
    """Count the calls of ``owner.name`` made inside the block.

    Yields a Counter keyed by each call's first argument, so
    ``sum(calls.values())`` is the number of calls and ``max`` the most
    calls with one argument.  The function is restored on exit.
    """
    shipped = getattr(owner, name)
    calls: Counter = Counter()

    def counted(*args, **kwargs):
        calls[args[0] if args else None] += 1
        return shipped(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        setattr(owner, name, shipped)


def tracked_by_type() -> Counter:
    """The objects the cyclic collector tracks, by type, after a full
    collection: what each generation-2 pass walks."""
    gc.collect()
    return Counter(map(type, gc.get_objects()))


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


def path_formula(edges) -> SimpleNamespace:
    """SSA path formula of an edge sequence: its ``formula``, and in ``ssa``
    each written variable's last index; one shipped step per edge."""
    ssa: dict[str, int] = {}
    constraints = [S.encode_edge(e, ssa) for e in edges]
    return SimpleNamespace(formula=F.f_and(constraints), ssa=ssa)


# ---------------------------------------------------------------------------
# Brute-force box sweeps (independent of the solver)
# ---------------------------------------------------------------------------

def box_model(f: F.Formula, var_names: Sequence[str],
              box: int = 8) -> Optional[dict[str, int]]:
    """The first point of [-box, box]^n where f holds, or None.

    Points are visited in ``itertools.product`` order; products are
    evaluated exactly.
    """
    for point in itertools.product(range(-box, box + 1), repeat=len(var_names)):
        store = dict(zip(var_names, point))
        if F.evaluate(f, store):
            return store
    return None


def box_minterms(sp: F.Formula, pi: Sequence[F.Atom], var_names: Sequence[str],
                 box: int = 8) -> set[int]:
    """The predicate minterms that hold together with sp at some box point.

    One pass over [-box, box]^n: every point where sp holds contributes
    its minterm, the bit-vector with bit i set iff pi[i] holds there.
    Products are evaluated exactly; independent of the solver.
    """
    if len(pi) > 6:
        raise ValueError("oracle limited to 6 predicates")
    preds = [F.AtomF(p) for p in pi]
    seen: set[int] = set()
    for point in itertools.product(range(-box, box + 1), repeat=len(var_names)):
        store = dict(zip(var_names, point))
        if F.evaluate(sp, store):
            seen.add(sum(1 << i for i, p in enumerate(preds) if F.evaluate(p, store)))
    return seen


def brute_force_boolean_abstraction(sp: F.Formula, pi: Sequence[F.Atom],
                                    var_names: Sequence[str], box: int = 8) -> F.Formula:
    """Disjunction of the predicate minterms satisfiable with sp on the box."""
    kept = []
    for bits in sorted(box_minterms(sp, pi, var_names, box)):
        kept.append(F.f_and(F.AtomF(p) if (bits >> i) & 1 else F.f_not(F.AtomF(p))
                            for i, p in enumerate(pi)))
    return F.f_or(kept)


def abstraction_minterms(f: F.Formula, pi: Sequence[F.Atom]) -> set[int]:
    """The bit-vectors over pi at which f holds, read propositionally.

    Bit i stands for pi[i].  An atom of f is read as bit i when it is
    pi[i] and as its negation when it is the complement of pi[i] (same
    positive form); any other atom raises ValueError.  Equal sets mean
    equivalent boolean combinations of pi, whatever the atoms mean
    arithmetically.
    """
    index = {F.positive_form(p): i for i, p in enumerate(pi)}

    def bit(a: F.Atom) -> tuple[int, bool]:
        i = index.get(F.positive_form(a))
        if i is None:
            raise ValueError(f"atom {F.render_atom(a)} is not in the precision")
        return i, a == pi[i]

    def holds(g: F.Formula, bits: int) -> bool:
        if isinstance(g, F.TrueF):
            return True
        if isinstance(g, F.FalseF):
            return False
        if isinstance(g, F.AtomF):
            i, positive = bit(g.atom)
            return bool((bits >> i) & 1) == positive
        if isinstance(g, F.NotF):
            return not holds(g.arg, bits)
        if isinstance(g, F.AndF):
            return all(holds(a, bits) for a in g.args)
        return any(holds(a, bits) for a in g.args)

    return {bits for bits in range(1 << len(pi)) if holds(f, bits)}
