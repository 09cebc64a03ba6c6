"""Shared test machinery: program generator and naive reference versions.

The reference versions are straightforward copies of earlier shipped code
(or naive re-implementations of it); tests require the shipped code to
give the same results.
"""

from __future__ import annotations

import gc
import itertools
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from typing import Optional, Sequence

from cmcheck import assumptions as A
from cmcheck import conditions as C
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


def reference_export_automaton(rs: engine.RunState) -> A.AssumptionAutomaton:
    """Collapse the ART into an assumption automaton (reference copy).

    ``assumptions.export_automaton`` before it was tuned: per-state flag
    sets sorted at the end, and a by-edge table for every node.  It still
    seeds from edge labels and writes the bare ART label; the two rules
    agree unless a merge or cover conjoins another path's overflow fact,
    so ``test_export_matches_reference_copy`` runs no overflow config.

    A node is retained iff an excluded node, a waitlist member, or a
    non-true edge assumption is reachable below it (through covered-node
    redirects); everything else is verified and collapses into T.
    Fully-expanded retained nodes get explicit T-transitions for edges
    whose successor computation produced nothing (proven infeasible).
    """
    cpa = rs.cpa
    covers_index = rs.covers_index

    def interesting(node: engine.ArtNode) -> bool:
        if not isinstance(node.assumption, F.TrueF):
            return True
        if node.covered_by is not None:
            return False
        return isinstance(node.state.assumption, F.FalseF) or node.in_waitlist

    # Walk back from the interesting nodes: a node's predecessors are its
    # parent and the live nodes it covers.
    retained = bytearray(len(rs.nodes))  # by nid
    stack = [n for n in rs.nodes if not n.removed and interesting(n)]
    while stack:
        n = stack.pop()
        if retained[n.nid]:
            continue
        retained[n.nid] = 1
        if n.parent is not None:
            stack.append(n.parent)
        stack.extend(c for c in covers_index.get(n.nid, ()) if not c.removed)

    named = [n for n in rs.nodes if retained[n.nid] and n.covered_by is None]
    qid = {n: f"q{i}" for i, n in enumerate(named)}

    def resolve(node: engine.ArtNode) -> str:
        target = node.covered_by if node.covered_by is not None else node
        return qid.get(target, A.SINK_VERIFIED)

    flags: dict[str, set[str]] = {A.SINK_VERIFIED: {"T"}, A.SINK_UNKNOWN: {"U"}}
    transitions: dict[tuple[str, int], tuple[F.Formula, str]] = {}
    for n in named:
        sid = qid[n]
        flags.setdefault(sid, set())
        if isinstance(n.state.assumption, F.FalseF) or n.in_waitlist:
            continue  # all matches fall through to U at run time
        by_edge: dict[int, list[engine.ArtNode]] = {}
        for c in n.children():
            if not c.removed:
                by_edge.setdefault(c.edge.id, []).append(c)
        for edge_id, kids in by_edge.items():
            # Re-expansions (after counter merges) can record several
            # attempts along one edge; fold them into one deterministic
            # transition.  The genuine successor's target wins, covered
            # duplicates redirect there anyway, and the labels conjoin.
            main = next((c for c in kids if c.covered_by is None), None)
            if main is None:
                main = min(kids, key=lambda c: c.covered_by.nid)
            if len(kids) == 1:
                label = kids[0].assumption  # already canonical
            else:
                label = F.f_and(c.assumption for c in kids)
            transitions[(sid, edge_id)] = (label, resolve(main))
        loc = n.state.location
        for edge in cpa.cfa.edges_from(loc):
            if edge.id not in by_edge:
                transitions[(sid, edge.id)] = (F.TRUE, A.SINK_VERIFIED)

    init_id = resolve(rs.root)
    flags.setdefault(init_id, set()).add("init")
    return A.AssumptionAutomaton(
        initial=init_id,
        flags={sid: tuple(sorted(fl)) for sid, fl in flags.items()},
        transitions=transitions,
        edge_count=len(cpa.cfa.edges),
    )


def _reference_strengthen(candidate: A.CompositeState, exceeded: bool, overflow_phi):
    """The strengthen operator, applied to one fresh successor tuple."""
    if exceeded:
        return replace(candidate, assumption=F.FALSE)
    if overflow_phi is not None and not isinstance(overflow_phi, F.TrueF):
        return replace(candidate, assumption=F.f_and([candidate.assumption, overflow_phi]))
    return candidate


def _reference_step_bookkeeping(cpa: CompositeCpa, state: A.CompositeState, edge: lang.Edge):
    """Observer and condition successors, or None if the path stops here."""
    if edge.source != state.location or isinstance(state.assumption, F.FalseF):
        return None
    obs2 = None
    if cpa.observer is not None:
        obs2 = cpa.observer.step(state.observer, edge)
        if obs2 is A.PRUNED:
            return None
    conds2 = tuple(c.transfer(s, edge)
                   for c, s in zip(cpa.condition_components, state.conds))
    return obs2, conds2


def reference_successors(cpa: CompositeCpa, state: A.CompositeState, edge: lang.Edge):
    """``CompositeCpa.successors`` before it was tuned: bookkeeping in a
    helper, and each successor built, then strengthened, one by one."""
    step = _reference_step_bookkeeping(cpa, state, edge)
    if step is None:
        return []
    obs2, conds2 = step
    exceeded = any(s.exceeded for s in conds2)
    overflow_phi = cpa.overflow.transfer(edge) if cpa.overflow else None
    premise = state.domain
    if isinstance(cpa.domain, D.PredicateDomain) and cpa.overflow is not None:
        premise = F.f_and([premise, state.assumption])
    try:
        domain_succs = cpa.domain.transfer(premise, edge)
    except D.AbstractionFailure:
        domain_succs = [cpa.domain.top()]
        exceeded = True
    out = []
    for d2 in domain_succs:
        candidate = A.CompositeState(
            assumption=F.TRUE,
            location=edge.target,
            conds=conds2,
            observer=obs2,
            domain=d2,
        )
        out.append(_reference_strengthen(candidate, exceeded, overflow_phi))
    return out


def reference_mine_predicates(nodes, edges, pivot: int) -> set:
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

    for edge in reversed(edges):
        op = edge.op
        if isinstance(op, lang.Assume):
            for atom in F.atoms_of(F.bexpr_to_formula(op.expr)):
                note(atom, 0)
        elif isinstance(op, lang.Assign):
            repl = F.linearize(op.expr)
            for key, (atom, depth) in list(current.items()):
                if op.var not in {t.name for t, _ in atom.terms}:
                    continue
                del current[key]
                if depth >= refine.MAX_WP_DEPTH:
                    continue
                sub = F.substitute(F.AtomF(atom), op.var, repl)
                if isinstance(sub, F.AtomF):
                    note(sub.atom, depth + 1)
        else:
            for key, (atom, _) in list(current.items()):
                if op.var in {t.name for t, _ in atom.terms}:
                    del current[key]

    locations = {nodes[i].state.location for i in range(pivot + 1)}
    return {(loc, atom) for loc in locations for atom in collected.values()}


def engine_reached_states(cpa: CompositeCpa, order: str = "dfs") -> list:
    rs = engine.RunState(cpa, order=order)
    monitor = C.GlobalMonitor()
    assert engine.run_cpa(rs, monitor) is None and not monitor.halted
    return [n.state for n in rs.reached_nodes()], rs


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
