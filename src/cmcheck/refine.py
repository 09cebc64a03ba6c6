"""Counterexample analysis: feasibility, predicate mining, refinement.

An error path is the target node's ``path_from_root()``: its nodes, root
first, and the edges between them.  Feasibility reads the edges, mining
both, and exclusion the nodes.

Feasibility walks the abstract error path forward, folding constant
assignments eagerly (so loop-counter contradictions surface without the
solver) and keeping everything else as SSA residual constraints.
A satisfiable residual only confirms a bug after the witness replays
through ``oracle``'s concrete steps to the error location; opaque products
make spurious witnesses possible, and an unreplayable one downgrades the
result to an unconfirmed path, handled exactly like refinement failure.

Refinement failure excludes the path states from the pivot (first state
whose prefix became unsatisfiable; the error state itself for unconfirmed
paths) to the end, recording ``(pc = l) -> !state`` assumptions via the
excluded states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from . import assumptions as A
from . import conditions as C
from . import domains as D
from . import engine, formula as F, lang, oracle
from . import solver as solver_mod


@dataclass
class Feasible:
    trace: list[tuple[lang.Edge, dict[str, int]]]  # edge, store after it


@dataclass
class Infeasible:
    pivot: int  # index of the first unreachable state on the path


@dataclass
class Unconfirmed:
    pivot: int
    reason: str


FeasibilityResult = Union[Feasible, Infeasible, Unconfirmed]


def check_feasibility(edges: list[lang.Edge], cfa: lang.Cfa,
                      solver: solver_mod.Solver,
                      atom_limit: Optional[int] = None) -> FeasibilityResult:
    """Decide concrete executability of an abstract error path's edges.

    Each edge is encoded by ``solver.encode_edge`` with a constant
    environment: constant assignments fold into it, and whatever else an
    edge constrains is a residual.  A pivot indexes the path's states, the
    root being 0, so the error state's is ``len(edges)``.  Executions start
    from the all-zeros store, so ``v@0 = 0`` seeds the constants.  An
    assume that folds to false ends the walk as the last residual, and the
    pivot search over the residual prefixes places the pivot.
    """
    consts: dict[str, int] = {solver_mod.ssa_name(v, 0): 0 for v in cfa.variables}
    idx: dict[str, int] = {}
    residuals: list[tuple[int, F.Formula]] = []
    for i, edge in enumerate(edges):
        f = solver_mod.encode_edge(edge, idx, consts)
        if not isinstance(f, F.TrueF):
            residuals.append((i, f))
        if isinstance(f, F.FalseF):
            return Infeasible(pivot=_localize_pivot(residuals, solver))

    last = len(edges)
    total_atoms = sum(F.atom_count(f) for _, f in residuals)
    if atom_limit is not None and total_atoms > atom_limit:
        return Unconfirmed(pivot=last, reason=f"path formula has {total_atoms} atoms")

    try:
        result = solver.check_sat(F.f_and(f for _, f in residuals))
    except F.FormulaTooLarge as exc:
        return Unconfirmed(pivot=last, reason=str(exc))

    if result.kind == solver_mod.UNSAT:
        return Infeasible(pivot=_localize_pivot(residuals, solver))
    if result.kind == solver_mod.SAT:
        replayed = _replay(edges, cfa, result.witness or {})
        if replayed is not None:
            return Feasible(trace=replayed)
        return Unconfirmed(pivot=last, reason="witness does not replay")
    return Unconfirmed(pivot=last, reason="path formula undecided")


def _localize_pivot(residuals, solver: solver_mod.Solver) -> int:
    """Smallest edge index whose residual prefix is unsatisfiable, plus one."""
    lo, hi = 0, len(residuals) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        prefix = F.f_and(f for _, f in residuals[: mid + 1])
        try:
            unsat = solver.check_sat(prefix).kind == solver_mod.UNSAT
        except F.FormulaTooLarge:
            unsat = False
        if unsat:
            hi = mid
        else:
            lo = mid + 1
    return residuals[lo][0] + 1


def _replay(edges: list[lang.Edge], cfa: lang.Cfa, witness: dict):
    """Execute the path by ``oracle``'s steps, a havoc taking its witness value."""
    state = oracle.initial_state(cfa)
    idx: dict[str, int] = {}
    trace: list[tuple[lang.Edge, dict[str, int]]] = []
    for edge in edges:
        op = edge.op
        value = 0
        if not isinstance(op, lang.Assume):
            idx[op.var] = idx.get(op.var, 0) + 1
            if isinstance(op, lang.Havoc):
                value = witness.get(F.VarTerm(solver_mod.ssa_name(op.var, idx[op.var])), 0)
        successors = oracle.successors(state, edge, (value, value))
        if not successors:
            return None
        state = successors[0]
        trace.append((edge, oracle.store_of(state)))
    return trace if state[0] in cfa.error_locations else None


# ---------------------------------------------------------------------------
# Predicate mining
# ---------------------------------------------------------------------------

MAX_WP_DEPTH = 3  # substitution steps per atom; longer chains diverge anyway


def mine_predicates(nodes: list[engine.ArtNode], edges: list[lang.Edge],
                    pivot: int) -> set[tuple[int, F.Atom]]:
    """Candidate predicates from the path's assume edges.

    Walks backward collecting assume-edge atoms, substituting them through
    assignments (weakest-precondition style, a few steps per atom) and
    dropping them at havocs; every collected atom is proposed at every
    path location from the pivot back to the root.

    A long path walks the same few edges again and again, so the assume
    atoms and right-hand side of each edge, the variables of each atom and
    each (atom, edge) substitution are computed once per call.
    """
    current: dict = {}
    collected: dict = {}
    assume_atoms: dict[int, list[F.Atom]] = {}
    rhs: dict[int, F.LinExpr] = {}
    atom_vars: dict[F.Atom, set[str]] = {}
    substituted: dict[tuple[F.Atom, int], F.Formula] = {}

    def vars_of(atom: F.Atom) -> set[str]:
        names = atom_vars.get(atom)
        if names is None:
            names = atom_vars[atom] = {t.name for t, _ in atom.terms}
        return names

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
            atoms = assume_atoms.get(edge.id)
            if atoms is None:
                atoms = assume_atoms[edge.id] = F.atoms_of(F.bexpr_to_formula(op.expr))
            for atom in atoms:
                note(atom, 0)
        elif isinstance(op, lang.Assign):
            for key, (atom, depth) in list(current.items()):
                if op.var not in vars_of(atom):
                    continue
                del current[key]
                if depth >= MAX_WP_DEPTH:
                    continue
                sub = substituted.get((atom, edge.id))
                if sub is None:
                    repl = rhs.get(edge.id)
                    if repl is None:
                        repl = rhs[edge.id] = F.linearize(op.expr)
                    sub = substituted[(atom, edge.id)] = F.substitute(F.AtomF(atom), op.var, repl)
                if isinstance(sub, F.AtomF):
                    note(sub.atom, depth + 1)
        else:
            for key, (atom, _) in list(current.items()):
                if op.var in vars_of(atom):
                    del current[key]

    locations = {nodes[i].state.location for i in range(pivot + 1)}
    return {(loc, atom) for loc in locations for atom in collected.values()}


def exclude_path_suffix(rs: engine.RunState, nodes: list[engine.ArtNode], pivot: int) -> None:
    """Set the assumption to false on the path states from pivot to the end."""
    for node in nodes[pivot:]:
        if node.removed or isinstance(node.state.assumption, F.FalseF):
            continue
        rs.replace_state(node, replace(node.state, assumption=F.FALSE))
        node.in_waitlist = False


# ---------------------------------------------------------------------------
# The analysis loop (with or without refinement)
# ---------------------------------------------------------------------------

def refine_loop(cpa: A.CompositeCpa, order: str, monitor: C.GlobalMonitor,
                refinement: bool, max_refinements: Optional[int],
                atom_limit: Optional[int]) -> A.ConditionReport:
    """Explore, confirm or refute error states, refine or exclude, repeat.

    Refinement grows the precision of ``cpa``'s predicate domain; other
    domains exclude every spurious path.  A path formula of more than
    ``atom_limit`` atoms is not decided.  Terminates on a confirmed bug,
    an empty waitlist, or a monitor halt; always ends in post-processing.
    """
    cfa = cpa.cfa
    precision = cpa.domain.precision if isinstance(cpa.domain, D.PredicateDomain) else None
    rs = engine.RunState(cpa, order=order)
    refined_signatures: set[tuple[int, ...]] = set()
    refinements = 0
    witness = description = None

    while True:
        node = engine.run_cpa(rs, monitor, target_locs=cfa.error_locations)
        if node is None:
            break
        nodes, edges = node.path_from_root()
        feas = check_feasibility(edges, cfa, cpa.solver, atom_limit)
        if isinstance(feas, Feasible):
            error_loc = node.state.location
            witness = feas.trace
            description = cfa.error_info.get(error_loc, f"error location L{error_loc}")
            break
        pivot = min(feas.pivot, len(edges))
        signature = tuple(e.id for e in edges)
        if (refinement and precision is not None
                and signature not in refined_signatures
                and (max_refinements is None or refinements < max_refinements)):
            mined = mine_predicates(nodes, edges, pivot)
            changed_locs = set()
            for loc, atom in sorted(mined, key=lambda la: (la[0], F.atom_key(la[1]))):
                if precision.add(loc, atom):
                    changed_locs.add(loc)
            if changed_locs:
                refined_signatures.add(signature)
                refinements += 1
                # Re-explore from the first path node whose location got
                # new predicates; anything above cannot change.
                cut = pivot
                for i in range(pivot + 1):
                    if nodes[i].state.location in changed_locs:
                        cut = max(1, i)
                        break
                parent = rs.remove_subtree(nodes[cut])
                if parent is not None:
                    rs.add_to_waitlist(parent)
                continue
        exclude_path_suffix(rs, nodes, pivot)

    return A.postprocess(rs, confirmed_witness=witness, error_description=description,
                         stats={"reached": rs.reached_size(), "refinements": refinements})
