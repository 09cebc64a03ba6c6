"""Counterexample analysis: feasibility, predicate mining, refinement.

Feasibility walks the abstract error path forward, folding constant
assignments eagerly (so loop-counter contradictions surface without the
solver) and keeping everything else as SSA residual constraints.
A satisfiable residual only confirms a bug after the witness replays
through the concrete interpreter to the error location; opaque products
make spurious witnesses possible, and an unreplayable one downgrades the
result to an unconfirmed path, handled exactly like refinement failure.

Refinement failure excludes the path states from the pivot (first state
whose prefix became unsatisfiable; the error state itself for unconfirmed
paths) to the end, recording ``(pc = l) -> !state`` assumptions via the
excluded states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import assumptions as A
from . import conditions as C
from . import domains as D
from . import engine, formula as F, lang
from . import solver as solver_mod


@dataclass
class AbstractPath:
    nodes: list[engine.ArtNode]
    edges: list[lang.Edge]


def path_of(node: engine.ArtNode) -> AbstractPath:
    nodes, edges = node.path_from_root()
    return AbstractPath(nodes, edges)


@dataclass
class Feasible:
    assignment: dict[str, int]  # SSA name -> value
    trace: list[tuple[lang.Edge, dict[str, int]]]  # edge, store after it


@dataclass
class Infeasible:
    pivot: int  # index of the first unreachable state on the path


@dataclass
class Unconfirmed:
    pivot: int
    reason: str


FeasibilityResult = Union[Feasible, Infeasible, Unconfirmed]


def check_feasibility(path: AbstractPath, cfa: lang.Cfa,
                      solver: solver_mod.Solver,
                      atom_limit: Optional[int] = None) -> FeasibilityResult:
    """Decide concrete executability of an abstract error path.

    Executions start from the all-zeros store, so ``v@0 = 0`` is part of
    the encoding (as constant bindings, not residual atoms).
    """
    consts: dict[str, int] = {solver_mod.ssa_name(v, 0): 0 for v in cfa.variables}
    idx: dict[str, int] = {}
    residuals: list[tuple[int, F.Formula]] = []

    def var_fn(name: str) -> F.LinExpr:
        ssa = solver_mod.ssa_name(name, idx.get(name, 0))
        if ssa in consts:
            return F.lin_const(consts[ssa])
        return F.lin_var(ssa)

    for i, edge in enumerate(path.edges):
        op = edge.op
        if isinstance(op, lang.Assign):
            rhs = F.linearize(op.expr, var_fn)
            k = idx.get(op.var, 0) + 1
            idx[op.var] = k
            new = solver_mod.ssa_name(op.var, k)
            if rhs.is_const():
                consts[new] = rhs.const
            else:
                residuals.append((i, F.mk_atom(F.lin_sub(F.lin_var(new), rhs), F.EQ, 0)))
        elif isinstance(op, lang.Assume):
            f = F.bexpr_to_formula(op.expr, var_fn)
            if isinstance(f, F.FalseF):
                # Ground contradiction; an earlier residual prefix may
                # already be unsatisfiable, which would own the pivot.
                try:
                    earlier = solver.check_sat(F.f_and(g for _, g in residuals))
                    if earlier.kind == solver_mod.UNSAT:
                        return Infeasible(pivot=_localize_pivot(residuals, solver))
                except F.FormulaTooLarge:
                    pass
                return Infeasible(pivot=i + 1)
            if not isinstance(f, F.TrueF):
                residuals.append((i, f))
        else:
            assert isinstance(op, lang.Havoc)
            idx[op.var] = idx.get(op.var, 0) + 1

    last = len(path.nodes) - 1
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
        replayed = _replay(path, cfa, result.witness or {})
        if replayed is not None:
            assignment = dict(consts)
            for term, value in (result.witness or {}).items():
                if isinstance(term, F.VarTerm):
                    assignment[term.name] = value
            return Feasible(assignment=assignment, trace=replayed)
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


def _replay(path: AbstractPath, cfa: lang.Cfa, witness: dict):
    """Execute the path concretely, drawing havoc values from the witness."""
    store = {v: 0 for v in cfa.variables}
    idx: dict[str, int] = {}
    trace: list[tuple[lang.Edge, dict[str, int]]] = []
    for edge in path.edges:
        op = edge.op
        if isinstance(op, lang.Assign):
            idx[op.var] = idx.get(op.var, 0) + 1
            store[op.var] = lang.eval_arith(op.expr, store)
        elif isinstance(op, lang.Assume):
            if lang.eval_bool(op.expr, store) is not True:
                return None
        else:
            idx[op.var] = idx.get(op.var, 0) + 1
            term = F.VarTerm(solver_mod.ssa_name(op.var, idx[op.var]))
            store[op.var] = witness.get(term, 0)
        trace.append((edge, dict(store)))
    last_loc = path.edges[-1].target if path.edges else cfa.initial
    if last_loc not in cfa.error_locations:
        return None
    return trace


# ---------------------------------------------------------------------------
# Predicate mining
# ---------------------------------------------------------------------------

def _atom_vars(atom: F.Atom) -> set[str]:
    out: set[str] = set()

    def lin_vars(lin: F.LinExpr):
        for t, _ in lin.terms:
            if isinstance(t, F.VarTerm):
                out.add(t.name)
            else:
                lin_vars(t.left)
                lin_vars(t.right)

    lin_vars(F.LinExpr(atom.terms, 0))
    return out


MAX_WP_DEPTH = 3  # substitution steps per atom; longer chains diverge anyway


def mine_predicates(path: AbstractPath, pivot: int,
                    cpa: A.CompositeCpa) -> set[tuple[int, F.Atom]]:
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
            names = atom_vars[atom] = _atom_vars(atom)
        return names

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

    locations = {path.nodes[i].state.location for i in range(pivot + 1)}
    return {(loc, atom) for loc in locations for atom in collected.values()}


def exclude_path_suffix(rs: engine.RunState, path: AbstractPath, pivot: int) -> int:
    """Set the assumption to false on the path states from pivot to the end."""
    from dataclasses import replace as dc_replace

    count = 0
    for node in path.nodes[pivot:]:
        if node.removed or isinstance(node.state.assumption, F.FalseF):
            continue
        rs.replace_state(node, dc_replace(node.state, assumption=F.FALSE))
        rs.remove_from_waitlist(node)
        count += 1
    return count


# ---------------------------------------------------------------------------
# The analysis loop (with or without refinement)
# ---------------------------------------------------------------------------

def refine_loop(cpa: A.CompositeCpa, order: str, monitor: C.GlobalMonitor,
                refinement: bool, max_refinements: Optional[int]) -> A.ConditionReport:
    """Explore, confirm or refute error states, refine or exclude, repeat.

    Refinement grows the precision of ``cpa``'s predicate domain; other
    domains exclude every spurious path.  Terminates on a confirmed bug,
    an empty waitlist, or a monitor halt; always ends in post-processing.
    """
    cfa = cpa.cfa
    precision = cpa.domain.precision if isinstance(cpa.domain, D.PredicateDomain) else None
    rs = engine.RunState(cfa, cpa, order=order)
    refined_signatures: set[tuple[int, ...]] = set()
    refinements = 0

    while True:
        result = engine.run_cpa(rs, monitor, target_locs=cfa.error_locations)
        if result.status in ("empty", "halted"):
            break
        node = result.target
        path = path_of(node)
        feas = check_feasibility(path, cfa, cpa.solver,
                                 atom_limit=monitor.path_formula_atom_limit)
        if isinstance(feas, Feasible):
            error_loc = node.state.location
            return A.postprocess(
                rs,
                confirmed_witness=feas.trace,
                error_description=cfa.error_info.get(error_loc, f"error location L{error_loc}"),
                stats={"reached": rs.reached_size(), "refinements": refinements},
            )
        pivot = min(feas.pivot, len(path.nodes) - 1)
        signature = tuple(e.id for e in path.edges)
        if (refinement and precision is not None
                and signature not in refined_signatures
                and (max_refinements is None or refinements < max_refinements)):
            mined = mine_predicates(path, pivot, cpa)
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
                    if path.nodes[i].state.location in changed_locs:
                        cut = max(1, i)
                        break
                parent = rs.remove_subtree(path.nodes[cut])
                if parent is not None:
                    rs.add_to_waitlist(parent)
                continue
        exclude_path_suffix(rs, path, pivot)

    return A.postprocess(rs, stats={"reached": rs.reached_size(), "refinements": refinements})
