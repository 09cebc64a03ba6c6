"""Assumption tracking, the composite CPA, and condition output.

The composite state is the tuple (assumption, location, condition states,
observer state, overflow state, domain state).  Component transfers run in
lockstep along each CFA edge; the strengthen operator then folds condition
violations and overflow facts into the assumption.  A predicate domain's
next transfer also assumes the state's overflow fact, but the domain state
itself never carries it, so the rendered condition still covers the
out-of-range states.  A state whose assumption is false is an excluded
leaf: it stays in the reached set for post-processing but is never
expanded.

Post-processing turns a finished run into the condition formula: waitlist
and error-location states contribute ``(pc = l) -> !state``, settled ones
``(pc = l) -> (!state | assumption)``; the exported assumption automaton
encodes the same condition path-sensitively over CFA edges with verified
regions collapsed into the sink T and unverified frontiers falling
through to the sink U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from . import domains as D
from . import engine, formula as F, lang
from . import solver as solver_mod


class AutomatonMismatch(Exception):
    """The input automaton does not belong to the analyzed CFA."""


# ---------------------------------------------------------------------------
# Overflow monitoring component
# ---------------------------------------------------------------------------

@dataclass
class OverflowComponent:
    """Emits machine-bound assumptions for assignments."""

    min_value: int = -(2 ** 31)
    max_value: int = 2 ** 31 - 1

    def transfer(self, edge: lang.Edge) -> F.Formula:
        if isinstance(edge.op, lang.Assign):
            v = F.lin_var(edge.op.var)
            lower = F.mk_atom(F.lin_scale(v, -1), F.LE, -self.min_value)
            upper = F.mk_atom(v, F.LE, self.max_value)
            return F.f_and([lower, upper])
        return F.TRUE


# ---------------------------------------------------------------------------
# Composite states and the strengthen operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CompositeState:
    assumption: F.Formula
    location: int
    conds: tuple
    observer: Optional[str]
    overflow: Optional[F.Formula]
    domain: Any


class CompositeCpa:
    """Assumption x location x conditions x observer x overflow x domain.

    The one CPA the engine runs; with ``NoDomain`` it is the location
    analysis.
    """

    def __init__(self, cfa: lang.Cfa, domain, solver: solver_mod.Solver,
                 condition_components: Sequence = (),
                 observer: Optional["ObserverComponent"] = None,
                 overflow: Optional[OverflowComponent] = None):
        self.cfa = cfa
        self.domain = domain
        self.solver = solver
        self.condition_components = tuple(condition_components)
        self.observer = observer
        self.overflow = overflow
        self._is_predicate = isinstance(domain, D.PredicateDomain)
        self._is_explicit = isinstance(domain, D.ExplicitDomain)

    # -- CPA operators ---------------------------------------------------------

    def initial_state(self, cfa: lang.Cfa) -> CompositeState:
        return CompositeState(
            assumption=F.TRUE,
            location=cfa.initial,
            conds=tuple(c.initial() for c in self.condition_components),
            observer=self.observer.initial() if self.observer else None,
            overflow=F.TRUE if self.overflow else None,
            domain=self.domain.initial(cfa),
        )

    def successors(self, state: CompositeState, edge: lang.Edge):
        """Abstract successors along one edge, each with its step assumption.

        The components step in lockstep; then the strengthen operator sets
        the successor's assumption, which is also the label of its ART
        edge: false when a condition component is exceeded (or the
        abstraction failed), else the overflow fact when there is an
        overflow component, else true.  The fact goes into the assumption
        only: the domain state stays unstrengthened, so the rendered
        condition still covers the out-of-range states.
        """
        if edge.source != state.location or isinstance(state.assumption, F.FalseF):
            return []
        observer = self.observer
        obs2 = None
        if observer is not None:
            obs2 = observer.step(state.observer, edge)
            if obs2 is PRUNED:
                return []
        components = self.condition_components
        if components:
            conds2 = tuple(c.transfer(s, edge) for c, s in zip(components, state.conds))
            exceeded = any(c.exceeded(s) for c, s in zip(components, conds2))
        else:
            conds2 = ()
            exceeded = False
        overflow_phi = None
        if self.overflow is not None:
            overflow_phi = self.overflow.transfer(edge)
        premise = state.domain
        if self._is_predicate and state.overflow is not None:
            # Prune under the overflow assumption without rendering it.
            premise = F.f_and([premise, state.overflow])
        try:
            domain_succs = self.domain.transfer(premise, edge)
        except D.AbstractionFailure:
            domain_succs = [self.domain.top()]
            exceeded = True  # absorb the failure into an excluding assumption
        if exceeded:
            assumption = F.FALSE
        elif overflow_phi is not None:
            assumption = overflow_phi
        else:
            assumption = F.TRUE
        target = edge.target
        return [(CompositeState(assumption, target, conds2, obs2, overflow_phi, d2), assumption)
                for d2 in domain_succs]

    def excluded_successor(self, state: CompositeState, edge: lang.Edge):
        """Stand-in for a post computation skipped by the busy-edge monitor;
        the observer and the condition components still step."""
        if edge.source != state.location or isinstance(state.assumption, F.FalseF):
            return None
        obs2 = None
        if self.observer is not None:
            obs2 = self.observer.step(state.observer, edge)
            if obs2 is PRUNED:
                return None
        return CompositeState(
            assumption=F.FALSE,
            location=edge.target,
            conds=tuple(c.transfer(s, edge)
                        for c, s in zip(self.condition_components, state.conds)),
            observer=obs2,
            overflow=F.TRUE if self.overflow else None,
            domain=self.domain.top(),
        )

    def covers(self, state: CompositeState, candidate: CompositeState) -> bool:
        """Is state subsumed by candidate?  A stricter assumption covers."""
        if state.location != candidate.location or state.observer != candidate.observer:
            return False
        if not self.domain.covers(state.domain, candidate.domain):
            return False
        if candidate.assumption == state.assumption:
            return True
        return self.solver.entails(candidate.assumption, state.assumption)

    def merge(self, new_state: CompositeState, old_state: CompositeState) -> CompositeState:
        """Combine new into old; returning old_state means no merge."""
        assumption = F.f_and([new_state.assumption, old_state.assumption])
        conds = tuple(c.merge(a, b) for c, a, b in
                      zip(self.condition_components, new_state.conds, old_state.conds))
        overflow = old_state.overflow
        if self.overflow is not None:
            overflow = F.f_and([new_state.overflow, old_state.overflow])
        merged = CompositeState(
            assumption=assumption,
            location=old_state.location,
            conds=conds,
            observer=old_state.observer,
            overflow=overflow,
            domain=old_state.domain,
        )
        return old_state if merged == old_state else merged

    def partition_key(self, state: CompositeState):
        """The engine's reached-set partition: only states that agree on
        location and observer state can merge or cover each other."""
        return (state.location, state.observer)

    def shape_of(self, state: CompositeState):
        """The explicit store's shape, which the engine records per
        partition for ``stop_candidates``; None for other domains."""
        if self._is_explicit:
            return state.domain.shape()
        return None

    def stop_candidates(self, state: CompositeState, partition: engine.Partition):
        """The partition's nodes that may cover ``state``, in try order."""
        if self._is_explicit:
            shapes = partition.shapes or ()
            for weaker in self.domain.cover_keys(state.domain, shapes):
                yield from partition.by_domain.get(weaker, ())
        else:
            yield from partition.members


# ---------------------------------------------------------------------------
# Assumption automaton
# ---------------------------------------------------------------------------

SINK_VERIFIED = "T"
SINK_UNKNOWN = "U"
PRUNED = object()  # observer step result inside a verified region


@dataclass
class AssumptionAutomaton:
    initial: str
    flags: dict[str, tuple[str, ...]]  # state id -> markers among init/T/U
    transitions: dict[tuple[str, int], tuple[F.Formula, str]]
    edge_count: int

    def states(self) -> list[str]:
        return sorted(self.flags)


def serialize_automaton(aut: AssumptionAutomaton) -> str:
    lines = [f"# edges: {aut.edge_count}"]
    for sid in sorted(aut.flags):
        for flag in sorted(aut.flags[sid]):
            lines.append(f"state {sid} {flag};")
    for (src, edge_id), (assumption, dst) in sorted(
            aut.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        lines.append(
            f"trans {src} edge={edge_id} assume={F.render_formula(assumption)} -> {dst};")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, source: Optional[str] = None) -> AssumptionAutomaton:
    """Read the text ``serialize_automaton`` writes.

    Each distinct label is parsed once and its formula shared.  A syntax
    error, in a label or around it, raises ParseError at its position in
    ``text``, naming ``source`` (the file name) when given; a missing init
    state or ``# edges:`` header is reported at 1:1.
    """
    edge_count = -1
    flags: dict[str, set[str]] = {}
    transitions: dict[tuple[str, int], tuple[F.Formula, str]] = {}
    labels: dict[str, F.Formula] = {}
    initial = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("edges:"):
                count_text = body.split(":", 1)[1]
                try:
                    edge_count = int(count_text)
                except ValueError:
                    raise lang.ParseError(f"edge count {count_text.strip()!r} is not an integer",
                                          lineno, raw.index("edges:") + len("edges:") + 1,
                                          source) from None
            continue
        indent = len(raw) - len(raw.lstrip())
        if not line.endswith(";"):
            raise lang.ParseError("missing ';' at the end of the line", lineno,
                                  indent + len(line) + 1, source)
        line = line[:-1].strip()
        if line.startswith("state "):
            fields = line.split()
            if len(fields) == 3:
                _, sid, flag = fields
                flags.setdefault(sid, set()).add(flag)
                if flag == "init":
                    initial = sid
                continue
        elif line.startswith("trans ") and " edge=" in line and " assume=" in line \
                and " -> " in line:
            head, dst = line.rsplit(" -> ", 1)
            head = head[len("trans "):]
            src, rest = head.split(" edge=", 1)
            edge_text, assume_text = rest.split(" assume=", 1)
            try:
                key = (src.strip(), int(edge_text))
            except ValueError:
                raise lang.ParseError(f"edge id {edge_text!r} is not an integer", lineno,
                                      raw.index(" edge=") + len(" edge=") + 1,
                                      source) from None
            if key in transitions:
                raise lang.ParseError(f"duplicate transition from {key[0]} along edge {key[1]}",
                                      lineno, indent + 1, source)
            label = assume_text.strip()
            assumption = labels.get(label)
            if assumption is None:
                try:
                    assumption = labels[label] = F.parse_formula(label)
                except lang.ParseError as exc:
                    start = raw.index(label, raw.index(" assume=") + len(" assume="))
                    raise lang.ParseError(exc.message, lineno, start + exc.col,
                                          source) from None
            transitions[key] = (assumption, dst.strip())
            continue
        raise lang.ParseError(f"unrecognized automaton line: {line};", lineno, indent + 1,
                              source)
    if initial is None:
        raise lang.ParseError("automaton has no init state", 1, 1, source)
    if edge_count < 0:
        raise lang.ParseError("automaton has no '# edges:' header", 1, 1, source)
    return AssumptionAutomaton(
        initial=initial,
        flags={sid: tuple(sorted(fl)) for sid, fl in flags.items()},
        transitions=transitions,
        edge_count=edge_count,
    )


def validate_automaton(aut: AssumptionAutomaton, cfa: lang.Cfa) -> None:
    if aut.edge_count != len(cfa.edges):
        raise AutomatonMismatch(
            f"automaton was built for a CFA with {aut.edge_count} edges, "
            f"this one has {len(cfa.edges)}")
    for (_, edge_id) in aut.transitions:
        if not 0 <= edge_id < len(cfa.edges):
            raise AutomatonMismatch(f"transition references unknown edge {edge_id}")


class ObserverComponent:
    """Runs an input automaton in parallel with the analysis.

    Entering T prunes the path (already verified by the producing run);
    unmatched edges, and transitions labelled with an assumption other
    than true or false, fall into U, below which exploration is
    unrestricted.
    """

    def __init__(self, automaton: AssumptionAutomaton, cfa: lang.Cfa):
        validate_automaton(automaton, cfa)
        self.automaton = automaton

    def initial(self) -> str:
        return self.automaton.initial

    def step(self, sid: str, edge: lang.Edge):
        if sid == SINK_VERIFIED:
            return PRUNED
        if sid == SINK_UNKNOWN:
            return SINK_UNKNOWN
        hit = self.automaton.transitions.get((sid, edge.id))
        if hit is None:
            return SINK_UNKNOWN
        label, dst = hit
        if not isinstance(label, (F.TrueF, F.FalseF)):
            # Verified only under the label: nothing may be pruned below.
            return SINK_UNKNOWN
        return PRUNED if dst == SINK_VERIFIED else dst


def export_automaton(rs: engine.RunState) -> AssumptionAutomaton:
    """Collapse the ART into an assumption automaton.

    A node is retained iff an excluded node, a waitlist member, or a
    non-true edge assumption is reachable below it (through covered-node
    redirects); everything else is verified and collapses into T.
    Fully-expanded retained nodes get explicit T-transitions for edges
    whose successor computation produced nothing (proven infeasible).
    """
    covers_index = rs.covers_index
    edges_from = rs.cfa.edges_from

    # Walk back from the interesting nodes (a non-true edge assumption, or
    # an excluded or waiting reached node): a node's predecessors are its
    # parent and the live nodes it covers.
    retained = bytearray(len(rs.nodes))  # by nid
    stack = [n for n in rs.nodes if not n.removed and (
        not isinstance(n.assumption, F.TrueF)
        or (n.covered_by is None
            and (isinstance(n.state.assumption, F.FalseF) or n.in_waitlist)))]
    while stack:
        n = stack.pop()
        if retained[n.nid]:
            continue
        retained[n.nid] = 1
        if n.parent is not None:
            stack.append(n.parent)
        covered = covers_index.get(n.nid)
        if covered:
            stack.extend(c for c in covered if not c.removed)

    named = [n for n in rs.nodes if retained[n.nid] and n.covered_by is None]
    qid = {n: f"q{i}" for i, n in enumerate(named)}

    def resolve(node: engine.ArtNode) -> str:
        target = node.covered_by if node.covered_by is not None else node
        return qid.get(target, SINK_VERIFIED)

    flags: dict[str, tuple[str, ...]] = {SINK_VERIFIED: ("T",), SINK_UNKNOWN: ("U",)}
    flags.update(dict.fromkeys(qid.values(), ()))
    transitions: dict[tuple[str, int], tuple[F.Formula, str]] = {}
    for n, sid in qid.items():
        if isinstance(n.state.assumption, F.FalseF) or n.in_waitlist:
            continue  # all matches fall through to U at run time
        children = n.children
        if len(children) == 1 and not children[0].removed:
            c = children[0]
            expanded = (c.edge.id,)
            transitions[(sid, c.edge.id)] = (c.assumption, resolve(c))
        else:
            expanded = {}
            for c in children:
                if not c.removed:
                    expanded.setdefault(c.edge.id, []).append(c)
            for edge_id, kids in expanded.items():
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
        for edge in edges_from(n.state.location):
            if edge.id not in expanded:
                transitions[(sid, edge.id)] = (F.TRUE, SINK_VERIFIED)

    # The root resolves to a named state or to T; "init" sorts after "T".
    init_id = resolve(rs.root)
    flags[init_id] += ("init",)
    return AssumptionAutomaton(
        initial=init_id,
        flags=flags,
        transitions=transitions,
        edge_count=len(rs.cfa.edges),
    )


# ---------------------------------------------------------------------------
# Post-processing into the condition report
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    verdict: str  # 'TRUE' | 'FALSE' | 'CONDITION'
    psi: F.Formula
    automaton: AssumptionAutomaton
    stats: dict = field(default_factory=dict)
    witness: Optional[list] = None
    error_description: Optional[str] = None
    run: Optional[engine.RunState] = None  # the ART, kept as proof artifact


def pc_equals(loc: int) -> F.Formula:
    return F.mk_atom(F.lin_var("pc"), F.EQ, loc)


def postprocess(rs: engine.RunState, confirmed_witness: Optional[list] = None,
                error_description: Optional[str] = None,
                stats: Optional[dict] = None) -> ConditionReport:
    """Assemble the final invariant and verdict from a finished run."""
    cpa = rs.cpa
    cfa = rs.cfa
    waiting = any(n.in_waitlist and not n.removed for n in rs.waitlist)
    clauses = []
    all_assumptions_true = True
    error_reached = False
    for node in rs.reached_nodes():
        state = node.state
        loc = state.location
        frontier = node.in_waitlist or loc in cfa.error_locations
        if loc in cfa.error_locations:
            error_reached = True
        e_a = state.assumption
        if not isinstance(e_a, F.TrueF):
            all_assumptions_true = False
        elif not frontier:
            continue  # settled, no assumption: the clause is trivially true
        rendered = cpa.domain.render(state.domain)
        if frontier:
            clause = F.f_implies(pc_equals(loc), F.f_not(rendered))
        else:
            clause = F.f_implies(pc_equals(loc), F.f_or([F.f_not(rendered), e_a]))
        if not isinstance(clause, F.TrueF):
            clauses.append(clause)
    psi = F.f_and(clauses)
    if confirmed_witness is not None:
        verdict = "FALSE"
    elif not waiting and not error_reached and all_assumptions_true:
        verdict = "TRUE"
    else:
        verdict = "CONDITION"
    if verdict == "TRUE":
        assert isinstance(psi, F.TrueF), "verdict TRUE must carry psi = true"
    return ConditionReport(
        verdict=verdict,
        psi=psi,
        automaton=export_automaton(rs),
        stats=dict(stats or {}),
        witness=confirmed_witness,
        error_description=error_description,
        run=rs,
    )


def serialize_condition(psi: F.Formula) -> str:
    """Assumption-formula file: '# psi' header, one implication per line.

    Clauses are ordered by the location their pc-guard names, then text.
    """
    lines = ["# psi"]
    clauses = list(psi.args) if isinstance(psi, F.AndF) else [psi]
    lines.extend(text for _, text in sorted(_render_clause(c) for c in clauses))
    return "\n".join(lines) + "\n"


def _render_clause(clause: F.Formula) -> tuple:
    """(sort key, text) for one psi clause."""
    if isinstance(clause, F.OrF):
        guard = None
        rest = []
        for arg in clause.args:
            if guard is None and isinstance(arg, F.NotF) and isinstance(arg.arg, F.AtomF):
                a = arg.arg.atom
                if (a.op == F.EQ and len(a.terms) == 1
                        and isinstance(a.terms[0][0], F.VarTerm)
                        and a.terms[0][0].name == "pc" and a.terms[0][1] == 1):
                    guard = a
                    continue
            rest.append(arg)
        if guard is not None:
            body = F.f_or(rest)
            return (guard.bound, f"({F.render_atom(guard)}) -> ({F.render_formula(body)})")
    return (-1, F.render_formula(clause))
