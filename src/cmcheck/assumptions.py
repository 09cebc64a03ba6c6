"""Assumption tracking, the composite CPA, and condition output.

The composite state is the tuple (assumption, location, condition states,
observer state, domain state).  Component transfers run in lockstep along
each CFA edge, and the successor's assumption records what they found:
false on a condition violation, a post the busy-edge monitor skipped or
a failed abstraction, else the overflow fact.  The assumption is the
state's only record of that fact: a predicate domain's next transfer
assumes it, but the domain state itself never carries it, so the
rendered condition still covers the out-of-range states.  A state whose
assumption is false is an excluded leaf: it stays in the reached set for
post-processing but is never expanded.

Post-processing reads one rule, ``unverified``: the reached nodes that
are waiting, at an error location, or under a state assumption other
than true.  ψ has a clause for each (``(pc = l) -> !state`` if waiting or
at an error, else ``(pc = l) -> (!state | assumption)``), and the verdict
is TRUE when there is none.  The automaton keeps the ART paths to the
same nodes, collapses the rest into the sink T, and labels a transition
into a node with the assumption its subtree was explored under.
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
# Composite states and the composite CPA
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CompositeState:
    assumption: F.Formula
    location: int
    conds: tuple
    observer: Optional[str]
    domain: Any


class CompositeCpa:
    """Assumption x location x conditions x observer x domain.

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

    def initial_state(self) -> CompositeState:
        return CompositeState(
            assumption=F.TRUE,
            location=self.cfa.initial,
            conds=tuple(c.initial() for c in self.condition_components),
            observer=self.observer.initial() if self.observer else None,
            domain=self.domain.initial(self.cfa),
        )

    def successors(self, state: CompositeState, edge: lang.Edge,
                   skip: bool = False) -> list[CompositeState]:
        """Abstract successors along one edge.

        The components step in lockstep, and their results set the
        successor's assumption, which is also the label of its ART
        edge: false when a condition component is exceeded, else the
        overflow fact when there is an overflow component, else true.
        The fact goes into the assumption only: the domain state stays
        unstrengthened, so the rendered condition still covers the
        out-of-range states.  With ``skip`` (the busy-edge monitor
        skipped this post), or when the abstraction fails, the one
        successor is the excluded stand-in: domain ``top()`` under the
        assumption false, with the observer and the condition
        components stepped all the same.
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
            exceeded = skip or any(s.exceeded for s in conds2)
        else:
            conds2 = ()
            exceeded = skip
        if skip:
            domain_succs = [self.domain.top()]
        else:
            premise = state.domain
            if self._is_predicate and self.overflow is not None:
                # Prune under the overflow assumption without rendering it.
                premise = F.f_and([premise, state.assumption])
            try:
                domain_succs = self.domain.transfer(premise, edge)
            except D.AbstractionFailure:
                domain_succs = [self.domain.top()]
                exceeded = True  # absorb the failure into an excluding assumption
        if exceeded:
            assumption = F.FALSE
        elif self.overflow is not None:
            assumption = self.overflow.transfer(edge)
        else:
            assumption = F.TRUE
        target = edge.target
        return [CompositeState(assumption, target, conds2, obs2, d2) for d2 in domain_succs]

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
        """Combine new into old; returning old_state means no merge.

        Only states with equal location, observer and domain state merge,
        and the result covers ``new_state``: it conjoins the assumptions
        and merges the condition states."""
        if new_state.location != old_state.location or new_state.observer != old_state.observer \
                or new_state.domain != old_state.domain:
            return old_state
        assumption = F.f_and([new_state.assumption, old_state.assumption])
        conds = tuple(c.merge(a, b) for c, a, b in
                      zip(self.condition_components, new_state.conds, old_state.conds))
        merged = CompositeState(
            assumption=assumption,
            location=old_state.location,
            conds=conds,
            observer=old_state.observer,
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

    def stop_candidates(self, state: CompositeState, held, shapes):
        """The nodes of partition entry ``held`` (see ``engine.node_at``)
        that may cover ``state``, in try order; ``shapes`` are the explicit
        store shapes reached in the partition, None before the first."""
        if self._is_explicit:
            node_at = engine.node_at
            for weaker in self.domain.cover_keys(state.domain, shapes or ()):
                node = node_at(held, weaker)
                if node is not None:
                    yield node
        else:
            yield from engine.partition_nodes(held)


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
    transitions: dict[tuple[str, int], str]  # (state id, edge id) -> target state id
    edge_count: int
    # (state id, edge id) -> label, for the transitions whose label is not
    # true; a transition missing here is labelled true.
    labels: dict[tuple[str, int], F.Formula] = field(default_factory=dict)


def serialize_automaton(aut: AssumptionAutomaton) -> str:
    lines = [f"# edges: {aut.edge_count}"]
    for sid in sorted(aut.flags):
        for flag in sorted(aut.flags[sid]):
            lines.append(f"state {sid} {flag};")
    labels = aut.labels
    transitions = aut.transitions
    for key in sorted(transitions):
        src, edge_id = key
        label = F.render_formula(labels.get(key, F.TRUE))
        lines.append(f"trans {src} edge={edge_id} assume={label} -> {transitions[key]};")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, source: Optional[str] = None) -> AssumptionAutomaton:
    """Read the text ``serialize_automaton`` writes.

    Each distinct label is parsed once and its formula shared, and only
    the labels that are not true are stored.  Each state id is one string
    object, wherever it occurs.  A state line names one flag among
    ``init``, ``T`` and ``U``, at most one state is ``init``, and no
    state line repeats.  A syntax error, in a label or around it, raises
    ParseError at its position in ``text``, naming ``source`` (the file
    name) when given; a missing init state or ``# edges:`` header is
    reported at 1:1.
    """
    edge_count = -1
    flags: dict[str, set[str]] = {}
    transitions: dict[tuple[str, int], str] = {}
    labels: dict[tuple[str, int], F.Formula] = {}
    parsed: dict[str, F.Formula] = {}  # label text -> formula
    names: dict[str, str] = {}  # state id -> its one string object
    initial = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("edges:"):
                count_text = body.split(":", 1)[1].strip()
                # ASCII digits only, as the program formats read integers:
                # int() alone also takes signs, underscores and other
                # scripts' digits.
                if not (count_text.isascii() and count_text.isdigit()):
                    raise lang.ParseError(f"edge count {count_text!r} is not an integer",
                                          lineno, raw.index("edges:") + len("edges:") + 1,
                                          source)
                edge_count = int(count_text)
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
                if flag not in ("init", "T", "U"):
                    col = len(raw[:raw.rindex(";")].rstrip()) - len(flag) + 1
                    raise lang.ParseError(f"unknown state flag {flag!r}", lineno, col, source)
                sid = names.setdefault(sid, sid)
                marked = flags.setdefault(sid, set())
                if flag in marked:
                    raise lang.ParseError(f"repeated state line: {line};", lineno,
                                          indent + 1, source)
                if flag == "init":
                    if initial is not None:
                        raise lang.ParseError(f"second init state {sid} (the first is "
                                              f"{initial})", lineno, indent + 1, source)
                    initial = sid
                marked.add(flag)
                continue
        elif line.startswith("trans ") and " edge=" in line and " assume=" in line \
                and " -> " in line:
            head, dst = line.rsplit(" -> ", 1)
            head = head[len("trans "):]
            src, rest = head.split(" edge=", 1)
            edge_text, assume_text = rest.split(" assume=", 1)
            if not (edge_text.isascii() and edge_text.isdigit()):
                raise lang.ParseError(f"edge id {edge_text!r} is not an integer", lineno,
                                      raw.index(" edge=") + len(" edge=") + 1, source)
            src = src.strip()
            dst = dst.strip()
            key = (names.setdefault(src, src), int(edge_text))
            if key in transitions:
                raise lang.ParseError(f"duplicate transition from {key[0]} along edge {key[1]}",
                                      lineno, indent + 1, source)
            label = assume_text.strip()
            assumption = parsed.get(label)
            if assumption is None:
                try:
                    assumption = parsed[label] = F.parse_formula(label)
                except lang.ParseError as exc:
                    start = raw.index(label, raw.index(" assume=") + len(" assume="))
                    raise lang.ParseError(exc.message, lineno, start + exc.col,
                                          source) from None
            transitions[key] = names.setdefault(dst, dst)
            if not isinstance(assumption, F.TrueF):
                labels[key] = assumption
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
        labels=labels,
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
        self._transitions = automaton.transitions
        self._labels = automaton.labels

    def initial(self) -> str:
        return self.automaton.initial

    def step(self, sid: str, edge: lang.Edge):
        if sid == SINK_VERIFIED:
            return PRUNED
        if sid == SINK_UNKNOWN:
            return SINK_UNKNOWN
        key = (sid, edge.id)
        dst = self._transitions.get(key)
        if dst is None:
            return SINK_UNKNOWN
        label = self._labels.get(key)  # None: true
        if label is not None and not isinstance(label, F.FalseF):
            # Verified only under the label: nothing may be pruned below.
            return SINK_UNKNOWN
        return PRUNED if dst == SINK_VERIFIED else dst


def unverified(rs: engine.RunState) -> list[engine.ArtNode]:
    """The reached nodes ψ and the automaton cover, in ART order."""
    error_locations = rs.cpa.cfa.error_locations
    return [n for n in rs.reached_nodes() if n.in_waitlist or n.state.location in error_locations
            or not isinstance(n.state.assumption, F.TrueF)]


def export_automaton(rs: engine.RunState, unverified_nodes: list) -> AssumptionAutomaton:
    """Collapse the ART into an assumption automaton.

    A node is retained iff one of ``unverified_nodes`` is reachable below
    it (through covered-node redirects); the rest collapses into T.  A
    transition into a node or its cover conjoins the ART label with that
    node's state assumption, except into an excluded node, from which
    every edge falls through to U.  Fully-expanded retained nodes get
    explicit T-transitions for edges whose successor computation produced
    nothing (proven infeasible).
    """
    covers_index = rs.covers_index
    edges_from = rs.cpa.cfa.edges_from

    # Walk back from the unverified nodes: a node's predecessors are its
    # parent and the live nodes it covers.
    retained = bytearray(len(rs.nodes))  # by nid
    stack = list(unverified_nodes)
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

    flags: dict[str, tuple[str, ...]] = {SINK_VERIFIED: ("T",), SINK_UNKNOWN: ("U",)}
    flags.update(dict.fromkeys(qid.values(), ()))
    transitions: dict[tuple[str, int], str] = {}
    labels: dict[tuple[str, int], F.Formula] = {}

    def resolve(key: tuple[str, int], node: engine.ArtNode, label: F.Formula) -> None:
        target = node.covered_by if node.covered_by is not None else node
        assumed = target.state.assumption  # true unless the target is named
        if assumed is not label and not isinstance(assumed, (F.TrueF, F.FalseF)):
            label = F.f_and([label, assumed])
        transitions[key] = qid.get(target, SINK_VERIFIED)
        if not isinstance(label, F.TrueF):
            labels[key] = label

    for n, sid in qid.items():
        if isinstance(n.state.assumption, F.FalseF) or n.in_waitlist:
            continue  # all matches fall through to U at run time
        c = n.first_child
        if c is not None and c.next_sibling is None and not c.removed:
            expanded = (c.edge.id,)
            resolve((sid, c.edge.id), c, c.assumption)
        else:
            expanded = {}
            for c in n.children():
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
                resolve((sid, edge_id), main, label)
        for edge in edges_from(n.state.location):
            if edge.id not in expanded:
                transitions[(sid, edge.id)] = SINK_VERIFIED

    # The root resolves to a named state or to T; "init" sorts after "T".
    init_id = qid.get(rs.root, SINK_VERIFIED)
    flags[init_id] += ("init",)
    return AssumptionAutomaton(
        initial=init_id,
        flags=flags,
        transitions=transitions,
        edge_count=len(rs.cpa.cfa.edges),
        labels=labels,
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


_PC_TERMS = F.lin_var("pc").terms


def pc_guard(clause: F.Formula) -> Optional[tuple[int, F.Formula]]:
    """Inverse of ``pc_equals`` on a psi clause: ``(l, body)`` when the
    clause is ``!(pc = l) | body``, else None."""
    if isinstance(clause, F.OrF):
        for i, arg in enumerate(clause.args):
            if isinstance(arg, F.NotF) and isinstance(arg.arg, F.AtomF):
                a = arg.arg.atom
                if a.op == F.EQ and a.terms == _PC_TERMS:
                    return a.bound, F.f_or(clause.args[:i] + clause.args[i + 1:])
    return None


def postprocess(rs: engine.RunState, confirmed_witness: Optional[list] = None,
                error_description: Optional[str] = None,
                stats: Optional[dict] = None) -> ConditionReport:
    """Assemble the final invariant and verdict from a finished run."""
    cpa = rs.cpa
    error_locations = cpa.cfa.error_locations
    open_nodes = unverified(rs)
    clauses = []
    for node in open_nodes:
        state = node.state
        loc = state.location
        rendered = cpa.domain.render(state.domain)
        if node.in_waitlist or loc in error_locations:
            clause = F.f_implies(pc_equals(loc), F.f_not(rendered))
        else:
            clause = F.f_implies(pc_equals(loc), F.f_or([F.f_not(rendered), state.assumption]))
        if not isinstance(clause, F.TrueF):
            clauses.append(clause)
    psi = F.f_and(clauses)
    if confirmed_witness is not None:
        verdict = "FALSE"
    elif open_nodes:
        verdict = "CONDITION"
    else:
        verdict = "TRUE"
    if verdict == "TRUE" and not isinstance(psi, F.TrueF):
        raise RuntimeError("verdict TRUE must carry psi = true")
    return ConditionReport(
        verdict=verdict,
        psi=psi,
        automaton=export_automaton(rs, open_nodes),
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
    guard = pc_guard(clause)
    if guard is None:
        return (-1, F.render_formula(clause))
    loc, body = guard
    return (loc, f"{F.render_formula(pc_equals(loc))} -> ({F.render_formula(body)})")
