"""Reachability engine: the worklist algorithm that runs the composite CPA.

The loop is the classic one: pop a frontier state, compute abstract
successors along the CFA edges leaving its location as the monitor
allows, try to merge each successor into the reached states that hold the
same domain state (replacing their states in place when the merge changed
something), then add it unless one of the CPA's ``stop_candidates``
covers it; the first that does becomes its cover.  The reached set is
partitioned by location and observer state, as only states that agree on
both can merge or cover each other.  An abstract reachability tree is
maintained alongside: every expansion creates a child node carrying the
CFA edge and the assumption attached to that step, and covered successors
become leaf nodes pointing at their covering node.

``RunState._index`` is the only way a node enters the partitions, and
its caller hands it the partition.  The benchmark in ``perfbench/``
traces the engine by wrapping attributes by name, so the hot loop must
keep calling these as attributes, never inline them:
``RunState._new_node`` and ``new_covered_node``, the composite CPA's
``successors``, ``covers`` and ``merge``, ``ExplicitDomain.cover_keys``
(through ``stop_candidates``) and ``GlobalMonitor.pre_post``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from . import conditions as C
from . import formula as F
from . import lang

if TYPE_CHECKING:
    from .assumptions import CompositeCpa


@dataclass(eq=False, slots=True)
class ArtNode:
    nid: int
    state: Any
    parent: Optional["ArtNode"]
    edge: Optional[lang.Edge]
    assumption: F.Formula
    children: list["ArtNode"] = field(default_factory=list)
    covered_by: Optional["ArtNode"] = None
    in_waitlist: bool = False
    removed: bool = False

    def path_from_root(self) -> tuple[list["ArtNode"], list[lang.Edge]]:
        nodes: list[ArtNode] = []
        edges: list[lang.Edge] = []
        cur: Optional[ArtNode] = self
        while cur is not None:
            nodes.append(cur)
            if cur.edge is not None:
                edges.append(cur.edge)
            cur = cur.parent
        nodes.reverse()
        edges.reverse()
        return nodes, edges


class Partition:
    """The reached nodes at one (location, observer state).

    ``members`` holds them in insertion order, and ``by_domain`` the same
    nodes bucketed by domain state, each list in insertion order as well.
    ``RunState.replace_state`` moves a node to the end of both.  The stop
    check takes the first covering node of ``stop_candidates``, which
    follows these orders, so they decide each ``covered_by``.  A node never
    changes partition or bucket: merges and exclusions change only its
    assumption and condition states.  ``shapes`` holds the explicit store
    shapes ever reached here, or None before the first; a stale shape
    costs one empty lookup.
    """

    __slots__ = ("members", "by_domain", "shapes")

    def __init__(self):
        self.members: dict[ArtNode, None] = {}
        self.by_domain: dict[Any, list[ArtNode]] = {}
        self.shapes: Optional[dict[Any, None]] = None


class RunState:
    """Reached set, waitlist, and ART for one analysis run."""

    def __init__(self, cfa: lang.Cfa, cpa: "CompositeCpa", order: str = "dfs"):
        if order not in ("dfs", "bfs"):
            raise ValueError(f"unknown order {order!r}")
        self.cfa = cfa
        self.cpa = cpa
        self.order = order
        self.nodes: list[ArtNode] = []
        self.partitions: dict[Any, Partition] = {}
        self._reached = 0
        # Lazy deletion: entries whose node left the waitlist stay queued
        # and are skipped when popped.
        self.waitlist: deque[ArtNode] = deque()
        # Cover nid -> the nodes it covers, removed ones included.
        self.covers_index: dict[int, list[ArtNode]] = {}
        init = cpa.initial_state(cfa)
        self.root = self._new_node(init, None, None, F.TRUE)
        self._index(self.root, self.partition(init))
        self.add_to_waitlist(self.root)

    # -- construction --------------------------------------------------------

    def _new_node(self, state, parent, edge, assumption) -> ArtNode:
        node = ArtNode(len(self.nodes), state, parent, edge, assumption)
        self.nodes.append(node)
        if parent is not None:
            parent.children.append(node)
        return node

    def partition(self, state) -> Partition:
        """The partition ``state`` belongs to, created empty if new."""
        key = self.cpa.partition_key(state)
        part = self.partitions.get(key)
        if part is None:
            part = self.partitions[key] = Partition()
        return part

    def _index(self, node: ArtNode, part: Partition) -> None:
        state = node.state
        part.members[node] = None
        part.by_domain.setdefault(state.domain, []).append(node)
        shape = self.cpa.shape_of(state)
        if shape is not None:
            if part.shapes is None:
                part.shapes = {}
            part.shapes[shape] = None
        self._reached += 1

    def _unindex(self, node: ArtNode) -> Partition:
        state = node.state
        part = self.partitions[self.cpa.partition_key(state)]
        del part.members[node]
        bucket = part.by_domain[state.domain]
        bucket.remove(node)
        if not bucket:
            del part.by_domain[state.domain]
        self._reached -= 1
        return part

    def new_reached_node(self, parent, edge, assumption, state, part: Partition) -> ArtNode:
        node = self._new_node(state, parent, edge, assumption)
        self._index(node, part)
        return node

    def new_covered_node(self, parent, edge, assumption, state, cover: ArtNode) -> ArtNode:
        node = self._new_node(state, parent, edge, assumption)
        node.covered_by = cover
        self.covers_index.setdefault(cover.nid, []).append(node)
        return node

    # -- views ----------------------------------------------------------------

    def reached_nodes(self) -> list[ArtNode]:
        return [n for n in self.nodes if n.covered_by is None and not n.removed]

    def reached_size(self) -> int:
        return self._reached

    # -- waitlist ---------------------------------------------------------------

    def add_to_waitlist(self, node: ArtNode) -> None:
        if not node.in_waitlist and not node.removed:
            node.in_waitlist = True
            self.waitlist.append(node)

    def remove_from_waitlist(self, node: ArtNode) -> None:
        node.in_waitlist = False

    def pop_waitlist(self) -> Optional[ArtNode]:
        while self.waitlist:
            node = self.waitlist.pop() if self.order == "dfs" else self.waitlist.popleft()
            if node.in_waitlist and not node.removed:
                node.in_waitlist = False
                return node
        return None

    # -- mutation ----------------------------------------------------------------

    def replace_state(self, node: ArtNode, new_state) -> None:
        """Give a reached node a new state; it moves to the end of its
        partition's orders (merges and exclusions keep it in the same
        partition and bucket)."""
        if new_state == node.state:
            return
        part = self._unindex(node)
        node.state = new_state
        self._index(node, part)

    def remove_subtree(self, node: ArtNode) -> Optional[ArtNode]:
        """Remove node and its descendants; re-queue covered dependents' parents.

        Returns the parent, which the caller should re-queue to re-explore
        the removed direction.
        """
        removed: list[ArtNode] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur.removed:
                continue
            cur.removed = True
            cur.in_waitlist = False
            removed.append(cur)
            stack.extend(cur.children)
        for cur in removed:
            if cur.covered_by is None:
                self._unindex(cur)
        parent = node.parent
        if parent is not None and not parent.removed:
            parent.children.remove(node)
        # Nodes covered by a removed node lose their justification: drop them
        # and let their parents re-explore.
        for cur in removed:
            for cov in self.covers_index.pop(cur.nid, ()):
                if cov.removed:
                    continue
                cov.removed = True
                if cov.parent is not None and not cov.parent.removed:
                    cov.parent.children.remove(cov)
                    self.add_to_waitlist(cov.parent)
        return parent


@dataclass
class RunResult:
    status: str  # 'empty' | 'halted' | 'target'
    target: Optional[ArtNode] = None


def run_cpa(rs: RunState, monitor: C.GlobalMonitor, target_locs=frozenset()) -> RunResult:
    """One worklist pass; returns on empty waitlist, monitor halt, or target hit."""
    cpa = rs.cpa
    edges_from = rs.cfa.edges_from
    successors = cpa.successors
    while True:
        if monitor.should_halt(rs.reached_size()):
            return RunResult("halted")
        node = rs.pop_waitlist()
        if node is None:
            return RunResult("empty")
        state = node.state
        for edge in edges_from(state.location):
            act = monitor.pre_post(edge.id)
            if act == "halt":
                rs.add_to_waitlist(node)
                return RunResult("halted")
            if act == "skip":
                skipped = cpa.excluded_successor(state, edge)
                if skipped is not None:
                    _process_successor(rs, node, edge, skipped, F.FALSE)
                continue
            for succ, assumption in successors(state, edge):
                hit = _process_successor(rs, node, edge, succ, assumption)
                # An excluded state is never a target.
                if hit is not None and succ.location in target_locs \
                        and not isinstance(succ.assumption, F.FalseF):
                    rs.add_to_waitlist(node)
                    return RunResult("target", hit)


def _process_successor(rs: RunState, node: ArtNode, edge: lang.Edge,
                       succ, assumption: F.Formula) -> Optional[ArtNode]:
    """Merge and stop phases for one successor; returns its node if added."""
    cpa = rs.cpa
    part = rs.partition(succ)
    bucket = part.by_domain.get(succ.domain)
    if bucket:
        # replace_state moves a merged node to the end of the bucket.
        for other in list(bucket):
            merged = cpa.merge(succ, other.state)
            if merged != other.state:
                rs.replace_state(other, merged)
                rs.add_to_waitlist(other)
    edge_id = edge.id
    for child in node.children:
        if not child.removed and child.edge is not None \
                and child.edge.id == edge_id and child.state == succ:
            return None  # re-expansion of an already recorded step
    for cand in cpa.stop_candidates(succ, part):
        if cpa.covers(succ, cand.state):
            rs.new_covered_node(node, edge, assumption, succ, cand)
            return None
    child = rs.new_reached_node(node, edge, assumption, succ, part)
    if not isinstance(succ.assumption, F.FalseF):  # excluded leaves stay unexpanded
        rs.add_to_waitlist(child)
    return child
