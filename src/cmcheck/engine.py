"""Reachability engine: the worklist algorithm that runs the composite CPA.

The loop is the classic one: pop a frontier state, compute abstract
successors along the CFA edges leaving its location, try to merge each
successor into same-shape reached states (replacing them in both sets when
the merge changed something), then add it unless a reached state already
covers it.  An abstract reachability tree is maintained alongside: every
expansion creates a child node carrying the CFA edge and the assumption
attached to that step, and covered successors become leaf nodes pointing
at their covering node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from . import formula as F
from . import lang

if TYPE_CHECKING:
    from .assumptions import CompositeCpa


@dataclass
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


class RunState:
    """Reached set, waitlist, and ART for one analysis run."""

    def __init__(self, cfa: lang.Cfa, cpa: "CompositeCpa", order: str = "dfs"):
        if order not in ("dfs", "bfs"):
            raise ValueError(f"unknown order {order!r}")
        self.cfa = cfa
        self.cpa = cpa
        self.order = order
        self.nodes: list[ArtNode] = []
        self.exact: dict[Any, ArtNode] = {}
        self.groups: dict[Any, list[ArtNode]] = {}
        self.merge_groups: dict[Any, list[ArtNode]] = {}
        # Stop-check key -> the shapes of the states ever indexed there
        # (see CompositeCpa.shape_key); a stale shape is an empty lookup.
        self.shapes: dict[Any, dict[Any, None]] = {}
        self.reached_order: list[ArtNode] = []
        # Lazy deletion: entries whose node left the waitlist stay queued
        # and are skipped when popped.
        self.waitlist: deque[ArtNode] = deque()
        self.covers_index: dict[int, list[ArtNode]] = {}
        init = cpa.initial_state(cfa)
        self.root = self._new_node(init, None, None, F.TRUE)
        self._index(self.root)
        self.add_to_waitlist(self.root)

    # -- construction --------------------------------------------------------

    def _new_node(self, state, parent, edge, assumption) -> ArtNode:
        node = ArtNode(len(self.nodes), state, parent, edge, assumption)
        self.nodes.append(node)
        if parent is not None:
            parent.children.append(node)
        return node

    def _index(self, node: ArtNode, record_order: bool = True) -> None:
        self.exact[node.state] = node
        self.groups.setdefault(self.cpa.group_key(node.state), []).append(node)
        self.merge_groups.setdefault(self.cpa.merge_key(node.state), []).append(node)
        shaped = self.cpa.shape_key(node.state)
        if shaped is not None:
            self.shapes.setdefault(shaped[0], {})[shaped[1]] = None
        if record_order:
            self.reached_order.append(node)

    def _unindex(self, node: ArtNode) -> None:
        if self.exact.get(node.state) is node:
            del self.exact[node.state]
        bucket = self.groups.get(self.cpa.group_key(node.state))
        if bucket and node in bucket:
            bucket.remove(node)
        bucket = self.merge_groups.get(self.cpa.merge_key(node.state))
        if bucket and node in bucket:
            bucket.remove(node)

    def new_reached_node(self, parent, edge, assumption, state) -> ArtNode:
        node = self._new_node(state, parent, edge, assumption)
        self._index(node)
        return node

    def new_covered_node(self, parent, edge, assumption, state, cover: ArtNode) -> ArtNode:
        node = self._new_node(state, parent, edge, assumption)
        node.covered_by = cover
        self.covers_index.setdefault(cover.nid, []).append(node)
        return node

    # -- views ----------------------------------------------------------------

    def group_bucket(self, key) -> list[ArtNode]:
        return self.groups.get(key, ())

    def merge_bucket(self, key) -> list[ArtNode]:
        return self.merge_groups.get(key, ())

    def shape_bucket(self, key) -> dict[Any, None]:
        return self.shapes.get(key, ())

    def reached_nodes(self) -> list[ArtNode]:
        return [n for n in self.reached_order if not n.removed]

    def reached_size(self) -> int:
        return len(self.exact)

    def waitlist_nodes(self) -> list[ArtNode]:
        return [n for n in self.waitlist if n.in_waitlist and not n.removed]

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
        if new_state == node.state:
            return
        self._unindex(node)
        node.state = new_state
        self._index(node, record_order=False)

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


def run_cpa(rs: RunState, monitor=None, target_locs: frozenset = frozenset()) -> RunResult:
    """One worklist pass; returns on empty waitlist, monitor halt, or target hit."""
    cpa = rs.cpa
    cfa = rs.cfa
    while True:
        if monitor is not None and monitor.should_halt(rs.reached_size()):
            return RunResult("halted")
        node = rs.pop_waitlist()
        if node is None:
            return RunResult("empty")
        state = node.state
        for edge in cfa.edges_from(cpa.location_of(state)):
            if monitor is not None:
                act = monitor.pre_post(edge.id)
                if act == "halt":
                    rs.add_to_waitlist(node)
                    return RunResult("halted")
                if act == "skip":
                    skipped = cpa.excluded_successor(state, edge)
                    if skipped is not None:
                        _process_successor(rs, node, edge, skipped, F.FALSE)
                    continue
            for succ, assumption in cpa.successors(state, edge):
                hit = _process_successor(rs, node, edge, succ, assumption)
                if hit is not None and _is_target(cpa, hit.state, target_locs):
                    rs.add_to_waitlist(node)
                    return RunResult("target", hit)


def _is_target(cpa: "CompositeCpa", state, target_locs: frozenset) -> bool:
    if not target_locs or cpa.is_excluded(state):
        return False
    return cpa.location_of(state) in target_locs


def _process_successor(rs: RunState, node: ArtNode, edge: lang.Edge,
                       succ, assumption: F.Formula) -> Optional[ArtNode]:
    """Merge and stop phases for one successor; returns its node if added."""
    cpa = rs.cpa
    for other in list(rs.merge_bucket(cpa.merge_key(succ))):
        merged = cpa.merge(succ, other.state)
        if merged != other.state:
            rs.replace_state(other, merged)
            rs.add_to_waitlist(other)
    for child in node.children:
        if not child.removed and child.edge is not None \
                and child.edge.id == edge.id and child.state == succ:
            return None  # re-expansion of an already recorded step
    cover = None
    exact = rs.exact.get(succ)
    if exact is not None and cpa.covers(succ, exact.state):
        cover = exact
    else:
        for cand in cpa.stop_candidates(succ, rs):
            if not cand.removed and cpa.covers(succ, cand.state):
                cover = cand
                break
    if cover is not None:
        rs.new_covered_node(node, edge, assumption, succ, cover)
        return None
    child = rs.new_reached_node(node, edge, assumption, succ)
    if not cpa.is_excluded(succ):
        rs.add_to_waitlist(child)
    return child
