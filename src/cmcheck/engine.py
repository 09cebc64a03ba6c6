"""Reachability engine: the worklist algorithm that runs the composite CPA.

The loop is the classic one: pop a frontier state, compute abstract
successors along the CFA edges leaving its location (a post the monitor
skips yields the CPA's excluded stand-in), merge each successor into the
one reached state that holds the same domain state, if any (replacing
its state in place when the merge changed something, and re-queueing it
unless the merge excluded it), then add it unless one of the CPA's
``stop_candidates`` covers it; the first that does becomes its cover.
The reached set is partitioned by location and observer state, as only
states that agree on both can merge or cover each other.  The merge
target covers the successor, as its assumption conjoins the successor's,
so a successor joins the reached set only when no reached state holds
its domain state: a partition holds one node per domain state.  A
partition is its one node until a second domain state arrives, and from
then on a dict from domain state to node, so the many one-node
partitions of a second stage (one per observer state) hold no container.
An abstract reachability tree is maintained alongside: every expansion
creates a child node carrying the CFA edge and, as the label of that
step, the successor's assumption; covered successors become leaf nodes
pointing at their covering node.  A node links its children in
insertion order (``first_child``, then ``next_sibling``), and
``last_child`` lets a new child join the end in one step, so a leaf
holds no container of its own.

``run_cpa`` returns the node of the first target state it reaches, or
None when the waitlist empties or the monitor halts the run, which
``monitor.halted`` tells apart.  ``RunState`` reads the CFA from its CPA.

``RunState._index`` is the only way a node enters the partitions, and
``_unindex`` the only way out; the caller hands ``_index`` the partition
key, and it raises if another node already holds the node's domain
state there.  The benchmark in ``perfbench/`` traces the engine by
wrapping attributes by name, so the hot loop must keep calling these as
attributes, never inline them:
``RunState._new_node`` and ``new_covered_node``, the composite CPA's
``successors``, ``covers`` and ``merge``, ``ExplicitDomain.cover_keys``
(through ``stop_candidates``) and ``GlobalMonitor.pre_post``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from . import conditions as C
from . import formula as F
from . import lang

if TYPE_CHECKING:
    from .assumptions import CompositeCpa


@dataclass(eq=False, slots=True)
class ArtNode:
    nid: int
    state: Any
    parent: Optional["ArtNode"] = field(repr=False)
    edge: Optional[lang.Edge]
    assumption: F.Formula
    # The links stay out of the repr, which would otherwise print the tree.
    first_child: Optional["ArtNode"] = field(default=None, repr=False)
    last_child: Optional["ArtNode"] = field(default=None, repr=False)
    next_sibling: Optional["ArtNode"] = field(default=None, repr=False)
    covered_by: Optional["ArtNode"] = field(default=None, repr=False)
    in_waitlist: bool = False
    removed: bool = False

    def children(self) -> Iterator["ArtNode"]:
        """The children in insertion order, removed ones included."""
        child = self.first_child
        while child is not None:
            yield child
            child = child.next_sibling

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

    def __init__(self, cpa: "CompositeCpa", order: str = "dfs"):
        if order not in ("dfs", "bfs"):
            raise ValueError(f"unknown order {order!r}")
        self.cpa = cpa
        self.order = order
        self.nodes: list[ArtNode] = []
        # Partition key -> its one node, or {domain state: node} from the
        # second domain state on (see ``_index``).
        self.partitions: dict[Any, Any] = {}
        self._reached = 0
        # Lazy deletion: entries whose node left the waitlist stay queued
        # and are skipped when popped.
        self.waitlist: deque[ArtNode] = deque()
        # Cover nid -> the nodes it covers, removed ones included.
        self.covers_index: dict[int, list[ArtNode]] = {}
        init = cpa.initial_state()
        self.root = self._new_node(init, None, None, F.TRUE)
        self._index(self.root, cpa.partition_key(init))
        self.add_to_waitlist(self.root)

    # -- construction --------------------------------------------------------

    def _new_node(self, state, parent, edge, assumption) -> ArtNode:
        node = ArtNode(len(self.nodes), state, parent, edge, assumption)
        self.nodes.append(node)
        if parent is not None:
            last = parent.last_child
            if last is None:
                parent.first_child = node
            else:
                last.next_sibling = node
            parent.last_child = node
        return node

    def _index(self, node: ArtNode, key) -> None:
        """Enter a reached node into partition ``key``.

        A partition holds its node itself until a second domain state
        arrives; from then on it is a dict from each domain state to the
        one node that holds it, in the order in which the nodes last got
        their states, as ``replace_state`` takes a node out and enters it
        again.  The stop check takes the first covering node of
        ``stop_candidates``, which follows this order, so it decides each
        ``covered_by``.  A node never changes partition or domain state:
        merges and exclusions change only its assumption and condition
        states.
        """
        state = node.state
        partitions = self.partitions
        held = partitions.setdefault(key, node)
        if held is not node:
            domain = state.domain
            if type(held) is dict:
                taken = held.setdefault(domain, node) is not node
            else:
                taken = held.state.domain == domain
                if not taken:  # the partition's second domain state
                    partitions[key] = {held.state.domain: held, domain: node}
            if taken:
                raise RuntimeError(f"node {node.nid} repeats a reached domain state "
                                   f"at location {state.location}")
        self._reached += 1

    def _unindex(self, node: ArtNode):
        """Take a reached node out of its partition; returns the key."""
        state = node.state
        key = self.cpa.partition_key(state)
        held = self.partitions[key]
        if held is node:
            del self.partitions[key]
        else:
            del held[state.domain]
        self._reached -= 1
        return key

    def new_reached_node(self, parent, edge, assumption, state, key) -> ArtNode:
        node = self._new_node(state, parent, edge, assumption)
        self._index(node, key)
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
        partition's order (merges and exclusions keep it in the same
        partition, under the same domain state)."""
        if new_state == node.state:
            return
        key = self._unindex(node)
        node.state = new_state
        self._index(node, key)

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
            stack.extend(cur.children())
        for cur in removed:
            if cur.covered_by is None:
                self._unindex(cur)
        parent = node.parent
        if parent is not None and not parent.removed:
            _unlink(node)
        # Nodes covered by a removed node lose their justification: drop them
        # and let their parents re-explore.
        for cur in removed:
            for cov in self.covers_index.pop(cur.nid, ()):
                if cov.removed:
                    continue
                cov.removed = True
                if cov.parent is not None and not cov.parent.removed:
                    _unlink(cov)
                    self.add_to_waitlist(cov.parent)
        return parent


# A partition entry ``held`` is ``rs.partitions.get(key)``: None, one node,
# or a dict from domain state to node (see ``RunState._index``).

def node_at(held, domain) -> Optional[ArtNode]:
    """The node of partition entry ``held`` that holds ``domain``, if any."""
    if type(held) is dict:
        return held.get(domain)
    if held is not None and held.state.domain == domain:
        return held
    return None


def partition_nodes(held) -> Iterable[ArtNode]:
    """The nodes of partition entry ``held``, in the partition's order."""
    if type(held) is dict:
        return held.values()
    return () if held is None else (held,)


def _unlink(node: ArtNode) -> None:
    """Take ``node`` out of its parent's children."""
    parent = node.parent
    prev = None
    cur = parent.first_child
    while cur is not node:
        prev, cur = cur, cur.next_sibling
    if prev is None:
        parent.first_child = node.next_sibling
    else:
        prev.next_sibling = node.next_sibling
    if parent.last_child is node:
        parent.last_child = prev


def run_cpa(rs: RunState, monitor: C.GlobalMonitor,
            target_locs=frozenset()) -> Optional[ArtNode]:
    """One worklist pass: the node of the first target state reached, or
    None on an empty waitlist or a monitor halt (``monitor.halted``)."""
    cpa = rs.cpa
    edges_from = cpa.cfa.edges_from
    successors = cpa.successors
    while True:
        if monitor.should_halt(rs.reached_size()):
            return None
        node = rs.pop_waitlist()
        if node is None:
            return None
        state = node.state
        for edge in edges_from(state.location):
            act = monitor.pre_post(edge.id)
            if act == C.HALT_GLOBAL:
                rs.add_to_waitlist(node)
                return None
            for succ in successors(state, edge, act == C.SKIP_WITH_ASSUMPTION):
                hit = _process_successor(rs, node, edge, succ)
                # An excluded state is never a target.
                if hit is not None and succ.location in target_locs \
                        and not isinstance(succ.assumption, F.FalseF):
                    rs.add_to_waitlist(node)
                    return hit


def _process_successor(rs: RunState, node: ArtNode, edge: lang.Edge,
                       succ) -> Optional[ArtNode]:
    """Merge and stop phases for one successor; returns its node if added.

    The successor merges into ``same``, the one reached node with its
    domain state, if any.  A merge that excludes it (its assumption
    becomes false) does not re-queue it.  Afterwards ``same`` covers the
    successor, its assumption conjoining the successor's, so the stop
    check takes it without asking ``covers``; an earlier candidate that
    covers still wins.  The successor's assumption labels its ART edge.
    """
    cpa = rs.cpa
    key = cpa.partition_key(succ)
    held = rs.partitions.get(key)
    same = node_at(held, succ.domain)
    if same is not None:
        merged = cpa.merge(succ, same.state)
        if merged is not same.state:
            rs.replace_state(same, merged)
            if not isinstance(merged.assumption, F.FalseF):
                rs.add_to_waitlist(same)
    edge_id = edge.id
    child = node.first_child
    while child is not None:
        if not child.removed and child.edge is not None \
                and child.edge.id == edge_id and child.state == succ:
            return None  # re-expansion of an already recorded step
        child = child.next_sibling
    assumption = succ.assumption
    for cand in cpa.stop_candidates(succ, held, key):
        if cand is same or cpa.covers(succ, cand.state):
            rs.new_covered_node(node, edge, assumption, succ, cand)
            return None
    child = rs.new_reached_node(node, edge, assumption, succ, key)
    if not isinstance(assumption, F.FalseF):
        rs.add_to_waitlist(child)
    return child
