"""Search-restricting condition monitors.

Two kinds: path-shaped component states carried inside composite states
(repeating locations, path length / assume-edge counters, merged by max
when paths join), and the global monitor polled by the engine loop (fuel,
reached-set size, soft wall-clock limit, busy edges).  None of them affect
coverage; a component state past its threshold has ``exceeded`` set, and
the composite CPA excludes the current path instead.  The ``pf-atoms``
condition is neither: it limits the path formulas that counterexample
analysis decides, and reaches ``refine.refine_loop`` as ``atom_limit``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import lang

HALT_GLOBAL = "halt"
PROCEED = "proceed"
SKIP_WITH_ASSUMPTION = "skip"


# ---------------------------------------------------------------------------
# Repeating locations in path
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RepeatState:
    counts: tuple[tuple[int, int], ...]  # (location, occurrences), sorted
    exceeded: bool


class RepeatComponent:
    def __init__(self, k: int):
        self.k = k

    def initial(self) -> RepeatState:
        return RepeatState((), False)

    def transfer(self, state: RepeatState, edge: lang.Edge) -> RepeatState:
        counts = dict(state.counts)
        counts[edge.target] = counts.get(edge.target, 0) + 1
        exceeded = any(c > self.k for c in counts.values())
        return RepeatState(tuple(sorted(counts.items())), exceeded)

    def merge(self, a: RepeatState, b: RepeatState) -> RepeatState:
        counts = dict(a.counts)
        for loc, c in b.counts:
            if c > counts.get(loc, 0):
                counts[loc] = c
        items = tuple(sorted((l, c) for l, c in counts.items() if c))
        return RepeatState(items, a.exceeded or b.exceeded)


# ---------------------------------------------------------------------------
# Path length / assume edges in path
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PathStatsState:
    path_length: int
    assume_edges: int
    exceeded: bool


class PathStatsComponent:
    def __init__(self, max_length: Optional[int] = None,
                 max_assumes: Optional[int] = None):
        self.max_length = max_length
        self.max_assumes = max_assumes

    def initial(self) -> PathStatsState:
        return PathStatsState(1, 0, False)  # the root counts itself

    def transfer(self, state: PathStatsState, edge: lang.Edge) -> PathStatsState:
        length = state.path_length + 1
        assumes = state.assume_edges + (1 if isinstance(edge.op, lang.Assume) else 0)
        exceeded = ((self.max_length is not None and length > self.max_length)
                    or (self.max_assumes is not None and assumes > self.max_assumes))
        return PathStatsState(length, assumes, exceeded)

    def merge(self, a: PathStatsState, b: PathStatsState) -> PathStatsState:
        return PathStatsState(max(a.path_length, b.path_length),
                              max(a.assume_edges, b.assume_edges),
                              a.exceeded or b.exceeded)


# ---------------------------------------------------------------------------
# Global progress monitor
# ---------------------------------------------------------------------------

@dataclass
class GlobalMonitor:
    """Soft limits polled by the engine; counters are monotone.

    Fuel (a deterministic cap on transfer computations) is the test-facing
    twin of the wall-clock soft limit: with only fuel set, runs are exactly
    reproducible.
    """

    max_fuel: Optional[int] = None
    max_reached: Optional[int] = None
    soft_time_seconds: Optional[float] = None
    busy_edge_limit: Optional[int] = None

    fuel_spent: int = 0
    edge_posts: dict[int, int] = field(default_factory=dict)
    halted: bool = False
    started_at: float = field(default_factory=time.monotonic)

    def should_halt(self, reached_size: int) -> bool:
        if self.halted:
            return True
        if self.max_fuel is not None and self.fuel_spent >= self.max_fuel:
            self.halted = True
        elif self.max_reached is not None and reached_size > self.max_reached:
            self.halted = True
        elif (self.soft_time_seconds is not None
              and time.monotonic() - self.started_at > self.soft_time_seconds):
            self.halted = True
        return self.halted

    def pre_post(self, edge_id: int) -> str:
        """Gate one transfer computation along an edge."""
        if self.max_fuel is not None and self.fuel_spent >= self.max_fuel:
            self.halted = True
            return HALT_GLOBAL
        if self.busy_edge_limit is not None:
            n = self.edge_posts.get(edge_id, 0) + 1
            self.edge_posts[edge_id] = n
            if n > self.busy_edge_limit:
                return SKIP_WITH_ASSUMPTION
        self.fuel_spent += 1
        return PROCEED

