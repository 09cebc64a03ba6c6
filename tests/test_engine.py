"""Worklist-engine tests: the algorithm, orders, budgets, and the ART."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from cmcheck import conditions as C
from cmcheck import domains as D
from cmcheck import engine, formula as F, lang
from cmcheck import solver as S
from cmcheck.assumptions import CompositeCpa

from helpers import engine_reached_states, random_cfa, reference_reached, tracked_by_type


def location_cpa(cfa):
    """What the shipped ``location`` configuration runs."""
    return CompositeCpa(cfa, D.NoDomain(), S.Solver())


def location_run(cfa, order="dfs"):
    states, rs = engine_reached_states(location_cpa(cfa), order=order)
    return [s.location for s in states], rs


def test_straight_line_reaches_every_location():
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nL0 -> L1: x := x + 1;\nL1 -> L2: x := x + 1;\n")
    states, _ = location_run(cfa)
    assert sorted(states) == [0, 1, 2]


def test_diamond_covers_second_join_visit():
    cfa = lang.parse_cfa(
        "vars: x;\n"
        "init: L0;\n"
        "L0 -> L1: assume x <= 0;\n"
        "L0 -> L2: assume x > 0;\n"
        "L1 -> L3: x := x + 1;\n"
        "L2 -> L3: x := x - 1;\n")
    states, rs = location_run(cfa)
    # Hand simulation: L0, then both branch targets, then the join once;
    # the second arrival at L3 is covered, not added.
    assert sorted(states) == [0, 1, 2, 3]
    covered = [n for n in rs.nodes if n.covered_by is not None]
    assert len(covered) == 1
    assert covered[0].state.location == 3


def test_explicit_loop_enumerates_values():
    cfa = lang.parse_program("int x; x := 0; while (x < 3) { x := x + 1; }")
    solver = S.Solver()
    cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
    states, _ = engine_reached_states(cpa)
    head = cfa.edges[1].source
    vals = sorted(s.domain.store()["x"] for s in states if s.location == head)
    assert vals == [0, 1, 2, 3]


def empty_waitlist(order):
    """A run state whose waitlist is drained, for driving it by hand."""
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: x := x + 1;\n")
    rs = engine.RunState(location_cpa(cfa), order=order)
    assert rs.pop_waitlist() is rs.root
    return rs


def queued(rs, value):
    node = engine.ArtNode(-1, value, None, None, F.TRUE)
    rs.add_to_waitlist(node)
    return node


def test_choose_next_orders():
    for order, want in (("dfs", "c"), ("bfs", "a")):
        rs = empty_waitlist(order)
        for value in ("a", "b", "c"):
            queued(rs, value)
        assert rs.pop_waitlist().state == want
    with pytest.raises(ValueError):
        empty_waitlist("random")


def test_choose_next_matches_reference_trace():
    rng = random.Random(4)
    ops = [("push", rng.randint(0, 99)) if rng.random() < 0.6 else ("pop", None)
           for _ in range(80)]
    for order in ("dfs", "bfs"):
        rs = empty_waitlist(order)
        reference, trace, expected = [], [], []
        for kind, value in ops:
            if kind == "push":
                queued(rs, value)
                reference.append(value)
            elif reference:
                trace.append(rs.pop_waitlist().state)
                expected.append(reference.pop(-1 if order == "dfs" else 0))
        assert trace == expected


def test_waitlist_skips_lazily_deleted_entries():
    for order in ("dfs", "bfs"):
        rs = empty_waitlist(order)
        a, b, c = (queued(rs, v) for v in "abc")
        b.in_waitlist = False
        c.removed = True
        rs.add_to_waitlist(a)  # already queued: not queued twice
        assert rs.pop_waitlist() is a
        assert rs.pop_waitlist() is None
        assert not any(n.in_waitlist and not n.removed for n in rs.waitlist)


def test_fuel_budget_is_exact():
    cfa = lang.parse_program("int x; x := 0; while (x >= 0) { x := x + 1; }")
    solver = S.Solver()
    cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
    for fuel in (17, 100, 500):
        rs = engine.RunState(cpa)
        monitor = C.GlobalMonitor(max_fuel=fuel)
        assert engine.run_cpa(rs, monitor=monitor) is None
        assert monitor.halted
        assert monitor.fuel_spent == fuel
        # The residual frontier is returned, not dropped.
        assert any(n.in_waitlist and not n.removed for n in rs.waitlist)


def test_merge_replaces_in_reached_and_waitlist():
    # Two paths reach the same explicit store with different path lengths;
    # the composite merge keeps one state with the max counters.
    cfa = lang.parse_program(
        "int x; int y; havoc y; if (y > 0) { x := 1; x := x + 1; } else { x := 2; } x := 0;")
    solver = S.Solver()
    cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver,
                       condition_components=[C.PathStatsComponent(max_length=50)])
    states, rs = engine_reached_states(cpa)
    by_key = {}
    for s in states:
        by_key.setdefault((s.location, s.domain), []).append(s)
    for key, group in by_key.items():
        assert len(group) == 1, f"duplicate states for {key}"


def test_merge_never_requeues_an_excluded_node(monkeypatch):
    # A merge that conjoins false into a reached node's assumption excludes
    # it; it must not go back on the waitlist, where it would only be
    # popped to spend posts on no successors.
    from cmcheck import driver

    popped = []
    pop = engine.RunState.pop_waitlist

    def spy(rs):
        node = pop(rs)
        if node is not None:
            popped.append(node.state.assumption)
        return node

    monkeypatch.setattr(engine.RunState, "pop_waitlist", spy)
    configs = [driver.shipped_configurations()[name]
               for name in ("explicit-pathlen40", "explicit-repeat3")]
    rng = random.Random(20110901)
    for i in range(30):
        cfa = random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                         require_assert=(i % 2 == 0))
        for config in configs:
            driver.run_analysis(cfa, dataclasses.replace(config, fuel=1500))
    assert popped
    assert not any(isinstance(a, F.FalseF) for a in popped)


def test_art_parent_chain_replays_states():
    rng = random.Random(12)
    solver = S.Solver()
    for _ in range(10):
        cfa = random_cfa(rng, n_vars=2)
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        states, rs = engine_reached_states(cpa)
        for node in rs.reached_nodes():
            if node.parent is None:
                continue
            nodes, edges = node.path_from_root()
            assert nodes[0] is rs.root
            state = rs.root.state
            for e, n in zip(edges, nodes[1:]):
                succs = cpa.successors(state, e)
                assert n.state in succs or any(
                    cpa.covers(n.state, s) and cpa.covers(s, n.state) for s in succs)
                state = n.state


def test_transfer_closure_on_random_programs():
    rng = random.Random(42)
    solver = S.Solver()
    for _ in range(12):
        cfa = random_cfa(rng, n_vars=2)
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        states, rs = engine_reached_states(cpa)
        reached = [n.state for n in rs.reached_nodes()]
        for state in reached:
            if isinstance(state.assumption, F.FalseF):
                continue
            for edge in cfa.edges_from(state.location):
                for succ in cpa.successors(state, edge):
                    assert any(cpa.covers(succ, r) for r in reached), \
                        f"successor of {state} along {edge} escapes the reached set"


def test_engine_matches_reference_location_cpa():
    rng = random.Random(8)
    for _ in range(15):
        cfa = random_cfa(rng)
        states, _ = location_run(cfa)
        ref = reference_reached(cfa, location_cpa(cfa))
        assert sorted(states) == sorted(s.location for s in ref)


def test_engine_matches_reference_explicit_composite():
    rng = random.Random(9)
    solver = S.Solver()
    for _ in range(12):
        cfa = random_cfa(rng, n_vars=2)
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        states, _ = engine_reached_states(cpa)
        ref = reference_reached(cfa, cpa)
        proj = sorted((s.location, s.domain.bindings) for s in states)
        proj_ref = sorted((s.location, s.domain.bindings) for s in ref)
        assert proj == proj_ref
        # With a condition component, merges change conditions and
        # assumptions: the whole states must agree.
        counted = CompositeCpa(cfa, D.ExplicitDomain(), solver,
                               condition_components=[C.RepeatComponent(2)])
        states, _ = engine_reached_states(counted)
        assert Counter(states) == Counter(reference_reached(cfa, counted))


# -- the shape-indexed stop check -------------------------------------------

def havoc_heavy_text(rng: random.Random) -> str:
    """Loops whose head holds stores of several shapes (havoc in branches)."""
    names = ["a", "b", "c", "d"][:rng.randint(2, 4)]
    lines = [f"int g, i, {', '.join(names)};", "havoc g;"]
    for v in names:
        k = rng.randint(0, 3)
        lines.append(rng.choice([f"havoc {v};", f"{v} := {k};",
                                 f"if (g < {k}) {{ havoc {v}; }} else {{ {v} := {k}; }}"]))
    body = []
    for v in rng.sample(names, rng.randint(1, len(names))):
        k = rng.randint(0, 3)
        body.append(rng.choice([f"if (g < {k}) {{ havoc {v}; }}",
                                f"if ({v} == {k}) {{ havoc {v}; }} else {{ {v} := {v} + 1; }}",
                                f"{v} := {k};"]))
    lines.append(f"while (i < {rng.randint(2, 4)}) {{ {' '.join(body)} i := i + 1; }}")
    lines.append(f"assert({rng.choice(names)} != {rng.randint(0, 5)});")
    return "\n".join(lines) + "\n"


def run_fingerprint(cfa, pipeline, monkeypatch) -> tuple:
    """Verdicts, psi, automata and every ART node's cover, per stage."""
    from cmcheck import assumptions as A, driver

    runs = []

    class RecordingRunState(engine.RunState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    with monkeypatch.context() as m:
        m.setattr(engine, "RunState", RecordingRunState)
        final = driver.run_pipeline(cfa, pipeline)
    covers = [[(n.nid, n.removed, n.covered_by.nid if n.covered_by else None)
               for n in rs.nodes] for rs in runs]
    reports = [(s.verdict, F.render_formula(s.report.psi),
                A.serialize_automaton(s.report.automaton))
               for s in final.stages if s.report is not None]
    weaker = sum(n.covered_by is not None and n.covered_by.state.domain != n.state.domain
                 for rs in runs for n in rs.nodes)
    return (final.verdict, reports, covers), weaker


def test_shape_index_agrees_with_full_enumeration(monkeypatch):
    from cmcheck import driver
    from helpers import reference_cover_keys

    configs = [c for c in driver.shipped_configurations().values()
               if c.domain == "explicit"]
    rng = random.Random(20110901)
    cfas = [random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                       require_assert=(i % 2 == 0)) for i in range(100)]
    pipelines = [driver.Pipeline(stages=[c]) for c in configs]
    rng = random.Random(8)
    for _ in range(30):
        cfas.append(lang.parse_program(havoc_heavy_text(rng)))
    # A second stage keys its stop checks by observer state as well.
    pipelines.append(driver.Pipeline(stages=[
        driver.AnalysisConfig(name="explicit", domain="explicit", repeat_loc=2),
        driver.AnalysisConfig(name="explicit-bfs", domain="explicit", order="bfs")]))
    weaker_total = 0
    for cfa in cfas:
        for pipeline in pipelines:
            shipped, weaker = run_fingerprint(cfa, pipeline, monkeypatch)
            with monkeypatch.context() as m:
                m.setattr(D.ExplicitDomain, "cover_keys", reference_cover_keys)
                reference, _ = run_fingerprint(cfa, pipeline, monkeypatch)
            assert shipped == reference
            weaker_total += weaker
    assert weaker_total > 0  # some stop checks found a strictly weaker cover


def test_the_root_covers_a_successor_through_the_stop_check():
    # The root never goes through a stop check, so its shape is known only
    # because the successor's own shape is recorded before the lookups.
    cfa = lang.parse_program("int x; while (x < 1) { x := 1; x := 0; }")
    states, rs = engine_reached_states(CompositeCpa(cfa, D.ExplicitDomain(), S.Solver()))
    back = rs.nodes[4]
    assert back.state.location == rs.root.state.location
    assert back.state.domain == rs.root.state.domain
    assert back.covered_by is rs.root
    assert len(states) == 4


# -- sibling links and one node per domain state ------------------------------

def hand_run():
    """A run state on L0 with three edges to L1 and one to L2, and an
    ``add(parent, k)`` that records the reached step along edge k.  The
    domain is explicit, so each edge's value of ``x`` is its own domain
    state."""
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\n"
        "L0 -> L1: x := 1;\nL0 -> L1: x := 2;\nL0 -> L1: x := 3;\nL0 -> L2: x := 0;\n"
        "L2 -> L1: x := 4;\nL2 -> L1: x := 5;\n")
    rs = engine.RunState(CompositeCpa(cfa, D.ExplicitDomain(), S.Solver()))
    assert rs.pop_waitlist() is rs.root

    def add(parent, k):
        edge = cfa.edges[k]
        [succ] = rs.cpa.successors(parent.state, edge, False)
        return rs.new_reached_node(parent, edge, F.TRUE, succ, rs.cpa.partition_key(succ))

    return rs, add


def child_ids(node) -> list:
    """The live links from ``first_child`` on; ``last_child`` ends them."""
    kids, child = [], node.first_child
    while child is not None:
        kids.append(child)
        child = child.next_sibling
    assert node.last_child is (kids[-1] if kids else None)
    assert list(node.children()) == kids
    return [c.nid for c in kids]


def test_sibling_links_keep_insertion_order_through_removals():
    rs, add = hand_run()
    root = rs.root
    a, b, c = add(root, 0), add(root, 1), add(root, 2)
    assert child_ids(root) == [a.nid, b.nid, c.nid]
    rs.remove_subtree(a)  # the first
    assert child_ids(root) == [b.nid, c.nid]
    d = add(root, 0)
    assert child_ids(root) == [b.nid, c.nid, d.nid]
    rs.remove_subtree(c)  # the middle
    assert child_ids(root) == [b.nid, d.nid]
    e = add(root, 2)
    assert child_ids(root) == [b.nid, d.nid, e.nid]
    rs.remove_subtree(e)  # the last
    assert child_ids(root) == [b.nid, d.nid]
    f = add(root, 2)
    assert child_ids(root) == [b.nid, d.nid, f.nid]
    for node in (b, d, f):
        rs.remove_subtree(node)
    assert child_ids(root) == []
    g = add(root, 1)
    assert child_ids(root) == [g.nid]
    assert [n.nid for n in rs.reached_nodes()] == [root.nid, g.nid]


def test_art_node_repr_does_not_follow_links(programs_dir):
    # Following the tree links, the root of this 13-node ART printed
    # 2,537,866 characters; a failing assertion on ART nodes never ended.
    from cmcheck import driver

    cfa = lang.parse_program((programs_dir / "counting_loop.imp").read_text())
    rs = driver.run_analysis(cfa, driver.AnalysisConfig(
        name="explicit", domain="explicit", fuel=20)).run
    assert len(rs.nodes) == 13
    assert all(len(repr(n)) < 400 for n in rs.nodes)


def test_remove_subtree_unlinks_and_requeues_covered_dependents():
    rs, add = hand_run()
    root = rs.root
    a = add(root, 0)
    p = add(root, 3)
    x = add(p, 4)
    edge = rs.cpa.cfa.edges[5]
    [succ] = rs.cpa.successors(p.state, edge, False)
    cov = rs.new_covered_node(p, edge, F.TRUE, succ, a)
    assert child_ids(p) == [x.nid, cov.nid]
    assert not p.in_waitlist
    assert rs.remove_subtree(a) is root
    assert a.removed and cov.removed and not x.removed
    # The dependent left its parent's links, the last one, and the parent
    # went back on the waitlist to re-explore that step.
    assert child_ids(p) == [x.nid]
    assert child_ids(root) == [p.nid]
    assert p.in_waitlist


def test_one_reached_node_per_domain_state():
    rs, add = hand_run()
    a = add(rs.root, 0)
    key = rs.cpa.partition_key(a.state)
    # The first node is the partition itself, and its state's
    # replacement and removal go through the key.
    assert rs.partitions[key] is a
    rs.replace_state(a, dataclasses.replace(a.state, assumption=F.FALSE))
    assert rs.partitions[key] is a
    with pytest.raises(RuntimeError, match="repeats a reached domain state"):
        add(rs.root, 0)
    assert rs.partitions[key] is a and rs.reached_size() == 2
    rs.remove_subtree(a)
    assert key not in rs.partitions and rs.reached_size() == 1
    # A second domain state makes the partition a dict, in order.
    a, b, c = (add(rs.root, k) for k in range(3))
    part = rs.partitions[key]
    assert list(part.values()) == [a, b, c]
    assert all(part[n.state.domain] is n for n in (a, b, c))
    # A replaced state moves its node to the end of the order.
    rs.replace_state(a, dataclasses.replace(a.state, assumption=F.FALSE))
    assert list(part.values()) == [b, c, a]
    assert part[a.state.domain] is a
    # Removal deletes the node's key.
    rs.remove_subtree(b)
    assert b.state.domain not in part
    assert list(part.values()) == [c, a]
    assert rs.reached_size() == 3
    # A second node under a taken (partition, domain state) is an
    # internal error, and the index keeps the first.
    with pytest.raises(RuntimeError, match="repeats a reached domain state"):
        add(rs.root, 2)
    assert list(part.values()) == [c, a]
    assert rs.reached_size() == 3
    rs.remove_subtree(c)
    rs.remove_subtree(a)
    assert rs.partitions[key] is part
    assert not part and rs.reached_size() == 1


def unindexed(rs: engine.RunState, nodes) -> list:
    """The nids of the nodes that are not their partition's entry for
    their domain state (nids, as an ART node's repr spans its tree)."""
    return [n.nid for n in nodes
            if engine.node_at(rs.partitions.get(rs.cpa.partition_key(n.state)),
                              n.state.domain) is not n]


def test_the_rule_holds_when_no_cover_is_proved(monkeypatch, programs_dir):
    # A solver that proves no cover: only the merge target may stop a
    # successor, and no second node joins a taken domain state.
    from cmcheck import driver

    runs = []

    class RecordingRunState(engine.RunState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(engine, "RunState", RecordingRunState)
    monkeypatch.setattr(CompositeCpa, "covers", lambda self, state, candidate: False)
    configs = [driver.AnalysisConfig(name="explicit", domain="explicit", fuel=400),
               driver.AnalysisConfig(name="predicate", domain="predicate", overflow=True,
                                     fuel=400, max_refinements=5)]
    programs = sorted(programs_dir.glob("*.imp"))
    assert programs
    for path in programs:
        cfa = lang.parse_program(path.read_text())
        for config in configs:
            driver.run_analysis(cfa, config)
    assert len(runs) >= 2 * len(programs)
    merged = 0
    for rs in runs:
        # Plain values only: a failing assertion prints its operands.
        reached = rs.reached_nodes()
        size, count, missing = rs.reached_size(), len(reached), unindexed(rs, reached)
        assert size == count
        assert not missing
        merged += sum(n.covered_by is not None and n.covered_by.state.domain == n.state.domain
                      for n in rs.nodes)
    assert merged > 0  # the merge targets stopped successors


def test_art_bookkeeping_holds_no_container_per_node(nonlinear_square_cfa):
    # Each generation-2 collection walks every tracked object, and a
    # finished run's ART stays alive as long as its report.  Two sizes of
    # one chain: the objects the larger run adds per ART node are its
    # nodes, states and stores, and no list.
    from cmcheck import driver

    sizes = []
    for fuel in (3000, 12000):
        report = driver.run_analysis(nonlinear_square_cfa, driver.AnalysisConfig(
            name="explicit", domain="explicit", fuel=fuel))
        sizes.append((len(report.run.nodes), tracked_by_type()))  # with the run alive
        del report
    (small_nodes, small), (big_nodes, big) = sizes
    new_nodes = big_nodes - small_nodes
    assert new_nodes > 5000
    assert big[list] - small[list] < new_nodes / 100
    assert sum(big.values()) - sum(small.values()) <= 4 * new_nodes


def test_a_one_node_partition_holds_no_container(nonlinear_square_cfa,
                                                nonlinear_square_explicit_automaton):
    # In a second stage each observer state keys its own partition, most
    # of them holding one node: such a partition is its node, and only a
    # second domain state makes it a dict.
    from cmcheck import assumptions as A
    from cmcheck import driver

    carried = A.parse_automaton(nonlinear_square_explicit_automaton)
    sizes = []
    for fuel in (3000, 12000):
        report = driver.run_analysis(nonlinear_square_cfa, driver.AnalysisConfig(
            name="predicate", domain="predicate", fuel=fuel), input_automaton=carried)
        sizes.append((len(report.run.partitions), tracked_by_type()))  # with the run alive
        del report
    (small_parts, small), (big_parts, big) = sizes
    new_parts = big_parts - small_parts
    assert new_parts > 5000
    assert big[dict] - small[dict] <= new_parts / 100


# -- the partitioned reached set ----------------------------------------------

def assert_partitions_consistent(rs: engine.RunState) -> None:
    """The partitions hold exactly the reached nodes, each once, in order.

    ``rs.stamps`` maps each node to the time it was last indexed.
    """
    reached = rs.reached_nodes()
    assert rs.reached_size() == len(reached)
    indexed = [n for held in rs.partitions.values() for n in engine.partition_nodes(held)]
    assert all(isinstance(n, engine.ArtNode) for n in indexed)
    # Each node once across all partitions: no removed or covered node.
    assert sorted(n.nid for n in indexed) == [n.nid for n in reached]
    missing = unindexed(rs, reached)
    assert not missing
    # The order is the order in which the nodes last got their states.
    for held in rs.partitions.values():
        stamps = [rs.stamps[n] for n in engine.partition_nodes(held)]
        assert stamps == sorted(stamps)
    for node in rs.nodes:
        if node.covered_by is not None and not node.removed:
            assert node in rs.covers_index[node.covered_by.nid]


def test_partitions_hold_exactly_the_reached_set(monkeypatch):
    from cmcheck import driver

    runs = []
    clock = itertools.count()

    class RecordingRunState(engine.RunState):
        def __init__(self, *args, **kwargs):
            self.stamps = {}
            super().__init__(*args, **kwargs)
            runs.append(self)

        def _index(self, node, key):
            self.stamps[node] = next(clock)
            super()._index(node, key)

    monkeypatch.setattr(engine, "RunState", RecordingRunState)
    explicit = driver.AnalysisConfig(name="explicit", domain="explicit", repeat_loc=2)
    predicate = driver.AnalysisConfig(name="predicate", domain="predicate")
    # The first stage's bound leaves the second stage an observer to run.
    bounded = driver.AnalysisConfig(name="bounded", domain="explicit", path_length=6)
    pipelines = [driver.Pipeline(stages=[explicit]), driver.Pipeline(stages=[predicate]),
                 driver.Pipeline(stages=[bounded, predicate])]
    rng = random.Random(1101)
    cfas = [random_cfa(rng, n_vars=rng.randint(1, 3), require_assert=(i % 3 != 0))
            for i in range(40)]
    cfas += [lang.parse_program(havoc_heavy_text(rng)) for _ in range(5)]
    for cfa in cfas:
        for pipeline in pipelines:
            driver.run_pipeline(cfa, pipeline)
    for rs in runs:
        assert_partitions_consistent(rs)
    # Refinement removed subtrees, and observer states keyed partitions.
    assert any(n.removed for rs in runs for n in rs.nodes)
    assert any(key[1] is not None for rs in runs for key in rs.partitions)


def wide_program(n: int) -> str:
    """A 50-iteration loop incrementing n variables; the assertion holds."""
    names = ", ".join(f"v{k}" for k in range(n))
    body = " ".join(f"v{k} := v{k} + 1;" for k in range(n))
    return (f"int i, {names};\ni := 0;\n"
            f"while (i < 50) {{ {body} i := i + 1; }}\nassert(i == 50);\n")


def test_wide_family_stop_checks_stay_linear(tmp_path, capsys, monkeypatch):
    # A stop check used to look up all 2^15 sub-stores of a 15-variable store.
    import json

    from cmcheck import cli

    shipped = D.ExplicitDomain.cover_keys
    yielded = [0]

    def counting(self, state, key):
        for sub in shipped(self, state, key):
            yielded[0] += 1
            yield sub

    monkeypatch.setattr(D.ExplicitDomain, "cover_keys", counting)
    f = tmp_path / "wide14.imp"
    f.write_text(wide_program(14))
    out = tmp_path / "out"
    assert cli.main([str(f), "--config", "explicit", "--out-dir", str(out),
                     "--emit", "json"]) == 0
    assert capsys.readouterr().out.startswith("TRUE")
    stage = json.loads((out / "stats.jsonl").read_text().splitlines()[0])
    assert 0 < yielded[0] <= stage["posts"]


@pytest.mark.parametrize("n", [1, 4, 8])
def test_wide_family_is_true(tmp_path, capsys, n):
    from cmcheck import cli

    f = tmp_path / f"wide{n}.imp"
    f.write_text(wide_program(n))
    assert cli.main([str(f), "--config", "explicit"]) == 0
    assert capsys.readouterr().out.startswith("TRUE")


def test_perfbench_wrappers_find_their_attributes(monkeypatch):
    # The benchmark wraps cmcheck attributes by name and checks some counts
    # against the reports; a rename or an inlined call that bypasses a
    # wrapper must fail here.
    from pathlib import Path

    from cmcheck import assumptions as A
    from cmcheck import driver

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracing

    cfa = lang.parse_program(
        "int i, x; havoc x; i := 0; while (i < 3) { if (x < 2) { x := 0; } i := i + 1; }"
        " assert(i == 3);")
    saved = dict(engine.RunState.__dict__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [driver.run_analysis(cfa, driver.AnalysisConfig(name=domain, domain=domain))
                   for domain in ("explicit", "predicate")]
        # An explicit -> predicate pipeline, its automaton passed as text.
        first = driver.run_analysis(cfa, driver.AnalysisConfig(
            name="explicit", domain="explicit", fuel=5))
        assert first.verdict == "CONDITION"
        carried = A.parse_automaton(A.serialize_automaton(first.automaton))
        reports += [first, driver.run_analysis(
            cfa, driver.AnalysisConfig(name="predicate", domain="predicate"),
            input_automaton=carried)]
    finally:
        tracer.uninstall()
    assert dict(engine.RunState.__dict__) == saved
    for name in ("engine.new_node", "engine.new_covered_node",
                 "domains.explicit.cover_keys", "assumptions.successors",
                 "assumptions.covers", "assumptions.merge", "conditions.pre_post",
                 "assumptions.observer_step", "assumptions.export",
                 "assumptions.postprocess", "assumptions.serialize", "assumptions.parse"):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["conditions.posts"] == sum(r.stats["posts"] for r in reports)
    assert tracer.calls["engine.new_node"] == sum(len(r.run.nodes) for r in reports)
