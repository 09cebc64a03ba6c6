"""Condition monitor tests: repeat locations, path stats, global limits."""

import random

from cmcheck import assumptions as A
from cmcheck import conditions as C
from cmcheck import domains as D
from cmcheck import engine, formula as F, lang
from cmcheck import solver as S
from cmcheck.assumptions import CompositeCpa

from helpers import engine_reached_states


def edge_to(target: int) -> lang.Edge:
    return lang.Edge(0, 0, target, lang.Havoc("x"))


def rstate(counts, exceeded=False):
    return C.RepeatState(tuple(sorted(counts.items())), exceeded)


# -- repeating locations ---------------------------------------------------------

def test_repeat_transfer_at_threshold():
    s = C.RepeatComponent(3).transfer(rstate({1: 2}), edge_to(1))
    assert dict(s.counts)[1] == 3 and not s.exceeded


def test_repeat_transfer_over_threshold():
    s = C.RepeatComponent(3).transfer(rstate({1: 3}), edge_to(1))
    assert dict(s.counts)[1] == 4 and s.exceeded


def test_repeat_transfer_zero_threshold():
    s = C.RepeatComponent(0).transfer(rstate({}), edge_to(5))
    assert s.exceeded  # first visit already beats k = 0


def test_repeat_merge_takes_pointwise_max():
    a, b = rstate({1: 2}), rstate({1: 5})
    rep = C.RepeatComponent(3)
    assert rep.merge(a, b) == rstate({1: 5})
    assert rep.merge(a, a) == a


def test_repeat_merge_commutes_on_random_pairs():
    rng = random.Random(1)
    for _ in range(50):
        a = rstate({rng.randint(0, 3): rng.randint(0, 5) for _ in range(rng.randint(0, 3))},
                   exceeded=rng.random() < 0.3)
        b = rstate({rng.randint(0, 3): rng.randint(0, 5) for _ in range(rng.randint(0, 3))},
                   exceeded=rng.random() < 0.3)
        rep = C.RepeatComponent(3)
        assert rep.merge(a, b) == rep.merge(b, a)


def test_repeat_stop_always_true():
    # Coverage never depends on condition bookkeeping: composite states
    # that differ only in their repeat counters cover each other.
    cfa = lang.parse_program("int x; x := 0;")
    cpa = CompositeCpa(cfa, D.NoDomain(), S.Solver(),
                       condition_components=[C.RepeatComponent(3)])

    def at(repeat):
        return A.CompositeState(F.TRUE, 1, (repeat,), None, None)

    assert cpa.covers(at(rstate({})), at(rstate({})))
    assert cpa.covers(at(rstate({1: 9}, exceeded=True)), at(rstate({})))
    assert cpa.covers(at(rstate({2: 1})), at(rstate({1: 9}, exceeded=True)))


def test_composite_stop_still_requires_domain_coverage():
    # Condition components never block coverage, the domain part decides.
    cfa = lang.parse_program("int x; x := 0; while (x < 2) { x := x + 1; }")
    solver = S.Solver()
    cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver,
                       condition_components=[C.RepeatComponent(50)])
    states, rs = engine_reached_states(cpa)
    assert len({(s.location, s.domain) for s in states}) == len(states)


# -- path stats -----------------------------------------------------------------

def test_pathstats_transfer_length_limit():
    s = C.PathStatsState(6, 0, False)
    stats = C.PathStatsComponent(max_length=7)
    s2 = stats.transfer(s, edge_to(1))
    assert s2.path_length == 7 and not s2.exceeded
    s3 = stats.transfer(s2, edge_to(1))
    assert s3.exceeded


def test_pathstats_counts_assume_edges_only():
    assume_edge = lang.Edge(0, 0, 1, lang.Assume(lang.BoolConst(True)))
    assign_edge = lang.Edge(1, 1, 2, lang.Assign("x", lang.Const(0)))
    stats = C.PathStatsComponent(max_assumes=20)
    s = C.PathStatsState(1, 0, False)
    s = stats.transfer(s, assume_edge)
    assert s.assume_edges == 1
    s = stats.transfer(s, assign_edge)
    assert s.assume_edges == 1


def test_pathstats_merge_max():
    a = C.PathStatsState(4, 2, False)
    b = C.PathStatsState(3, 5, True)
    assert C.PathStatsComponent().merge(a, b) == C.PathStatsState(4, 5, True)


# -- global monitor --------------------------------------------------------------

def test_monitor_reached_threshold():
    m = C.GlobalMonitor(max_reached=100)
    assert not m.should_halt(100)
    assert m.should_halt(101)
    assert m.should_halt(0)  # sticky once halted


def test_monitor_without_thresholds_never_halts():
    m = C.GlobalMonitor()
    for n in (0, 10 ** 6):
        assert not m.should_halt(n)


def test_monitor_fuel_is_deterministic():
    cfa = lang.parse_program("int x; x := 0; while (x >= 0) { x := x + 1; }")
    solver = S.Solver()
    counts = []
    for _ in range(2):
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        rs = engine.RunState(cpa)
        m = C.GlobalMonitor(max_fuel=500)
        assert engine.run_cpa(rs, monitor=m) is None
        assert m.halted
        counts.append((m.fuel_spent, rs.reached_size()))
    assert counts[0] == counts[1]
    assert counts[0][0] == 500


def test_busy_edge_skip_after_limit():
    m = C.GlobalMonitor(busy_edge_limit=3)
    e = edge_to(1)
    results = [m.pre_post(e.id) for _ in range(5)]
    assert results == [C.PROCEED] * 3 + [C.SKIP_WITH_ASSUMPTION] * 2


def test_busy_edge_counts_edges_independently():
    m = C.GlobalMonitor(busy_edge_limit=1)
    e0 = lang.Edge(0, 0, 1, lang.Havoc("x"))
    e1 = lang.Edge(1, 0, 1, lang.Havoc("x"))
    assert m.pre_post(e0.id) == C.PROCEED
    assert m.pre_post(e1.id) == C.PROCEED
    assert m.pre_post(e0.id) == C.SKIP_WITH_ASSUMPTION


def test_busy_edge_unlimited_equals_unmonitored():
    cfa = lang.parse_program(
        "int x; x := 0; while (x < 4) { x := x + 1; } assert(x == 4);")
    solver = S.Solver()

    def run(monitor):
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        rs = engine.RunState(cpa)
        engine.run_cpa(rs, monitor=monitor)
        return sorted((s.location, s.domain.bindings) for s in
                      (n.state for n in rs.reached_nodes()))

    plain = run(C.GlobalMonitor())
    huge = run(C.GlobalMonitor(busy_edge_limit=10 ** 9))
    assert plain == huge


def test_busy_edge_limit_produces_excluded_successors():
    cfa = lang.parse_program("int x; x := 0; while (x >= 0) { x := x + 1; }")
    solver = S.Solver()
    cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
    rs = engine.RunState(cpa)
    monitor = C.GlobalMonitor(busy_edge_limit=5)
    assert engine.run_cpa(rs, monitor=monitor) is None
    assert not monitor.halted  # the loop is cut off by skips
    excluded = [n for n in rs.reached_nodes() if isinstance(n.state.assumption, F.FalseF)]
    assert excluded
    assert all(n.state.domain == D.ExplicitState(()) for n in excluded)


def test_busy_edge_skip_steps_observer_and_conditions():
    # A skipped post still steps the observer and the condition components:
    # an edge the input automaton sends to T yields nothing, and an edge to
    # a named state yields an excluded stand-in in that state.
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nL0 -> L1: x := x + 1;\nL0 -> L2: x := x + 2;\n")
    to_t, to_q1 = cfa.edges
    aut = A.AssumptionAutomaton(
        initial="q0",
        flags={"q0": ("init",), "q1": (), "T": ("T",), "U": ("U",)},
        transitions={("q0", to_t.id): (F.TRUE, "T"), ("q0", to_q1.id): (F.TRUE, "q1")},
        edge_count=2,
    )
    cpa = CompositeCpa(cfa, D.ExplicitDomain(), S.Solver(),
                       condition_components=[C.RepeatComponent(3)],
                       observer=A.ObserverComponent(aut, cfa))
    rs = engine.RunState(cpa)
    # A limit of zero skips every post.
    monitor = C.GlobalMonitor(busy_edge_limit=0)
    assert engine.run_cpa(rs, monitor) is None and not monitor.halted
    [child] = rs.root.children()
    assert child.edge is to_q1
    assert child.assumption == F.FALSE
    assert child.state == A.CompositeState(
        assumption=F.FALSE, location=to_q1.target,
        conds=(C.RepeatState(((to_q1.target, 1),), False),),
        observer="q1", domain=D.ExplicitState(()))
    assert rs.reached_nodes() == [rs.root, child]
    assert not child.in_waitlist


# -- path-shaped restrictions end to end ----------------------------------------

def run_with(cfa, **cond):
    from cmcheck import driver

    cfg = driver.AnalysisConfig(name="t", domain="explicit", fuel=50_000, **cond)
    return driver.run_analysis(cfa, cfg)


def test_repeat_limit_bounds_unrolling():
    cfa = lang.parse_program("int x; x := 0; while (x >= 0) { x := x + 1; }")
    rep = run_with(cfa, repeat_loc=3)
    assert rep.verdict == "CONDITION"
    run = rep.stats
    assert run["posts"] < 100


def test_pathlength_limit_bounds_depth():
    cfa = lang.parse_program("int x; x := 0; while (x >= 0) { x := x + 1; }")
    rep = run_with(cfa, path_length=9)
    assert rep.verdict == "CONDITION"
    rs = rep.run
    for node in rs.reached_nodes():
        if not isinstance(node.state.assumption, F.FalseF):
            depth = len(node.path_from_root()[1]) + 1
            assert depth <= 9


def test_repeat_threshold_bounds_location_visits_per_path():
    cfa = lang.parse_program(
        "int x; int y; havoc y; x := 0; while (x < 50) { x := x + 1; }")
    k = 3
    rep = run_with(cfa, repeat_loc=k)
    rs = rep.run
    for node in rs.reached_nodes():
        if isinstance(node.state.assumption, F.FalseF):
            continue
        nodes, _ = node.path_from_root()
        per_loc = {}
        for n in nodes:
            loc = n.state.location
            per_loc[loc] = per_loc.get(loc, 0) + 1
        assert all(c <= k + 1 for c in per_loc.values()), per_loc


def test_condition_cpas_are_pure_bookkeeping():
    # The conditioned run's non-excluded projection is a subset of what an
    # unconditioned run reaches.
    import random as random_mod

    from helpers import random_cfa

    rng = random_mod.Random(515)
    for _ in range(8):
        cfa = random_cfa(rng, n_vars=2)
        plain = run_with(cfa)
        conditioned = run_with(cfa, repeat_loc=2, path_length=15)

        def proj(rep, only_included):
            out = set()
            for n in rep.run.reached_nodes():
                s = n.state
                if only_included and isinstance(s.assumption, F.FalseF):
                    continue
                out.add((s.location, s.domain))
            return out

        assert proj(conditioned, True) <= proj(plain, False)
