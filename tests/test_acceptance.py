"""Acceptance suite: one test per criterion, printing a PASS line each.

Every run here uses deterministic fuel budgets only (no wall-clock
limits), so two consecutive executions of this module produce identical
outputs; criterion 8 spot-checks that directly.  Oracle claims are bounded:
havoc values range over [0, 4] and enumeration is capped, as documented in
the oracle module.
"""

import random
import time
from collections import Counter

import pytest

from cmcheck import assumptions as A
from cmcheck import conditions as C
from cmcheck import domains as D
from cmcheck import engine, formula as F, lang, oracle
from cmcheck import solver as S
from cmcheck.assumptions import CompositeCpa
from cmcheck.driver import AnalysisConfig, Pipeline, run_analysis, run_pipeline

from helpers import (abstraction_minterms, box_minterms, contract_violations, random_cfa,
                     reference_reached, replay_witness, states_by_location)


def _report(n: int, desc: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {desc}")


def _shipped_matrix() -> list[AnalysisConfig]:
    """Every shipped configuration, bounded by deterministic fuel."""
    return [
        AnalysisConfig(name="explicit", domain="explicit", fuel=1500),
        AnalysisConfig(name="explicit-bfs", domain="explicit", order="bfs", fuel=1500),
        AnalysisConfig(name="explicit-repeat3", domain="explicit", repeat_loc=3, fuel=1500),
        AnalysisConfig(name="explicit-pathlen40", domain="explicit", path_length=40, fuel=1500),
        AnalysisConfig(name="predicate", domain="predicate", fuel=1500, max_refinements=25),
        AnalysisConfig(name="predicate-norefine", domain="predicate", refinement=False,
                       fuel=1500),
        AnalysisConfig(name="location", domain="location", fuel=1500),
    ]


def _ground(cfa, havoc_range=(0, 4)) -> oracle.ReachResult:
    return oracle.enumerate_reachable(cfa, havoc_range=havoc_range, max_states=8000)


def _check_soundness(cfa, report, ground, havoc_range=(0, 4)) -> None:
    if report.verdict == "TRUE":
        assert not ground.error_hit, "verdict TRUE but brute force finds an error"
    elif report.verdict == "FALSE":
        assert replay_witness(cfa, report.witness), "witness does not replay"
    else:
        ok = oracle.condition_avoids_error(cfa, report.psi,
                                           havoc_range=havoc_range, max_states=20000)
        assert ok is not None, "oracle budget exhausted; shrink the program"
        assert ok, "an execution inside psi reaches an error location"


def _failing(transfer):
    """``transfer`` raising AbstractionFailure on every third edge id."""
    def transfer_or_fail(self, state, edge):
        if edge.id % 3 == 0:
            raise D.AbstractionFailure("forced")
        return transfer(self, state, edge)
    return transfer_or_fail


def _assert_contract(where: str, report, states_at, checks, havoc_range=(0, 4)) -> None:
    violations = contract_violations(where, report.run, states_at, checks, havoc_range)
    assert not violations, \
        f"{len(violations)} contract violations, first ones:\n" + "\n".join(violations[:10])


def test_criterion_1_condition_soundness():
    # Every run also keeps the CPA contract on the bounded-reachable
    # concrete states: each post over-approximates the concrete successors
    # and each cover is an inclusion.  The first 25 programs run once more
    # with abstraction failures forced, which checks the excluded stand-in.
    started = time.monotonic()
    rng = random.Random(20110901)
    programs = [random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                           require_assert=(i % 2 == 0))
                for i in range(200)]
    runs = 0
    checks = Counter()
    for i, cfa in enumerate(programs):
        ground = _ground(cfa)
        states_at = states_by_location(ground)
        for config in _shipped_matrix():
            report = run_analysis(cfa, config)
            _assert_contract(f"program {i}, {config.name}", report, states_at, checks)
            _check_soundness(cfa, report, ground)
            # psi = true exactly when the verdict is TRUE
            assert (report.verdict == "TRUE") == (report.psi == F.TRUE) \
                or report.verdict == "FALSE"
            runs += 1
        if i >= 25:
            continue
        with pytest.MonkeyPatch.context() as m:
            for domain in (D.ExplicitDomain, D.PredicateDomain, D.NoDomain):
                m.setattr(domain, "transfer", _failing(domain.transfer))
            for config in _shipped_matrix():
                _assert_contract(f"program {i}, {config.name} with failing transfers",
                                 run_analysis(cfa, config), states_at, checks)
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"criterion 1 exceeded its 5-minute budget ({elapsed:.0f}s)"
    _report(1, f"condition soundness over {len(programs)} programs, "
               f"{runs} runs, 0 violations; {checks['post']} concrete steps and "
               f"{checks['cover']} cover checks keep the CPA contract, {elapsed:.0f}s")


def _overflow_config(domain: str) -> AnalysisConfig:
    return AnalysisConfig(name=f"{domain}-overflow", domain=domain, overflow=True,
                          overflow_min=-3, overflow_max=3, fuel=1500, max_refinements=25)


def test_criterion_1_soundness_under_overflow_bounds():
    # With machine bounds [-3, 3], havoc values fall on both sides of the
    # bounds.  A condition must still exclude the out-of-range states it
    # did not verify, and a pipeline whose first stage assumed the bounds
    # may answer TRUE only if no execution at all reaches an error.
    family = [f"int x, y; havoc x; {guard}y := x + {k}; assert(y <= {c});{end}"
              for guard, end in (("", ""), ("if (x >= 0 && x <= 2) { ", " }"))
              for k in range(-4, 5) for c in (-4, -3, -2, 2, 3, 4)]
    rng = random.Random(20110901)
    corpus = [random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                         require_assert=(i % 2 == 0))
              for i in range(60)]
    cases = [(lang.parse_program(t), (-6, 6)) for t in family]
    cases += [(cfa, (0, 4)) for cfa in corpus]
    verdicts = Counter()
    checks = Counter()
    for i, (cfa, havoc_range) in enumerate(cases):
        ground = _ground(cfa, havoc_range)
        states_at = states_by_location(ground)
        for domain in ("predicate", "explicit"):
            report = run_analysis(cfa, _overflow_config(domain))
            _assert_contract(f"case {i}, {domain}-overflow", report, states_at, checks,
                             havoc_range)
            _check_soundness(cfa, report, ground, havoc_range)
            verdicts[report.verdict] += 1
        for first, second in (("predicate", "explicit"), ("explicit", "predicate")):
            final = run_pipeline(cfa, Pipeline(stages=[
                _overflow_config(first),
                AnalysisConfig(name=second, domain=second, fuel=1500, max_refinements=25)]))
            # The first stage is the single run checked above.
            for stage in final.stages[1:]:
                if stage.report is not None:
                    _assert_contract(f"case {i}, {first}-overflow then {second}",
                                     stage.report, states_at, checks, havoc_range)
            if final.verdict != "CONDITION":
                _check_soundness(cfa, final.last_report, ground, havoc_range)
            verdicts[f"pipeline {final.verdict}"] += 1
    # every outcome the checks guard is exercised
    assert min(verdicts[v] for v in ("CONDITION", "FALSE", "pipeline TRUE")) > 50, verdicts
    _report(1, f"overflow bounds [-3, 3]: {len(cases)} programs, "
               f"{sum(verdicts.values())} runs, 0 violations; {checks['post']} concrete "
               f"steps and {checks['cover']} cover checks keep the CPA contract")


def test_criterion_2_nonlinear_scenario(nonlinear_square_cfa):
    started = time.monotonic()
    cfa = nonlinear_square_cfa

    pred = run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
    assert pred.verdict == "CONDITION"
    lines = [l for l in A.serialize_condition(pred.psi).splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1, f"psi must be a single implication, got {lines}"
    err_loc = min(cfa.error_locations)
    assert lines[0] == f"(pc = {err_loc}) -> ((r - x >= 0))"

    expl = run_analysis(cfa, AnalysisConfig(name="explicit", domain="explicit",
                                            fuel=100_000))
    assert expl.verdict == "CONDITION", "the loop must not be unrollable in budget"

    pipe_a = run_pipeline(cfa, Pipeline(stages=[
        AnalysisConfig(name="predicate", domain="predicate"),
        AnalysisConfig(name="explicit", domain="explicit"),
    ]))
    assert [s.verdict for s in pipe_a.stages] == ["CONDITION", "TRUE"]
    assert pipe_a.verdict == "TRUE"

    pipe_b = run_pipeline(cfa, Pipeline(stages=[
        AnalysisConfig(name="explicit", domain="explicit", fuel=100_000),
        AnalysisConfig(name="predicate", domain="predicate"),
    ]))
    assert [s.verdict for s in pipe_b.stages] == ["CONDITION", "TRUE"]
    assert pipe_b.verdict == "TRUE"

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 2 exceeded its 60s budget ({elapsed:.0f}s)"
    _report(2, f"predicate CONDITION with single implication, explicit CONDITION, "
               f"both pipeline orders TRUE, {elapsed:.1f}s")


# Recorded baselines for the bug-hunting scenario (deterministic fuel runs).
BASELINE_POSTS_NO_CONDITION = 100_000
BASELINE_POSTS_PATHLEN7 = 11
BASELINE_POSTS_REPEAT3 = 17


def test_criterion_3_bug_hunting_speedup(deep_loop_bug_cfa):
    cfa = deep_loop_bug_cfa
    fuel = 100_000

    plain = run_analysis(cfa, AnalysisConfig(name="explicit", domain="explicit",
                                             fuel=fuel))
    assert plain.verdict == "CONDITION"
    assert plain.stats["posts"] == BASELINE_POSTS_NO_CONDITION

    with_pl = run_analysis(cfa, AnalysisConfig(name="explicit", domain="explicit",
                                               path_length=7, fuel=fuel))
    assert with_pl.verdict == "FALSE"
    assert replay_witness(cfa, with_pl.witness)
    assert with_pl.stats["posts"] == BASELINE_POSTS_PATHLEN7
    assert with_pl.stats["posts"] < fuel * 0.10

    with_rl = run_analysis(cfa, AnalysisConfig(name="explicit", domain="explicit",
                                               repeat_loc=3, fuel=fuel))
    assert with_rl.verdict == "FALSE"
    assert replay_witness(cfa, with_rl.witness)
    assert with_rl.stats["posts"] == BASELINE_POSTS_REPEAT3
    assert with_rl.stats["posts"] < fuel * 0.10

    _report(3, f"budget run exhausts {fuel} posts; path-length=7 finds the bug in "
               f"{with_pl.stats['posts']} posts, repeat-loc=3 in {with_rl.stats['posts']}")


def _random_abstraction_pair(rng):
    names = ("x", "y", "z")

    def rand_atom():
        n = rng.randint(1, 2)
        terms = " + ".join(
            f"{rng.choice([-2, -1, 1, 2])}*{v}" for v in rng.sample(names, n))
        return f"{terms} {rng.choice(['<=', '>=', '='])} {rng.randint(-6, 6)}"

    sp = F.parse_formula(" & ".join(rand_atom() for _ in range(rng.randint(1, 3))))
    prec = D.Precision()
    for _ in range(rng.randint(1, 6)):
        f = F.parse_formula(rand_atom())
        if isinstance(f, F.AtomF):
            prec.add(1, f.atom)
    return sp, prec.atoms_at(1)


def test_criterion_4_predicate_abstraction_exactness():
    rng = random.Random(424242)
    solver = S.Solver()
    names = ("x", "y", "z")
    edge = lang.parse_cfa("vars: x, y, z;\ninit: L0;\nL0 -> L1: assume true;\n").edges[0]
    accepted = 0
    rejected = 0
    while accepted < 500:
        sp, pi = _random_abstraction_pair(rng)
        if not pi:
            continue
        # Box conditioning (see the formula module's completeness property):
        # skip pairs whose satisfiability leaks outside the [-8,8]^3 box,
        # where solver Sat and box-model existence legitimately diverge.
        # One sweep of the box yields the minterms with a box model.
        on_box = box_minterms(sp, pi, names)
        leaky = False
        for bits in range(1 << len(pi)):
            m = F.f_and([F.AtomF(p) if (bits >> i) & 1 else F.f_not(F.AtomF(p))
                         for i, p in enumerate(pi)])
            try:
                kind = solver.check_sat(F.f_and([sp, m])).kind
            except F.FormulaTooLarge:
                leaky = True
                break
            if kind != S.UNSAT and bits not in on_box:
                leaky = True
                break
        if leaky:
            rejected += 1
            continue
        accepted += 1
        prec = D.Precision()
        for p in pi:
            prec.add(1, p)
        dom = D.PredicateDomain(solver, prec)
        out = dom.transfer(sp, edge)
        engine_abs = out[0] if out else F.FALSE
        # The oracle's abstraction is the disjunction of the on_box
        # minterms, so equal minterm sets make the two abstractions
        # equivalent everywhere, not only on the box.
        got = abstraction_minterms(engine_abs, pi)
        assert got == on_box, (
            f"abstractions disagree on minterms {sorted(got ^ on_box)} for "
            f"sp={F.render_formula(sp)} pi={[F.render_atom(p) for p in pi]}")
    assert rejected < accepted  # conditioning prunes a minority of samples
    _report(4, f"500 random (sp, pi) pairs have exactly the brute-force oracle's "
               f"minterms ({rejected} box-leaky samples resampled)")


def test_criterion_5_worklist_algorithm_fidelity():
    rng = random.Random(1159)
    solver = S.Solver()
    for i in range(50):
        cfa = random_cfa(rng, n_vars=rng.randint(1, 3))
        # location-only: the shipped location configuration's CPA
        loc_cpa = CompositeCpa(cfa, D.NoDomain(), solver)
        rs = engine.RunState(loc_cpa)
        monitor = C.GlobalMonitor()
        assert engine.run_cpa(rs, monitor) is None and not monitor.halted
        got = sorted(n.state.location for n in rs.reached_nodes())
        assert got == sorted(s.location for s in reference_reached(cfa, loc_cpa))
        # explicit composite
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        rs = engine.RunState(cpa)
        monitor = C.GlobalMonitor()
        assert engine.run_cpa(rs, monitor) is None and not monitor.halted
        reached = [n.state for n in rs.reached_nodes()]
        proj = sorted((s.location, s.domain.bindings) for s in reached)
        ref = sorted((s.location, s.domain.bindings)
                     for s in reference_reached(cfa, cpa))
        assert proj == ref
        # transfer closure modulo coverage
        for state in reached:
            for e in cfa.edges_from(state.location):
                for succ in cpa.successors(state, e):
                    assert any(cpa.covers(succ, r) for r in reached)
    _report(5, "50 random programs: engine reached sets match the naive "
               "reference and are transfer-closed")


def test_criterion_6_postprocessing_formulas():
    solver = S.Solver()
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L9;\n"
        "L0 -> L1: x := x + 1;\nL1 -> L5: assume x >= 1;\nL1 -> L9: assume x < 1;\n")
    cpa = CompositeCpa(cfa, D.PredicateDomain(solver, D.Precision()), solver)
    rs = engine.RunState(cpa)
    rs.pop_waitlist()
    fixture = [
        (A.CompositeState(F.TRUE, 5, (), None, F.parse_formula("x >= 1")), True),
        (A.CompositeState(F.TRUE, 9, (), None, F.parse_formula("x <= 0")), False),
        (A.CompositeState(F.parse_formula("x <= 7"), 1, (), None,
                          F.parse_formula("x >= 1")), False),
    ]
    for i, (state, waitlisted) in enumerate(fixture):
        node = rs.new_reached_node(rs.root, cfa.edges[i], F.TRUE, state, rs.partition(state))
        if waitlisted:
            rs.add_to_waitlist(node)
    report = A.postprocess(rs)
    golden = (
        "# psi\n"
        "(pc = 1) -> ((x <= 0) | (x <= 7))\n"
        "(pc = 5) -> ((x <= 0))\n"
        "(pc = 9) -> ((x >= 1))\n"
    )
    assert A.serialize_condition(report.psi) == golden
    _report(6, "waitlist/error states emit (pc = l) -> !state and settled "
               "states (pc = l) -> (!state | assumption); golden file matches")


def test_criterion_7_automaton_roundtrip_and_restriction():
    rng = random.Random(7007)
    checked_paths = 0
    nontrivial = 0
    for i in range(25):
        cfa = random_cfa(rng, n_vars=2, require_assert=(i % 2 == 0))
        first = run_analysis(cfa, AnalysisConfig(
            name="first", domain="explicit", repeat_loc=2, fuel=400))
        text1 = A.serialize_automaton(first.automaton)
        assert A.serialize_automaton(A.parse_automaton(text1)) == text1
        if first.verdict != "CONDITION":
            continue
        nontrivial += 1
        second = run_analysis(cfa, AnalysisConfig(
            name="second", domain="explicit", fuel=4000),
            input_automaton=first.automaton)
        text2 = A.serialize_automaton(second.automaton)
        assert A.serialize_automaton(A.parse_automaton(text2)) == text2
        aut = first.automaton
        for node in second.run.reached_nodes():
            sid = aut.initial
            for e in node.path_from_root()[1]:
                assert sid != A.SINK_VERIFIED, \
                    "second run entered the first run's verified region"
                if sid == A.SINK_UNKNOWN:
                    break
                hit = aut.transitions.get((sid, e.id))
                sid = hit[1] if hit else A.SINK_UNKNOWN
            assert sid != A.SINK_VERIFIED
            checked_paths += 1
    assert nontrivial >= 5 and checked_paths > 50
    _report(7, f"round-trips byte-identical; {checked_paths} second-run paths "
               f"across {nontrivial} restricted runs stay out of collapsed-T regions")


def test_criterion_8_determinism(tmp_path, nonlinear_square_cfa, deep_loop_bug_cfa):
    from cmcheck import driver

    outputs = []
    for attempt in range(2):
        chunks = []
        rep = run_analysis(nonlinear_square_cfa,
                           AnalysisConfig(name="predicate", domain="predicate"))
        chunks.append(A.serialize_condition(rep.psi))
        chunks.append(A.serialize_automaton(rep.automaton))
        pipe = run_pipeline(nonlinear_square_cfa, Pipeline(stages=[
            AnalysisConfig(name="predicate", domain="predicate"),
            AnalysisConfig(name="explicit", domain="explicit"),
        ]))
        out = tmp_path / f"pipe{attempt}"
        driver.emit_report(pipe, out)
        chunks.append((out / "verdict.txt").read_text())
        chunks.append((out / "psi.txt").read_text())
        chunks.append((out / "automaton.txt").read_text())
        bug = run_analysis(deep_loop_bug_cfa, AnalysisConfig(
            name="explicit", domain="explicit", repeat_loc=3, fuel=100_000))
        chunks.append(driver.render_witness(bug.witness))
        rng = random.Random(88)
        for _ in range(20):
            cfa = random_cfa(rng, n_vars=2, require_assert=True)
            for config in (AnalysisConfig(name="e", domain="explicit", fuel=800),
                           AnalysisConfig(name="p", domain="predicate", fuel=800,
                                          max_refinements=10)):
                r = run_analysis(cfa, config)
                chunks.append(r.verdict)
                chunks.append(A.serialize_condition(r.psi))
                chunks.append(A.serialize_automaton(r.automaton))
        outputs.append("\n".join(chunks))
    assert outputs[0] == outputs[1]
    _report(8, "two consecutive executions produce byte-identical psi, "
               "automaton, and witness outputs under fuel budgets")
