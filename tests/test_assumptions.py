"""Assumption machinery: composite CPA, strengthen, psi, the automaton."""

import pytest

from cmcheck import assumptions as A
from cmcheck import conditions as C
from cmcheck import domains as D
from cmcheck import engine, formula as F, lang
from cmcheck import solver as S

from helpers import tracked_by_type


@pytest.fixture(scope="module")
def solver():
    return S.Solver()


def an_edge(op="havoc x", src=0, dst=1, eid=0) -> lang.Edge:
    cfa = lang.parse_cfa(f"vars: x, y;\ninit: L{src};\nL{src} -> L{dst}: {op};\n")
    return cfa.edges[0]


# -- assumption component ---------------------------------------------------------

def assumed(phi):
    """A location-only composite state at L0 carrying assumption phi."""
    return A.CompositeState(phi, 0, (), None, None)


def test_assumption_transfer(solver):
    # The successor always starts with no assumption; false stops the path.
    cpa = composite(lang.parse_program("int x;"), solver)

    def succ_assumptions(phi):
        return [s.assumption for s in cpa.successors(assumed(phi), an_edge())]

    assert succ_assumptions(F.TRUE) == [F.TRUE]
    assert succ_assumptions(F.parse_formula("x >= 1")) == [F.TRUE]
    assert succ_assumptions(F.FALSE) == []


def test_assumption_merge(solver):
    cpa = composite(lang.parse_program("int x;"), solver)

    def merged(a, b):
        return cpa.merge(assumed(a), assumed(b)).assumption

    phi = F.parse_formula("x >= 1")
    assert merged(F.TRUE, phi) == phi
    assert merged(F.FALSE, phi) == F.FALSE
    assert merged(phi, phi) == phi  # idempotent after canonicalization


def test_assumption_stop(solver):
    # Covered iff the candidate carries an equal or stricter assumption.
    cpa = composite(lang.parse_program("int x;"), solver)
    phi = F.parse_formula("x >= 1")
    assert cpa.covers(assumed(F.TRUE), assumed(phi))
    assert not cpa.covers(assumed(phi), assumed(F.TRUE))
    assert cpa.covers(assumed(phi), assumed(F.parse_formula("x >= 5")))


# -- overflow component -------------------------------------------------------------

def test_overflow_transfer_assignment_bounds(solver):
    overflow = A.OverflowComponent(-(2 ** 31), 2 ** 31 - 1)
    phi = overflow.transfer(an_edge("x := y + 1"))
    assert phi == F.f_and([
        F.parse_formula(f"x >= {-(2**31)}"),
        F.parse_formula(f"x <= {2**31 - 1}"),
    ])
    assert overflow.transfer(an_edge("assume x < 1")) == F.TRUE
    a = F.parse_formula("x <= 5")
    b = F.parse_formula("y <= 5")
    cpa = composite(lang.parse_program("int x, y;"), solver, overflow=overflow)
    merged = cpa.merge(assumed(a), assumed(b))
    assert merged.assumption == F.f_and([a, b])


# -- strengthen (inside successors) ----------------------------------------------------

def strengthened(solver, edge, **kw):
    """The one successor of a fresh predicate state at L0 along ``edge``."""
    cpa = composite(lang.parse_program("int x, y;"), solver,
                    domain=D.PredicateDomain(solver, D.Precision()), **kw)
    conds = tuple(c.initial() for c in cpa.condition_components)
    (out,) = cpa.successors(A.CompositeState(F.TRUE, 0, conds, None, F.TRUE), edge)
    return out, out.assumption


def test_strengthen_exceeded_excludes(solver):
    out, label = strengthened(solver, an_edge(),
                              condition_components=[C.PathStatsComponent(max_length=1)])
    assert out.assumption == F.FALSE and label == F.FALSE


def test_strengthen_overflow_feeds_assumption_and_predicate(solver):
    # The fact becomes the assumption and the edge label; the predicate
    # state stays unstrengthened (the next transfer assumes the fact).
    out, label = strengthened(solver, an_edge("x := y"),
                              overflow=A.OverflowComponent(-100, 100))
    phi = F.parse_formula("x >= -100 & x <= 100")
    assert out.assumption == phi and out.domain == F.TRUE and label == phi


def test_strengthen_identity(solver):
    # An edge that assigns nothing yields the overflow fact true: no change.
    out, label = strengthened(solver, an_edge("assume x < 1"),
                              overflow=A.OverflowComponent(-100, 100))
    assert out == A.CompositeState(F.TRUE, 1, (), None, F.TRUE)
    assert label == F.TRUE


def test_predicate_transfer_assumes_overflow_fact(solver):
    # y := x with y in [-3, 3]: the assert edge y > 3 is pruned under the
    # fact, yet the predicate state that psi renders does not carry it.
    cfa = lang.parse_program("int x, y; havoc x; y := x; assert(y <= 3);")
    cpa = composite(cfa, solver, domain=D.PredicateDomain(solver, D.Precision()),
                    overflow=A.OverflowComponent(-3, 3))
    state = cpa.initial_state()
    for edge in cfa.edges[:2]:
        (state,) = cpa.successors(state, edge)
    assert state.domain == F.TRUE
    assert state.assumption == F.parse_formula("y >= -3 & y <= 3")
    failing = next(e for e in cfa.edges_from(state.location)
                   if e.target in cfa.error_locations)
    assert cpa.successors(state, failing) == []


# -- composite merge / stop ------------------------------------------------------------

def composite(cfa, solver, **kw):
    return A.CompositeCpa(cfa, kw.pop("domain", D.NoDomain()), solver, **kw)


def test_composite_merge_requires_equal_location_and_domain(solver):
    cfa = lang.parse_program("int x; x := 0;")
    cpa = composite(cfa, solver, domain=D.PredicateDomain(solver, D.Precision()),
                    condition_components=[C.RepeatComponent(5)])
    a = A.CompositeState(F.TRUE, 1, (C.RepeatState(((1, 2),), False),), None, F.TRUE)
    b = A.CompositeState(F.parse_formula("x >= 1"), 1,
                         (C.RepeatState(((1, 4),), False),), None, F.TRUE)
    merged = cpa.merge(a, b)
    assert merged.assumption == F.parse_formula("x >= 1")
    assert merged.conds[0] == C.RepeatState(((1, 4),), False)
    # differing domain parts do not merge
    c = A.CompositeState(F.TRUE, 1, (C.RepeatState((), False),), None,
                         F.parse_formula("x >= 1"))
    assert cpa.merge(c, b) is b
    # not even when the assumption and the conditions would change b
    c = A.CompositeState(F.parse_formula("x <= 3"), 1, (C.RepeatState((), False),), None,
                         F.parse_formula("x >= 1"))
    assert cpa.merge(c, b) is b
    # differing locations or observer states do not merge either
    elsewhere = A.CompositeState(F.parse_formula("x <= 3"), 7,
                                 (C.RepeatState(((7, 5),), False),), None, F.TRUE)
    assert cpa.merge(elsewhere, b) is b
    observed = A.CompositeState(F.parse_formula("x <= 3"), 1,
                                (C.RepeatState(((1, 5),), False),), "q1", F.TRUE)
    assert cpa.merge(observed, b) is b


def test_composite_stop_is_conjunction(solver):
    cfa = lang.parse_program("int x; x := 0;")
    cpa = composite(cfa, solver, domain=D.PredicateDomain(solver, D.Precision()))
    strong = A.CompositeState(F.TRUE, 1, (), None, F.parse_formula("x >= 5"))
    weak = A.CompositeState(F.TRUE, 1, (), None, F.parse_formula("x >= 1"))
    assert cpa.covers(strong, weak)
    assert not cpa.covers(weak, strong)
    elsewhere = A.CompositeState(F.TRUE, 2, (), None, F.parse_formula("x >= 1"))
    assert not cpa.covers(strong, elsewhere)
    # a reached state with a stricter assumption covers a weaker one
    stricter = A.CompositeState(F.parse_formula("x >= 9"), 1, (), None,
                                F.parse_formula("x >= 1"))
    assert cpa.covers(weak, stricter)
    assert any(cpa.covers(strong, r) for r in [elsewhere, weak])


# -- post-processing ---------------------------------------------------------------------

def seeded_run(cfa, solver, states):
    """Build a RunState whose reached set is exactly the given states."""
    cpa = composite(cfa, solver, domain=D.PredicateDomain(solver, D.Precision()))
    rs = engine.RunState(cpa)
    rs.pop_waitlist()  # the synthetic fixture drives everything by hand
    for i, (state, waitlisted) in enumerate(states):
        node = rs.new_reached_node(rs.root, cfa.edges[i % len(cfa.edges)], F.TRUE, state,
                                   cpa.partition_key(state))
        if waitlisted:
            rs.add_to_waitlist(node)
        else:
            node.in_waitlist = False
    return rs


FIXTURE_CFA = """
vars: x;
init: L0;
error: L9;
L0 -> L1: x := x + 1;
L1 -> L5: assume x >= 1;
L1 -> L9: assume x < 1;
"""


def test_postprocess_trivial_true(solver):
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: x := 1;\n")
    rs = seeded_run(cfa, solver, [])
    rs.replace_state(rs.root, A.CompositeState(F.TRUE, 0, (), None, F.TRUE))
    report = A.postprocess(rs)
    assert report.verdict == "TRUE"
    assert report.psi == F.TRUE


def test_postprocess_three_node_fixture_golden(solver):
    cfa = lang.parse_cfa(FIXTURE_CFA)
    waitlist_state = A.CompositeState(F.TRUE, 5, (), None,
                                      F.parse_formula("x >= 1"))
    error_state = A.CompositeState(F.TRUE, 9, (), None,
                                   F.parse_formula("x <= 0"))
    settled_state = A.CompositeState(F.parse_formula("x <= 7"), 1, (), None,
                                     F.parse_formula("x >= 1"))
    rs = seeded_run(cfa, solver, [
        (waitlist_state, True),
        (error_state, False),
        (settled_state, False),
    ])
    report = A.postprocess(rs)
    assert report.verdict == "CONDITION"
    golden = (
        "# psi\n"
        "(pc = 1) -> ((x <= 0) | (x <= 7))\n"
        "(pc = 5) -> ((x <= 0))\n"
        "(pc = 9) -> ((x >= 1))\n"
    )
    assert A.serialize_condition(report.psi) == golden
    lines = [ln for ln in golden.splitlines() if not ln.startswith("#")]
    assert F.f_and(F.parse_formula(ln) for ln in lines) == report.psi


def test_postprocess_waitlist_clause(solver):
    cfa = lang.parse_cfa(FIXTURE_CFA)
    state = A.CompositeState(F.TRUE, 5, (), None, F.parse_formula("x >= 1"))
    rs = seeded_run(cfa, solver, [(state, True)])
    report = A.postprocess(rs)
    clause = F.f_implies(A.pc_equals(5), F.f_not(F.parse_formula("x >= 1")))
    assert clause in (report.psi,) or clause in getattr(report.psi, "args", ())


def test_verdict_true_iff_psi_true(solver):
    cfa = lang.parse_cfa(FIXTURE_CFA)
    state = A.CompositeState(F.FALSE, 1, (), None, F.TRUE)
    rs = seeded_run(cfa, solver, [(state, False)])
    report = A.postprocess(rs)
    assert report.verdict == "CONDITION"
    assert report.psi != F.TRUE


# -- automaton -----------------------------------------------------------------------------

def run_program(src_or_cfa, solver, domain=None, **kw):
    from cmcheck import driver

    cfa = src_or_cfa if isinstance(src_or_cfa, lang.Cfa) else lang.parse_program(src_or_cfa)
    cfg = driver.AnalysisConfig(name="t", domain=domain or "explicit", **kw)
    return cfa, driver.run_analysis(cfa, cfg)


def test_fully_verified_program_exports_single_sink():
    cfa, report = run_program("int x; x := 0; assert(x == 0);", None)
    assert report.verdict == "TRUE"
    aut = report.automaton
    assert aut.initial == "T"
    assert aut.transitions == {}
    text = A.serialize_automaton(aut)
    assert "state T T;" in text and "state T init;" in text


def test_repeated_edge_fold_targets_the_genuine_successor(solver):
    # Along one edge the root has a genuine successor and, after it, an
    # attempt covered by another named node: the folded transition goes to
    # the genuine successor, not to the cover of the last attempt.
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: havoc x;\nL0 -> L1: x := 1;\n")
    rs = seeded_run(cfa, solver, [])
    along, other = cfa.edges

    def at_l1(domain):
        return A.CompositeState(F.TRUE, 1, (), None, F.parse_formula(domain))

    key = rs.cpa.partition_key(at_l1("x = 1"))
    genuine = rs.new_reached_node(rs.root, along, F.TRUE, at_l1("x >= 5"), key)
    cover = rs.new_reached_node(rs.root, other, F.TRUE, at_l1("x = 1"), key)
    rs.new_covered_node(rs.root, along, F.TRUE, at_l1("x = 1"), cover)
    for node in (genuine, cover):
        rs.add_to_waitlist(node)
    aut = A.export_automaton(rs, A.unverified(rs))
    qid = {0: "q0", genuine.nid: "q1", cover.nid: "q2"}
    assert set(aut.flags) - {"T", "U"} == set(qid.values())
    assert aut.transitions[(qid[0], along.id)] == qid[genuine.nid]
    assert aut.transitions[(qid[0], other.id)] == qid[cover.nid]
    assert not aut.labels  # both labels are true


def test_automaton_roundtrip_bytes():
    cfa, report = run_program(
        "int x; x := 0; while (x >= 0) { x := x + 1; }", None, fuel=50)
    assert report.verdict == "CONDITION"
    text = A.serialize_automaton(report.automaton)
    again = A.parse_automaton(text)
    assert A.serialize_automaton(again) == text
    A.validate_automaton(again, cfa)


def test_parse_automaton_shares_equal_labels():
    text = ("# edges: 4\nstate q0 init;\nstate T T;\n"
            "trans q0 edge=0 assume=(x <= 1) & (y = 2) -> q1;\n"
            "trans q1 edge=1 assume=(x <= 1) & (y = 2) -> q0;\n"
            "trans q0 edge=2 assume=!(x = 3) -> T;\n"
            "trans q1 edge=3 assume=!(x = 3) -> T;\n")
    t = A.parse_automaton(text).labels
    assert t[("q0", 0)] is t[("q1", 1)]
    assert t[("q0", 2)] is t[("q1", 3)]
    assert t[("q0", 0)] == F.parse_formula("(x <= 1) & (y = 2)")


def test_two_stage_automaton_roundtrip(nonlinear_square_explicit_automaton):
    text = nonlinear_square_explicit_automaton
    aut = A.parse_automaton(text)
    assert len(aut.transitions) > 50000
    assert A.serialize_automaton(aut) == text
    by_text: dict = {}
    # Every label of this explicit run is true, so none is stored.
    assert text.count(" assume=") == text.count(" assume=true ")
    assert not aut.labels
    for label in aut.labels.values():
        by_text.setdefault(F.render_formula(label), set()).add(id(label))
    assert all(len(ids) == 1 for ids in by_text.values())


def test_parsed_automaton_holds_one_object_per_state(nonlinear_square_explicit_automaton):
    # A second stage keeps its input automaton alive, and each
    # generation-2 collection walks every tracked object: a true label
    # costs no tracked object, and each state id is one string however
    # often it occurs.
    before = tracked_by_type()
    aut = A.parse_automaton(nonlinear_square_explicit_automaton)
    after = tracked_by_type()
    grown, transitions = sum(after.values()) - sum(before.values()), len(aut.transitions)
    assert transitions > 50000
    assert grown < transitions / 100
    assert not aut.labels
    ids = {src: src for src, _ in aut.transitions}
    assert all(src is ids[src] for src, _ in aut.transitions)
    targets = [dst for dst in aut.transitions.values() if dst in ids]
    assert len(targets) > 50000 and all(dst is ids[dst] for dst in targets)
    assert aut.initial is ids[aut.initial]
    assert all(sid is ids.get(sid, sid) for sid in aut.flags)


def test_automaton_label_error_points_into_the_file():
    label = "(x <= 1) & " + "!" * 101 + "x <= 1"
    line = f"  trans q0 edge=0 assume= {label} -> U;"
    with pytest.raises(lang.ParseError) as inner:
        F.parse_formula(label)
    with pytest.raises(lang.ParseError) as err:
        A.parse_automaton("# edges: 3\nstate q0 init;\n\n" + line + "\n", source="a.txt")
    exc = err.value
    assert (exc.line, exc.col) == (4, line.index(label) + inner.value.col)
    assert line[exc.col - 1] == "!"
    assert str(exc) == f"a.txt:4:{exc.col}: nested deeper than {lang.MAX_NESTING} levels"


@pytest.mark.parametrize("line, message", [
    ("  trans q0 edge=1 assume=true -> T", "4:35: missing ';' at the end of the line"),
    ("  trans q0 edge=x assume=true -> T;", "4:17: edge id 'x' is not an integer"),
    ("  transition q0 -> T;", "4:3: unrecognized automaton line: transition q0 -> T;"),
    ("  state q0;", "4:3: unrecognized automaton line: state q0;"),
    ("  trans q0 edge=0 assume=false -> U;",
     "4:3: duplicate transition from q0 along edge 0"),
    ("  # edges: three", "4:11: edge count 'three' is not an integer"),
    # Only ASCII digits, as in the program formats; int() takes all four.
    ("  trans q0 edge=1_0 assume=true -> T;", "4:17: edge id '1_0' is not an integer"),
    ("  trans q0 edge=-1 assume=true -> T;", "4:17: edge id '-1' is not an integer"),
    ("  # edges: 1_2", "4:11: edge count '1_2' is not an integer"),
    ("  # edges: \uff13", "4:11: edge count '\uff13' is not an integer"),
    # A second init state once silently replaced the first.
    ("  state q1 init;", "4:3: second init state q1 (the first is q0)"),
    ("  state q1 bogus;", "4:12: unknown state flag 'bogus'"),
    ("  state q0 init;", "4:3: repeated state line: state q0 init;"),
], ids=["semicolon", "edge", "unknown", "state", "duplicate", "header",
        "edge-underscore", "edge-sign", "header-underscore", "header-fullwidth",
        "second-init", "state-flag", "repeated-state"])
def test_automaton_syntax_errors_name_file_and_line(line, message):
    text = "# edges: 3\nstate q0 init;\ntrans q0 edge=0 assume=true -> T;\n" + line + "\n"
    with pytest.raises(lang.ParseError) as err:
        A.parse_automaton(text, source="a.txt")
    assert str(err.value) == "a.txt:" + message


def test_automaton_mismatch_detected():
    cfa, report = run_program("int x; x := 0; while (x >= 0) { x := x + 1; }",
                              None, fuel=50)
    other = lang.parse_program("int x; x := 0;")
    with pytest.raises(A.AutomatonMismatch):
        A.validate_automaton(report.automaton, other)


def test_observer_sink_semantics():
    aut = A.AssumptionAutomaton(
        initial="q0",
        flags={"q0": ("init",), "T": ("T",), "U": ("U",)},
        transitions={("q0", 0): "T", ("q0", 1): "q0"},
        edge_count=3,
    )
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nL0 -> L0: x := x + 1;\nL0 -> L0: x := x + 2;\n"
        "L0 -> L0: x := x + 3;\n")
    obs = A.ObserverComponent(aut, cfa)
    assert obs.step("q0", cfa.edges[0]) is A.PRUNED  # into T: verified, prune
    assert obs.step("q0", cfa.edges[1]) == "q0"
    assert obs.step("q0", cfa.edges[2]) == A.SINK_UNKNOWN  # no match
    assert obs.step("U", cfa.edges[0]) == A.SINK_UNKNOWN  # unrestricted below U


def test_observer_labelled_transition_falls_to_unknown():
    # A transition into T verified only under x <= 3 must not prune.
    aut = A.AssumptionAutomaton(
        initial="q0",
        flags={"q0": ("init",), "T": ("T",), "U": ("U",)},
        transitions={("q0", 0): "T", ("q0", 1): "T"},
        edge_count=2,
        labels={("q0", 0): F.parse_formula("x <= 3"), ("q0", 1): F.FALSE},
    )
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nL0 -> L0: x := x + 1;\nL0 -> L0: x := x + 2;\n")
    obs = A.ObserverComponent(aut, cfa)
    assert obs.step("q0", cfa.edges[0]) == A.SINK_UNKNOWN
    assert obs.step("q0", cfa.edges[1]) is A.PRUNED  # a false label keeps its target


def test_second_run_explores_only_unverified_paths(solver):
    # First run verifies one branch and gives up on the loop; the second
    # run restricted by the automaton must not re-enter the verified branch.
    src = """
    int x; int i;
    havoc x;
    if (x <= 0) {
      x := 0;
    } else {
      i := 0;
      while (i < 1000) { i := i + 1; }
    }
    """
    cfa, report1 = run_program(src, None, fuel=60)
    assert report1.verdict == "CONDITION"
    from cmcheck import driver

    report2 = driver.run_analysis(
        cfa, driver.AnalysisConfig(name="second", domain="explicit", fuel=10_000),
        input_automaton=report1.automaton)
    # Every path explored by the second run stays out of the first run's
    # collapsed-T region: replaying it through the automaton never hits T.
    aut = report1.automaton
    rs2 = report2.run
    for node in rs2.reached_nodes():
        sid = aut.initial
        for e in node.path_from_root()[1]:
            assert sid != A.SINK_VERIFIED
            if sid == A.SINK_UNKNOWN:
                break
            sid = aut.transitions.get((sid, e.id), A.SINK_UNKNOWN)
        assert sid != A.SINK_VERIFIED


def test_overflow_analysis_reports_condition_with_bounds():
    from cmcheck import driver

    cfa = lang.parse_program("int x; x := 2000000000; x := x + x; assert(x >= 0);")
    report = driver.run_analysis(cfa, driver.AnalysisConfig(
        name="explicit-overflow", domain="explicit", overflow=True))
    # sound only under the generated no-overflow assumptions, never TRUE
    assert report.verdict == "CONDITION"
    text = A.serialize_condition(report.psi)
    assert str(2 ** 31 - 1) in text
    rs = report.run
    assert any(not isinstance(s.assumption, (F.TrueF, F.FalseF)) for s in
               (n.state for n in rs.reached_nodes()))


def test_overflow_condition_covers_out_of_range_states():
    # psi must not hide the states outside [-3, 3]: y = 4 fails the
    # assertion, so psi has to exclude it rather than render it away.
    from cmcheck import driver, oracle

    cfa = lang.parse_program("int x, y; havoc x; y := x; assert(y <= 3);")
    report = driver.run_analysis(cfa, driver.AnalysisConfig(
        name="predicate-overflow", domain="predicate", overflow=True,
        overflow_min=-3, overflow_max=3))
    assert report.verdict == "CONDITION"
    assert oracle.condition_avoids_error(cfa, report.psi, havoc_range=(0, 4)) is True


def test_overflow_off_by_default():
    from cmcheck import driver

    cfa = lang.parse_program("int x; x := 2000000000; x := x + x; assert(x >= 0);")
    report = driver.run_analysis(cfa, driver.AnalysisConfig(
        name="explicit", domain="explicit"))
    assert report.verdict == "TRUE"  # unbounded integers by default


def test_pf_atom_limit_blocks_bug_confirmation():
    from cmcheck import driver

    cfa = lang.parse_program("int x; havoc x; assert(x >= 1);")
    plain = driver.run_analysis(cfa, driver.AnalysisConfig(
        name="explicit", domain="explicit"))
    assert plain.verdict == "FALSE"
    guarded = driver.run_analysis(cfa, driver.AnalysisConfig(
        name="explicit", domain="explicit", pf_atoms=0))
    assert guarded.verdict == "CONDITION"  # solver never ran, bug unconfirmed


def test_nonlinear_automaton_structure(nonlinear_square_cfa):
    # The condition automaton mirrors the giving-up shape: a straight spine
    # to the unverified assertion, everything else collapsed into T.
    from cmcheck import driver

    report = driver.run_analysis(nonlinear_square_cfa, driver.AnalysisConfig(
        name="predicate", domain="predicate"))
    aut = report.automaton
    named = [s for s in aut.flags if s not in ("T", "U")]
    assert len(named) == 4  # root, two straight-line states, the excluded leaf
    sources = {src for src, _ in aut.transitions}
    leaves = set(named) - sources
    assert len(leaves) == 1  # exactly one give-up state, every match goes to U
    assert sum(1 for dst in aut.transitions.values() if dst == "T") >= 1


def test_restriction_completeness_on_small_programs():
    # Union of the first run's non-excluded region and the second run's
    # exploration covers everything an unconditioned run reaches
    # (projection to location x explicit store).
    import random as random_mod

    from cmcheck import driver
    from helpers import random_cfa

    rng = random_mod.Random(4711)
    compared = 0
    for _ in range(12):
        cfa = random_cfa(rng, n_vars=2)
        first = driver.run_analysis(cfa, driver.AnalysisConfig(
            name="first", domain="explicit", repeat_loc=2, fuel=300))
        if first.verdict != "CONDITION":
            continue
        second = driver.run_analysis(cfa, driver.AnalysisConfig(
            name="second", domain="explicit", fuel=20_000),
            input_automaton=first.automaton)
        reference = driver.run_analysis(cfa, driver.AnalysisConfig(
            name="ref", domain="explicit", fuel=20_000))

        def proj(report, only_verified):
            out = set()
            rs = report.run
            for n in rs.reached_nodes():
                s = n.state
                if only_verified and isinstance(s.assumption, F.FalseF):
                    continue
                out.add((s.location, s.domain))
            return out

        union = proj(first, True) | proj(second, False)
        missing = proj(reference, False) - union
        assert not missing, f"states analyzed by neither run: {missing}"
        compared += 1
    assert compared >= 3


def test_condition_and_automaton_agree_on_verified_regions(nonlinear_square_cfa):
    # Locations psi constrains are exactly where the automaton refuses to
    # collapse: the guarded locations all belong to excluded or waitlist
    # states, never to regions routed into T.
    from cmcheck import driver, oracle

    report = driver.run_analysis(nonlinear_square_cfa, driver.AnalysisConfig(
        name="predicate", domain="predicate"))
    by_loc, general = oracle.split_condition_by_location(report.psi)
    assert not general
    rs = report.run
    frontier_locs = {
        n.state.location
        for n in rs.reached_nodes()
        if isinstance(n.state.assumption, F.FalseF) or n.in_waitlist
    }
    assert set(by_loc) == frontier_locs


def automaton_state_of_each_node(rs, aut) -> dict:
    """nid -> the automaton state reached by stepping along the node's
    ART path; a sink stays put, and an unmatched edge falls into U."""
    sid = {rs.root.nid: aut.initial}
    stack = [rs.root]
    while stack:
        n = stack.pop()
        for c in n.children():
            if c.removed:
                continue
            here = sid[n.nid]
            if here in (A.SINK_VERIFIED, A.SINK_UNKNOWN):
                sid[c.nid] = here
            else:
                sid[c.nid] = aut.transitions.get((here, c.edge.id), A.SINK_UNKNOWN)
            stack.append(c)
    return sid


def test_psi_and_automaton_cover_the_same_nodes(programs_dir):
    # No node psi has a clause for (waiting, at an error location, or
    # under a non-true assumption) lies in T: its path through the
    # automaton ends in a named state, or in U below a state without
    # transitions.  Every transition into a node, or into its cover,
    # carries that node's assumption unless it is true or false.
    from cmcheck import driver
    from test_golden import condition_configs, golden_configs, golden_programs

    failures = []
    for name, cfa in golden_programs(programs_dir):
        for config in golden_configs() + condition_configs():
            report = driver.run_analysis(cfa, config)
            rs, aut = report.run, report.automaton
            sid = automaton_state_of_each_node(rs, aut)
            for n in rs.nodes:
                if n.removed:
                    continue
                target = n.covered_by or n
                assumed = target.state.assumption
                if n is target and sid[n.nid] == A.SINK_VERIFIED and (
                        n.in_waitlist or n.state.location in cfa.error_locations
                        or not isinstance(assumed, F.TrueF)):
                    failures.append((name, config.name, n.nid, "in T"))
                key = n.parent and (sid[n.parent.nid], n.edge.id)
                label = aut.labels.get(key, F.TRUE)
                if key in aut.transitions and not isinstance(assumed, (F.TrueF, F.FalseF)) \
                        and F.f_and([label, assumed]) != label:
                    failures.append((name, config.name, n.nid, "label lacks assumption"))
    assert not failures, failures[:10]


def kind_by_flags(n, error_locations):
    """The kind a reached node's flags give it: the first that applies, in
    the stated order, or None for a settled node."""
    assumption = n.state.assumption
    if n.in_waitlist:
        return "waiting"
    if isinstance(assumption, F.FalseF):
        return "excluded"
    if n.state.location in error_locations:
        return "error"
    if not isinstance(assumption, F.TrueF):
        return "assumed"
    return None


def kind_failures(report) -> list:
    """Where ``unverified``, ψ or the automaton disagree with the kind each
    reached node's flags give it."""
    rs, aut = report.run, report.automaton
    cfa = rs.cpa.cfa
    pairs = A.unverified(rs)
    want = [(n, k) for n in rs.reached_nodes() if (k := kind_by_flags(n, cfa.error_locations))]
    failures = [(n.nid, k, "kind") for n, k in set(pairs) ^ set(want)]
    if not failures and pairs != want:
        failures.append((None, None, "not in ART order"))
    clauses = []
    sid = automaton_state_of_each_node(rs, aut)
    for n, kind in want:
        body = F.f_not(rs.cpa.domain.render(n.state.domain))
        if kind == "assumed":
            body = F.f_or([body, n.state.assumption])
        clauses.append(F.f_implies(A.pc_equals(n.state.location), body))
        q = sid[n.nid]
        if q in (A.SINK_VERIFIED, A.SINK_UNKNOWN):
            continue
        out = {e for (src, e) in aut.transitions if src == q}
        if kind in ("waiting", "excluded"):
            if out:
                failures.append((n.nid, kind, "has transitions"))
        elif out != {e.id for e in cfa.edges_from(n.state.location)}:
            failures.append((n.nid, kind, "misses transitions"))
    if report.psi != F.f_and(clauses):
        failures.append((None, None, "psi clauses"))
    return failures


def test_unverified_kinds_match_node_flags(programs_dir):
    # Each unverified node's kind is the first of waiting, excluded, error
    # and assumed that its flags give; its ψ clause has that kind's shape,
    # and a named waiting or excluded node has no transitions.
    from collections import Counter

    from cmcheck import driver
    from test_golden import condition_configs, golden_configs, golden_programs

    failures = []
    seen = Counter()
    for name, cfa in golden_programs(programs_dir):
        for config in golden_configs() + condition_configs():
            report = driver.run_analysis(cfa, config)
            failures.extend((name, config.name, *f) for f in kind_failures(report))
            seen.update(kind for _, kind in A.unverified(report.run))
    assert not failures, failures[:10]
    assert all(seen[kind] for kind in ("waiting", "excluded", "assumed")), seen


KINDS_CFA = """
vars: x;
init: L0;
error: L9;
L0 -> L9: assume x < 1;
L0 -> L9: assume x < 2;
L0 -> L9: assume x < 3;
L0 -> L1: assume x >= 1;
L0 -> L5: assume x >= 5;
L9 -> L5: x := 0;
L1 -> L5: x := 1;
"""


def test_unverified_kinds_in_order(solver):
    # One node per kind, each also meeting the tests of the later kinds,
    # plus a settled node: the first kind that applies wins.
    cfa = lang.parse_cfa(KINDS_CFA)
    bound = F.parse_formula("x <= 7")

    def at(loc, assumption, domain="x >= 1"):
        return A.CompositeState(assumption, loc, (), None, F.parse_formula(domain))

    rs = seeded_run(cfa, solver, [
        (at(9, bound), True),  # waiting
        (at(9, F.FALSE, "x >= 2"), False),  # excluded
        (at(9, bound, "x >= 3"), False),  # error
        (at(1, bound), False),  # assumed
        (at(5, F.TRUE), False),  # settled
    ])
    nodes = rs.nodes[1:]
    assert A.unverified(rs) == list(zip(nodes, ["waiting", "excluded", "error", "assumed"]))
    report = A.postprocess(rs)
    assert report.verdict == "CONDITION"
    assert A.serialize_condition(report.psi) == (
        "# psi\n"
        "(pc = 1) -> ((x <= 0) | (x <= 7))\n"
        "(pc = 9) -> ((x <= 0))\n"
        "(pc = 9) -> ((x <= 1))\n"
        "(pc = 9) -> ((x <= 2))\n")
    assert kind_failures(report) == []
    aut = report.automaton
    assert sorted((src, e) for src, e in aut.transitions if src != "q0") == [("q3", 5), ("q4", 6)]
    assert aut.transitions[("q0", 4)] == A.SINK_VERIFIED
