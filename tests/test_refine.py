"""Counterexample analysis: feasibility, mining, and the CEGAR loop."""

import random

import pytest

from cmcheck import assumptions as A
from cmcheck import domains as D
from cmcheck import engine, formula as F, lang, refine
from cmcheck import solver as S
from cmcheck.assumptions import CompositeCpa
from cmcheck.driver import AnalysisConfig, run_analysis

from helpers import random_cfa, reference_mine_predicates, replay_witness


@pytest.fixture(scope="module")
def solver():
    return S.Solver()


def fake_path(cfa, edge_ids):
    """AbstractPath scaffolding: states are unused by feasibility."""
    nodes = [engine.ArtNode(0, None, None, None, F.TRUE)]
    edges = []
    for i, eid in enumerate(edge_ids):
        e = cfa.edges[eid]
        edges.append(e)
        nodes.append(engine.ArtNode(i + 1, None, nodes[-1], e, F.TRUE))
    return refine.AbstractPath(nodes, edges)


def test_feasibility_constant_contradiction(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: x := 0;\nL1 -> L2: assume x >= 1;\n")
    res = refine.check_feasibility(fake_path(cfa, [0, 1]), cfa, solver)
    assert isinstance(res, refine.Infeasible)
    assert res.pivot == 2  # the state after the failing assume


def test_feasibility_havoc_witness(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: havoc x;\nL1 -> L2: assume x >= 1;\n")
    res = refine.check_feasibility(fake_path(cfa, [0, 1]), cfa, solver)
    assert isinstance(res, refine.Feasible)
    assert res.trace[-1][1]["x"] >= 1


def test_feasibility_straight_line_bug(solver):
    cfa = lang.parse_program("int x; x := 0; assert(x == 1);")
    err_edge = next(e for e in cfa.edges if e.target in cfa.error_locations)
    res = refine.check_feasibility(fake_path(cfa, [0, err_edge.id]), cfa, solver)
    assert isinstance(res, refine.Feasible)
    assert res.assignment.get("x@1") == 0


def test_feasibility_unreplayable_witness_is_unconfirmed(solver):
    # The square inequality holds concretely, but the product is opaque to
    # the path formula, so a spurious witness exists and replay rejects it.
    cfa = lang.parse_program("int x; int r; havoc x; r := x * x; assert(r >= x);")
    err_edge = next(e for e in cfa.edges if e.target in cfa.error_locations)
    res = refine.check_feasibility(fake_path(cfa, [0, 1, err_edge.id]), cfa, solver)
    assert isinstance(res, refine.Unconfirmed)
    assert res.pivot == 3  # the error state itself
    assert "replay" in res.reason


def test_feasibility_respects_atom_limit(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: havoc x;\nL1 -> L2: assume x >= 1;\n")
    res = refine.check_feasibility(fake_path(cfa, [0, 1]), cfa, solver, atom_limit=0)
    assert isinstance(res, refine.Unconfirmed)


def test_pivot_localization_via_solver(solver):
    cfa = lang.parse_cfa(
        "vars: x, y;\ninit: L0;\nerror: L4;\n"
        "L0 -> L1: havoc x;\n"
        "L1 -> L2: assume x >= 5;\n"
        "L2 -> L3: assume x <= 3;\n"
        "L3 -> L4: havoc y;\n")
    res = refine.check_feasibility(fake_path(cfa, [0, 1, 2, 3]), cfa, solver)
    assert isinstance(res, refine.Infeasible)
    assert res.pivot == 3  # first state whose prefix is unsatisfiable


# -- mining ----------------------------------------------------------------------

def mined_atoms(cfa, edge_ids, solver, pivot=None):
    path = fake_path(cfa, edge_ids)
    for node, loc in zip(path.nodes, [cfa.initial] + [e.target for e in path.edges]):
        node.state = type("St", (), {"location": loc})()
    cpa = CompositeCpa(cfa, D.NoDomain(), solver)
    pivot = len(path.nodes) - 1 if pivot is None else pivot
    return refine.mine_predicates(path, pivot, cpa)


def test_mining_collects_assume_atoms(solver):
    cfa = lang.parse_program(
        "int i; i := 0; while (i < 1000000) { i := i + 1; } assert(i >= 1000000);")
    enter = next(e for e in cfa.edges
                 if isinstance(e.op, lang.Assume) and "<" in lang.render_expr(e.op.expr))
    mined = mined_atoms(cfa, [0, enter.id], solver)
    atoms = {F.render_atom(a) for _, a in mined}
    assert "i <= 999999" in atoms


def test_mining_substitutes_through_assignment(solver):
    cfa = lang.parse_cfa(
        "vars: x, y;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: x := y + 1;\nL1 -> L2: assume x >= 3;\n")
    mined = mined_atoms(cfa, [0, 1], solver)
    atoms = {F.render_atom(a) for _, a in mined}
    # predicates are stored as complement-pair representatives
    assert F.render_atom(F.positive_form(F.parse_formula("y >= 2").atom)) in atoms
    assert F.render_atom(F.positive_form(F.parse_formula("x >= 3").atom)) in atoms


def test_mining_no_assumes_yields_nothing(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\nL0 -> L1: x := 1;\nL1 -> L2: havoc x;\n")
    assert mined_atoms(cfa, [0, 1], solver) == set()


def test_mining_drops_product_atoms(solver):
    cfa = lang.parse_program("int x; int r; havoc x; r := x * x; assert(r >= x);")
    err_edge = next(e for e in cfa.edges if e.target in cfa.error_locations)
    mined = mined_atoms(cfa, [0, 1, err_edge.id], solver)
    assert all(not any(isinstance(t, F.ProdTerm) for t, _ in a.terms)
               for _, a in mined)
    want = F.positive_form(F.parse_formula("r >= x").atom)
    assert {a for _, a in mined} == {want}


def test_mining_drops_atoms_at_havoc(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L3;\n"
        "L0 -> L1: assume x >= 3;\nL1 -> L2: havoc x;\nL2 -> L3: assume x <= 0;\n")
    mined = mined_atoms(cfa, [0, 1, 2], solver)
    # x >= 3 is collected at its own edge but cannot cross the havoc
    want = {F.positive_form(F.parse_formula(t).atom) for t in ("x >= 3", "x <= 0")}
    assert {a for _, a in mined} == want


# -- the loop ---------------------------------------------------------------------

def test_refine_loop_proves_counting_loop():
    cfa = lang.parse_program(
        "int i; i := 0; while (i < 1000000) { i := i + 1; } assert(i >= 1000000);")
    report = run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
    assert report.verdict == "TRUE"
    assert report.stats["refinements"] >= 1


def test_refine_loop_gives_condition_on_nonlinear(nonlinear_square_cfa):
    report = run_analysis(nonlinear_square_cfa,
                          AnalysisConfig(name="predicate", domain="predicate"))
    assert report.verdict == "CONDITION"
    from cmcheck.assumptions import serialize_condition

    text = serialize_condition(report.psi)
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1
    assert "-> ((r - x >= 0))" in lines[0]


def test_refine_loop_confirms_bug_in_one_round():
    cfa = lang.parse_program("int x; x := 2; assert(x == 1);")
    report = run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
    assert report.verdict == "FALSE"
    assert report.stats["refinements"] == 0
    assert replay_witness(cfa, report.witness)
    assert "assert" in report.error_description


def test_no_false_alarms_on_random_programs():
    rng = random.Random(77)
    for _ in range(25):
        cfa = random_cfa(rng, n_vars=3, allow_mult=True, require_assert=True)
        for config in ("explicit", "predicate"):
            report = run_analysis(cfa, AnalysisConfig(
                name=config, domain=config, fuel=2000))
            if report.verdict == "FALSE":
                assert replay_witness(cfa, report.witness)


def test_same_path_never_refined_twice():
    seen = []
    orig = refine.mine_predicates

    def spy(path, pivot, cpa):
        seen.append(tuple(e.id for e in path.edges))
        return orig(path, pivot, cpa)

    refine.mine_predicates = spy
    try:
        cfa = lang.parse_program(
            "int x; int r; x := 7; r := x * x; assert(r >= x);")
        report = run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
        assert report.verdict == "CONDITION"
    finally:
        refine.mine_predicates = orig
    # the repeated path skips mining entirely and is excluded instead
    assert len(seen) == 1
    assert report.stats["refinements"] == 1


def test_refinement_strictly_grows_precision():
    # Each refinement re-explores only below the first refined location.
    for text in ("int i; i := 0; while (i < 5) { i := i + 1; } assert(i == 5);",
                 "int i; i := 0; while (i < 4) { i := i + 1; } assert(i >= 4);"):
        cfa = lang.parse_program(text)
        report = run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
        assert report.verdict == "TRUE"
        assert report.stats["precision_atoms"] > 0


def test_excluded_states_render_their_clauses(nonlinear_square_cfa):
    report = run_analysis(nonlinear_square_cfa,
                          AnalysisConfig(name="predicate", domain="predicate"))
    rs = report.run
    excluded = [n for n in rs.reached_nodes() if isinstance(n.state.assumption, F.FalseF)]
    assert len(excluded) == 1
    node = excluded[0]
    loc = node.state.location
    clause = F.f_implies(
        F.mk_atom(F.lin_var("pc"), F.EQ, loc),
        F.f_not(rs.cpa.domain.render(node.state.domain)))
    assert clause == report.psi


def test_pivot_prefers_earliest_unsat_prefix(solver):
    # A residual contradiction before a ground-false assume owns the pivot.
    cfa = lang.parse_cfa(
        "vars: x, y;\ninit: L0;\nerror: L5;\n"
        "L0 -> L1: havoc x;\n"
        "L1 -> L2: assume x >= 5;\n"
        "L2 -> L3: assume x <= 3;\n"
        "L3 -> L4: y := 0;\n"
        "L4 -> L5: assume y >= 1;\n")
    res = refine.check_feasibility(fake_path(cfa, [0, 1, 2, 3, 4]), cfa, solver)
    assert isinstance(res, refine.Infeasible)
    assert res.pivot == 3


# -- the mining memo tables ----------------------------------------------------------

def check_mining_against_reference(monkeypatch) -> list:
    """Make every refinement compare its mined set with the reference's."""
    paths = []
    shipped = refine.mine_predicates

    def compared(path, pivot, cpa):
        got = shipped(path, pivot, cpa)
        assert got == reference_mine_predicates(path, pivot, cpa)
        paths.append(path)
        return got

    monkeypatch.setattr(refine, "mine_predicates", compared)
    return paths


def test_mining_matches_reference_on_criterion_1_programs(monkeypatch):
    paths = check_mining_against_reference(monkeypatch)
    rng = random.Random(20110901)
    cfas = [random_cfa(rng, n_vars=rng.randint(1, 4), allow_mult=(i % 5 == 0),
                       require_assert=(i % 2 == 0)) for i in range(200)][:100]
    configs = [AnalysisConfig(name="predicate", domain="predicate", fuel=1500,
                              max_refinements=25),
               AnalysisConfig(name="predicate-norefine", domain="predicate",
                              refinement=False, fuel=1500),
               AnalysisConfig(name="predicate-overflow", domain="predicate", overflow=True,
                              overflow_min=-3, overflow_max=3, fuel=1500,
                              max_refinements=25)]
    for cfa in cfas:
        for config in configs:
            run_analysis(cfa, config)
    assert paths


def test_mining_memo_on_the_two_stage_path(monkeypatch, nonlinear_square_cfa,
                                           nonlinear_square_explicit_automaton):
    # The predicate stage restricted by the explicit stage's automaton
    # refines on a counterexample of about 100,000 edges.
    shipped = refine.mine_predicates
    convert = F.bexpr_to_formula
    runs = []  # (path, top-level conversions while mining it)

    def counted(path, pivot, cpa):
        calls = [0, 0]  # top-level calls, current nesting

        def counting(e, *args):
            calls[0] += calls[1] == 0
            calls[1] += 1
            try:
                return convert(e, *args)
            finally:
                calls[1] -= 1

        with monkeypatch.context() as m:
            m.setattr(F, "bexpr_to_formula", counting)
            got = shipped(path, pivot, cpa)
        assert got == reference_mine_predicates(path, pivot, cpa)
        runs.append((path, calls[0]))
        return got

    monkeypatch.setattr(refine, "mine_predicates", counted)
    report = run_analysis(
        nonlinear_square_cfa, AnalysisConfig(name="predicate", domain="predicate"),
        input_automaton=A.parse_automaton(nonlinear_square_explicit_automaton))
    assert report.verdict == "TRUE"
    assert any(len(path.edges) > 50000 for path, _ in runs)
    for path, conversions in runs:
        assumes = {e.id for e in path.edges if isinstance(e.op, lang.Assume)}
        assert conversions <= len(assumes)
