"""Counterexample analysis: feasibility, mining, and the CEGAR loop."""

import hashlib
import random
from types import SimpleNamespace

import pytest

from cmcheck import assumptions as A
from cmcheck import engine, formula as F, lang, oracle, refine
from cmcheck import solver as S
from cmcheck.driver import AnalysisConfig, run_analysis

from helpers import br_program, counting_calls, random_cfa, replay_witness


@pytest.fixture(scope="module")
def solver():
    return S.Solver()


def fake_path(cfa, edge_ids):
    """Path scaffolding, ART nodes and the edges between them; states are
    unused by feasibility."""
    nodes = [engine.ArtNode(0, None, None, None, F.TRUE)]
    edges = []
    for i, eid in enumerate(edge_ids):
        e = cfa.edges[eid]
        edges.append(e)
        nodes.append(engine.ArtNode(i + 1, None, nodes[-1], e, F.TRUE))
    return nodes, edges


def test_feasibility_constant_contradiction(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: x := 0;\nL1 -> L2: assume x >= 1;\n")
    _, edges = fake_path(cfa, [0, 1])
    res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Infeasible)
    assert res.pivot == 2  # the state after the failing assume


def test_feasibility_havoc_witness(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: havoc x;\nL1 -> L2: assume x >= 1;\n")
    _, edges = fake_path(cfa, [0, 1])
    res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Feasible)
    assert res.trace[-1][1]["x"] >= 1


def test_feasibility_straight_line_bug(solver):
    cfa = lang.parse_program("int x; x := 0; assert(x == 1);")
    err_edge = next(e for e in cfa.edges if e.target in cfa.error_locations)
    _, edges = fake_path(cfa, [0, err_edge.id])
    res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Feasible)
    assert res.trace[0][1]["x"] == 0  # x is 0 after x := 0


def test_feasibility_unreplayable_witness_is_unconfirmed(solver):
    # The square inequality holds concretely, but the product is opaque to
    # the path formula, so a spurious witness exists and replay rejects it.
    cfa = lang.parse_program("int x; int r; havoc x; r := x * x; assert(r >= x);")
    err_edge = next(e for e in cfa.edges if e.target in cfa.error_locations)
    _, edges = fake_path(cfa, [0, 1, err_edge.id])
    res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Unconfirmed)
    assert res.pivot == 3  # the error state itself
    assert "replay" in res.reason


def test_feasibility_respects_atom_limit(solver):
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: havoc x;\nL1 -> L2: assume x >= 1;\n")
    _, edges = fake_path(cfa, [0, 1])
    res = refine.check_feasibility(edges, cfa, solver, atom_limit=0)
    assert isinstance(res, refine.Unconfirmed)


def test_pivot_localization_via_solver(solver):
    cfa = lang.parse_cfa(
        "vars: x, y;\ninit: L0;\nerror: L4;\n"
        "L0 -> L1: havoc x;\n"
        "L1 -> L2: assume x >= 5;\n"
        "L2 -> L3: assume x <= 3;\n"
        "L3 -> L4: havoc y;\n")
    _, edges = fake_path(cfa, [0, 1, 2, 3])
    res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Infeasible)
    assert res.pivot == 3  # first state whose prefix is unsatisfiable


# -- mining ----------------------------------------------------------------------

def mined_atoms(cfa, edge_ids, pivot=None):
    nodes, edges = fake_path(cfa, edge_ids)
    for node, loc in zip(nodes, [cfa.initial] + [e.target for e in edges]):
        node.state = type("St", (), {"location": loc})()
    pivot = len(edges) if pivot is None else pivot
    return refine.mine_predicates(nodes, edges, pivot)


def test_mining_collects_assume_atoms():
    cfa = lang.parse_program(
        "int i; i := 0; while (i < 1000000) { i := i + 1; } assert(i >= 1000000);")
    enter = next(e for e in cfa.edges
                 if isinstance(e.op, lang.Assume) and "<" in lang.render_expr(e.op.expr))
    mined = mined_atoms(cfa, [0, enter.id])
    atoms = {F.render_atom(a) for _, a in mined}
    assert "i <= 999999" in atoms


def test_mining_substitutes_through_assignment():
    cfa = lang.parse_cfa(
        "vars: x, y;\ninit: L0;\nerror: L2;\n"
        "L0 -> L1: x := y + 1;\nL1 -> L2: assume x >= 3;\n")
    mined = mined_atoms(cfa, [0, 1])
    atoms = {F.render_atom(a) for _, a in mined}
    # predicates are stored as complement-pair representatives
    assert F.render_atom(F.positive_form(F.parse_formula("y >= 2").atom)) in atoms
    assert F.render_atom(F.positive_form(F.parse_formula("x >= 3").atom)) in atoms


def test_mining_substitutes_one_atom_through_two_assignments():
    # x <= 5 crosses x := x + 1 and x := x + 2; neither substitution may
    # stand in for the other.
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L4;\n"
        "L0 -> L1: x := x + 2;\nL1 -> L2: assume x <= 5;\n"
        "L2 -> L3: x := x + 1;\nL3 -> L4: assume x <= 5;\n")
    mined = mined_atoms(cfa, [0, 1, 2, 3])
    assert {F.render_atom(a) for _, a in mined} == {"x <= 5", "x <= 4", "x <= 3", "x <= 2"}


def test_mining_no_assumes_yields_nothing():
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L2;\nL0 -> L1: x := 1;\nL1 -> L2: havoc x;\n")
    assert mined_atoms(cfa, [0, 1]) == set()


def test_mining_drops_product_atoms():
    cfa = lang.parse_program("int x; int r; havoc x; r := x * x; assert(r >= x);")
    err_edge = next(e for e in cfa.edges if e.target in cfa.error_locations)
    mined = mined_atoms(cfa, [0, 1, err_edge.id])
    assert all(not any(isinstance(t, F.ProdTerm) for t, _ in a.terms)
               for _, a in mined)
    want = F.positive_form(F.parse_formula("r >= x").atom)
    assert {a for _, a in mined} == {want}


def test_mining_drops_atoms_at_havoc():
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nerror: L3;\n"
        "L0 -> L1: assume x >= 3;\nL1 -> L2: havoc x;\nL2 -> L3: assume x <= 0;\n")
    mined = mined_atoms(cfa, [0, 1, 2])
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

    def spy(nodes, edges, pivot):
        seen.append(tuple(e.id for e in edges))
        return orig(nodes, edges, pivot)

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


def test_refinement_re_explores_from_the_pivot_when_the_node_above_refutes(
        nonlinear_square_cfa):
    # The predicate stage of explicit -> predicate follows the explicit
    # stage's chain.  Mining gives atoms to every path location, but the
    # node above the pivot, kept as it is, refutes the rest of the path:
    # only the pivot's subtree goes, not the chain below the root.
    explicit = run_analysis(nonlinear_square_cfa,
                            AnalysisConfig(name="explicit", domain="explicit", fuel=300))
    report = run_analysis(
        nonlinear_square_cfa, AnalysisConfig(name="predicate", domain="predicate"),
        input_automaton=A.parse_automaton(A.serialize_automaton(explicit.automaton)))
    assert report.verdict == "TRUE"
    assert report.stats["refinements"] == 1
    assert sum(n.removed for n in report.run.nodes) <= 2  # 229 cutting below the root
    assert report.stats["posts"] == 310  # 611 cutting below the root


def test_pivot_cut_keeps_the_condition_of_br_3():
    # Its psi is pinned by test_driver::test_minterm_bound_excludes_no_branch_of_br_3.
    cfa = lang.parse_program(br_program(3))
    report = run_analysis(cfa, AnalysisConfig(name="predicate", domain="predicate"))
    automaton = A.serialize_automaton(report.automaton).encode()
    assert hashlib.sha256(automaton).hexdigest()[:16] == "3f8eea433d12d717"
    assert report.stats["posts"] == 198  # 296 cutting below the root


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
    _, edges = fake_path(cfa, [0, 1, 2, 3, 4])
    res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Infeasible)
    assert res.pivot == 3


# -- the constant exit --------------------------------------------------------------

COUNTING_CFA = ("vars: i;\ninit: L0;\nerror: L3, L4;\n"
                "L0 -> L1: i := 0;\n"
                "L1 -> L2: assume i < {n};\n"
                "L2 -> L1: i := i + 1;\n"
                "L1 -> L3: assume i >= {n};\n"
                "L1 -> L4: assume i > {n};\n")


def counting_path(n: int, exit_edge: int):
    """The loop unrolled n times, then ``exit_edge`` (3 or 4) to an error."""
    cfa = lang.parse_cfa(COUNTING_CFA.format(n=n))
    return cfa, [cfa.edges[0], *[cfa.edges[k] for _ in range(n) for k in (1, 2)],
                 cfa.edges[exit_edge]]


def test_constant_path_is_evaluated_not_encoded(solver):
    # Every value on the path is known, so no edge needs linear algebra.
    for exit_edge, expected in ((3, refine.Feasible), (4, refine.Infeasible)):
        cfa, edges = counting_path(10_000, exit_edge)
        with counting_calls(F, "linearize") as calls:
            res = refine.check_feasibility(edges, cfa, solver)
        assert isinstance(res, expected)
        assert sum(calls.values()) == 0
    assert res.pivot == len(edges)
    # A havocked start makes the same path symbolic again.
    cfa = lang.parse_cfa(COUNTING_CFA.format(n=3).replace("i := 0", "havoc i"))
    edges = [cfa.edges[0], *[cfa.edges[k] for _ in range(3) for k in (1, 2)], cfa.edges[3]]
    with counting_calls(F, "linearize") as calls:
        res = refine.check_feasibility(edges, cfa, solver)
    assert isinstance(res, refine.Feasible) and sum(calls.values()) > 0


def _random_arith(rng: random.Random, names, depth: int = 0) -> lang.ArithExpr:
    roll = rng.random()
    if depth >= 2 or roll < 0.3:
        if rng.random() < 0.5:
            return lang.Var(rng.choice(names))
        return lang.Const(rng.choice([0, 1, -1, 3, 2 ** 62, -(2 ** 62), rng.randint(-9, 9)]))
    return lang.BinOp(rng.choice("+-*"), _random_arith(rng, names, depth + 1),
                      _random_arith(rng, names, depth + 1))


def _random_bool(rng: random.Random, names, depth: int = 0) -> lang.BoolExpr:
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return lang.Cmp(rng.choice(["<", "<=", "==", "!=", ">=", ">"]),
                        _random_arith(rng, names), _random_arith(rng, names))
    if roll < 0.65:
        return lang.Not(_random_bool(rng, names, depth + 1))
    kind = lang.And if roll < 0.85 else lang.Or
    return kind(_random_bool(rng, names, depth + 1), _random_bool(rng, names, depth + 1))


def test_constant_exit_agrees_with_the_oracle():
    # Values up to 2^62 in magnitude, so products pass 2^63: the exit must
    # compute exactly what the concrete semantics computes.  Where one
    # variable is unknown, the answer must hold for each value it takes,
    # and a formula must agree once that value is substituted too.
    rng = random.Random(40)
    names = ["a", "b", "c"]
    big = 2 ** 62
    decided = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            op = lang.Assign(rng.choice(names), _random_arith(rng, names))
        else:
            op = lang.Assume(_random_bool(rng, names))
        edge = lang.Edge(0, 0, 1, op)
        store = {v: rng.choice([rng.randint(-big, big), rng.randint(-5, 5)]) for v in names}
        unknown = rng.choice([None, *names])
        consts = {v: x for v, x in store.items() if v != unknown}
        idx: dict[str, int] = {}
        f = S.encode_edge(edge, idx, consts)
        symbolic = S.encode_edge(edge, {})
        values = [store[unknown], rng.randint(-big, big), 0] if unknown else [None]
        for value in values:
            concrete = dict(store) if unknown is None else {**store, unknown: value}
            after = oracle.step(oracle.make_state(0, concrete), edge)
            ssa = {S.ssa_name(v, 0): x for v, x in concrete.items()}
            if isinstance(op, lang.Assume):
                assert F.evaluate(symbolic, ssa) == (after is not None)
                if isinstance(f, (F.TrueF, F.FalseF)):
                    assert (f == F.TRUE) == (after is not None)
                else:
                    assert unknown is not None and F.evaluate(f, ssa) == (after is not None)
                continue
            result = oracle.store_of(after)[op.var]
            ssa[S.ssa_name(op.var, 1)] = result
            assert idx == {op.var: 1}
            assert F.evaluate(symbolic, ssa)
            assert not F.evaluate(symbolic, {**ssa, S.ssa_name(op.var, 1): result + 1})
            if f == F.TRUE:
                assert consts[op.var] == result
            else:
                assert unknown is not None and op.var not in consts
                assert F.evaluate(f, ssa)
        decided += isinstance(f, (F.TrueF, F.FalseF))
    assert decided > 1500


# -- the mining memo tables ----------------------------------------------------------

def test_mining_keys_each_atom_once():
    cfa, edges = counting_path(200, 3)
    locations = [0] + [e.target for e in edges]
    nodes = [SimpleNamespace(state=SimpleNamespace(location=loc)) for loc in locations]
    with counting_calls(F, "atom_key") as keyed, counting_calls(F, "positive_form") as formed:
        mined = refine.mine_predicates(nodes, edges, len(edges))
    assert max(keyed.values(), default=0) <= 1
    assert 0 < max(formed.values()) <= 1
    # The exit atom i >= 200 (kept as i <= 199) and three substitutions of
    # it through i := i + 1; the loop guard gives the same atoms again.
    assert {F.render_atom(atom) for _, atom in mined} == {
        "i <= 196", "i <= 197", "i <= 198", "i <= 199"}


def test_mining_memo_on_the_two_stage_path(monkeypatch, nonlinear_square_cfa,
                                           nonlinear_square_explicit_automaton):
    # The predicate stage restricted by the explicit stage's automaton
    # refines on a counterexample of about 100,000 edges.
    shipped = refine.mine_predicates
    convert = F.bexpr_to_formula
    runs = []  # (path edges, top-level conversions while mining them)

    def counted(nodes, edges, pivot):
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
            got = shipped(nodes, edges, pivot)
        runs.append((edges, calls[0]))
        return got

    monkeypatch.setattr(refine, "mine_predicates", counted)
    report = run_analysis(
        nonlinear_square_cfa, AnalysisConfig(name="predicate", domain="predicate"),
        input_automaton=A.parse_automaton(nonlinear_square_explicit_automaton))
    assert report.verdict == "TRUE"
    assert any(len(edges) > 50000 for edges, _ in runs)
    for edges, conversions in runs:
        assumes = {e.id for e in edges if isinstance(e.op, lang.Assume)}
        assert conversions <= len(assumes)
