"""Domain-level tests: location, explicit values, predicate abstraction."""

import random

import pytest

from cmcheck import assumptions as A
from cmcheck import conditions as C
from cmcheck import domains as D
from cmcheck import formula as F
from cmcheck import lang, oracle
from cmcheck import solver as S

from helpers import random_cfa


@pytest.fixture(scope="module")
def solver():
    return S.Solver()


def edge(text: str) -> lang.Edge:
    cfa = lang.parse_cfa(f"vars: i, x, y, r;\ninit: L0;\n{text}\n")
    return cfa.edges[0]


# -- location -------------------------------------------------------------------

def test_location_transfer(solver):
    # The location analysis is the composite CPA over NoDomain.
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: x := x + 1;\n")
    cpa = A.CompositeCpa(cfa, D.NoDomain(), solver)
    at0 = cpa.initial_state(cfa)
    e01 = edge("L0 -> L1: x := x + 1;")
    assert [s.location for s, _ in cpa.successors(at0, e01)] == [1]
    e23 = edge("L2 -> L3: havoc x;")
    assert cpa.successors(at0, e23) == []


# -- explicit ---------------------------------------------------------------------

EXPLICIT = D.ExplicitDomain()


def st(**kv):
    return D.ExplicitState(tuple(sorted(kv.items())))


def test_explicit_transfer_assign():
    assert EXPLICIT.transfer(st(x=1), edge("L0 -> L1: x := x + 2;")) == [st(x=3)]


def test_explicit_transfer_unknown_assume_keeps_state():
    s = D.ExplicitState(())  # x unknown
    out = EXPLICIT.transfer(s, edge("L0 -> L1: assume x < 10;"))
    assert out == [s]


def test_explicit_transfer_false_assume_blocks():
    assert EXPLICIT.transfer(st(x=5), edge("L0 -> L1: assume x < 3;")) == []


def test_explicit_transfer_products_and_havoc():
    assert EXPLICIT.transfer(st(x=4), edge("L0 -> L1: y := x * x;")) == [st(x=4, y=16)]
    out = EXPLICIT.transfer(st(x=4), edge("L0 -> L1: havoc x;"))
    assert out == [D.ExplicitState(())]


def test_explicit_overflow_guard_demotes_to_top(caplog):
    big = 2 ** 40
    s = st(x=big)
    with caplog.at_level("WARNING", logger="cmcheck"):
        out = EXPLICIT.transfer(s, edge("L0 -> L1: x := x * x;"))
    out2 = EXPLICIT.transfer(out[0], edge("L0 -> L1: x := x * x;"))
    assert out2 == [D.ExplicitState(())]
    assert any("widening to top" in r.message for r in caplog.records)


def test_explicit_stop():
    assert EXPLICIT.covers(st(x=1), st(x=1))
    assert EXPLICIT.covers(st(x=1), D.ExplicitState(()))  # top covers
    assert not EXPLICIT.covers(D.ExplicitState(()), st(x=1))


# -- precision ----------------------------------------------------------------------

def test_precision_dedups_complement_pairs():
    prec = D.Precision()
    a = F.parse_formula("i <= 999999").atom
    b = F.parse_formula("i >= 1000000").atom
    assert prec.add(1, a)
    assert not prec.add(1, b)  # complement of the same tracked predicate
    assert prec.atoms_at(1) == (a,)


# -- predicate abstraction ------------------------------------------------------------

def pred_domain(solver, mapping, minterm_bound=8):
    prec = D.Precision()
    for loc, texts in mapping.items():
        for t in texts:
            prec.add(loc, F.parse_formula(t).atom)
    return D.PredicateDomain(solver, prec, minterm_bound)


def test_predicate_transfer_tracks_loop_bound(solver):
    dom = pred_domain(solver, {1: ["i >= 1000000"]})
    out = dom.transfer(F.TRUE, edge("L0 -> L1: assume i >= 1000000;"))
    assert out == [F.parse_formula("i >= 1000000")]


def test_predicate_transfer_contradiction_prunes(solver):
    dom = pred_domain(solver, {1: ["x >= 1"]})
    out = dom.transfer(F.parse_formula("x <= 0"), edge("L0 -> L1: assume x >= 1;"))
    assert out == []


def test_predicate_transfer_minterm_enumeration_matches_oracle(solver):
    dom = pred_domain(solver, {1: ["x >= 3", "x <= 3"]})
    out = dom.transfer(F.TRUE, edge("L0 -> L1: x := 5;"))
    assert out == [F.f_and([F.parse_formula("x >= 3"), F.parse_formula("x >= 4")])]
    pi = [F.parse_formula("x >= 3").atom, F.parse_formula("x <= 3").atom]
    want = oracle.brute_force_boolean_abstraction(F.parse_formula("x = 5"), pi, ["x"])
    assert S.Solver().entails(out[0], want) and S.Solver().entails(want, out[0])


def test_predicate_transfer_cartesian_fallback_is_weaker(solver):
    texts = ["x >= 0", "x >= 1", "x >= 2", "x >= 3"]
    exact = pred_domain(solver, {1: texts}, minterm_bound=8)
    cart = pred_domain(solver, {1: texts}, minterm_bound=2)
    e = edge("L0 -> L1: x := 2;")
    strong = exact.transfer(F.TRUE, e)[0]
    weak = cart.transfer(F.TRUE, e)[0]
    assert solver.entails(strong, weak)
    assert weak == F.f_and([F.parse_formula("x >= 0"), F.parse_formula("x >= 1"),
                            F.parse_formula("x >= 2"), F.f_not(F.parse_formula("x >= 3"))])


def test_predicate_stop(solver):
    dom = pred_domain(solver, {})
    assert dom.covers(F.parse_formula("x >= 5"), F.parse_formula("x >= 1"))
    assert not dom.covers(F.TRUE, F.parse_formula("x >= 1"))


def test_predicate_stop_implies_box_subset(solver):
    rng = random.Random(31)
    names = ("x", "y")
    dom = pred_domain(solver, {})
    hits = 0
    for _ in range(80):
        def rand_f():
            parts = [f"{rng.choice([-2,-1,1,2])}*{rng.choice(names)} <= {rng.randint(-4, 4)}"
                     for _ in range(rng.randint(1, 2))]
            return F.parse_formula(" & ".join(parts))
        s, r = rand_f(), rand_f()
        if dom.covers(s, r):
            hits += 1
            assert oracle.box_model(F.f_and([s, F.f_not(r)]), names) is None
    assert hits > 5


def test_predicate_overapproximates_box_post_image(solver):
    rng = random.Random(13)
    names = ("x", "y")
    for _ in range(30):
        cfa = random_cfa(rng, n_vars=2)
        prec = D.Precision()
        for _ in range(3):
            prec.add(None, F.parse_formula(
                f"{rng.choice(names)} <= {rng.randint(-3, 3)}").atom)
        dom = D.PredicateDomain(solver, prec)
        for e in cfa.edges[:4]:
            if isinstance(e.op, lang.Assign) and isinstance(e.op.expr, lang.BinOp) \
                    and e.op.expr.op == "*":
                continue
            out = dom.transfer(F.TRUE, e)
            # every concrete post-image point on the box satisfies the abstraction
            for x in range(-3, 4):
                for y in range(-3, 4):
                    store = {"x": x, "y": y}
                    if isinstance(e.op, lang.Assign):
                        store[e.op.var] = lang.eval_arith(e.op.expr, store)
                    elif isinstance(e.op, lang.Assume):
                        if lang.eval_bool(e.op.expr, store) is not True:
                            continue
                    else:
                        continue
                    assert out, f"empty successor but concrete post exists for {e}"
                    assert F.evaluate(out[0], store)


def test_abstraction_failure_raised(solver):
    tiny = S.Solver(dnf_clause_bound=2)
    prec = D.Precision()
    prec.add(1, F.parse_formula("x <= 0").atom)
    dom = D.PredicateDomain(tiny, prec)
    wide = F.f_or([F.f_and([F.parse_formula(f"x = {i}"), F.parse_formula(f"y = {i}")])
                   for i in range(6)])
    with pytest.raises(D.AbstractionFailure):
        dom.transfer(wide, edge("L0 -> L1: x := x + 1;"))


def test_explicit_analysis_covers_all_concrete_states(solver):
    # When the analysis drains its waitlist, every bounded-reachable
    # concrete state is represented by some reached explicit state.
    rng = random.Random(2718)
    from cmcheck.assumptions import CompositeCpa
    from cmcheck import engine
    checked_programs = 0
    while checked_programs < 15:
        cfa = random_cfa(rng, n_vars=2, allow_mult=False)
        cpa = CompositeCpa(cfa, D.ExplicitDomain(), solver)
        rs = engine.RunState(cfa, cpa)
        if engine.run_cpa(rs, C.GlobalMonitor()).status != "empty":
            continue
        checked_programs += 1
        reached = [n.state for n in rs.reached_nodes()]
        ground = oracle.enumerate_reachable(cfa, havoc_range=(0, 4), max_states=6000)
        assert not ground.budget_exceeded
        for pc, bindings in ground.states:
            concrete = dict(bindings)
            assert any(
                s.location == pc and all(
                    concrete.get(v) == val for v, val in s.domain.bindings)
                for s in reached
            ), f"concrete state {pc}:{concrete} not represented"


def test_cartesian_weaker_than_boolean_on_random_pairs(solver):
    rng = random.Random(606)
    e = lang.parse_cfa("vars: x, y;\ninit: L0;\nL0 -> L1: assume true;\n").edges[0]
    compared = 0
    while compared < 40:
        texts = [f"{rng.choice(['x', 'y'])} {rng.choice(['<=', '>='])} {rng.randint(-4, 4)}"
                 for _ in range(rng.randint(1, 4))]
        sp = F.parse_formula(" & ".join(
            f"{rng.choice(['x', 'y'])} {rng.choice(['<=', '>=', '='])} {rng.randint(-4, 4)}"
            for _ in range(rng.randint(1, 2))))
        exact = pred_domain(solver, {1: texts}, minterm_bound=8)
        cart = pred_domain(solver, {1: texts}, minterm_bound=0)
        strong = exact.transfer(sp, e)
        weak = cart.transfer(sp, e)
        if not strong:
            assert not weak or weak == [F.FALSE] or solver.entails(F.FALSE, weak[0])
            continue
        if not weak:
            continue
        assert solver.entails(strong[0], weak[0])
        compared += 1
