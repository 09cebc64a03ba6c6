"""Concrete-interpreter and brute-force-oracle tests."""

import random

import pytest

from cmcheck import domains as D
from cmcheck import formula as F
from cmcheck import lang, oracle

from helpers import (abstraction_minterms, box_minterms, box_model,
                     brute_force_boolean_abstraction, random_cfa)


def test_step_assign():
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: x := x + 2;\n")
    s = oracle.make_state(0, {"x": 1})
    assert oracle.step(s, cfa.edges[0]) == oracle.make_state(1, {"x": 3})


def test_step_assume_blocks():
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: assume x < 3;\n")
    assert oracle.step(oracle.make_state(0, {"x": 5}), cfa.edges[0]) is None
    assert oracle.step(oracle.make_state(0, {"x": 2}), cfa.edges[0]) is not None


def test_step_rejects_havoc():
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: havoc x;\n")
    with pytest.raises(ValueError):
        oracle.step(oracle.make_state(0, {"x": 0}), cfa.edges[0])
    succ = oracle.successors(oracle.make_state(0, {"x": 0}), cfa.edges[0], (0, 2))
    assert [oracle.store_of(s)["x"] for s in succ] == [0, 1, 2]


def test_step_agrees_with_explicit_transfer_on_defined_states():
    rng = random.Random(11)
    checked = 0
    while checked < 1000:
        cfa = random_cfa(rng, n_vars=3, allow_mult=True)
        for edge in cfa.edges:
            if isinstance(edge.op, lang.Havoc):
                continue
            store = {v: rng.randint(-4, 4) for v in cfa.variables}
            s_concrete = oracle.make_state(edge.source, store)
            s_abs = D.ExplicitState(tuple(sorted(store.items())))
            conc = oracle.step(s_concrete, edge)
            abst = D.ExplicitDomain().transfer(s_abs, edge)
            if conc is None:
                assert abst == []
            else:
                assert len(abst) == 1
                assert dict(abst[0].bindings) == oracle.store_of(conc)
            checked += 1


def test_enumerate_loop_values():
    cfa = lang.parse_program("int x; x := 0; while (x < 3) { x := x + 1; }")
    head = cfa.edges[1].source
    res = oracle.enumerate_reachable(cfa)
    vals = sorted(oracle.store_of(s)["x"] for s in res.states if s[0] == head)
    assert vals == [0, 1, 2, 3]
    assert not res.error_hit


def test_enumerate_havoc_within_range_safe():
    cfa = lang.parse_program("int x; havoc x; assert(x <= 4);")
    res = oracle.enumerate_reachable(cfa, havoc_range=(0, 4))
    assert not res.error_hit
    res2 = oracle.enumerate_reachable(cfa, havoc_range=(0, 5))
    assert res2.error_hit


def test_enumerate_diamond_bug_witness():
    cfa = lang.parse_program(
        "int x; havoc x; if (x > 2) { assert(x <= 2); } else { x := 0; }")
    res = oracle.enumerate_reachable(cfa, havoc_range=(0, 4))
    assert res.error_hit and res.witness
    state = oracle.initial_state(cfa)
    for edge, nxt in res.witness:
        assert nxt in oracle.successors(state, edge, (0, 4))
        state = nxt
    assert state[0] in cfa.error_locations


def test_enumerate_budget_exceeded_is_flagged():
    cfa = lang.parse_program("int x; while (x >= 0) { x := x + 1; }")
    res = oracle.enumerate_reachable(cfa, max_states=50)
    assert res.budget_exceeded


def test_enumerate_order_independent():
    rng = random.Random(3)
    for _ in range(10):
        cfa = random_cfa(rng)
        bfs = oracle.enumerate_reachable(cfa, order="bfs")
        dfs = oracle.enumerate_reachable(cfa, order="dfs")
        if not bfs.budget_exceeded and not dfs.budget_exceeded:
            assert bfs.states == dfs.states


# -- brute-force box sweeps ----------------------------------------------------

def test_bfa_single_predicate():
    sp = F.parse_formula("x = 5")
    pi = [F.parse_formula("x >= 3").atom]
    out = brute_force_boolean_abstraction(sp, pi, ["x"])
    assert out == F.AtomF(pi[0])


def test_bfa_free_predicate_gives_true():
    pi = [F.parse_formula("x >= 0").atom]
    out = brute_force_boolean_abstraction(F.TRUE, pi, ["x"])
    assert out == F.f_or([F.AtomF(pi[0]), F.f_not(F.AtomF(pi[0]))])
    assert brute_force_boolean_abstraction(F.FALSE, pi, ["x"]) == F.FALSE


def test_bfa_exact_products():
    # x*x >= x holds on every box point, so its negation dies.
    sp = F.parse_formula("x * x <= x - 1")
    pi = [F.parse_formula("x >= 0").atom]
    assert brute_force_boolean_abstraction(sp, pi, ["x"]) == F.FALSE


def test_box_model_first_point_in_product_order():
    assert box_model(F.parse_formula("x >= 7"), ["x"]) == {"x": 7}
    f = F.parse_formula("x + y = 3 & x >= 8")
    assert box_model(f, ["x", "y"]) == {"x": 8, "y": -5}
    # x*x >= x on every integer: products are evaluated exactly.
    assert box_model(F.parse_formula("x * x <= x - 1"), ["x"]) is None


def test_abstraction_minterms_reads_literals():
    pi = [F.parse_formula("x >= 3").atom, F.parse_formula("y = 1").atom]
    p0, p1 = F.AtomF(pi[0]), F.AtomF(pi[1])
    assert abstraction_minterms(p0, pi) == {0b01, 0b11}
    assert abstraction_minterms(F.f_not(p0), pi) == {0b00, 0b10}
    assert abstraction_minterms(F.f_not(p1), pi) == {0b00, 0b01}
    assert abstraction_minterms(F.f_or([p0, p1]), pi) == {0b01, 0b10, 0b11}
    assert abstraction_minterms(F.TRUE, pi) == {0, 1, 2, 3}
    assert abstraction_minterms(F.FALSE, pi) == set()
    with pytest.raises(ValueError, match="not in the precision"):
        abstraction_minterms(F.parse_formula("x >= 4"), pi)


def test_abstraction_minterms_inverts_bfa():
    sp = F.parse_formula("x + y <= 2 & x >= -1")
    pi = [F.parse_formula(t).atom for t in ("x >= 1", "y <= 0", "x = y")]
    names = ["x", "y"]
    bfa = brute_force_boolean_abstraction(sp, pi, names)
    assert abstraction_minterms(bfa, pi) == box_minterms(sp, pi, names)


# -- condition soundness helpers ------------------------------------------------

def test_split_condition_and_state_check():
    psi = F.f_and([
        F.parse_formula("(pc = 3) -> (x >= 1)"),
        F.parse_formula("(pc = 5) -> (y <= 0)"),
    ])
    split = oracle.split_condition_by_location(psi)
    assert set(split[0]) == {3, 5}
    assert oracle.state_satisfies_condition(split, oracle.make_state(3, {"x": 1, "y": 9}))
    assert not oracle.state_satisfies_condition(split, oracle.make_state(3, {"x": 0, "y": 9}))
    assert oracle.state_satisfies_condition(split, oracle.make_state(4, {"x": 0, "y": 9}))


def test_condition_avoids_error():
    cfa = lang.parse_program("int x; havoc x; assert(x >= 0);")
    err = next(iter(cfa.error_locations))
    havoc_target = cfa.edges[0].target
    blocking = F.parse_formula(f"(pc = {err}) -> false")
    assert oracle.condition_avoids_error(cfa, blocking, havoc_range=(0, 4)) is True
    assert oracle.condition_avoids_error(cfa, F.TRUE, havoc_range=(-2, 4)) is False
    guard = F.parse_formula(f"(pc = {havoc_target}) -> (x >= 0)")
    assert oracle.condition_avoids_error(cfa, guard, havoc_range=(-2, 4)) is True
