"""Decision procedure and path-formula tests, with brute-force oracles."""

import itertools
import random

import pytest

from cmcheck import _kernels
from cmcheck import formula as F
from cmcheck import lang, oracle
from cmcheck import solver as S

from helpers import random_cfa


@pytest.fixture(scope="module")
def solver():
    return S.Solver()


def sat_kind(solver, text):
    return solver.check_sat(F.parse_formula(text)).kind


def test_empty_interval_unsat(solver):
    assert sat_kind(solver, "x <= 0 & x >= 1") == S.UNSAT


def test_sum_bound_unsat(solver):
    assert sat_kind(solver, "x + y <= 5 & x >= 3 & y >= 3") == S.UNSAT


def test_divisibility_gap_is_maybe(solver):
    # Rationally satisfiable at x = 3/2; exhaustive scan of [-32, 32]
    # confirms there is no integer witness.
    assert not any(2 * x == 3 for x in range(-32, 33))
    assert sat_kind(solver, "2*x = 3") == S.MAYBE


def test_sat_returns_integer_witness(solver):
    r = solver.check_sat(F.parse_formula("x >= 1 & x + y <= 3"))
    assert r.kind == S.SAT
    w = {t.name: v for t, v in r.witness.items()}
    assert w["x"] >= 1 and w["x"] + w["y"] <= 3


def test_opaque_product_is_free(solver):
    # x*x >= x is valid over the integers, but the product is opaque, so
    # its negation must not be proved unsat.
    assert sat_kind(solver, "x * x <= x - 1") != S.UNSAT


def test_formula_too_large(solver):
    tiny = S.Solver(S.SolverConfig(dnf_clause_bound=4))
    parts = [F.parse_formula(f"x = {i} | y = {i}") for i in range(4)]
    with pytest.raises(F.FormulaTooLarge):
        tiny.check_sat(F.f_and(parts))
    # entails treats the blowup as Unknown
    assert tiny.entails(F.f_and(parts), F.parse_formula("x >= 100")) is False


def test_entails_examples(solver):
    assert solver.entails(F.parse_formula("x = 3"), F.parse_formula("x >= 1"))
    assert not solver.entails(F.TRUE, F.parse_formula("x >= 1"))
    assert solver.entails(F.parse_formula("x >= 1000000"), F.parse_formula("x >= 1"))


# -- randomized properties -----------------------------------------------------

def random_formula(rng, vars=("x", "y", "z"), atoms=4):
    parts = []
    for _ in range(rng.randint(1, atoms)):
        n = rng.randint(1, 2)
        chosen = rng.sample(vars, n)
        terms = " + ".join(f"{rng.choice([-4,-3,-2,-1,1,2,3,4])}*{v}" for v in chosen)
        op = rng.choice(["<=", ">=", "=", "!="])
        parts.append(f"({terms} {op} {rng.randint(-4, 4)})")
    connector = rng.choice([" & ", " | "])
    return F.parse_formula(connector.join(parts))


def test_unsat_soundness_1000_random(solver):
    rng = random.Random(2024)
    names = ("x", "y", "z")
    checked = 0
    for _ in range(1000):
        f = random_formula(rng)
        try:
            kind = solver.check_sat(f).kind
        except F.FormulaTooLarge:
            continue
        if kind == S.UNSAT:
            checked += 1
            assert oracle.box_model(f, names) is None, F.render_formula(f)
    assert checked > 50  # the sample actually exercised the unsat path


def test_box_completeness(solver):
    # Conjunctions without opaque terms whose models (if any) fall in the
    # [-8,8]^3 box: Sat must be found whenever a box model exists.
    rng = random.Random(99)
    names = ("x", "y", "z")
    exercised = 0
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(names)
            parts.append(f"{rng.choice([-2,-1,1,2])}*{v} {rng.choice(['<=', '>=', '='])} {rng.randint(-6, 6)}")
        f = F.parse_formula(" & ".join(parts))
        model = oracle.box_model(f, names)
        if model is not None:
            exercised += 1
            assert solver.check_sat(f).kind == S.SAT
    assert exercised > 100


def test_entails_reflexive_and_transitive(solver):
    rng = random.Random(5)
    fs = [random_formula(rng, atoms=2) for _ in range(40)]
    for f in fs:
        assert solver.entails(f, f)
    yes = []
    for f, g in itertools.product(fs[:15], repeat=2):
        if solver.entails(f, g):
            yes.append((f, g))
    for (f, g), (g2, h) in itertools.product(yes, repeat=2):
        if g == g2:
            assert solver.entails(f, h)


# -- witness search kernel -------------------------------------------------------

def random_conjunction(rng, n_dims):
    atoms = []
    for _ in range(rng.randint(0, 5)):
        terms = []
        for d in rng.sample(range(n_dims), rng.randint(1, n_dims)):
            c = rng.randint(-3, 3)
            if c:
                terms.append((d, c))
        atoms.append((rng.randint(0, 1), rng.randint(-7, 7), tuple(terms)))
    return atoms


def meets(point, atom):
    op, bound, terms = atom
    s = sum(c * point[d] for d, c in terms)
    return s <= bound if op == 0 else s == bound


def reference_witness(lows, highs, atoms):
    """First point of the box, in itertools.product order, meeting every atom."""
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if all(meets(point, a) for a in atoms):
            return point
    return None


def test_conjunction_witness_matches_reference():
    rng = random.Random(42)
    found = 0
    for _ in range(400):
        n = rng.randint(0, 3)
        atoms = random_conjunction(rng, n) if n else [(0, rng.randint(-2, 2), ())]
        lows = [rng.randint(-6, 0) for _ in range(n)]
        highs = [lo + rng.randint(0, 8) for lo in lows]
        want = reference_witness(lows, highs, atoms)
        assert _kernels.find_conjunction_witness(n, lows, highs, atoms) == want, \
            (n, lows, highs, atoms)
        found += want is not None
    assert found > 100  # both outcomes are exercised


# -- path formulas ---------------------------------------------------------------

def edges_of(src: str):
    return list(lang.parse_program(src).edges)


def test_path_formula_assignment_chain():
    pf = S.build_path_formula(edges_of("int x; x := 0; x := x + 1;"))
    assert pf.ssa == {"x": 2}
    rendered = F.render_formula(pf.formula)
    assert "x@1" in rendered and "x@2" in rendered
    assert pf.formula == F.f_and([
        F.mk_atom(F.lin_var("x@1"), F.EQ, 0),
        F.mk_atom(F.lin_sub(F.lin_var("x@2"),
                            F.lin_add(F.lin_var("x@1"), F.lin_const(1))), F.EQ, 0),
    ])


def test_path_formula_assume_normalizes():
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: assume x < 10;\n")
    pf = S.build_path_formula(cfa.edges)
    assert pf.formula == F.mk_atom(F.lin_var("x@0"), F.LE, 9)
    assert pf.ssa == {}


def test_path_formula_havoc_bumps_index():
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nL0 -> L1: havoc x;\nL1 -> L2: assume x >= 1;\n")
    pf = S.build_path_formula(cfa.edges)
    assert pf.ssa == {"x": 1}
    assert pf.formula == F.mk_atom(F.lin_scale(F.lin_var("x@1"), -1), F.LE, -1)


def test_atom_count_on_path_formula():
    pf = S.build_path_formula(edges_of(
        "int x, y; x := 0; y := x + 2; x := y - 1;"))
    assert F.atom_count(pf.formula) == 3
    assert F.atom_count(F.TRUE) == 0
    assert F.atom_count(F.parse_formula("x <= 1 & y <= 2")) == 2


def test_seven_edge_chain_matches_interpreter(solver):
    src = "int x, y; x := 1; y := x + 2; x := y * 1;"
    cfa = lang.parse_program(src + " assert(x == 3);")
    ok_path = [e for e in cfa.edges if e.target not in cfa.error_locations]
    pf = S.build_path_formula(ok_path)
    start = F.f_and([F.mk_atom(F.lin_var(S.ssa_name(v, 0)), F.EQ, 0)
                     for v in cfa.variables])
    assert solver.check_sat(F.f_and([start, pf.formula])).kind == S.SAT


def test_random_paths_executability_matches_interpreter(solver):
    # Linear programs only: a path is executable from the all-zeros store
    # iff its (initialized) path formula has an integer model.
    rng = random.Random(17)
    agreed = 0
    for _ in range(40):
        cfa = random_cfa(rng, n_vars=3, allow_mult=False)
        res = oracle.enumerate_reachable(cfa, havoc_range=(0, 4), max_states=4000)
        # walk a random concrete path to extract a genuinely executable edge list
        state = oracle.initial_state(cfa)
        path = []
        for _ in range(rng.randint(1, 12)):
            succ = []
            for e in cfa.edges_from(state[0]):
                for s in oracle.successors(state, e, (0, 4)):
                    succ.append((e, s))
            if not succ:
                break
            e, state = rng.choice(succ)
            path.append(e)
        if not path:
            continue
        pf = S.build_path_formula(path)
        init = F.f_and([F.mk_atom(F.lin_var(S.ssa_name(v, 0)), F.EQ, 0)
                        for v in cfa.variables])
        kind = solver.check_sat(F.f_and([init, pf.formula])).kind
        assert kind == S.SAT  # executable paths must be satisfiable
        agreed += 1
    assert agreed >= 20
