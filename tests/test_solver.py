"""Decision procedure and path-formula tests, with brute-force oracles."""

import itertools
import random
import time

import pytest

from cmcheck import formula as F
from cmcheck import lang, oracle
from cmcheck import solver as S

from helpers import abstraction_minterms, box_minterms, box_model, path_formula, random_cfa


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
    # Rationally satisfiable at x = 3/2, but no integer has 2x = 3
    # (a scan of [-32, 32] finds none), so the answer stays MaybeSat.
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


def test_formula_too_large(monkeypatch):
    monkeypatch.setattr(S, "DNF_CLAUSE_BOUND", 4)
    tiny = S.Solver()
    parts = [F.parse_formula(f"x = {i} | y = {i}") for i in range(4)]
    with pytest.raises(F.FormulaTooLarge):
        tiny.check_sat(F.f_and(parts))
    # entails treats the blowup as Unknown
    assert tiny.entails(F.f_and(parts), F.parse_formula("x >= 100")) is False


@pytest.mark.parametrize("bound", [5, 6])
def test_clause_bound_holds_before_the_first_clause(monkeypatch, bound):
    # A 3 x 2 product whose first clause is satisfiable: six clauses pass a
    # bound of 5 and raise, though the first clause alone would answer;
    # at a bound of exactly 6 the query answers from that clause.
    f = F.f_and([F.parse_formula("x = 0 | x = 1 | x = 2"), F.parse_formula("y = 0 | y = 1")])
    assert len(S.to_dnf(f)) == 6
    monkeypatch.setattr(S, "DNF_CLAUSE_BOUND", bound)
    if bound < 6:
        with pytest.raises(F.FormulaTooLarge):
            S.Solver().check_sat(f)
    else:
        r = S.Solver().check_sat(f)
        assert r.kind == S.SAT
        assert {t.name: v for t, v in r.witness.items()} == {"x": 0, "y": 0}


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
            assert box_model(f, names) is None, F.render_formula(f)
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
        model = box_model(f, names)
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


def test_check_sat_answers_from_the_first_satisfiable_clause():
    # check_sat decides the clauses of to_dnf(f) in order and stops at the
    # first SAT one: its witness, its kind and the witness searches it ran
    # are those of deciding the clauses one by one.
    rng = random.Random(35)
    multi = 0
    for _ in range(300):
        f = F.f_and([random_formula(rng, atoms=3), random_formula(rng, atoms=3)])
        clauses = S.to_dnf(f)
        multi += len(clauses) > 1
        one_by_one = S.Solver()
        expected = S.SatResult(S.UNSAT)
        for clause in clauses:
            r = one_by_one._clause_sat(clause)
            if r.kind == S.SAT:
                expected = r
                break
            if r.kind == S.MAYBE:
                expected = r
        solver = S.Solver()
        got = solver.check_sat(f)
        assert got == expected, F.render_formula(f)
        assert solver.stats["witness_searches"] == one_by_one.stats["witness_searches"]
    assert multi > 150


# -- witnesses by back-substitution ----------------------------------------------

SMALL_COEFFICIENTS = (-5, -3, -2, -1, 1, 2, 3, 5)
# Coefficients near +-2^62, where a fixed-width kernel would overflow.
NEAR_2_62 = (-(2 ** 62) - 1, -(2 ** 62), -(2 ** 62) + 1, -3, 1, 2, 2 ** 62 - 1, 2 ** 62)


def random_conjunction(rng, names, coefficients=SMALL_COEFFICIENTS,
                       magnitudes=(6, 6, 10 ** 20)):
    parts = []
    for _ in range(rng.randint(1, 4)):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        terms = " + ".join(f"{rng.choice(coefficients)}*{v}" for v in chosen)
        magnitude = rng.choice(magnitudes)
        parts.append(f"({terms} {rng.choice(['<=', '>=', '='])}"
                     f" {rng.randint(-magnitude, magnitude)})")
    return F.parse_formula(" & ".join(parts))


def test_back_substitution_witnesses(solver):
    # Every Sat witness satisfies the formula, constants of +-10^20
    # included, and Sat is found whenever the [-4,4]^4 box has a model.
    rng = random.Random(6)
    names = ("w", "x", "y", "z")
    sat = boxed = 0
    for _ in range(400):
        f = random_conjunction(rng, names)
        r = solver.check_sat(f)
        if r.kind == S.SAT:
            sat += 1
            store = dict.fromkeys(names, 0)
            store.update((t.name, v) for t, v in r.witness.items())
            assert F.evaluate(f, store), F.render_formula(f)
        if box_model(f, names, box=4) is not None:
            boxed += 1
            assert r.kind == S.SAT, F.render_formula(f)
    assert boxed > 100 and sat > boxed + 100  # both kinds of witness are exercised


def test_witness_far_outside_any_box(solver):
    r = solver.check_sat(F.parse_formula("x - y = 100000000000000000000 & y >= 3"))
    assert r.kind == S.SAT
    w = {t.name: v for t, v in r.witness.items()}
    assert w == {"x": 10 ** 20 + 3, "y": 3}


def test_long_chain_clause_is_decided_in_time():
    # A path formula with one residual per edge, x_k - x_(k-1) = 1, is one
    # flat conjunction 2,000 conjuncts wide and one clause over 2,001 terms.
    # Its product must not recurse once per conjunct, and elimination must
    # cost what the nonzero coefficients cost (about 2 s on 2 shared vCPUs),
    # not a full row per term.
    n = 2000
    f = F.f_and([F.parse_formula(f"x{k} - x{k - 1} = 1") for k in range(1, n + 1)])
    assert len(S.to_dnf(f)) == 1
    start = time.perf_counter()
    r = S.Solver().check_sat(f)
    elapsed = time.perf_counter() - start
    assert r.kind == S.SAT
    w = {t.name: v for t, v in r.witness.items()}
    assert all(w[f"x{k}"] - w[f"x{k - 1}"] == 1 for k in range(1, n + 1))
    assert elapsed < 30, f"{elapsed:.1f} s"


# -- minterm enumeration for predicate abstraction --------------------------------

def random_predicates(rng, names, n):
    pi = []
    while len(pi) < n:
        chosen = rng.sample(names, rng.randint(1, 2))
        terms = " + ".join(f"{rng.choice([-2, -1, 1, 2])}*{v}" for v in chosen)
        f = F.parse_formula(f"{terms} {rng.choice(['<=', '>=', '='])} {rng.randint(-4, 4)}")
        if isinstance(f, F.AtomF) and f.atom not in pi:
            pi.append(f.atom)
    return pi


def test_sat_minterms_matches_per_minterm_queries(solver):
    # The pruned enumeration keeps every minterm that its own query finds
    # SAT or that the [-6,6]^3 box realizes, and none that the query refutes.
    rng = random.Random(7)
    names = ("x", "y", "z")
    kept = dropped = 0
    for _ in range(150):
        sp = F.f_or([random_formula(rng), random_formula(rng)])
        pi = random_predicates(rng, names, rng.randint(1, 4))
        preds = [F.AtomF(p) for p in pi]
        got = solver.sat_minterms(sp, preds)
        assert got == sorted(set(got))
        kinds = {}
        for bits in range(1 << len(pi)):
            literals = [p if (bits >> i) & 1 else F.f_not(p) for i, p in enumerate(preds)]
            kinds[bits] = solver.check_sat(F.f_and([sp] + literals)).kind
        assert set(got) <= {b for b, k in kinds.items() if k != S.UNSAT}
        assert set(got) >= {b for b, k in kinds.items() if k == S.SAT}
        assert set(got) >= box_minterms(sp, pi, names, box=6)
        kept += len(got)
        dropped += len(kinds) - len(got)
    assert kept > 200 and dropped > 200  # both outcomes are exercised


def test_sat_minterms_warm_solver_matches_fresh_across_epochs():
    # The predicates' DNFs outlive a precision change: a solver that has
    # answered earlier queries answers each later one as a fresh one does,
    # while new atoms shift the old ones to other bit positions.
    from cmcheck import domains as D

    rng = random.Random(1019)
    names = ("x", "y", "z")
    formulas = [F.f_or([random_formula(rng), random_formula(rng)]) for _ in range(30)]
    warm = S.Solver()
    precision = D.Precision()
    for _ in range(3):
        epoch = precision.epoch
        for p in random_predicates(rng, names, 2):
            precision.add(0, p)
        assert precision.epoch > epoch
        preds = [F.AtomF(p) for p in precision.atoms_at(0)]
        for f in formulas:
            assert warm.sat_minterms(f, preds) == S.Solver().sat_minterms(f, preds)


def test_fm_record_mentions_only_later_terms(solver):
    # The minterm search decides each clause on its own rows, numbered for
    # the whole query: a predicate over a term that sorts first shifts every
    # column, and its refutation answer must still be _fm_eliminate's.
    rng = random.Random(11)
    names = ("w", "x", "y", "z", "x*y")
    shifted = [F.parse_formula("a <= 0")]
    records = refuted = 0
    for k in range(600):
        if k < 400:
            f = random_conjunction(rng, names)
        else:
            # Two names, so that the large rows meet and some refute.
            f = random_conjunction(rng, ("x", "y"), NEAR_2_62, (6, 2 ** 62, 2 ** 62 + 7))
        clauses = S.to_dnf(f)
        for clause in clauses:
            steps = S._fm_eliminate(clause)
            if len(clauses) == 1:
                refuted += steps is True
                assert solver.sat_minterms(f, shifted) == ([] if steps is True else [0, 1])
            if steps is True or steps is None:
                continue
            records += 1
            order = [t for t, _ in steps]
            assert sorted(order, key=F.term_key) == sorted(
                {t for a in clause for t, _ in a.terms}, key=F.term_key)
            for i, (term, constraints) in enumerate(steps):
                later = set(order[i + 1:])
                for coeffs, _ in constraints:
                    assert term in coeffs and set(coeffs) - {term} <= later
    assert records > 200 and refuted > 40


@pytest.mark.parametrize("disjuncts,fails", [(16, False), (17, True)])
def test_minterm_queries_limited_up_front(disjuncts, fails):
    # Each negated equality predicate splits into two clauses, so eight of
    # them over 16 disjuncts reach exactly the default 4096-clause bound.
    from cmcheck import domains as D

    prec = D.Precision()
    for i in range(8):
        prec.add(1, F.parse_formula(f"y = {i}").atom)
    dom = D.PredicateDomain(S.Solver(), prec)
    state = F.f_or([F.parse_formula(f"x = {i}") for i in range(disjuncts)])
    step = lang.parse_cfa("vars: x, y;\ninit: L0;\nL0 -> L1: havoc y;\n").edges[0]
    if fails:
        with pytest.raises(D.AbstractionFailure):
            dom.transfer(state, step)
    else:
        out, = dom.transfer(state, step)
        # y takes at most one of the eight values
        assert abstraction_minterms(out, prec.atoms_at(1)) == \
            {0} | {1 << i for i in range(8)}


# -- path formulas ---------------------------------------------------------------

def edges_of(src: str):
    return list(lang.parse_program(src).edges)


def test_path_formula_assignment_chain():
    pf = path_formula(edges_of("int x; x := 0; x := x + 1;"))
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
    pf = path_formula(cfa.edges)
    assert pf.formula == F.mk_atom(F.lin_var("x@0"), F.LE, 9)
    assert pf.ssa == {}


def test_path_formula_havoc_bumps_index():
    cfa = lang.parse_cfa(
        "vars: x;\ninit: L0;\nL0 -> L1: havoc x;\nL1 -> L2: assume x >= 1;\n")
    pf = path_formula(cfa.edges)
    assert pf.ssa == {"x": 1}
    assert pf.formula == F.mk_atom(F.lin_scale(F.lin_var("x@1"), -1), F.LE, -1)


def test_atom_count_on_path_formula():
    pf = path_formula(edges_of(
        "int x, y; x := 0; y := x + 2; x := y - 1;"))
    assert F.atom_count(pf.formula) == 3
    assert F.atom_count(F.TRUE) == 0
    assert F.atom_count(F.parse_formula("x <= 1 & y <= 2")) == 2


def test_seven_edge_chain_matches_interpreter(solver):
    src = "int x, y; x := 1; y := x + 2; x := y * 1;"
    cfa = lang.parse_program(src + " assert(x == 3);")
    ok_path = [e for e in cfa.edges if e.target not in cfa.error_locations]
    pf = path_formula(ok_path)
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
        pf = path_formula(path)
        init = F.f_and([F.mk_atom(F.lin_var(S.ssa_name(v, 0)), F.EQ, 0)
                        for v in cfa.variables])
        kind = solver.check_sat(F.f_and([init, pf.formula])).kind
        assert kind == S.SAT  # executable paths must be satisfiable
        agreed += 1
    assert agreed >= 20
