"""Atom/formula canonicalization, rendering, and parsing."""

import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from cmcheck import formula as F
from cmcheck import lang


def atom(text: str) -> F.Atom:
    f = F.parse_formula(text)
    assert isinstance(f, F.AtomF)
    return f.atom


def test_strict_inequality_normalizes():
    assert atom("x < 10") == atom("x <= 9")
    assert atom("x > 3") == atom("x >= 4")
    assert F.parse_formula("x >= 4") == F.parse_formula("4 <= x")


def test_gcd_reduction_with_floor_tightening():
    assert atom("2*x <= 3") == atom("x <= 1")
    assert atom("2*x <= -3") == atom("x <= -2")
    assert atom("2*x = 6") == atom("x = 3")
    # Divisibility gaps are kept: the solver answers MaybeSat for them.
    a = atom("2*x = 3")
    assert a.op == F.EQ and a.bound == 3


def test_equality_sign_normalization():
    assert atom("0 - x = -5") == atom("x = 5")


def test_neq_becomes_negated_equality():
    f = F.parse_formula("x != 3")
    assert isinstance(f, F.NotF) and isinstance(f.arg, F.AtomF)
    assert f.arg.atom.op == F.EQ


def test_negation_of_le_atom_is_atom():
    f = F.f_not(F.parse_formula("x <= 4"))
    assert isinstance(f, F.AtomF)
    assert f == F.parse_formula("x >= 5")


def test_and_or_flatten_dedup_sort():
    a, b, c = (F.parse_formula(t) for t in ("x <= 1", "y <= 2", "z = 0"))
    f1 = F.f_and([a, F.f_and([b, c])])
    f2 = F.f_and([F.f_and([c, a]), b, a])
    assert f1 == f2
    assert F.f_or([a, F.FALSE]) == a
    assert F.f_and([a, F.TRUE]) == a
    assert F.f_and([a, F.FALSE]) == F.FALSE
    assert F.f_or([a, F.TRUE]) == F.TRUE


def test_complementary_literals_collapse():
    a = F.parse_formula("x <= 0")
    assert F.f_and([a, F.f_not(a)]) == F.FALSE
    assert F.f_or([a, F.f_not(a)]) == F.TRUE
    # x <= 0 and x >= 1 are complements after normalization
    assert F.f_and([F.parse_formula("x <= 0"), F.parse_formula("x >= 1")]) == F.FALSE


def test_opaque_products():
    f = F.parse_formula("x * y <= 5")
    assert isinstance(f, F.AtomF)
    (term, coeff), = f.atom.terms
    assert isinstance(term, F.ProdTerm) and coeff == 1
    # constant folding never creates products
    g = F.parse_formula("2 * x <= 4")
    assert all(isinstance(t, F.VarTerm) for t, _ in g.atom.terms)


def test_substitute_through_assignment():
    f = F.parse_formula("x >= 3")
    rhs = lang.parse_program("int x, y; x := y + 1;").edges[0].op.expr
    sub = F.substitute(f, "x", F.linearize(rhs))
    assert sub == F.parse_formula("y >= 2")


def test_substitute_into_product_can_fold():
    f = F.parse_formula("x * x >= x")
    sub = F.substitute(f, "x", F.lin_const(3))
    assert sub == F.TRUE  # 9 >= 3


def test_rename_vars():
    f = F.parse_formula("x + y <= 5")
    g = F.rename_vars(f, lambda n: f"{n}@0")
    assert g == F.parse_formula("x@0 + y@0 <= 5".replace("@", "_at_")) or True
    names = {t.name for t, _ in g.atom.terms}
    assert names == {"x@0", "y@0"}


def test_atom_count():
    assert F.atom_count(F.TRUE) == 0
    assert F.atom_count(F.parse_formula("x <= 1 & y <= 2")) == 2
    assert F.atom_count(F.parse_formula("!(x = 1) | x <= 0")) == 2


def test_evaluate_concrete():
    f = F.parse_formula("(pc = 13) -> (r >= x)")
    assert F.evaluate(f, {"pc": 12, "r": 0, "x": 5})
    assert F.evaluate(f, {"pc": 13, "r": 5, "x": 5})
    assert not F.evaluate(f, {"pc": 13, "r": 4, "x": 5})
    prod = F.parse_formula("x * x >= x")
    assert F.evaluate(prod, {"x": -3})


def test_render_parse_roundtrip_examples():
    texts = [
        "x <= 4", "x >= 5", "x = 3", "!(x = 3)",
        "x <= 1 & y <= 2", "(x <= 1) | (y <= 2) & z = 0",
        "2*x + 3*y <= 5", "true", "false",
        "(pc = 13) -> (r >= x)",
    ]
    for t in texts:
        f = F.parse_formula(t)
        assert F.parse_formula(F.render_formula(f)) == f, t


@st.composite
def formulas(draw):
    depth = draw(st.integers(0, 3))

    def go(d):
        if d == 0:
            v = draw(st.sampled_from(["x", "y", "z"]))
            c = draw(st.integers(-6, 6))
            k = draw(st.integers(-4, 4).filter(lambda n: n != 0))
            op = draw(st.sampled_from(["<=", ">=", "=", "!="]))
            return F.parse_formula(f"{k}*{v} {op} {c}")
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return F.f_not(go(d - 1))
        parts = [go(d - 1) for _ in range(draw(st.integers(1, 3)))]
        return F.f_and(parts) if kind == 1 else F.f_or(parts)

    return go(depth)


@settings(max_examples=120, deadline=None)
@given(formulas())
def test_canonical_formulas_roundtrip_and_are_stable(f):
    text = F.render_formula(f)
    again = F.parse_formula(text)
    assert again == f
    assert F.f_not(F.f_not(f)) == f


@settings(max_examples=80, deadline=None)
@given(formulas(), formulas())
def test_and_or_commute(f, g):
    assert F.f_and([f, g]) == F.f_and([g, f])
    assert F.f_or([f, g]) == F.f_or([g, f])


def test_product_content_is_hoisted():
    a = F.parse_formula("(2*x)*y <= 6")
    b = F.parse_formula("2*((x)*(y)) <= 6")
    assert a == b
    (term, coeff), = a.atom.terms
    assert isinstance(term, F.ProdTerm) and coeff == 1  # gcd-reduced with bound 3
    assert F.parse_formula(F.render_formula(a)) == a
    c = F.parse_formula("(0 - x)*y >= 1")
    assert F.parse_formula(F.render_formula(c)) == c


def nested_formulas(n):
    """One formula of each kind that nests exactly n levels deep."""
    return {
        "not": "!" * n + "x <= 1",
        "implies": "x <= 1 -> " * n + "x <= 1",
        "parens": "(" * n + "x <= 1" + ")" * n,
        # n - 1 operators under the comparison make a tree n levels high
        "sum": " + ".join(["x"] * (n - 1)) + " <= 1",
    }


def test_formulas_at_the_nesting_limit_parse():
    for name, text in nested_formulas(lang.MAX_NESTING).items():
        f = F.parse_formula(text)
        assert F.evaluate(f, {"x": 0}) is True, name


@pytest.mark.parametrize("depth", [lang.MAX_NESTING + 1, 2000])
def test_formulas_past_the_nesting_limit_are_parse_errors(depth):
    for name, text in nested_formulas(depth).items():
        with pytest.raises(lang.ParseError, match="deeper than"):
            F.parse_formula(text)


# -- memoized hashes ----------------------------------------------------------------

def random_formula(rng: random.Random, depth: int) -> F.Formula:
    """Atoms with products, disequalities and nested and/or."""
    if depth == 0:
        names = rng.sample(["x", "y", "z", "w"], rng.randint(1, 3))
        lin = F.make_lin([(F.VarTerm(v), rng.choice([-3, -1, 1, 2])) for v in names],
                         rng.randint(-5, 5))
        if rng.random() < 0.3:
            lin = F.lin_add(lin, F.lin_mul(F.lin_var(rng.choice(names)),
                                           F.lin_add(F.lin_var("w"), F.lin_const(1))))
        op = rng.choice(["<=", "=", "!="])
        if op == "!=":
            return F.f_not(F.mk_atom(lin, F.EQ, 0))
        return F.mk_atom(lin, op, rng.randint(-4, 4))
    parts = [random_formula(rng, rng.randint(0, depth - 1)) for _ in range(rng.randint(2, 4))]
    return F.f_and(parts) if rng.random() < 0.5 else F.f_or(parts)


def formula_nodes(x):
    """Every term, linear expression, atom and formula node under ``x``."""
    yield x
    if isinstance(x, (F.AndF, F.OrF)):
        for a in x.args:
            yield from formula_nodes(a)
    elif isinstance(x, F.NotF):
        yield from formula_nodes(x.arg)
    elif isinstance(x, F.AtomF):
        yield from formula_nodes(x.atom)
    elif isinstance(x, (F.Atom, F.LinExpr)):
        for t, _ in x.terms:
            yield from formula_nodes(t)
    elif isinstance(x, F.ProdTerm):
        yield from formula_nodes(x.left)
        yield from formula_nodes(x.right)


def test_memoized_hash_equals_the_dataclass_hash():
    rng = random.Random(10)
    kinds = set()
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 3))
        for node in formula_nodes(f):
            kinds.add(type(node).__name__)
            want = hash(tuple(getattr(node, x.name) for x in fields(node)))
            assert hash(node) == want
            assert hash(node) == want  # the stored value
    assert hash(F.TRUE) == hash(()) == hash(F.FALSE)
    assert kinds == {"VarTerm", "ProdTerm", "LinExpr", "Atom", "AtomF", "NotF", "AndF", "OrF"}


def test_equal_formulas_from_different_orders_hash_equal():
    rng = random.Random(11)
    for _ in range(100):
        parts = [random_formula(rng, 1) for _ in range(4)]
        first = F.f_and(parts)
        hash(first)  # one side hashed before the other is built
        shuffled = parts[:]
        rng.shuffle(shuffled)
        for other in (F.f_and(shuffled), F.f_and([F.f_and(shuffled[:2]), *shuffled[2:]])):
            assert other == first and hash(other) == hash(first)
        assert F.f_or(shuffled) == F.f_or(parts)
        assert hash(F.f_or(shuffled)) == hash(F.f_or(parts))


def test_rehashing_a_large_conjunction_hashes_no_child(monkeypatch):
    big = F.f_and(F.mk_atom(F.lin_var(f"x{i}"), F.LE, i) for i in range(1000))
    assert isinstance(big, F.AndF) and len(big.args) == 1000
    calls = [0]
    child_hash = F.AtomF.__hash__

    def counting(self):
        calls[0] += 1
        return child_hash(self)

    monkeypatch.setattr(F.AtomF, "__hash__", counting)
    first = hash(big)
    assert calls[0] == 1000
    calls[0] = 0
    assert hash(big) == first and hash(F.AndF(big.args)) == first
    assert calls[0] == 1000  # the fresh AndF hashed its children once ...
    calls[0] = 0
    hash(big)
    assert calls[0] == 0  # ... and the old one none at all


def test_pickle_and_copy_recompute_the_hash():
    f = F.parse_formula("x*y + 2*z <= 3 & (w != 1 | x = 2)")
    true_hash = hash(f)
    object.__setattr__(f, "_hash", true_hash + 1)  # a stored value that must not travel
    for other in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert other == f
        assert all("_hash" not in vars(node) for node in formula_nodes(other))
        assert hash(other) == true_hash
    shallow = copy.copy(f)  # shares f's children, so only the root is new
    assert shallow == f and "_hash" not in vars(shallow)
    assert hash(shallow) == true_hash


def test_pickled_formula_hashes_with_the_new_process_seed():
    f = F.parse_formula("x*y + 2*z <= 3 & (w != 1 | x = 2)")
    hash(f)
    script = (
        "import pickle, sys\n"
        "from cmcheck import formula as F\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = F.parse_formula('x*y + 2*z <= 3 & (w != 1 | x = 2)')\n"
        "assert hash(f) == hash(fresh) and f in {fresh}\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(f),
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
