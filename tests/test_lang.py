"""Frontend tests: mini-language compilation and the CFA text format."""

import random

import pytest

from cmcheck import lang
from cmcheck.lang import Assign, Assume, Havoc, ParseError

from helpers import random_cfa, random_program_text, serialize_cfa


def test_assert_desugars_to_error_branch():
    cfa = lang.parse_program("int x; x := 0; assert(x == 0);")
    assert len(cfa.variables) == 1
    assert len(cfa.locations) == 4  # 3 plus one error location
    assert len(cfa.error_locations) == 1
    ops = [e.op for e in cfa.edges]
    assert isinstance(ops[0], Assign)
    assert isinstance(ops[1], Assume) and isinstance(ops[1].expr, lang.Not)
    assert isinstance(ops[2], Assume) and isinstance(ops[2].expr, lang.Cmp)
    err = next(iter(cfa.error_locations))
    assert cfa.edges[1].target == err
    assert "assert" in cfa.error_info[err]


def test_while_produces_complementary_assume_edges():
    cfa = lang.parse_program(
        "int i; i := 0; while (i < 3) { i := i + 1; } assert(i == 3);")
    head = cfa.edges[0].target
    out = cfa.edges_from(head)
    assert len(out) == 2
    enter, leave = out
    assert isinstance(enter.op, Assume) and isinstance(leave.op, Assume)
    assert leave.op.expr == lang.Not(enter.op.expr)


def test_nonlinear_loop_program_shape(nonlinear_square_cfa):
    cfa = nonlinear_square_cfa
    assert len(cfa.error_locations) == 2
    has_mult = any(
        isinstance(e.op, Assign) and isinstance(e.op.expr, lang.BinOp)
        and e.op.expr.op == "*"
        for e in cfa.edges)
    assert has_mult
    bounds = [c.value for e in cfa.edges if isinstance(e.op, Assume)
              for c in [getattr(e.op.expr, "right", None)] if isinstance(c, lang.Const)]
    assert 1000000 in bounds


def test_branch_completeness_on_random_programs():
    rng = random.Random(7)
    for _ in range(20):
        cfa = lang.parse_program(random_program_text(rng))
        for loc in cfa.locations:
            out = cfa.edges_from(loc)
            assumes = [e for e in out if isinstance(e.op, Assume)]
            if len(assumes) == 2:
                a, b = assumes
                assert (b.op.expr == lang.Not(a.op.expr)
                        or a.op.expr == lang.Not(b.op.expr))


def test_every_location_terminates_or_continues():
    cfa = lang.parse_program("int x; havoc x; if (x < 0) { x := 0; } assert(x >= 0);")
    ends = [l for l in cfa.locations
            if not cfa.edges_from(l) and l not in cfa.error_locations]
    assert len(ends) <= 1  # the single designated end location


# -- errors -----------------------------------------------------------------

def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        lang.parse_program("int x;\nx := ;\n")
    assert err.value.line == 2


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        lang.parse_program("int x; y := 1;")
    with pytest.raises(ParseError, match="undeclared"):
        lang.parse_program("int x; x := y + 1;")


def test_nondet_only_as_full_rhs():
    cfa = lang.parse_program("int x; x := nondet();")
    assert isinstance(cfa.edges[0].op, Havoc)
    with pytest.raises(ParseError, match="nondet"):
        lang.parse_program("int x; x := nondet() + 1;")
    with pytest.raises(ParseError, match="nondet"):
        lang.parse_program("int x; x := 1 + nondet();")


def tokens(text: str) -> list:
    return [(t.kind, t.text, t.line, t.col) for t in lang._tokenize(text)]


def test_token_positions():
    # A tab or a carriage return is one column; a comment runs to the end
    # of its line, and the end of input after it is the column after it.
    assert tokens("x\t:= 1;\r\ny -> z && w") == [
        ("name", "x", 1, 1), ("punct", ":=", 1, 3), ("int", "1", 1, 6),
        ("punct", ";", 1, 7), ("name", "y", 2, 1), ("punct", "->", 2, 3),
        ("name", "z", 2, 6), ("punct", "&&", 2, 8), ("name", "w", 2, 11),
        ("eof", "", 2, 12)]
    assert tokens("a // b\n# c\n  d # e") == [
        ("name", "a", 1, 1), ("name", "d", 3, 3), ("eof", "", 3, 8)]


# -- CFA text format ----------------------------------------------------------

def test_parse_cfa_single_assign_edge():
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nL0 -> L1: x := x + 1;\n")
    assert len(cfa.edges) == 1
    assert isinstance(cfa.edges[0].op, Assign)
    assert cfa.edges[0].source == 0 and cfa.edges[0].target == 1


def test_parse_cfa_unreachable_error_location_is_valid():
    cfa = lang.parse_cfa("vars: x;\ninit: L0;\nerror: L9;\nL0 -> L1: havoc x;\n")
    assert 9 in cfa.error_locations
    assert not any(e.target == 9 for e in cfa.edges)


def test_cfa_duplicate_variable_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        lang.parse_cfa("vars: x, x;\ninit: L0;\n")


@pytest.mark.parametrize("edge, col", [
    ("L0 -> L1: y := 1;", 11),
    ("L0 -> L1: x := y + 1;", 11),
    ("L0 -> L1: assume x < y;", 11),
    ("L0 -> L1: havoc y;", 17),
])
def test_cfa_undeclared_variable_rejected_with_position(edge, col):
    with pytest.raises(ParseError, match="undeclared variable 'y'") as err:
        lang.parse_cfa(f"vars: x;\ninit: L0;\n{edge}\n")
    assert (err.value.line, err.value.col) == (3, col)


def test_cfa_roundtrip_fixture(programs_dir):
    text = (programs_dir / "diamond.cfa").read_text()
    cfa = lang.parse_cfa(text)
    normalized = serialize_cfa(cfa)
    again = lang.parse_cfa(normalized)
    assert serialize_cfa(again) == normalized
    assert again.edges == cfa.edges


def test_serialize_parse_fixpoint_on_random_programs():
    rng = random.Random(21)
    for _ in range(25):
        cfa = random_cfa(rng)
        text = serialize_cfa(cfa)
        once = lang.parse_cfa(text)
        assert serialize_cfa(once) == text
        assert once.edges == cfa.edges
        assert once.error_locations == cfa.error_locations
        assert once.initial == cfa.initial


def test_roundtrip_twenty_edge_fixture():
    src = """
    int a, b, c;
    a := 0; b := 1; c := a + b;
    if (a < b) { a := a * 2; } else { b := b - 1; }
    while (a < 4) { a := a + 1; c := c + a; }
    assert(c >= 0);
    havoc b;
    if (b == 0) { c := 0; }
    assert(a >= 4);
    """
    cfa = lang.parse_program(src)
    assert len(cfa.edges) >= 20
    text = serialize_cfa(cfa)
    assert serialize_cfa(lang.parse_cfa(text)) == text


# -- evaluation ----------------------------------------------------------------

def condition(text: str):
    """The expression of an assume edge, read by the .cfa frontend."""
    cfa = lang.parse_cfa(f"vars: x, y;\ninit: L0;\nL0 -> L1: assume {text};\n")
    return cfa.edges[0].op.expr


def test_three_valued_evaluation():
    e = condition("x < 10")
    assert lang.eval_bool(e, {"x": 3}) is True
    assert lang.eval_bool(e, {"x": None}) is None
    both = condition("x < 10 && y > 0")
    assert lang.eval_bool(both, {"x": 20, "y": None}) is False
    assert lang.eval_bool(condition("x < 10 || y > 0"),
                          {"x": 3, "y": None}) is True


def test_expression_rendering_reparses():
    texts = ["x + 1 < 2 * y", "!(x == 0) && y >= -3", "x - (y - 1) != 0",
             "x * x >= x", "true", "x <= 0 || x > 5"]
    for t in texts:
        e = condition(t)
        again = condition(lang.render_expr(e))
        assert again == e, t
