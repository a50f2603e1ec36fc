"""Tests for the AST simplifier, including semantics-preservation
property tests against the reference interpreter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.ast import Assign, BoolLit, If, IntLit, Var, format_program
from repro.lang.parser import parse, parse_expression
from repro.lang.simplify import simplify, simplify_expr
from tests.oracles.reference_interp import one_hot_database, ReferenceInterpreter


def folded(source):
    return simplify_expr(parse_expression(source))


class TestExpressionFolding:
    def test_arithmetic(self):
        assert folded("2 + 3 * 4").value == 14
        assert folded("10 - 4 - 3").value == 3
        assert folded("6 / 3").value == 2

    def test_division_by_zero_not_folded(self):
        expr = folded("1 / 0")
        assert not isinstance(expr, IntLit)

    def test_comparisons(self):
        assert folded("2 < 3").value is True
        assert folded("2 == 3").value is False

    def test_logic(self):
        assert folded("true && false").value is False
        assert folded("true || false").value is True

    def test_identities(self):
        assert isinstance(folded("x + 0"), Var)
        assert isinstance(folded("0 + x"), Var)
        assert isinstance(folded("x * 1"), Var)
        assert isinstance(folded("x - 0"), Var)
        assert folded("x * 0").value == 0

    def test_effectful_not_dropped_by_zero_mult(self):
        expr = folded("laplace(x, 1.0) * 0")
        # laplace consumes randomness; 0-folding must not remove the call.
        assert not isinstance(expr, IntLit)

    def test_double_negation(self):
        assert isinstance(folded("--x"), Var)
        assert isinstance(folded("!!b"), Var)

    def test_builtin_folding(self):
        assert folded("abs(0 - 5)").value == 5
        assert folded("clip(15, 0, 10)").value == 10
        assert folded("max(3, 9)").value == 9

    def test_nested_folding(self):
        assert folded("(1 + 1) * (2 + 2)").value == 8


class TestStatementSimplification:
    def test_constant_if_eliminated(self):
        program = simplify(parse("if 1 < 2 then x = 1; else x = 2; endif"))
        assert len(program.statements) == 1
        assert isinstance(program.statements[0], Assign)
        assert program.statements[0].value.value == 1

    def test_dead_loop_removed(self):
        program = simplify(parse("for i = 5 to 2 do x = 1; endfor"))
        assert program.statements == []

    def test_self_assignment_removed(self):
        program = simplify(parse("x = x;"))
        assert program.statements == []

    def test_pure_expression_statement_removed(self):
        program = simplify(parse("1 + 2;"))
        assert program.statements == []

    def test_output_never_removed(self):
        program = simplify(parse("output(1 + 2);"))
        assert len(program.statements) == 1

    def test_empty_if_removed(self):
        program = simplify(parse("if x > 0 then y = y; endif"))
        assert program.statements == []

    def test_loop_body_simplified(self):
        program = simplify(parse("for i = 0 to 3 do a[i] = i * 1 + 0; endfor"))
        loop = program.statements[0]
        assert format_program(program).count("+") == 0

    def test_query_still_valid_after_simplify(self):
        from repro.planner.search import plan_query
        from tests.conftest import small_env

        source = """
        aggr = sum(db);
        x = 0;
        if 2 > 1 then
          r = em(aggr);
        else
          r = 0;
        endif
        output(r);
        """
        program = simplify(parse(source))
        text = format_program(program)
        result = plan_query(text, small_env(), name="simplified")
        assert result.succeeded


# ---------------------------------------------------------------------------
# Property: simplification preserves semantics.
# ---------------------------------------------------------------------------

_expr_leaves = st.sampled_from(["1", "2", "3", "0", "x", "y", "7"])


@st.composite
def _expressions(draw, depth=3):
    if depth == 0:
        return draw(_expr_leaves)
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return draw(_expr_leaves)
    left = draw(_expressions(depth=depth - 1))
    right = draw(_expressions(depth=depth - 1))
    if kind == 1:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({left} {op} {right})"
    if kind == 2:
        op = draw(st.sampled_from(["<", "<=", "==", ">"]))
        return f"(({left} {op} {right}) && true)"
    if kind == 3:
        return f"(0 - {left})"
    if kind == 4:
        return f"abs({left})"
    return f"clip({left}, 0, 10)"


@given(expr_source=_expressions())
@settings(max_examples=120)
def test_folding_preserves_value(expr_source):
    """Evaluating a random pure expression before and after folding gives
    the same result (x=5, y=-2 fixed)."""
    source = f"x = 5; y = 0 - 2; output({expr_source});"
    program = parse(source)
    simplified = simplify(program)
    db = one_hot_database([0], 2)
    original = ReferenceInterpreter(db, rng=random.Random(0)).run(program)
    after = ReferenceInterpreter(db, rng=random.Random(0)).run(simplified)
    assert original == after


@given(
    cond_value=st.booleans(),
    then_value=st.integers(min_value=-5, max_value=5),
    else_value=st.integers(min_value=-5, max_value=5),
    loop_end=st.integers(min_value=-2, max_value=6),
)
@settings(max_examples=60)
def test_statement_simplification_preserves_outputs(
    cond_value, then_value, else_value, loop_end
):
    source = f"""
    s = 0;
    for i = 0 to {loop_end} do
      s = s + i * 1 + 0;
    endfor
    if {"true" if cond_value else "false"} then
      v = {then_value};
    else
      v = {else_value};
    endif
    output(s);
    output(v);
    """
    program = parse(source)
    simplified = simplify(program)
    db = one_hot_database([0], 2)
    original = ReferenceInterpreter(db, rng=random.Random(1)).run(program)
    after = ReferenceInterpreter(db, rng=random.Random(1)).run(simplified)
    assert original == after
