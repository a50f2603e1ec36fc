"""Tests for basic-type and range inference (§4.4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ranges import Interval, bits_needed, point
from repro.analysis.types import (
    AnalysisError,
    QueryEnvironment,
    ValueType,
    infer_types,
)
from repro.lang.parser import parse
from tests.conftest import small_env


def infer(source, env=None):
    return infer_types(parse(source), env or small_env())


class TestIntervals:
    def test_arithmetic(self):
        a, b = Interval(1, 3), Interval(-2, 2)
        assert (a + b) == Interval(-1, 5)
        assert (a - b) == Interval(-1, 5)
        assert (a * b) == Interval(-6, 6)

    def test_division_by_zero_span_unbounded(self):
        assert not (Interval(1, 2) / Interval(-1, 1)).is_finite()

    def test_division(self):
        assert (Interval(4, 8) / Interval(2, 4)) == Interval(1, 4)

    def test_clip(self):
        assert Interval(-10, 10).clip(0, 5) == Interval(0, 5)
        assert Interval(2, 3).clip(0, 5) == Interval(2, 3)

    def test_abs(self):
        assert Interval(-3, 2).abs() == Interval(0, 3)
        assert Interval(1, 2).abs() == Interval(1, 2)
        assert Interval(-4, -1).abs() == Interval(1, 4)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_bits_needed(self):
        assert bits_needed(Interval(0, 1)) == 1
        assert bits_needed(Interval(0, 255)) == 8
        assert bits_needed(Interval(-128, 127)) == 9
        with pytest.raises(ValueError):
            bits_needed(Interval(0, math.inf))

    def test_union_intersect(self):
        assert Interval(0, 2).union(Interval(5, 6)) == Interval(0, 6)
        assert Interval(0, 4).intersect(Interval(2, 8)) == Interval(2, 4)


class TestBasicInference:
    def test_db_shape(self):
        checker = infer("x = db;")
        assert checker.bindings["x"].shape == (48, 8)

    def test_sum_over_db(self):
        checker = infer("aggr = sum(db);")
        aggr = checker.bindings["aggr"]
        assert aggr.shape == (8,)
        assert aggr.interval.hi == 48.0
        assert aggr.basic == "int"

    def test_sum_of_vector(self):
        checker = infer("aggr = sum(db); total = sum(aggr);")
        total = checker.bindings["total"]
        assert total.is_scalar
        assert total.interval.hi == 8 * 48

    def test_em_index_range(self):
        checker = infer("aggr = sum(db); r = em(aggr);")
        r = checker.bindings["r"]
        assert r.basic == "int"
        assert r.interval == Interval(0, 7)

    def test_em_topk_shape(self):
        checker = infer("aggr = sum(db); r = em(aggr, 3);")
        assert checker.bindings["r"].shape == (3,)

    def test_division_makes_fix(self):
        checker = infer("x = 1 / 2;")
        assert checker.bindings["x"].basic == "fix"
        assert checker.bindings["x"].interval == Interval(0.5, 0.5)

    def test_comparison_is_bool(self):
        checker = infer("b = 1 < 2;")
        assert checker.bindings["b"].basic == "bool"

    def test_laplace_widens_interval(self):
        checker = infer("aggr = sum(db); n = laplace(aggr[0], 2.0);")
        n = checker.bindings["n"]
        assert n.basic == "fix"
        assert n.interval.lo < 0 < n.interval.hi

    def test_clip_narrows(self):
        checker = infer("aggr = sum(db); c = clip(aggr[0], 0, 5);")
        assert checker.bindings["c"].interval == Interval(0, 5)

    def test_predefined_constants(self):
        checker = infer("x = N + 0;")
        assert checker.bindings["x"].interval == point(48)

    def test_undefined_variable(self):
        with pytest.raises(AnalysisError):
            infer("x = y + 1;")

    def test_unknown_function(self):
        with pytest.raises(AnalysisError):
            infer("x = frobnicate(db);")
        # A mechanism called with the wrong arguments is a type error too:
        # certification runs after this check and relies on it.
        for source in (
            "aggr = sum(db); n = laplace(aggr[0]);",
            "r = em();",
            "aggr = sum(db); r = em(aggr, 1, 2);",
            "aggr = sum(db); r = em(aggr, aggr[0]);",
        ):
            with pytest.raises(AnalysisError):
                infer(source)

    def test_indexing_scalar_fails(self):
        with pytest.raises(AnalysisError):
            infer("x = 1; y = x[0];")


class TestControlFlow:
    def test_if_joins_branches(self):
        checker = infer("if 1 < 2 then x = 1; else x = 10; endif")
        assert checker.bindings["x"].interval == Interval(1, 10)

    def test_if_requires_bool(self):
        with pytest.raises(AnalysisError):
            infer("if 1 then x = 1; endif")

    def test_short_loop_unrolled(self):
        checker = infer("s = 0; for i = 0 to 3 do s = s + 1; endfor")
        assert checker.bindings["s"].interval.hi == 4

    def test_long_loop_widened_accumulator(self):
        checker = infer("s = 0; for i = 0 to 999 do s = s + 2; endfor")
        # Linear widening: bound within a small factor of the true 2000.
        hi = checker.bindings["s"].interval.hi
        assert 2000 <= hi <= 2010

    def test_loop_variable_range(self):
        checker = infer("for i = 0 to 9 do x = i; endfor")
        assert checker.bindings["i"].interval == Interval(0, 9)

    def test_exponential_growth_rejected(self):
        with pytest.raises(AnalysisError):
            infer("s = 2; for i = 0 to 9999 do s = s * s; endfor")

    def test_array_built_in_loop(self):
        checker = infer("for i = 0 to 7 do a[i] = i * 2; endfor")
        a = checker.bindings["a"]
        assert a.shape == (8,)
        assert a.interval.hi == 14

    def test_product_of_widened_vars_ok(self):
        # The auction pattern: a widened accumulator times a public factor.
        src = """
        aggr = sum(db);
        acc = 0;
        for i = 0 to 7 do
          acc = acc + aggr[i];
          rev[i] = acc * (8 - i);
        endfor
        """
        checker = infer(src)
        assert checker.bindings["rev"].interval.is_finite()


class TestOutputTracking:
    def test_outputs_recorded(self):
        checker = infer("aggr = sum(db); r = em(aggr); output(r); output(r);")
        assert len(checker.output_types) == 2


class TestSamplingTyping:
    def test_sample_preserves_shape(self):
        checker = infer("s = sampleUniform(db, 0.1); aggr = sum(s);")
        assert checker.bindings["aggr"].shape == (8,)

    def test_bad_probability(self):
        with pytest.raises(AnalysisError):
            infer("s = sampleUniform(db, 2.0);")


@given(
    lo=st.integers(min_value=-100, max_value=100),
    width=st.integers(min_value=0, max_value=100),
    k=st.integers(min_value=-10, max_value=10),
)
@settings(max_examples=100)
def test_interval_scale_property(lo, width, k):
    interval = Interval(lo, lo + width)
    scaled = interval.scale(k)
    for x in (interval.lo, interval.hi, (interval.lo + interval.hi) / 2):
        assert scaled.lo - 1e-9 <= x * k <= scaled.hi + 1e-9
