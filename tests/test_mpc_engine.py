"""Tests for the honest-majority MPC engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.engine import CheatingDetected, MPCEngine


def make_engine(parties=5, seed=1, bit_width=32):
    return MPCEngine(parties, rng=random.Random(seed), bit_width=bit_width)


class TestConstruction:
    def test_needs_three_parties(self):
        with pytest.raises(ValueError):
            MPCEngine(2)

    def test_honest_majority_bound(self):
        with pytest.raises(ValueError):
            MPCEngine(4, threshold=2)  # needs n >= 2t+1 = 5

    def test_field_must_fit_masking(self):
        from repro.crypto.field import PrimeField, MERSENNE_61

        with pytest.raises(ValueError):
            MPCEngine(3, field=PrimeField(MERSENNE_61), bit_width=40)


class TestLinearOps:
    def test_input_open_roundtrip(self):
        e = make_engine()
        for v in (0, 1, -1, 1000, -12345):
            assert e.open(e.input_value(v)) == v

    def test_add_sub(self):
        e = make_engine()
        a, b = e.input_value(30), e.input_value(12)
        assert e.open(e.add(a, b)) == 42
        assert e.open(e.sub(a, b)) == 18

    def test_public_ops(self):
        e = make_engine()
        a = e.input_value(10)
        assert e.open(e.add_public(a, 5)) == 15
        assert e.open(e.mul_public(a, -3)) == -30

    def test_constant(self):
        e = make_engine()
        assert e.open(e.constant(-7)) == -7

    def test_sum_values(self):
        e = make_engine()
        values = [e.input_value(i) for i in range(10)]
        assert e.open(e.sum_values(values)) == 45
        assert e.open(e.sum_values([])) == 0

    def test_linear_ops_are_local(self):
        """Additions must not consume communication rounds."""
        e = make_engine()
        a, b = e.input_value(1), e.input_value(2)
        rounds_before = e.counters.rounds
        e.add(a, b)
        e.sub(a, b)
        e.add_public(a, 9)
        assert e.counters.rounds == rounds_before


class TestMultiplication:
    def test_mul(self):
        e = make_engine()
        assert e.open(e.mul(e.input_value(6), e.input_value(7))) == 42

    def test_mul_negative(self):
        e = make_engine()
        assert e.open(e.mul(e.input_value(-6), e.input_value(7))) == -42

    def test_mul_consumes_triple(self):
        e = make_engine()
        a, b = e.input_value(2), e.input_value(3)
        before = e.counters.triples_consumed
        e.mul(a, b)
        assert e.counters.triples_consumed == before + 1

    def test_deep_multiplication_chain(self):
        e = make_engine()
        acc = e.input_value(1)
        for i in range(2, 8):
            acc = e.mul(acc, e.input_value(i))
        assert e.open(acc) == 5040


class TestComparison:
    def test_basic(self):
        e = make_engine()
        a, b = e.input_value(3), e.input_value(9)
        assert e.open(e.less_than(a, b)) == 1
        assert e.open(e.less_than(b, a)) == 0

    def test_equal_values(self):
        e = make_engine()
        a, b = e.input_value(5), e.input_value(5)
        assert e.open(e.less_than(a, b)) == 0

    def test_negative_values(self):
        e = make_engine()
        assert e.open(e.less_than(e.input_value(-10), e.input_value(-2))) == 1
        assert e.open(e.less_than(e.input_value(-2), e.input_value(-10))) == 0
        assert e.open(e.less_than(e.input_value(-1), e.input_value(1))) == 1

    def test_boundary_magnitudes(self):
        e = make_engine(bit_width=16)
        big = 2**15
        assert e.open(e.less_than(e.input_value(-big), e.input_value(big))) == 1

    def test_greater_than(self):
        e = make_engine()
        assert e.open(e.greater_than(e.input_value(4), e.input_value(2))) == 1


class TestComparisonProtocol:
    """The mod-2^k comparison: right on its whole domain, the same work
    whatever it compares, and every share it reads is checked."""

    @pytest.mark.parametrize("parties", [3, 4, 5, 7])
    def test_truth_table_at_four_bits(self, parties):
        e = make_engine(parties=parties, seed=parties, bit_width=4)
        domain = range(-7, 8)
        shared = {v: e.input_value(v) for v in domain}
        for a in domain:
            for b in domain:
                assert e.open(e.less_than(shared[a], shared[b])) == int(a < b), (a, b)

    @pytest.mark.parametrize("bit_width", [8, 40, 47])
    def test_extreme_and_sampled_pairs(self, bit_width):
        e = make_engine(parties=4, seed=bit_width, bit_width=bit_width)
        top = 2 ** (bit_width - 1) - 1
        rng = random.Random(bit_width)
        values = [0, 1, -1, top, -top] + [rng.randint(-top, top) for _ in range(6)]
        shared = {v: e.input_value(v) for v in values}
        for a in values:
            for b in values:
                assert e.open(e.less_than(shared[a], shared[b])) == int(a < b), (a, b)

    def test_work_does_not_depend_on_the_operands(self):
        k = 24
        e = make_engine(parties=4, bit_width=k)
        top = 2 ** (k - 1) - 1
        pairs = [(0, 0), (1, 0), (0, 1), (-1, 1), (top, -top), (-top, top), (top, top), (12345, -54321)]
        deltas = set()
        for a, b in pairs:
            x, y = e.input_value(a), e.input_value(b)
            before = e.counters.snapshot()
            e.less_than(x, y)
            after = e.counters
            deltas.add(
                (
                    after.triples_consumed - before.triples_consumed,
                    after.edabits_consumed - before.edabits_consumed,
                    after.rounds - before.rounds,
                    after.openings - before.openings,
                    after.bytes_sent - before.bytes_sent,
                )
            )
        # k - 1 products of two openings each, after the one masked opening.
        opening_bytes = 2 * 3 * 16
        assert deltas == {(k - 1, 1, k, 2 * (k - 1) + 1, (2 * (k - 1) + 1) * opening_bytes)}

    @pytest.mark.parametrize("target", ["operand", "mask", "bit0", "bit9", "bit15"])
    def test_a_corrupted_share_is_caught_and_named(self, target):
        """Party 4 (outside the quorum of a 4-party, t = 1 committee) lies
        about one share the comparison reads; the top mask bit is never
        multiplied itself but is the next level's prefix."""
        e = make_engine(parties=4, bit_width=16)
        a, b = e.input_value(300), e.input_value(-20)
        if target == "operand":
            e.corrupt_share(b, party_id=4)
        else:
            honest = e.dealer.edabit

            def lying(bit_length, shared_bits):
                mask, bits = honest(bit_length, shared_bits)
                ys = mask if target == "mask" else bits[int(target[3:])]
                ys[3] = (ys[3] + 1) % e.field.modulus
                return mask, bits

            e.dealer.edabit = lying
        with pytest.raises(CheatingDetected, match="party 4 submitted"):
            e.less_than(a, b)

    def test_argmax_ties_go_to_the_first_maximum(self):
        e = make_engine(parties=4, bit_width=16)
        assert e.open(e.argmax([e.input_value(v) for v in (6, 6, 6)])) == 0
        assert e.open(e.argmax([e.input_value(v) for v in (5, 9, 9, -9)])) == 1


class TestSelection:
    def test_select(self):
        e = make_engine()
        t, f = e.input_value(10), e.input_value(20)
        one, zero = e.constant(1), e.constant(0)
        assert e.open(e.select(one, t, f)) == 10
        assert e.open(e.select(zero, t, f)) == 20

    def test_argmax(self):
        e = make_engine()
        values = [e.input_value(v) for v in (3, 1, 9, 9, 2)]
        assert e.open(e.argmax(values)) == 2  # first maximum wins

    def test_argmax_single(self):
        e = make_engine()
        assert e.open(e.argmax([e.input_value(5)])) == 0

    def test_argmax_empty_raises(self):
        with pytest.raises(ValueError):
            make_engine().argmax([])

    def test_maximum(self):
        e = make_engine()
        values = [e.input_value(v) for v in (-5, 12, 7)]
        assert e.open(e.maximum(values)) == 12


class TestIntegrity:
    def test_cheating_detected_on_open(self):
        e = make_engine()
        a = e.input_value(5)
        e.corrupt_share(a, party_id=5, delta=3)
        with pytest.raises(CheatingDetected):
            e.open(a)

    def test_cheating_in_quorum_detected(self):
        e = make_engine()
        a = e.input_value(5)
        e.corrupt_share(a, party_id=1, delta=1)
        with pytest.raises(CheatingDetected):
            e.open(a)

    def test_foreign_values_rejected(self):
        e1, e2 = make_engine(seed=1), make_engine(seed=2)
        a = e1.input_value(5)
        b = e2.input_value(5)
        with pytest.raises(ValueError):
            e1.add(a, b)


class TestCounters:
    def test_bytes_and_rounds_accumulate(self):
        e = make_engine()
        a, b = e.input_value(3), e.input_value(4)
        e.open(e.mul(a, b))
        c = e.counters
        assert c.bytes_sent > 0
        assert c.rounds >= 2
        assert c.multiplications == 1
        assert c.openings >= 3

    def test_comparison_counters(self):
        e = make_engine()
        e.less_than(e.input_value(1), e.input_value(2))
        assert e.counters.comparisons == 1
        assert e.counters.edabits_consumed == 1


@given(
    a=st.integers(min_value=-(2**20), max_value=2**20),
    b=st.integers(min_value=-(2**20), max_value=2**20),
)
@settings(max_examples=20, deadline=None)
def test_comparison_property(a, b):
    e = make_engine(parties=3, seed=a & 0xFFFF, bit_width=24)
    result = e.open(e.less_than(e.input_value(a), e.input_value(b)))
    assert result == int(a < b)


@given(
    values=st.lists(
        st.integers(min_value=-(2**18), max_value=2**18), min_size=2, max_size=5
    )
)
@settings(max_examples=15, deadline=None)
def test_argmax_property(values):
    e = make_engine(parties=3, seed=sum(values) & 0xFFFF, bit_width=24)
    secrets = [e.input_value(v) for v in values]
    index = e.open(e.argmax(secrets))
    assert values[index] == max(values)
    assert index == values.index(max(values))
