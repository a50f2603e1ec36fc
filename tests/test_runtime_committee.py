"""Tests for runtime committees and cross-committee VSR."""

import random

import pytest

from repro.mpc.engine import DEFAULT_BIT_WIDTH, CheatingDetected
from repro.runtime.committee import (
    Committee,
    CommitteePool,
    bigint_to_limbs,
    limbs_to_bigint,
)


def make_committee(name="c", members=(1, 2, 3, 4, 5), seed=1):
    return Committee(name, list(members), random.Random(seed), DEFAULT_BIT_WIDTH)


class TestLimbs:
    def test_roundtrip(self):
        for value in (0, 1, 2**95, 2**200 + 12345, 2**300 - 1):
            limbs = bigint_to_limbs(value, 4)
            assert limbs_to_bigint(limbs) == value

    def test_overflow_detected(self):
        with pytest.raises(OverflowError):
            bigint_to_limbs(2**400, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bigint_to_limbs(-1, 2)


class TestCommittee:
    def test_share_and_open(self):
        c = make_committee()
        values = c.share_values([10, -20, 30])
        assert [c.engine.open(v) for v in values] == [10, -20, 30]

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Committee("tiny", [1, 2], random.Random(0), DEFAULT_BIT_WIDTH)

    def test_vsr_between_committees(self):
        a = make_committee("a", seed=1)
        b = make_committee("b", (10, 11, 12, 13, 14), seed=2)
        values = a.share_values([7, 8, 9])
        moved = a.send_via_vsr(values, b)
        assert [b.engine.open(v) for v in moved] == [7, 8, 9]

    def test_vsr_into_different_size_committee(self):
        a = make_committee("a", (1, 2, 3, 4, 5, 6, 7), seed=3)
        b = make_committee("b", (1, 2, 3), seed=4)
        moved = a.send_via_vsr(a.share_values([42]), b)
        assert b.engine.open(moved[0]) == 42

    def test_vsr_then_compute(self):
        """Received shares are first-class: the new committee computes on
        them (the §5.4 pattern: decrypt committee -> noising committee)."""
        a = make_committee("a", seed=5)
        b = make_committee("b", (20, 21, 22, 23, 24), seed=6)
        moved = a.send_via_vsr(a.share_values([6, 7]), b)
        product = b.engine.mul(moved[0], moved[1])
        assert b.engine.open(product) == 42

    def test_chain_of_committees(self):
        committees = [
            make_committee(f"c{i}", tuple(range(10 * i + 1, 10 * i + 6)), seed=i)
            for i in range(4)
        ]
        values = committees[0].share_values([123])
        for src, dst in zip(committees, committees[1:]):
            values = src.send_via_vsr(values, dst)
        assert committees[-1].engine.open(values[0]) == 123

    def test_corrupted_share_detected_after_vsr(self):
        a = make_committee("a", seed=7)
        b = make_committee("b", (30, 31, 32, 33, 34), seed=8)
        moved = a.send_via_vsr(a.share_values([5]), b)
        b.engine.corrupt_share(moved[0], party_id=2)
        with pytest.raises(CheatingDetected):
            b.engine.open(moved[0])


class TestPool:
    def test_allocation_order(self):
        pool = CommitteePool([[1, 2, 3], [4, 5, 6]], random.Random(0), DEFAULT_BIT_WIDTH)
        a = pool.allocate("first")
        b = pool.allocate("second")
        assert a.members == [1, 2, 3]
        assert b.members == [4, 5, 6]

    def test_wraparound(self):
        """When a small deployment has fewer committees than the plan
        needs, tasks wrap to committee i+1 mod c (§5.1)."""
        pool = CommitteePool([[1, 2, 3]], random.Random(0), DEFAULT_BIT_WIDTH)
        a = pool.allocate("a")
        b = pool.allocate("b")
        assert b.members == a.members
        assert len(pool.allocated) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CommitteePool([], random.Random(0), DEFAULT_BIT_WIDTH)
