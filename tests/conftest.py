"""Shared fixtures for the test suite."""

import random

import pytest

from repro.analysis.ranges import Interval
from repro.analysis.types import QueryEnvironment, ValueType
from repro.crypto import shamir
from repro.crypto.field import MERSENNE_61, MERSENNE_127, PrimeField


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_field():
    return PrimeField(MERSENNE_61)


@pytest.fixture
def field():
    return PrimeField(MERSENNE_127)


def small_env(
    num_participants=48,
    categories=8,
    epsilon=1.0,
    sensitivity=1.0,
    row_encoding="one_hot",
):
    """A deployment environment small enough for functional execution."""
    return QueryEnvironment(
        num_participants=num_participants,
        row_width=categories,
        db_element=ValueType("int", Interval(0.0, 1.0)),
        epsilon=epsilon,
        sensitivity=sensitivity,
        row_encoding=row_encoding,
    )


def share_values(values, threshold, party_ids, field, rng):
    """Share each value in turn; returns ``{party id: [Share per value]}``.

    One :func:`repro.crypto.shamir.share_secret` per value, so ``rng`` is
    drawn secret-major (the t coefficients of value 0, then of value 1, ...).
    """
    per_party = {pid: [] for pid in party_ids}
    for value in values:
        for share in shamir.share_secret(value, threshold, party_ids, field, rng):
            per_party[share.x].append(share)
    return per_party


@pytest.fixture
def env():
    return small_env()
