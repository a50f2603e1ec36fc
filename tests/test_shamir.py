"""Tests for Shamir secret sharing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import MERSENNE_61, PrimeField
from repro.crypto.shamir import (
    Share,
    add_shares,
    lagrange_coefficients_at_zero,
    reconstruct_secret,
    scale_share,
    share_secret,
)

FIELD = PrimeField(MERSENNE_61)


class TestSharing:
    def test_roundtrip(self, rng):
        shares = share_secret(42, 2, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(shares[:3], FIELD) == 42

    def test_any_quorum_reconstructs(self, rng):
        shares = share_secret(777, 2, [1, 2, 3, 4, 5], FIELD, rng)
        import itertools

        for quorum in itertools.combinations(shares, 3):
            assert reconstruct_secret(quorum, FIELD) == 777

    def test_too_few_shares_give_garbage(self, rng):
        shares = share_secret(1234, 3, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(shares[:3], FIELD) != 1234  # w.h.p.

    def test_degree_zero_sharing(self, rng):
        shares = share_secret(9, 0, [1, 2, 3], FIELD, rng)
        assert all(s.y == 9 for s in shares)

    def test_rejects_duplicate_ids(self, rng):
        with pytest.raises(ValueError):
            share_secret(1, 1, [1, 1, 2], FIELD, rng)

    def test_rejects_party_zero(self, rng):
        with pytest.raises(ValueError):
            share_secret(1, 1, [0, 1, 2], FIELD, rng)

    def test_rejects_underfull_committee(self, rng):
        with pytest.raises(ValueError):
            share_secret(1, 3, [1, 2, 3], FIELD, rng)

    def test_reconstruct_empty_raises(self):
        with pytest.raises(ValueError):
            reconstruct_secret([], FIELD)

    def test_secrecy_of_single_share(self, rng):
        """Any single share of a degree-1 sharing is uniform-ish: two
        different secrets can produce the same share value."""
        share_values = set()
        for _ in range(200):
            shares = share_secret(5, 1, [1, 2, 3], FIELD, rng)
            share_values.add(shares[0].y)
        # With 200 fresh sharings of the same secret, party 1's share takes
        # many different values — the share alone carries no information.
        assert len(share_values) > 190


class TestHomomorphism:
    def test_share_addition(self, rng):
        a = share_secret(10, 2, [1, 2, 3, 4, 5], FIELD, rng)
        b = share_secret(32, 2, [1, 2, 3, 4, 5], FIELD, rng)
        summed = [add_shares(x, y, FIELD) for x, y in zip(a, b)]
        assert reconstruct_secret(summed[:3], FIELD) == 42

    def test_mismatched_parties_cannot_add(self, rng):
        a = share_secret(1, 1, [1, 2, 3], FIELD, rng)
        with pytest.raises(ValueError):
            add_shares(a[0], Share(2, 5), FIELD)

    def test_scalar_multiplication(self, rng):
        a = share_secret(7, 2, [1, 2, 3, 4, 5], FIELD, rng)
        scaled = [scale_share(s, 6, FIELD) for s in a]
        assert reconstruct_secret(scaled[:3], FIELD) == 42


class TestLagrange:
    def test_weights_sum_property(self):
        # Interpolating the constant polynomial 1 must give 1.
        weights = lagrange_coefficients_at_zero([1, 2, 3], FIELD)
        assert sum(weights) % FIELD.modulus == 1

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            lagrange_coefficients_at_zero([1, 1, 2], FIELD)


@given(
    secret=st.integers(min_value=0, max_value=MERSENNE_61 - 1),
    threshold=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60)
def test_roundtrip_property(secret, threshold):
    rng = random.Random(secret ^ threshold)
    ids = list(range(1, 11))
    shares = share_secret(secret, threshold, ids, FIELD, rng)
    rng.shuffle(shares)
    quorum = shares[: threshold + 1]
    assert reconstruct_secret(quorum, FIELD) == secret
