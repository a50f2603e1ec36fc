"""Tests for the DP mechanisms."""

import math
import random
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.mechanisms import (
    dp_median_from_histogram,
    exponential_mechanism_expo,
    exponential_mechanism_gumbel,
    gumbel_sample,
    laplace_mechanism,
    laplace_sample,
    noisy_max_with_gap,
    quantile_rank,
    top_k_oneshot,
    top_k_pay_what_you_get,
)


class TestLaplace:
    def test_moments(self):
        rng = random.Random(1)
        samples = [laplace_sample(2.0, rng) for _ in range(20000)]
        assert abs(statistics.mean(samples)) < 0.1
        assert abs(statistics.pvariance(samples) - 8.0) < 0.8

    def test_a_zero_draw_is_redrawn(self):
        """u = 0 would take log(0); the sampler draws again, as
        ``gumbel_sample`` does, and uses the next value of the stream."""

        class ZeroFirst(random.Random):
            zero_pending = True

            def random(self):
                if self.zero_pending:
                    self.zero_pending = False
                    return 0.0
                return super().random()

        assert laplace_sample(2.0, ZeroFirst(5)) == laplace_sample(2.0, random.Random(5))

    def test_mechanism_centers_on_value(self):
        rng = random.Random(2)
        noised = [laplace_mechanism(100.0, 1.0, 1.0, rng) for _ in range(5000)]
        assert abs(statistics.mean(noised) - 100.0) < 0.2

    def test_invalid_parameters(self):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, -1.0, 1.0, rng)
        with pytest.raises(ValueError):
            laplace_sample(0.0, rng)


class TestExponentialMechanism:
    def _empirical_distribution(self, mechanism, scores, eps, runs=4000, seed=0):
        rng = random.Random(seed)
        counts = Counter(mechanism(scores, 1.0, eps, rng) for _ in range(runs))
        return [counts.get(i, 0) / runs for i in range(len(scores))]

    def test_gumbel_matches_expo_distribution(self):
        """The two instantiations of Fig 4 sample the same distribution."""
        scores = [0.0, 2.0, 4.0]
        eps = 1.0
        p_expo = self._empirical_distribution(exponential_mechanism_expo, scores, eps, seed=1)
        p_gumbel = self._empirical_distribution(
            exponential_mechanism_gumbel, scores, eps, seed=2
        )
        for a, b in zip(p_expo, p_gumbel):
            assert abs(a - b) < 0.05

    def test_matches_theoretical_weights(self):
        scores = [0.0, 1.0, 3.0]
        eps = 2.0
        weights = [math.exp(eps * s / 2.0) for s in scores]
        total = sum(weights)
        expected = [w / total for w in weights]
        observed = self._empirical_distribution(
            exponential_mechanism_gumbel, scores, eps, runs=8000, seed=3
        )
        for o, e in zip(observed, expected):
            assert abs(o - e) < 0.04

    def test_base2_variant(self):
        """Ilvento's base-2 EM (§6) still prefers higher scores."""
        rng = random.Random(4)
        winners = Counter(
            exponential_mechanism_expo([0.0, 10.0], 1.0, 2.0, rng, base=2.0)
            for _ in range(500)
        )
        assert winners[1] > winners[0]

    def test_dominant_score_wins(self):
        rng = random.Random(5)
        assert exponential_mechanism_gumbel([0, 0, 1000, 0], 1.0, 1.0, rng) == 2

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            exponential_mechanism_gumbel([], 1.0, 1.0, random.Random(0))

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            exponential_mechanism_expo([1.0], 1.0, 0.0, random.Random(0))


class TestTopK:
    def test_pay_what_you_get_distinct(self):
        rng = random.Random(6)
        scores = [100, 90, 80, 0, 0, 0]
        chosen = top_k_pay_what_you_get(scores, 3, 1.0, 5.0, rng)
        assert len(set(chosen)) == 3
        assert set(chosen) == {0, 1, 2}

    def test_oneshot_distinct(self):
        rng = random.Random(7)
        scores = [100, 90, 80, 0, 0, 0]
        chosen = top_k_oneshot(scores, 3, 1.0, 5.0, rng)
        assert len(set(chosen)) == 3
        assert set(chosen) == {0, 1, 2}

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k_oneshot([1.0], 2, 1.0, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            top_k_pay_what_you_get([1.0, 2.0], 0, 1.0, 1.0, random.Random(0))


class TestGap:
    def test_clear_gap(self):
        rng = random.Random(8)
        winner, gap = noisy_max_with_gap([0.0, 100.0, 50.0], 1.0, 10.0, rng)
        assert winner == 1
        assert 20.0 < gap < 80.0

    def test_gap_nonnegative(self):
        rng = random.Random(9)
        for _ in range(50):
            _w, gap = noisy_max_with_gap([1.0, 1.0], 1.0, 0.5, rng)
            assert gap >= 0.0

    def test_needs_two_candidates(self):
        with pytest.raises(ValueError):
            noisy_max_with_gap([1.0], 1.0, 1.0, random.Random(0))


class TestMedian:
    def test_quantile_rank(self):
        assert quantile_rank(100, 0.5) == 50
        assert quantile_rank(101, 0.5) == 51
        assert quantile_rank(100, 0.25) == 25
        with pytest.raises(ValueError):
            quantile_rank(100, 0.0)

    def test_median_selects_correct_bin(self):
        rng = random.Random(10)
        # Median of [0]*10 + [1]*80 + [2]*10 lives in bin 1.
        hist = [10, 80, 10]
        winners = Counter(
            dp_median_from_histogram(hist, 1.0, 5.0, rng) for _ in range(200)
        )
        assert winners.most_common(1)[0][0] == 1

    def test_quantile_selection(self):
        rng = random.Random(11)
        hist = [50, 10, 40]
        winners = Counter(
            dp_median_from_histogram(hist, 1.0, 5.0, rng, quantile=0.9)
            for _ in range(200)
        )
        assert winners.most_common(1)[0][0] == 2

    def test_empty_histogram(self):
        with pytest.raises(ValueError):
            dp_median_from_histogram([0, 0], 1.0, 1.0, random.Random(0))


@given(
    scores=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50)
def test_em_returns_valid_index(scores, seed):
    rng = random.Random(seed)
    index = exponential_mechanism_gumbel(scores, 1.0, 1.0, rng)
    assert 0 <= index < len(scores)
    index2 = exponential_mechanism_expo(scores, 1.0, 1.0, rng)
    assert 0 <= index2 < len(scores)
