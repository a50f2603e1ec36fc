"""Statistical differential-privacy verification.

These tests check the (ε, δ)-DP inequality empirically: run a mechanism
many times on two *neighboring* databases (differing in one participant)
and verify that no outcome's probability ratio exceeds e^ε beyond sampling
error. This is the strongest end-to-end check a reproduction can run on
its mechanisms — it catches both math bugs (wrong noise scale) and
plumbing bugs (noise added to the wrong quantity).
"""

import math
import random
from collections import Counter

import pytest

from repro.privacy.mechanisms import (
    exponential_mechanism_expo,
    exponential_mechanism_gumbel,
    laplace_mechanism,
)
from tests.oracles.reference_interp import one_hot_database, run_reference

#: Slack multiplier for sampling error: with ~20k runs per side, observed
#: ratios can exceed the true bound by a modest factor.
SLACK = 1.35


def max_probability_ratio(samples_a, samples_b):
    """Largest P_a(outcome)/P_b(outcome) over outcomes seen in both."""
    count_a, count_b = Counter(samples_a), Counter(samples_b)
    n_a, n_b = len(samples_a), len(samples_b)
    worst = 0.0
    for outcome, ca in count_a.items():
        cb = count_b.get(outcome, 0)
        if ca < 40 or cb < 40:
            continue  # too rare to estimate reliably
        worst = max(worst, (ca / n_a) / (cb / n_b))
    return worst


class TestLaplaceDP:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_ratio_bound(self, epsilon):
        rng = random.Random(100)
        runs = 20000
        # Neighboring counts: 10 vs 11 (one participant flips).
        a = [round(laplace_mechanism(10.0, 1.0, epsilon, rng)) for _ in range(runs)]
        b = [round(laplace_mechanism(11.0, 1.0, epsilon, rng)) for _ in range(runs)]
        ratio = max_probability_ratio(a, b)
        assert ratio <= math.exp(epsilon) * SLACK

    def test_wrong_scale_would_fail(self):
        """Sanity: noise at half the required scale violates the bound —
        the test has teeth."""
        rng = random.Random(101)
        epsilon = 1.0
        runs = 20000
        cheat = 2.5  # mechanism run with effectively 2.5x the epsilon
        a = [
            round(laplace_mechanism(10.0, 1.0, epsilon * cheat, rng))
            for _ in range(runs)
        ]
        b = [
            round(laplace_mechanism(11.0, 1.0, epsilon * cheat, rng))
            for _ in range(runs)
        ]
        ratio = max_probability_ratio(a, b)
        assert ratio > math.exp(epsilon) * SLACK


class TestExponentialMechanismDP:
    @pytest.mark.parametrize(
        "mechanism", [exponential_mechanism_gumbel, exponential_mechanism_expo]
    )
    def test_ratio_bound(self, mechanism):
        epsilon = 1.0
        runs = 20000
        rng = random.Random(102)
        scores_a = [3.0, 2.0, 1.0]
        scores_b = [2.0, 3.0, 1.0]  # one participant moved category
        a = [mechanism(scores_a, 1.0, epsilon, rng) for _ in range(runs)]
        b = [mechanism(scores_b, 1.0, epsilon, rng) for _ in range(runs)]
        ratio = max_probability_ratio(a, b)
        assert ratio <= math.exp(epsilon) * SLACK


class TestEndToEndQueryDP:
    def test_top1_reference_dp(self):
        """The whole top1 query (sum + em) satisfies its certified ε on
        neighboring one-hot databases."""
        epsilon = 1.0
        runs = 15000
        base = [0] * 6 + [1] * 5 + [2] * 5
        neighbor = list(base)
        neighbor[0] = 1  # one participant changes category
        source = "aggr = sum(db); output(em(aggr));"

        def sample(categories, seed):
            db = one_hot_database(categories, 3)
            rng = random.Random(seed)
            return [
                run_reference(source, db, epsilon=epsilon, rng=rng)[0]
                for _ in range(runs)
            ]

        a = sample(base, 103)
        b = sample(neighbor, 104)
        ratio = max_probability_ratio(a, b)
        # Changing one one-hot row moves two scores by 1 each (L∞=1); the
        # em guarantee is ε per draw.
        assert ratio <= math.exp(epsilon) * SLACK

    def test_laplace_count_reference_dp(self):
        epsilon = 1.0
        runs = 15000
        base = [0] * 8 + [1] * 8
        neighbor = [0] * 9 + [1] * 7
        source = "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"

        def sample(categories, seed):
            db = one_hot_database(categories, 2)
            rng = random.Random(seed)
            return [
                round(run_reference(source, db, epsilon=epsilon, rng=rng)[0])
                for _ in range(runs)
            ]

        a = sample(base, 105)
        b = sample(neighbor, 106)
        ratio = max_probability_ratio(a, b)
        assert ratio <= math.exp(epsilon) * SLACK
