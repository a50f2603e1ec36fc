"""Tests for the higher-level committee protocols."""

import math
import random
import statistics

import pytest
from scipy import stats

from repro.mpc.engine import MPCEngine
from repro.mpc.protocols import (
    FIXPOINT_SCALE,
    from_fixpoint,
    shared_gumbel_noise,
    shared_laplace_noise,
    to_fixpoint,
)
from repro.privacy.mechanisms import gumbel_sample, laplace_sample
from tests.oracles.comparison_protocols import (
    noisy_argmax,
    noisy_max,
    prefix_sums,
    rank_search,
)


def make_engine(parties=4, seed=3, bit_width=40):
    return MPCEngine(parties, rng=random.Random(seed), bit_width=bit_width)


class TestFixpoint:
    def test_roundtrip(self):
        for x in (0.0, 1.0, -2.5, 3.14159):
            assert abs(from_fixpoint(to_fixpoint(x)) - x) < 1.0 / FIXPOINT_SCALE

    def test_scale_is_16_bits(self):
        assert FIXPOINT_SCALE == 1 << 16


class TestDistributedLaplace:
    def test_shared_noise_stays_secret_until_open(self):
        e = make_engine()
        noise = shared_laplace_noise(e, 1.0, random.Random(5))
        value = e.open(noise)  # only the joint opening reveals it
        assert isinstance(value, int)

    def test_shared_noise_distribution(self):
        """Opened samples are Laplace(b): mean 0 and variance 2b^2."""
        e = make_engine()
        rng = random.Random(17)
        scale = 2.0
        samples = [
            from_fixpoint(e.open(shared_laplace_noise(e, scale, rng)))
            for _ in range(4000)
        ]
        assert abs(statistics.mean(samples)) < 0.25
        assert abs(statistics.pvariance(samples) - 2 * scale * scale) < 1.5

    def test_one_sample_per_release(self):
        """A release adopts one sample from its substream; no member inputs
        a term of it in the clear."""
        e = make_engine()
        rng, twin = random.Random(5), random.Random(5)
        value = e.open(shared_laplace_noise(e, 2.0, rng))
        assert value == to_fixpoint(laplace_sample(2.0, twin))
        assert rng.getstate() == twin.getstate()
        assert e.counters.inputs == 0

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_invalid_scale(self, scale):
        with pytest.raises(ValueError):
            shared_laplace_noise(make_engine(), scale, random.Random(1))


class TestCoalitionResidual:
    """t colluding members of the Laplace committee learn nothing that
    narrows the noise: whatever values they fed in the clear, the opened
    release minus those values is still Laplace(b)."""

    #: A statistic this unlikely under Laplace(b) is a failure.
    ALPHA = 0.01

    def test_release_minus_the_coalitions_inputs_is_laplace(self, monkeypatch):
        scale, runs = 1.0, 2000
        e = MPCEngine(5, threshold=2, rng=random.Random(23))
        inputs = []
        spied = MPCEngine.input_values

        def spy(self, values):
            inputs.extend(values)
            return spied(self, values)

        monkeypatch.setattr(MPCEngine, "input_values", spy)
        rng = random.Random(29)
        residuals = []
        for _ in range(runs):
            inputs.clear()
            release = e.open(shared_laplace_noise(e, scale, rng))
            residuals.append(from_fixpoint(release - sum(inputs[: e.threshold])))
        ks = stats.kstest(residuals, stats.laplace(scale=scale).cdf)
        assert ks.pvalue > self.ALPHA, f"KS D={ks.statistic:.4f} p={ks.pvalue:.2e}"


class TestGumbel:
    def test_gumbel_sample_moments(self):
        rng = random.Random(3)
        samples = [gumbel_sample(1.0, rng) for _ in range(8000)]
        euler = 0.5772156649
        assert abs(statistics.mean(samples) - euler) < 0.1
        assert abs(statistics.pvariance(samples) - math.pi**2 / 6) < 0.3

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            gumbel_sample(0.0, random.Random(1))

    def test_shared_gumbel_opens_to_fixpoint_sample(self):
        e = make_engine()
        value = e.open(shared_gumbel_noise(e, 1.0, random.Random(9)))
        assert -64 * FIXPOINT_SCALE < value < 64 * FIXPOINT_SCALE


class TestNoisyArgmax:
    def test_clear_winner(self):
        e = make_engine()
        scores = [e.input_value(to_fixpoint(s)) for s in (0, 1, 50, 2)]
        winner = noisy_argmax(e, scores, noise_scale=0.5, rng=random.Random(2))
        assert winner == 2

    def test_randomization_with_close_scores(self):
        """With comparable scores the mechanism is randomized: both top
        candidates win sometimes (the exponential mechanism property)."""
        winners = set()
        for seed in range(12):
            e = make_engine(seed=seed)
            scores = [e.input_value(to_fixpoint(s)) for s in (10.0, 10.2)]
            winners.add(noisy_argmax(e, scores, 8.0, random.Random(seed)))
        assert winners == {0, 1}

    def test_noisy_max_returns_value(self):
        e = make_engine()
        scores = [e.input_value(to_fixpoint(s)) for s in (1, 30, 2)]
        index, value = noisy_max(e, scores, 0.5, random.Random(4))
        assert index == 1
        assert from_fixpoint(value) > 20


class TestRankSearch:
    def test_prefix_sums(self):
        e = make_engine()
        values = [e.input_value(v) for v in (1, 2, 3)]
        cums = [e.open(c) for c in prefix_sums(e, values)]
        assert cums == [1, 3, 6]

    def test_median_bin(self):
        e = make_engine()
        hist = [e.input_value(v) for v in (2, 3, 5, 1)]  # total 11, rank 6
        assert e.open(rank_search(e, hist, 6)) == 2

    def test_first_bin(self):
        e = make_engine()
        hist = [e.input_value(v) for v in (10, 1, 1)]
        assert e.open(rank_search(e, hist, 5)) == 0

    def test_last_bin(self):
        e = make_engine()
        hist = [e.input_value(v) for v in (1, 1, 10)]
        assert e.open(rank_search(e, hist, 12)) == 2

    def test_invalid_rank(self):
        e = make_engine()
        with pytest.raises(ValueError):
            rank_search(e, [e.input_value(1)], 0)

    def test_rank_search_matches_cleartext(self):
        rng = random.Random(8)
        for _ in range(5):
            hist = [rng.randrange(6) for _ in range(6)]
            total = sum(hist)
            if total == 0:
                continue
            rank = rng.randint(1, total)
            e = make_engine(seed=rng.randrange(1000))
            shared = [e.input_value(v) for v in hist]
            got = e.open(rank_search(e, shared, rank))
            cum = 0
            for i, count in enumerate(hist):
                cum += count
                if cum >= rank:
                    expected = i
                    break
            assert got == expected
