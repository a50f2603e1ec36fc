"""What the runtime *releases* follows the calibrated distribution.

``tests/test_dp_properties.py`` checks the mechanisms' samplers and the
reference interpreter. This module checks the other end: the values that
``QueryExecutor.run()`` opens after intake, decryption, the committees' MPC
noise and the comparison tournament — over fixed seeds on one tiny
deployment, so the verdict is deterministic. The program releases a winner
and *then* a noisy count. Every noise draw comes off its own labelled
substream and the committees' dealers keep the executor's rng, so a change
that moves the dealers' draws (any new comparison circuit) releases the very
same values — checked by one dealer that draws once more per triple — and
they must be Laplace(sens/ε) counts and exp(ε·score / 2·sens) winners.

Each check also has to *fail* when the runtime is broken the way such a
change could break it: a noise share dealt at the wrong scale, a candidate
that never gets its Gumbel draw. ``make release-check`` runs the same tests
over ``REPRO_RELEASE_SEEDS=2000`` seeds.
"""

import itertools
import math
import os
import random
from collections import Counter

import pytest
from scipy import stats

from repro import Planner, QueryExecutor
from repro.mpc.beaver import OfflineDealer
from repro.mpc import protocols
from repro.runtime import executor as executor_module
from repro.runtime.network import FederatedNetwork
from tests.oracles.reference_interp import one_hot_database, run_reference

from .conftest import small_env

SEEDS = range(int(os.environ.get("REPRO_RELEASE_SEEDS", "200")))
EPSILON, SENSITIVITY = 1.0, 1.0
#: The mutants have to be caught on fewer runs than clear the honest runtime.
MUTANT_SEEDS = SEEDS[: 3 * len(SEEDS) // 5]
#: Every device's category, the same in every run: 9, 8 and 7 devices.
COUNTS = [9, 8, 7]
VALUES = [category for category, count in enumerate(COUNTS) for _ in range(count)]
#: A statistic this unlikely under the calibrated distribution is a failure.
ALPHA = 0.01

PROGRAM = "aggr = sum(db); output(em(aggr)); output(laplace(aggr[0], sens / epsilon));"


@pytest.fixture(scope="module")
def planning():
    env = small_env(
        num_participants=len(VALUES),
        categories=len(COUNTS),
        epsilon=EPSILON,
        sensitivity=SENSITIVITY,
    )
    result = Planner(env).plan_source(PROGRAM, "release")
    assert result.succeeded
    return result


def released(planning, seeds):
    """One full run per seed on the same 24 devices: (winners, noisy counts)."""
    outputs = []
    for seed in seeds:
        network = FederatedNetwork(len(VALUES), rng=random.Random(seed))
        for device, value in zip(network.devices, VALUES):
            device.value = value
        result = QueryExecutor(network, planning, committee_size=3, key_prime_bits=64).run()
        assert not result.rejected_devices
        outputs.append(result.outputs)
    return tuple(zip(*outputs))


@pytest.fixture(scope="module")
def honest(planning):
    return released(planning, SEEDS)


def check_counts(counts):
    """KS of the released noise against Laplace(sens/ε) centred on the truth,
    signed (location, symmetry) and folded (|noise| is exponential: a wrong
    scale shows at twice the distance there)."""
    noise = [count - COUNTS[0] for count in counts]
    scale = SENSITIVITY / EPSILON
    signed = stats.kstest(noise, stats.laplace(scale=scale).cdf)
    folded = stats.kstest([abs(x) for x in noise], stats.expon(scale=scale).cdf)
    assert min(signed.pvalue, folded.pvalue) > ALPHA, (
        f"KS signed D={signed.statistic:.4f} p={signed.pvalue:.2e}, "
        f"folded D={folded.statistic:.4f} p={folded.pvalue:.2e}, n={len(noise)}"
    )
    return signed, folded


def check_winners(winners):
    """Chi-square of the winners against the exponential mechanism's weights."""
    weights = [math.exp(EPSILON * score / (2.0 * SENSITIVITY)) for score in COUNTS]
    expected = [len(winners) * weight / sum(weights) for weight in weights]
    tally = Counter(winners)
    observed = [tally[category] for category in range(len(COUNTS))]
    assert sum(observed) == len(winners)
    chi = stats.chisquare(observed, expected)
    assert chi.pvalue > ALPHA, (
        f"chi-square X2={chi.statistic:.2f} p={chi.pvalue:.2e} observed={observed}"
    )
    return chi


def test_counts_carry_the_calibrated_laplace_noise(honest):
    check_counts(honest[1])


def test_winners_follow_the_exponential_weights(honest):
    check_winners(honest[0])


def test_count_mean_agrees_with_the_reference_interpreter(honest):
    database = one_hot_database(VALUES, len(COUNTS))
    reference = [
        run_reference(PROGRAM, database, EPSILON, SENSITIVITY, random.Random(seed))[1]
        for seed in SEEDS
    ]
    # Both are means of n draws of variance 2(sens/ε)²; four sigma of the gap.
    sigma = math.sqrt(2 * 2 * (SENSITIVITY / EPSILON) ** 2 / len(SEEDS))
    gap = sum(honest[1]) / len(SEEDS) - sum(reference) / len(SEEDS)
    assert abs(gap) < 4 * sigma, f"runtime − reference mean {gap:+.4f} (sigma {sigma:.4f})"


@pytest.mark.parametrize("factor", [2.0, 0.5], ids=["twice", "half"])
def test_fails_on_noise_shares_dealt_at_the_wrong_scale(planning, monkeypatch, factor):
    """The committee's Laplace sample is drawn at ``factor`` × its scale."""
    sample = protocols.laplace_sample
    monkeypatch.setattr(
        protocols, "laplace_sample", lambda scale, rng: sample(factor * scale, rng)
    )
    with pytest.raises(AssertionError, match="KS signed D="):
        check_counts(released(planning, MUTANT_SEEDS)[1])


def test_fails_on_a_dropped_gumbel_draw(planning, monkeypatch):
    """The last candidate of every run enters the tournament un-noised."""
    calls = itertools.count()

    def dropping(engine, scale, rng):
        if next(calls) % len(COUNTS) == len(COUNTS) - 1:
            return engine.noise(0)
        return protocols.shared_gumbel_noise(engine, scale, rng)

    monkeypatch.setattr(executor_module, "shared_gumbel_noise", dropping)
    with pytest.raises(AssertionError, match="chi-square X2="):
        check_winners(released(planning, MUTANT_SEEDS)[0])


def test_a_dealer_draw_moves_no_released_value(planning, monkeypatch):
    """A dealer that draws one more value per triple, as a circuit needing
    one more triple would, leaves every released winner and count alone."""
    seeds = range(8)
    before = released(planning, seeds)
    triple = OfflineDealer.triple

    def one_more_draw(self):
        self._rng.random()
        return triple(self)

    monkeypatch.setattr(OfflineDealer, "triple", one_more_draw)
    assert released(planning, seeds) == before
