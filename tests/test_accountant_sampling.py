"""Tests for privacy budget accounting and secrecy of the sample."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FederatedNetwork, Planner, QueryExecutor
from repro.planner.expand import Choice
from repro.privacy.accountant import BudgetExceeded, PrivacyAccountant, PrivacyCost
from repro.privacy.sampling import (
    BinSamplingPlan,
    amplified_epsilon,
    apply_mask,
    required_phi,
)
from repro.queries.catalog import ALL_QUERIES, get
from repro.runtime.executor import ExecutionError


class TestAccountant:
    def test_charges_accumulate(self):
        acc = PrivacyAccountant(epsilon_budget=1.0, delta_budget=1e-6)
        acc.charge(PrivacyCost(0.3), "q1")
        acc.charge(PrivacyCost(0.3), "q2")
        assert acc.spent.epsilon == pytest.approx(0.6)
        assert acc.remaining().epsilon == pytest.approx(0.4)

    def test_refuses_overdraw(self):
        acc = PrivacyAccountant(epsilon_budget=0.5)
        acc.charge(PrivacyCost(0.4), "q1")
        with pytest.raises(BudgetExceeded):
            acc.charge(PrivacyCost(0.2), "q2")
        # The failed charge left the balance untouched.
        assert acc.spent.epsilon == pytest.approx(0.4)
        assert len(acc.history) == 1

    def test_delta_budget_enforced(self):
        acc = PrivacyAccountant(epsilon_budget=10.0, delta_budget=1e-9)
        with pytest.raises(BudgetExceeded):
            acc.charge(PrivacyCost(0.1, 1e-6))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            PrivacyCost(-0.1)

    def test_history_labels(self):
        acc = PrivacyAccountant(epsilon_budget=1.0)
        acc.charge(PrivacyCost(0.5), "top1")
        assert acc.history[0][0] == "top1"


class TestAmplification:
    def test_formula(self):
        # ln(1 + phi(e^eps - 1))
        assert amplified_epsilon(1.0, 0.1) == pytest.approx(
            math.log(1 + 0.1 * (math.e - 1))
        )

    def test_small_phi_approximation(self):
        """§2.1: for eps <= 1 and small phi, close to 2*phi/eps... actually
        amplified eps ~ phi * eps for small phi and eps."""
        eps, phi = 0.5, 0.001
        amplified = amplified_epsilon(eps, phi)
        assert amplified == pytest.approx(phi * (math.exp(eps) - 1), rel=0.01)

    def test_phi_one_is_identity(self):
        assert amplified_epsilon(0.7, 1.0) == pytest.approx(0.7)

    def test_required_phi_inverts(self):
        eps = 2.0
        phi = required_phi(0.1, eps)
        assert amplified_epsilon(eps, phi) == pytest.approx(0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            amplified_epsilon(0.0, 0.5)
        with pytest.raises(ValueError):
            amplified_epsilon(1.0, 0.0)


class TestBinSampling:
    def test_for_fraction(self):
        plan = BinSamplingPlan.for_fraction(0.5, 8)
        assert plan.window == 4
        assert plan.fraction == pytest.approx(0.5)

    def test_window_bounds(self):
        assert BinSamplingPlan.for_fraction(0.0001, 8).window == 1
        assert BinSamplingPlan.for_fraction(0.9999, 8).window == 8
        with pytest.raises(ValueError):
            BinSamplingPlan(8, 9)

    def test_sampled_bins_wrap(self):
        plan = BinSamplingPlan(8, 3)
        assert plan.sampled_bins(6) == [6, 7, 0]

    def test_mask_matches_bins(self):
        plan = BinSamplingPlan(4, 2)
        mask = plan.selection_mask(3)
        assert mask == [1, 0, 0, 1]

    def test_is_sampled_consistent_with_mask(self):
        plan = BinSamplingPlan(8, 3)
        offset = 5
        mask = plan.selection_mask(offset)
        for b in range(8):
            assert plan.is_sampled(b, offset) == bool(mask[b])

    def test_apply_mask_sums_window(self):
        binned = [[1, 0], [2, 5], [0, 1], [4, 4]]
        mask = [1, 0, 0, 1]
        assert apply_mask(binned, mask) == [5, 4]

    def test_apply_mask_empty(self):
        with pytest.raises(ValueError):
            apply_mask([], [1])

    def test_sampling_fraction_statistics(self):
        """Devices picking uniform bins are sampled ~x/b of the time."""
        plan = BinSamplingPlan(16, 4)
        rng = random.Random(0)
        sampled = 0
        trials = 8000
        for _ in range(trials):
            offset = plan.choose_committee_offset(rng)
            bin_index = plan.choose_participant_bin(rng)
            if plan.is_sampled(bin_index, offset):
                sampled += 1
        assert abs(sampled / trials - 0.25) < 0.02


def _runtime_planning(spec):
    env = spec.environment(64, categories=8, epsilon=1.0)
    return Planner(env).plan_source(spec.source, spec.name)


def _executor(planning):
    network = FederatedNetwork(64, rng=random.Random(0))
    return QueryExecutor(network, planning, committee_size=4, key_prime_bits=96)


class TestRuntimeSampling:
    """The executor's bin layout against the φ the certificate amplified at."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="fail-open: the runtime decrypts window/bins > the certified φ "
        "(secrecy: 1/2 against 0.05); ROADMAP lists the fix",
    )
    def test_realized_fraction_within_certified_phi(self):
        # secrecy at 64 devices and ε = 1 certifies
        # ln(1 + 0.05(e − 1)) = 0.0824 but decrypts 1 of 2 bins:
        # ln(1 + 0.5(e − 1)) = 0.620. At ε = 0.1: 0.00524 against 0.0512.
        sampled = 0
        for spec in ALL_QUERIES:
            planning = _runtime_planning(spec)
            if planning.logical_plan.sample_fraction >= 1.0:
                continue
            sampled += 1
            phi = min(
                m.sample_phi for m in planning.certificate.mechanisms if m.sample_phi
            )
            _bins, layout = _executor(planning)._sampling_plan()
            real_epsilon = amplified_epsilon(1.0, layout.fraction)
            assert layout.fraction <= phi, (
                f"{spec.name}: certified ε {planning.certificate.epsilon:.3g} at "
                f"φ = {phi}, but the runtime decrypts {layout.window} of "
                f"{layout.num_bins} bins: ε {real_epsilon:.3g}"
            )
        if not sampled:  # not an AssertionError: a vacuous pass must not xfail
            pytest.fail("no catalog query samples")

    def test_one_bin_sampled_plan_refused(self):
        planning = _runtime_planning(get("secrecy"))
        choices = planning.plan.choice_list
        victim = next(i for i, c in enumerate(choices) if c.key.startswith("input"))
        choices[victim] = Choice(choices[victim].key, "direct_upload")
        with pytest.raises(ExecutionError, match="pack 1 bin"):
            _executor(planning)._sampling_plan()


@given(
    eps=st.floats(min_value=0.01, max_value=3.0),
    phi=st.floats(min_value=0.001, max_value=1.0),
)
@settings(max_examples=100)
def test_amplification_always_helps(eps, phi):
    amplified = amplified_epsilon(eps, phi)
    assert 0 < amplified <= eps + 1e-12
