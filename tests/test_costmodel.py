"""Tests for the cost model (§4.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.costmodel import (
    Constraints,
    CostModel,
    CostVector,
    Goal,
    PARTICIPANT_DEVICE,
    REFERENCE_SERVER,
    SchemeParams,
    Work,
    ahe_params_for,
    fhe_params_for,
    min_ring_degree_log2,
)


class TestCostVector:
    def test_addition(self):
        a = CostVector(1, 2, 3, 4, 5, 6)
        b = CostVector(10, 20, 30, 40, 50, 60)
        total = a + b
        assert total.aggregator_core_seconds == 11
        assert total.participant_max_bytes == 66

    def test_get(self):
        c = CostVector(aggregator_bytes=7.0)
        assert c.get("aggregator_bytes") == 7.0
        with pytest.raises(KeyError):
            c.get("nonsense")

    def test_max_fields(self):
        a = CostVector(1, 20, 3, 40, 5, 60)
        b = CostVector(10, 2, 30, 4, 50, 6)
        m = a.max_fields(b)
        assert m.aggregator_core_seconds == 10
        assert m.aggregator_bytes == 20


class TestConstraints:
    def test_unlimited_allows_everything(self):
        assert Constraints().allows(CostVector(1e18, 1e18, 1e18, 1e18, 1e18, 1e18))

    def test_violation_detected(self):
        limits = Constraints(participant_max_seconds=10.0)
        ok = CostVector(participant_max_seconds=9.0)
        bad = CostVector(participant_max_seconds=11.0)
        assert limits.allows(ok)
        assert not limits.allows(bad)
        assert limits.first_violation(bad) == "participant_max_seconds"
        assert limits.first_violation(ok) is None


class TestGoal:
    def test_primary_metric_dominates(self):
        goal = Goal("participant_expected_seconds")
        cheap = CostVector(participant_expected_seconds=1.0, aggregator_bytes=1e15)
        pricey = CostVector(participant_expected_seconds=2.0)
        assert goal.score(cheap) < goal.score(pricey)

    def test_ties_broken_by_composite(self):
        goal = Goal("participant_expected_seconds")
        a = CostVector(participant_expected_seconds=1.0, aggregator_bytes=1e12)
        b = CostVector(participant_expected_seconds=1.0, aggregator_bytes=1e6)
        # b beats the incumbent a on the tie-break; a does not beat b.
        assert goal.better(b, goal.score(a), goal.composite(a))
        assert not goal.better(a, goal.score(b), goal.composite(b))

    def test_tie_break_never_overrides_primary(self):
        goal = Goal("participant_expected_seconds")
        cheap_primary = CostVector(
            participant_expected_seconds=1.0, aggregator_bytes=1e18
        )
        pricey_primary = CostVector(participant_expected_seconds=1.01)
        assert goal.better(
            cheap_primary,
            goal.score(pricey_primary),
            goal.composite(pricey_primary),
        )

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            Goal("wall_clock")


class TestSchemes:
    def test_ahe_ring_grows_with_categories(self):
        small = ahe_params_for(1)
        large = ahe_params_for(2**15)
        assert small.ring_log2 == 11
        assert large.ring_log2 == 15
        assert large.ciphertext_bytes > small.ciphertext_bytes

    def test_fhe_typical_size(self):
        params = fhe_params_for(2**15, depth=2)
        assert params.ring_log2 == 15
        # ~1 MB ciphertexts, like the paper's BGV configuration (§6).
        assert 0.8e6 < params.ciphertext_bytes < 1.5e6

    def test_fhe_depth_scales_modulus(self):
        shallow = fhe_params_for(100, depth=2)
        deep = fhe_params_for(100, depth=8)
        assert deep.ciphertext_modulus_bits > shallow.ciphertext_modulus_bits

    def test_key_sizes(self):
        params = ahe_params_for(100)
        assert params.public_key_bytes == params.ciphertext_bytes
        assert params.secret_key_elements == params.slots


class TestParams:
    """The BGV parameter model: the HE-standard table and the levels model."""

    def test_paper_typical_parameters(self):
        """§6: a 135-bit modulus at degree 2^15 makes ~1.1 MB ciphertexts."""
        params = SchemeParams("fhe", 15, 135)
        assert params.slots == 2**15
        assert params.ciphertext_bytes == 2 * 2**15 * 17
        assert 1.0e6 < params.ciphertext_bytes < 1.2e6
        assert min_ring_degree_log2(135) <= params.ring_log2

    def test_security_table_enforced(self):
        assert min_ring_degree_log2(135) == 13  # ring 2^12 is below the table
        assert min_ring_degree_log2(881) == 15
        with pytest.raises(ValueError, match="882-bit"):
            min_ring_degree_log2(882)

    def test_min_ring_degree_monotone(self):
        degrees = [min_ring_degree_log2(b) for b in range(1, 882)]
        assert degrees == sorted(degrees)
        assert (degrees[0], degrees[-1]) == (10, 15)

    def test_for_depth_scales_modulus(self):
        """Deeper FHE is priced at a bigger modulus with more levels; the
        planner's depth 6 gets 335 bits, which hold only 5."""
        shallow, deep = fhe_params_for(64, depth=1), fhe_params_for(64, depth=5)
        assert deep.ciphertext_modulus_bits > shallow.ciphertext_modulus_bits
        assert deep.levels > shallow.levels
        planned = fhe_params_for(64, depth=6)
        assert (planned.ciphertext_modulus_bits, planned.levels) == (335, 5)

    def test_max_levels_positive_for_defaults(self):
        assert SchemeParams("fhe", 15, 135).levels == 2
        assert SchemeParams("fhe", 13, 182).levels == 2
        assert SchemeParams("fhe", 13, 183).levels == 3
        assert ahe_params_for(64).levels == 0


class TestModel:
    def test_unknown_constant_rejected(self):
        with pytest.raises(KeyError):
            CostModel({"warp_drive_seconds": 1.0})

    def test_override(self):
        model = CostModel({"zkp_verify": 1.0})
        work = Work(zkp_verifications=10)
        assert model.compute_seconds(work) == pytest.approx(10.0)

    def test_device_scaling(self):
        model = CostModel()
        work = Work(zkp_verifications=100)
        server = model.device_seconds(work, REFERENCE_SERVER)
        device = model.device_seconds(work, PARTICIPANT_DEVICE)
        assert device == pytest.approx(server * 8.0)

    def test_mpc_costs_scale_with_committee(self):
        model = CostModel()
        work = Work(mpc_setup=1, mpc_comparisons=5)
        small = model.traffic_bytes(work, committee_size=5)
        large = model.traffic_bytes(work, committee_size=50)
        assert large > small

    def test_keygen_anchor(self):
        """§7.2: keygen costs ~700 MB and ~14 min per member at m~40."""
        model = CostModel()
        work = Work(dist_keygens=1.0)
        seconds = model.compute_seconds(work, committee_size=40)
        bytes_sent = model.traffic_bytes(work, committee_size=40)
        assert 10 * 60 < seconds < 18 * 60
        assert 0.5e9 < bytes_sent < 0.9e9

    def test_fixed_seconds_passthrough(self):
        model = CostModel()
        assert model.compute_seconds(Work(fixed_seconds=2.5)) == pytest.approx(2.5)

    def test_work_merge(self):
        a = Work(he_additions=2, ring_slots=1024)
        b = Work(he_additions=3, ring_slots=2048)
        merged = a.merge(b)
        assert merged.he_additions == 5
        assert merged.ring_slots == 2048


@given(
    adds=st.integers(min_value=0, max_value=10**6),
    slots=st.sampled_from([1024, 4096, 32768]),
)
@settings(max_examples=50)
def test_compute_seconds_monotone_in_work(adds, slots):
    model = CostModel()
    smaller = Work(he_additions=adds, ring_slots=slots)
    bigger = Work(he_additions=adds + 1, ring_slots=slots)
    assert model.compute_seconds(bigger) >= model.compute_seconds(smaller)
