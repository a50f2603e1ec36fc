"""Tests for the extension features: manual certificates (CertiPriv-style),
quantile queries, and CostCO-style auto-calibration."""

import random

import pytest

from repro.lang.parser import parse
from repro.planner.costmodel import CostModel
from repro.planner.search import Planner, plan_query
from repro.privacy.certify import CertificationError, certify, manual_certificate
from repro.queries.extensions import quantile_query, range_count_query
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from tests.conftest import small_env


class TestManualCertificates:
    # A program whose conservative auto-certification fails: it releases a
    # value computed through a nonlinear product. The analyst knows the
    # product is bounded (every factor is 0/1) and supplies their own proof.
    SOURCE = """
    aggr = sum(db);
    x = aggr[0] * aggr[1];
    n = laplace(clip(x, 0, 100), 100 * sens / epsilon);
    output(n);
    """

    def test_auto_certification_accepts_clipped(self, env):
        # With the clip the program certifies automatically; strip the clip
        # to make the rejection case.
        rejected = self.SOURCE.replace("clip(x, 0, 100)", "x")
        with pytest.raises(CertificationError):
            certify(parse(rejected), env)

    def test_manual_certificate_plans(self, env):
        rejected = self.SOURCE.replace("clip(x, 0, 100)", "x")
        program = parse(rejected)
        cert = manual_certificate(program, env, epsilon=0.7, delta=1e-10)
        result = Planner(env).plan_program(program, "manual", certificate=cert)
        assert result.succeeded
        assert result.certificate.epsilon == pytest.approx(0.7)
        assert result.certificate.mechanisms[0].mechanism == "manual"

    def test_invalid_claims_rejected(self, env):
        program = parse(self.SOURCE)
        with pytest.raises(ValueError):
            manual_certificate(program, env, epsilon=0.0)
        with pytest.raises(ValueError):
            manual_certificate(program, env, epsilon=1.0, delta=-1.0)

    def test_manual_certificate_still_type_checks(self, env):
        program = parse("aggr = sum(db); output(em(undefined_var));")
        from repro.analysis.types import AnalysisError

        with pytest.raises(AnalysisError):
            manual_certificate(program, env, epsilon=1.0)


class TestQuantileQueries:
    def test_median_special_case(self):
        spec = quantile_query(0.5, categories=8)
        env = spec.environment(num_participants=10**6, categories=8)
        result = plan_query(spec.source, env, name=spec.name)
        assert result.succeeded

    @pytest.mark.parametrize("q", [0.25, 0.75, 0.9])
    def test_quantile_plans(self, q):
        spec = quantile_query(q, categories=8)
        env = spec.environment(num_participants=10**6, categories=8)
        assert plan_query(spec.source, env, name=spec.name).succeeded

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            quantile_query(0.0)
        with pytest.raises(ValueError):
            quantile_query(1.0)

    def test_quantile_end_to_end(self):
        """The 0.75-quantile of a population concentrated in bins 5-6."""
        spec = quantile_query(0.75, categories=8)
        env = spec.environment(num_participants=48, categories=8, epsilon=8.0)
        planning = plan_query(spec.source, env, name=spec.name)
        net = FederatedNetwork(48, rng=random.Random(41))
        net.load_categorical_data(8, distribution=[4, 4, 4, 4, 4, 20, 8, 1])
        result = QueryExecutor(
            net, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(42),
        ).run()
        assert result.value in (5, 6)


class TestRangeCount:
    def test_plans_and_runs(self):
        spec = range_count_query(2, 5, categories=8)
        env = spec.environment(num_participants=48, categories=8, epsilon=8.0)
        planning = plan_query(spec.source, env, name=spec.name)
        net = FederatedNetwork(48, rng=random.Random(43))
        net.load_categorical_data(8)
        result = QueryExecutor(
            net, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(44),
        ).run()
        truth = sum(1 for d in net.devices if 2 <= d.value <= 5)
        assert abs(result.value - truth) < 6.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            range_count_query(5, 2)


class TestAutoCalibration:
    def test_calibrated_model_usable(self):
        model = CostModel.calibrated_from_engine(num_parties=4, operations=8)
        assert model.constants["mpc_triple_seconds"] > 0
        assert model.constants["mpc_comparison_triples"] >= 1
        assert model.constants["mpc_comparison_rounds"] >= 1
        # Non-MPC constants keep the paper-anchored defaults.
        assert model.constants["zkp_verify"] == CostModel().constants["zkp_verify"]

    def test_calibrated_model_plans(self, env):
        model = CostModel.calibrated_from_engine(
            num_parties=4, operations=8, platform_scale=100.0
        )
        result = Planner(env, model=model).plan_source(
            "aggr = sum(db); output(em(aggr));", "calibrated"
        )
        assert result.succeeded

    def test_comparison_counts_match_protocol(self):
        """Derived comparison counts are the engine's mod-2^k circuit at its
        ``bit_width=32``: k - 1 triples and k rounds, whatever was compared."""
        model = CostModel.calibrated_from_engine(num_parties=4, operations=8)
        assert model.constants["mpc_comparison_triples"] == 31
        assert model.constants["mpc_comparison_rounds"] == 32
