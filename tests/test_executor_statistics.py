"""Statistical and adversarial end-to-end tests for the executor.

These are the heavier integration checks: output distributions of the
federated mechanisms (noise actually has the right scale after all the
fixpoint plumbing), and Byzantine-aggregator behaviour.
"""

import math
import random
import statistics

import pytest

from repro.crypto import paillier
from repro.planner.search import plan_query
from repro.queries.catalog import get
from repro.runtime import shard as shard_module
from repro.runtime.aggregator import AggregatorTree
from repro.runtime.executor import ExecutionError, QueryExecutor
from repro.runtime.network import FederatedNetwork
from tests.conftest import small_env

COUNT = "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"


class TestFederatedNoiseDistribution:
    def test_laplace_scale_correct(self):
        """Run the federated count query repeatedly on fixed data; the
        released values must center on the true count with the Laplace
        variance 2*(sens/eps)^2 that the certificate promises."""
        epsilon = 1.0  # scale 1.0 -> variance 2
        env = small_env(num_participants=32, categories=4, epsilon=epsilon)
        planning = plan_query(COUNT, env, name="count")
        network = FederatedNetwork(32, rng=random.Random(500))
        for device in network.devices:
            device.value = 0 if device.device_id <= 20 else 1
        true_count = 20
        samples = []
        for seed in range(40):
            executor = QueryExecutor(
                network,
                planning,
                committee_size=4,
                key_prime_bits=96,
                rng=random.Random(1000 + seed),
            )
            samples.append(executor.run().value)
            # Each run advances sortition; bring the registry back so runs
            # stay comparable.
        mean = statistics.mean(samples)
        variance = statistics.pvariance(samples)
        assert abs(mean - true_count) < 1.0
        assert 0.5 < variance < 8.0  # true variance 2, wide sampling band

    def test_em_randomizes_near_ties(self):
        """With two nearly-tied categories and moderate epsilon, the
        federated exponential mechanism must pick both sometimes."""
        spec = get("top1")
        env = spec.environment(33, categories=2, epsilon=0.4)
        planning = plan_query(spec.source, env, name="top1")
        network = FederatedNetwork(33, rng=random.Random(501))
        for device in network.devices:
            device.value = 0 if device.device_id <= 17 else 1
        winners = set()
        for seed in range(10):
            executor = QueryExecutor(
                network,
                planning,
                committee_size=4,
                key_prime_bits=96,
                rng=random.Random(2000 + seed),
            )
            winners.add(executor.run().value)
            if winners == {0, 1}:
                break
        assert winners == {0, 1}


class TestByzantineAggregator:
    def test_tampered_step_fails_audits(self, monkeypatch):
        """A Byzantine aggregator that rewrites a committed step is caught
        by the participant audits, and the query aborts (§5.3)."""
        spec = get("top1")
        env = spec.environment(40, categories=4, epsilon=8.0)
        planning = plan_query(spec.source, env, name="top1")
        network = FederatedNetwork(40, rng=random.Random(502))
        network.load_categorical_data(4)

        executor = QueryExecutor(
            network, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(503),
        )

        # Intercept: rewrite the root's fold step right before the audits run.
        original = AggregatorTree.run_audits

        def corrupt_then_audit(self, rng, auditors, leaves_each=2):
            steps = self.root.node.steps
            assert steps[-1].label == "fold"
            self.root.node.corrupt_step(len(steps) - 1)
            return original(self, rng, auditors, leaves_each)

        monkeypatch.setattr(AggregatorTree, "run_audits", corrupt_then_audit)
        with pytest.raises(ExecutionError, match="audits failed"):
            executor.run()

    def test_upload_tampering_only_hurts_the_tampered(self, monkeypatch):
        """If the aggregator corrupts stored uploads, the bound proofs fail
        and those uploads drop out — the query completes on the rest."""
        spec = get("top1")
        env = spec.environment(40, categories=4, epsilon=8.0)
        planning = plan_query(spec.source, env, name="top1")
        network = FederatedNetwork(40, rng=random.Random(504))
        network.load_categorical_data(4, distribution=[20, 1, 1, 1])

        executor = QueryExecutor(
            network, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(505),
        )
        # Intercept: corrupt two rows of the shard's upload batch between
        # the ``upload`` and ``verify`` stages.
        original = shard_module.verify_shard
        tampered = []

        def tamper_then_verify(batch, ctx):
            for k in (0, 1):
                batch.ciphertexts[k][0] = paillier.tampered(
                    batch.upload(k).ciphertexts[0]
                ).value
                tampered.append(batch.device_ids[k])
            return original(batch, ctx)

        monkeypatch.setattr(shard_module, "verify_shard", tamper_then_verify)
        result = executor.run()
        assert len(tampered) == 2
        assert result.rejected_devices == tampered
        assert result.value == 0  # dominant category still wins
