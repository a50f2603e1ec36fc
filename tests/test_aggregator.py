"""Tests for the aggregator node: its fold and its audited step log (§5.3)."""

import random

import pytest

from repro.crypto import paillier
from repro.runtime.aggregator import AggregatorNode

RNG = random.Random(5)
KEY = paillier.keygen(bits=128, rng=RNG)
PK = KEY.public


def encrypt_row(vector):
    return [paillier.encrypt(PK, v, RNG) for v in vector]


class TestAggregation:
    def test_sums_accepted_uploads(self):
        data = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
        totals = AggregatorNode().aggregate([encrypt_row(row) for row in data])
        counts = [paillier.decrypt(KEY, ct) for ct in totals]
        assert counts == [1, 2, 1]

    def test_no_uploads_rejected(self):
        agg = AggregatorNode()
        with pytest.raises(ValueError, match="no ciphertext vectors"):
            agg.aggregate([])

    def test_inconsistent_widths_rejected(self):
        agg = AggregatorNode()
        ragged = [encrypt_row([1, 0]), encrypt_row([1, 0, 0])]
        with pytest.raises(ValueError, match="inconsistent widths"):
            agg.aggregate(ragged)


class TestAudits:
    def _committed(self):
        agg = AggregatorNode()
        for i in range(4):
            agg.commit_step(f"step{i}", bytes([i]) * 32)
        return agg

    def test_honest_aggregator_passes_audits(self):
        agg = self._committed()
        assert agg.run_audits(random.Random(1), auditors=8) == 0

    def test_audit_answers_verify(self):
        from repro.crypto.merkle import verify_inclusion

        agg = self._committed()
        root = agg.publish_step_root()
        leaf, proof = agg.answer_audit(2)
        assert verify_inclusion(root, leaf, proof)

    def test_corrupted_step_caught(self):
        agg = self._committed()
        agg.publish_step_root()
        agg.corrupt_step(1)
        failures = agg.run_audits(random.Random(2), auditors=16, leaves_each=4)
        assert failures > 0

    def test_no_steps_rejected(self):
        agg = AggregatorNode()
        with pytest.raises(ValueError):
            agg.publish_step_root()
