"""Tests for the aggregator node (§5.3, §5.4)."""

import random

import pytest

from repro.crypto import paillier
from repro.crypto.zkp import one_hot_statement, prove, range_statement, verify
from repro.runtime.aggregator import (
    AggregatorNode,
    Upload,
    ciphertext_vector_digest,
)

RNG = random.Random(5)
KEY = paillier.keygen(bits=128, rng=RNG)
PK = KEY.public


def make_upload(device_id, vector, malformed=False):
    cts = [paillier.encrypt(PK, v, RNG) for v in vector]
    digest = ciphertext_vector_digest(cts)
    witness = vector if not malformed else vector
    proof = prove(one_hot_statement(len(vector)), witness, device_id, 0, digest)
    return Upload(device_id, cts, proof, witness)


def verified(agg, width=3, round_number=0):
    """The flat intake as the executor runs it: this query's statement and round."""
    return agg.verify_uploads(one_hot_statement(width), round_number)


class TestUploadVerification:
    def test_valid_uploads_accepted(self):
        agg = AggregatorNode(PK)
        agg.receive_upload(make_upload(1, [1, 0, 0]))
        agg.receive_upload(make_upload(2, [0, 0, 1]))
        accepted = verified(agg)
        assert len(accepted) == 2
        assert agg.rejected == []

    def test_malformed_rejected(self):
        agg = AggregatorNode(PK)
        agg.receive_upload(make_upload(1, [1, 0, 0]))
        agg.receive_upload(make_upload(2, [1, 1, 0]))  # two-hot
        accepted = verified(agg)
        assert [u.device_id for u in accepted] == [1]
        assert agg.rejected == [2]

    def test_ciphertext_swap_detected(self):
        """A proof is bound to its ciphertexts: swapping them post-hoc
        (e.g. by a Byzantine aggregator) fails verification."""
        agg = AggregatorNode(PK)
        agg.receive_upload(make_upload(1, [1, 0, 0]))
        agg.tamper_with_upload(0)
        accepted = verified(agg)
        assert accepted == []
        assert agg.rejected == [1]


class TestReplayedProofs:
    """The proof must be the one for this uploader, round and statement:
    :func:`zkp.verify` alone accepts each of these, and so did the flat intake."""

    def _rejects(self, upload, round_number=0):
        assert verify(upload.proof, upload.witness)
        agg = AggregatorNode(PK)
        agg.receive_upload(make_upload(1, [0, 1, 0]))
        agg.receive_upload(upload)
        assert [u.device_id for u in verified(agg, round_number=round_number)] == [1]
        assert agg.rejected == [upload.device_id]
        assert agg.stats.uploads_verified == 1 and agg.stats.uploads_rejected == 1

    def test_another_devices_proof_over_the_same_ciphertexts(self):
        theirs = make_upload(7, [1, 0, 0])
        self._rejects(Upload(2, theirs.ciphertexts, theirs.proof, theirs.witness))

    def test_last_rounds_proof(self):
        agg = AggregatorNode(PK)
        stale = make_upload(2, [1, 0, 0])  # proved for round 0
        agg.receive_upload(stale)
        assert verify(stale.proof, stale.witness)
        assert verified(agg, round_number=1) == [] and agg.rejected == [2]

    def test_range_proof_offered_to_a_one_hot_query(self):
        vector = [1, 1, 0]  # not one-hot, but within [0, 1]
        cts = [paillier.encrypt(PK, v, RNG) for v in vector]
        proof = prove(range_statement(3, 0, 1), vector, 2, 0, ciphertext_vector_digest(cts))
        self._rejects(Upload(2, cts, proof, vector))


class TestAggregation:
    def test_sums_accepted_uploads(self):
        agg = AggregatorNode(PK)
        data = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
        for i, row in enumerate(data, start=1):
            agg.receive_upload(make_upload(i, row))
        totals = agg.aggregate([upload.ciphertexts for upload in verified(agg)])
        counts = [paillier.decrypt(KEY, ct) for ct in totals]
        assert counts == [1, 2, 1]
        assert agg.stats.ciphertext_additions == 3 * 3

    def test_no_uploads_rejected(self):
        agg = AggregatorNode(PK)
        with pytest.raises(ValueError, match="no ciphertext vectors"):
            agg.aggregate([])

    def test_inconsistent_widths_rejected(self):
        agg = AggregatorNode(PK)
        ragged = [make_upload(1, [1, 0]).ciphertexts, make_upload(2, [1, 0, 0]).ciphertexts]
        with pytest.raises(ValueError, match="inconsistent widths"):
            agg.aggregate(ragged)


class TestAudits:
    def _committed(self):
        agg = AggregatorNode(PK)
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
        agg = AggregatorNode(PK)
        with pytest.raises(ValueError):
            agg.publish_step_root()


class TestMailbox:
    def test_post_and_fetch(self):
        agg = AggregatorNode(PK)
        agg.post("dec->noise", b"shares1")
        agg.post("dec->noise", b"shares2")
        assert agg.fetch("dec->noise") == [b"shares1", b"shares2"]
        assert agg.fetch("dec->noise") == []  # drained

    def test_channels_isolated(self):
        agg = AggregatorNode(PK)
        agg.post("a", 1)
        agg.post("b", 2)
        assert agg.fetch("a") == [1]
        assert agg.fetch("b") == [2]
