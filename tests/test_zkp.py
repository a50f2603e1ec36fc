"""Tests for input well-formedness proofs (§5.3)."""

from repro.crypto.zkp import (
    InputProof,
    one_hot_statement,
    prove,
    range_statement,
    verify,
)

DIGEST = b"\xab" * 32


class TestOneHot:
    def test_valid_one_hot(self):
        stmt = one_hot_statement(4)
        values = [0, 0, 1, 0]
        proof = prove(stmt, device_id=7, round_number=1, ciphertext_digest=DIGEST)
        assert verify(proof, values)

    def test_two_hot_rejected(self):
        stmt = one_hot_statement(4)
        values = [0, 1, 1, 0]
        proof = prove(stmt, 7, 1, DIGEST)
        assert not verify(proof, values)

    def test_all_zero_rejected(self):
        stmt = one_hot_statement(3)
        values = [0, 0, 0]
        proof = prove(stmt, 7, 1, DIGEST)
        assert not verify(proof, values)

    def test_non_binary_rejected(self):
        stmt = one_hot_statement(3)
        values = [0, 2, 0]
        proof = prove(stmt, 7, 1, DIGEST)
        assert not verify(proof, values)

    def test_wrong_length_rejected(self):
        stmt = one_hot_statement(3)
        proof = prove(stmt, 7, 1, DIGEST)
        assert not verify(proof, [1, 0])


class TestRange:
    def test_in_range(self):
        stmt = range_statement(3, 0, 120)
        values = [23, 0, 120]
        proof = prove(stmt, 1, 0, DIGEST)
        assert verify(proof, values)

    def test_out_of_range_rejected(self):
        stmt = range_statement(2, 0, 120)
        values = [1000, 5]  # the 1,000-year-old user of §5.3
        proof = prove(stmt, 1, 0, DIGEST)
        assert not verify(proof, values)

    def test_negative_rejected(self):
        stmt = range_statement(1, 0, 10)
        proof = prove(stmt, 1, 0, DIGEST)
        assert not verify(proof, [-1])


class TestBinding:
    def test_replay_to_other_device_fails(self):
        """Signed proofs prevent replay (§6: G16 is malleable)."""
        stmt = one_hot_statement(3)
        values = [1, 0, 0]
        proof = prove(stmt, device_id=7, round_number=1, ciphertext_digest=DIGEST)
        replayed = InputProof(
            statement=proof.statement,
            device_id=8,  # replaying another device's proof
            round_number=proof.round_number,
            ciphertext_digest=proof.ciphertext_digest,
            binding=proof.binding,
        )
        assert not verify(replayed, values)

    def test_replay_to_other_round_fails(self):
        stmt = one_hot_statement(3)
        values = [1, 0, 0]
        proof = prove(stmt, 7, 1, DIGEST)
        replayed = InputProof(
            statement=proof.statement,
            device_id=proof.device_id,
            round_number=2,
            ciphertext_digest=proof.ciphertext_digest,
            binding=proof.binding,
        )
        assert not verify(replayed, values)

    def test_proof_size_is_constant(self):
        small = prove(one_hot_statement(2), 1, 0, DIGEST)
        large = prove(one_hot_statement(1000), 1, 0, DIGEST)
        assert small.size_bytes == large.size_bytes
