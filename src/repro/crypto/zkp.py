"""Zero-knowledge proofs of well-formed inputs (§5.3).

Participants upload encrypted data together with a proof that the plaintext
is well-formed — for categorical queries, that it is a one-hot encoding; for
numerical queries, that every value lies in the declared range. The paper
uses ZoKrates with the bellman backend and the Groth16 scheme, with signed
proofs to stop replay (G16 is malleable).

We substitute a commitment-based proof object whose *verification logic is
real* for the statements Arboretum needs: a verifier with access to the
encryption randomness trapdoor (our simulated-network aggregator) actually
recomputes the statement and rejects malformed inputs. :func:`verify`
checks a proof against *its own* device, round, statement and ciphertext
digest; that those are the uploader's, the current round's and the
query's is the intake's comparison, made per upload against the shard
context in :func:`repro.runtime.shard.verify_shard` — that is where a
replayed or re-labelled proof fails (the flat
``AggregatorNode.verify_uploads`` holds no query context and compares
only the ciphertext digest). Proof sizes and verification times are metered through the calibrated
cost model, matching the paper's methodology (see DESIGN.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

#: Groth16 proof size: 2 G1 + 1 G2 elements on BN254 ≈ 192 bytes, plus the
#: signature binding it to the uploader (64 bytes).
GROTH16_PROOF_BYTES = 192 + 64


class InvalidProof(Exception):
    """Raised when a proof fails verification."""


@dataclass(frozen=True)
class Statement:
    """What the proof claims about the (hidden) plaintext vector."""

    kind: str  # "one_hot" or "range"
    length: int
    low: int = 0
    high: int = 1

    def holds_for(self, values: Sequence[int]) -> bool:
        if len(values) != self.length:
            return False
        if self.kind == "one_hot":
            return all(v in (0, 1) for v in values) and sum(values) == 1
        if self.kind == "range":
            return all(self.low <= v <= self.high for v in values)
        raise ValueError(f"unknown statement kind {self.kind!r}")


@dataclass(frozen=True)
class InputProof:
    """A proof object bound to one uploader, round, and ciphertext digest.

    ``witness_digest`` commits to the plaintext; the simulated verifier
    recomputes it from the witness the prover handed to the (trusted-setup)
    verification key holder. ``binding`` ties the proof to (device, round,
    ciphertext) so replaying it for another upload fails.
    """

    statement: Statement
    device_id: int
    round_number: int
    ciphertext_digest: bytes
    witness_digest: bytes
    binding: bytes

    @property
    def size_bytes(self) -> int:
        return GROTH16_PROOF_BYTES


@lru_cache(maxsize=4096)
def _witness_body(values: Tuple[int, ...]) -> bytes:
    """The hashed encoding of a witness vector: each value in decimal, then a comma."""
    return "".join(f"{int(v)}," for v in values).encode()


def _digest_values(values: Sequence[int], salt: bytes) -> bytes:
    return hashlib.sha256(salt + _witness_body(tuple(values))).digest()


def _binding(device_id: int, round_number: int, ct_digest: bytes, witness_digest: bytes) -> bytes:
    return hashlib.sha256(
        device_id.to_bytes(8, "big")
        + round_number.to_bytes(8, "big")
        + ct_digest
        + witness_digest
    ).digest()


def prove(
    statement: Statement,
    values: Sequence[int],
    device_id: int,
    round_number: int,
    ciphertext_digest: bytes,
) -> InputProof:
    """Produce a proof that ``values`` satisfies ``statement``.

    A dishonest prover can call this on values that do NOT satisfy the
    statement (we deliberately allow it, so tests and the runtime can inject
    malformed inputs); verification will then fail.
    """
    salt = ciphertext_digest[:8]
    witness_digest = _digest_values(values, salt)
    return InputProof(
        statement=statement,
        device_id=device_id,
        round_number=round_number,
        ciphertext_digest=ciphertext_digest,
        witness_digest=witness_digest,
        binding=_binding(device_id, round_number, ciphertext_digest, witness_digest),
    )


def verify(proof: InputProof, values: Sequence[int]) -> bool:
    """Verify a proof against the witness values.

    In the deployed system the verifier never sees the witness — the SNARK
    checks the arithmetic circuit directly. In our simulated network the
    aggregator holds the trapdoor witness handed over at upload time, so
    verification both (a) checks the statement actually holds and (b) checks
    the binding over the proof's own (device, round, ciphertext digest,
    witness digest). Whether those name *this* upload is the caller's
    comparison (see the module docstring).
    """
    salt = proof.ciphertext_digest[:8]
    if _digest_values(values, salt) != proof.witness_digest:
        return False
    expected = _binding(
        proof.device_id, proof.round_number, proof.ciphertext_digest, proof.witness_digest
    )
    if proof.binding != expected:
        return False
    return proof.statement.holds_for(values)


def verify_or_raise(proof: InputProof, values: Sequence[int]) -> None:
    if not verify(proof, values):
        raise InvalidProof(
            f"device {proof.device_id} submitted a malformed input "
            f"(statement {proof.statement.kind!r})"
        )


def one_hot_statement(categories: int) -> Statement:
    """Statement for a one-hot categorical upload over ``categories`` bins."""
    return Statement(kind="one_hot", length=categories)


def range_statement(length: int, low: int, high: int) -> Statement:
    """Statement for a numeric upload with per-element bounds."""
    return Statement(kind="range", length=length, low=low, high=high)
