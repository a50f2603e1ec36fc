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
query's is the intake's comparison, made per upload
(:func:`repro.runtime.shard.verify_shard`; ``AggregatorNode.verify_uploads``
makes the same ones per ``Upload`` object) — that is where a replayed or
re-labelled proof fails. Proof sizes and verification times are metered
through the calibrated cost model, matching the paper's methodology (see
DESIGN.md).

A shard's proofs travel as :class:`ProofColumns`; the hashed layouts
(witness digest, binding) are written down once, in ``_commitments``,
under :func:`prove_columns` / :func:`verify_columns` and, at length one,
under the per-proof :func:`prove` / :func:`verify`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

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


@dataclass
class ProofColumns:
    """The proofs of a batch of uploads: one list per :class:`InputProof`
    field, in its field order; row ``k`` is upload ``k``'s proof.

    ``device_ids`` is what each *proof* names, kept apart from the batch's
    uploader ids, so a proof replayed from another device, round or
    statement is representable — and rejected.
    """

    statements: List[Statement]
    device_ids: List[int]
    round_numbers: List[int]
    ciphertext_digests: List[bytes]
    witness_digests: List[bytes]
    bindings: List[bytes]

    def __len__(self) -> int:
        return len(self.bindings)

    def proof(self, k: int) -> InputProof:
        """Row ``k`` as the proof object (built on request, never on the accept path)."""
        return InputProof(*[column[k] for column in vars(self).values()])


def _commitments(
    witnesses: Sequence[Sequence[int]],
    device_ids: Sequence[int],
    round_numbers: Sequence[int],
    ciphertext_digests: Sequence[bytes],
) -> Tuple[List[bytes], List[bytes]]:
    """Per row the witness digest, salted with the ciphertext digest's first
    8 bytes, and the binding: (device id, round) as 8-byte big-endian, then
    both digests. The one place either layout is written down."""
    sha256 = hashlib.sha256
    witness_digests = [
        sha256(digest[:8] + _witness_body(tuple(row))).digest()
        for row, digest in zip(witnesses, ciphertext_digests)
    ]
    bindings = [
        sha256(
            device_id.to_bytes(8, "big") + round_number.to_bytes(8, "big") + digest + witness_digest
        ).digest()
        for device_id, round_number, digest, witness_digest in zip(
            device_ids, round_numbers, ciphertext_digests, witness_digests
        )
    ]
    return witness_digests, bindings


def prove_columns(
    statement: Statement,
    witnesses: Sequence[Sequence[int]],
    device_ids: Sequence[int],
    round_number: int,
    ciphertext_digests: Sequence[bytes],
) -> ProofColumns:
    """One proof per row, that ``witnesses[k]`` satisfies ``statement``.

    A dishonest prover can call this on values that do NOT satisfy the
    statement (we deliberately allow it, so tests and the runtime can inject
    malformed inputs); verification will then fail.
    """
    rounds = [round_number] * len(device_ids)
    witness_digests, bindings = _commitments(witnesses, device_ids, rounds, ciphertext_digests)
    return ProofColumns(
        [statement] * len(rounds),
        list(device_ids),
        rounds,
        list(ciphertext_digests),
        witness_digests,
        bindings,
    )


def verify_columns(
    proofs: ProofColumns, witnesses: Sequence[Sequence[int]], rows: Iterable[int]
) -> List[int]:
    """Those of ``rows`` whose proof verifies against its witness, in order.

    Per row the witness digest and the binding are recomputed from the
    proof's own (device, round, ciphertext digest) and compared; the
    statement is evaluated once per distinct (statement, witness row).
    """
    rows = list(rows)
    picked = [tuple(witnesses[k]) for k in rows]
    witness_digests, bindings = _commitments(
        picked,
        *[
            [column[k] for k in rows]
            for column in (proofs.device_ids, proofs.round_numbers, proofs.ciphertext_digests)
        ],
    )
    statement, holds = None, {}
    sound: List[int] = []
    for k, row, witness_digest, binding in zip(rows, picked, witness_digests, bindings):
        if witness_digest != proofs.witness_digests[k] or binding != proofs.bindings[k]:
            continue
        if proofs.statements[k] is not statement:
            statement, holds = proofs.statements[k], {}
        if row not in holds:
            holds[row] = statement.holds_for(row)
        if holds[row]:
            sound.append(k)
    return sound


def prove(
    statement: Statement,
    values: Sequence[int],
    device_id: int,
    round_number: int,
    ciphertext_digest: bytes,
) -> InputProof:
    """Produce a proof that ``values`` satisfies ``statement`` (one row of
    :func:`prove_columns`)."""
    (witness_digest,), (binding,) = _commitments(
        [values], [device_id], [round_number], [ciphertext_digest]
    )
    return InputProof(
        statement, device_id, round_number, ciphertext_digest, witness_digest, binding
    )


def verify(proof: InputProof, values: Sequence[int]) -> bool:
    """Verify a proof against the witness values (one row of :func:`verify_columns`).

    In the deployed system the verifier never sees the witness — the SNARK
    checks the arithmetic circuit directly. In our simulated network the
    aggregator holds the trapdoor witness handed over at upload time, so
    verification both (a) checks the statement actually holds and (b) checks
    the binding over the proof's own (device, round, ciphertext digest,
    witness digest). Whether those name *this* upload is the caller's
    comparison (see the module docstring).
    """
    (witness_digest,), (binding,) = _commitments(
        [values], [proof.device_id], [proof.round_number], [proof.ciphertext_digest]
    )
    return (
        witness_digest == proof.witness_digest
        and binding == proof.binding
        and proof.statement.holds_for(values)
    )


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
