"""Zero-knowledge proofs of well-formed inputs (§5.3).

Participants upload encrypted data together with a proof that the plaintext
is well-formed — for categorical queries, that it is a one-hot encoding; for
numerical queries, that every value lies in the declared range. The paper
uses ZoKrates with the bellman backend and the Groth16 scheme, with signed
proofs to stop replay (G16 is malleable).

A G16 input proof attests *the ciphertext encrypts ``m``, and ``m``
satisfies the statement*. Here the statement half is simulated: a verifier
holding the witness the device handed over (the simulated network's
trapdoor) evaluates the statement on it (:func:`verify_columns`). The
opening half is real: a Paillier ciphertext is a perfectly binding
commitment to its plaintext, so a proof commits to no plaintext of its own
and the intake checks once per tree leaf that the accepted ciphertexts
open to the accepted witnesses (the leaf equation in
:func:`repro.runtime.shard.verify_shard`, docs/PROTOCOL.md §3).

A proof's ``binding`` hashes (device, round, ciphertext digest) in place
of the signature that stops a malleable G16 proof being replayed (§6).
:func:`verify` checks a proof against *its own* device, round, statement
and ciphertext digest; that those are the uploader's, the current round's
and the query's is the intake's per-row comparison. Proof sizes and
verification times are metered through the calibrated cost model (see
DESIGN.md). A shard's proofs travel as :class:`ProofColumns`; ``_bindings``
writes the one hashed layout, under :func:`prove_columns` /
:func:`verify_columns` and their length-one :func:`prove` / :func:`verify`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence

#: Groth16 proof size: 2 G1 + 1 G2 elements on BN254 ≈ 192 bytes, plus the
#: signature binding it to the uploader (64 bytes).
GROTH16_PROOF_BYTES = 192 + 64


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
    """A proof object bound to one uploader, round, and ciphertext digest by
    ``binding``, so replaying it for another upload fails."""

    statement: Statement
    device_id: int
    round_number: int
    ciphertext_digest: bytes
    binding: bytes

    @property
    def size_bytes(self) -> int:
        return GROTH16_PROOF_BYTES


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
    bindings: List[bytes]

    def __len__(self) -> int:
        return len(self.bindings)

    def proof(self, k: int) -> InputProof:
        """Row ``k`` as the proof object (built on request, never on the accept path)."""
        return InputProof(*[column[k] for column in vars(self).values()])


def _bindings(
    device_ids: Sequence[int], round_numbers: Sequence[int], ciphertext_digests: Sequence[bytes]
) -> List[bytes]:
    """Per row ``sha256`` of (device id, round) as 8-byte big-endian, then
    the ciphertext digest. The one place the layout is written down."""
    sha256 = hashlib.sha256
    return [
        sha256(device_id.to_bytes(8, "big") + round_number.to_bytes(8, "big") + digest).digest()
        for device_id, round_number, digest in zip(device_ids, round_numbers, ciphertext_digests)
    ]


def prove_columns(
    statement: Statement, device_ids: Sequence[int], round_number: int, digests: Sequence[bytes]
) -> ProofColumns:
    """One proof per row, that the ciphertext with digest ``digests[k]``
    encrypts a vector satisfying ``statement``. Nothing here reads a
    plaintext: a dishonest prover gets a proof for anything, and the
    verifier's checks reject it."""
    rounds = [round_number] * len(device_ids)
    return ProofColumns(
        [statement] * len(rounds),
        list(device_ids),
        rounds,
        list(digests),
        _bindings(device_ids, rounds, digests),
    )


def verify_columns(
    proofs: ProofColumns, witnesses: Sequence[Sequence[int]], rows: Iterable[int]
) -> List[int]:
    """Those of ``rows`` whose proof verifies against its witness, in order.

    Per row the binding is recomputed from the proof's own (device, round,
    ciphertext digest) and compared; the statement is evaluated once per
    distinct (statement, witness row).
    """
    rows = list(rows)
    bindings = _bindings(
        *[
            [column[k] for k in rows]
            for column in (proofs.device_ids, proofs.round_numbers, proofs.ciphertext_digests)
        ]
    )
    statement, holds = None, {}
    sound: List[int] = []
    for k, binding in zip(rows, bindings):
        if binding != proofs.bindings[k]:
            continue
        if proofs.statements[k] is not statement:
            statement, holds = proofs.statements[k], {}
        row = tuple(witnesses[k])
        if row not in holds:
            holds[row] = statement.holds_for(row)
        if holds[row]:
            sound.append(k)
    return sound


def prove(
    statement: Statement, device_id: int, round_number: int, ciphertext_digest: bytes
) -> InputProof:
    """The proof for one upload (one row of :func:`prove_columns`)."""
    return prove_columns(statement, [device_id], round_number, [ciphertext_digest]).proof(0)


def verify(proof: InputProof, values: Sequence[int]) -> bool:
    """Verify a proof against the witness values (one row of :func:`verify_columns`):
    the binding over the proof's own (device, round, ciphertext digest), and
    the statement on ``values``, the trapdoor witness a deployed verifier
    never sees. Whether those name *this* upload, and whether its ciphertext
    opens to ``values``, is the intake's business (module docstring)."""
    (binding,) = _bindings([proof.device_id], [proof.round_number], [proof.ciphertext_digest])
    return binding == proof.binding and proof.statement.holds_for(values)


def one_hot_statement(categories: int) -> Statement:
    """Statement for a one-hot categorical upload over ``categories`` bins."""
    return Statement(kind="one_hot", length=categories)


def range_statement(length: int, low: int, high: int) -> Statement:
    """Statement for a numeric upload with per-element bounds."""
    return Statement(kind="range", length=length, low=low, high=high)
