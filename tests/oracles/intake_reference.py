"""The per-device sharded intake, kept as the differential oracle.

This is the intake as it stood before it went shard-at-a-time and then
columnar: one ``Upload`` + ``InputProof`` + ``PaillierCiphertext`` per
device, every pad index its own ``rng.randrange``, every subset product a
left fold of ``subset_size - 1`` multiplications, every device's vector
packed on its own, every digest fed to its hash one ``update()`` at a
time, every leaf sum a chain of ``add_ciphertexts``, and every accepted
upload's opening checked on its own: re-encrypted from its witness and its
pad indices and compared, where the columnar intake checks one equation
per leaf.
``tests/test_intake_equivalence.py`` runs the same shard through these
functions and through :mod:`repro.runtime.shard` and requires identical
uploads, RNG state and intake results; :func:`as_objects` and
:func:`as_columns` carry a batch from one representation to the other.

The byte layouts written out here are the contract: they are what every
pinned digest in the chaos, journal and equivalence suites rests on.

Nothing in ``src/`` imports this module and no option selects it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto import paillier
from repro.crypto.zkp import InputProof, ProofColumns, Statement
from repro.runtime.aggregator import Upload
from repro.runtime.shard import (
    DeviceShard,
    ObfuscatorPool,
    ShardContext,
    ShardIntakeResult,
    ShardUploadBatch,
)


@dataclass
class ObjectBatch:
    """One shard's uploads as the objects the flat planes put on the wire."""

    shard_id: int
    uploads: List[Upload]


def as_objects(batch: ShardUploadBatch) -> ObjectBatch:
    return ObjectBatch(batch.shard_id, [batch.upload(k) for k in range(len(batch))])


def as_columns(batch: ObjectBatch, modulus: int) -> ShardUploadBatch:
    return ShardUploadBatch(
        batch.shard_id,
        modulus,
        [u.device_id for u in batch.uploads],
        [[ct.value for ct in u.ciphertexts] for u in batch.uploads],
        [u.witness for u in batch.uploads],
        np.asarray([u.pad_indices for u in batch.uploads], dtype=np.int64),
        ProofColumns(*[[getattr(u.proof, f.name) for u in batch.uploads] for f in fields(InputProof)]),
    )


# ------------------------------------------------------------------ hashing


def _hash_ciphertexts(h, cts: Sequence[paillier.PaillierCiphertext]) -> None:
    """Minimal big-endian encoding per ciphertext, in slot order."""
    for ct in cts:
        h.update(ct.value.to_bytes((ct.value.bit_length() + 7) // 8 or 1, "big"))


def ciphertext_vector_digest(cts: Sequence[paillier.PaillierCiphertext]) -> bytes:
    h = hashlib.sha256()
    _hash_ciphertexts(h, cts)
    return h.digest()


def upload_digest(upload: Upload) -> bytes:
    h = hashlib.sha256()
    h.update(upload.device_id.to_bytes(8, "big"))
    _hash_ciphertexts(h, upload.ciphertexts)
    return h.digest()


def binding(device_id: int, round_number: int, ct_digest: bytes) -> bytes:
    h = hashlib.sha256()
    h.update(device_id.to_bytes(8, "big"))
    h.update(round_number.to_bytes(8, "big"))
    h.update(ct_digest)
    return h.digest()


def prove(
    statement: Statement,
    device_id: int,
    round_number: int,
    ciphertext_digest: bytes,
) -> InputProof:
    return InputProof(
        statement=statement,
        device_id=device_id,
        round_number=round_number,
        ciphertext_digest=ciphertext_digest,
        binding=binding(device_id, round_number, ciphertext_digest),
    )


def verify(proof: InputProof, values: Sequence[int]) -> bool:
    if proof.binding != binding(proof.device_id, proof.round_number, proof.ciphertext_digest):
        return False
    return proof.statement.holds_for(values)


# ---------------------------------------------------------------- tampering


def forge_ciphertext(batch: ShardUploadBatch, k: int, shift: int, column: int = 0) -> None:
    """Row ``k`` keeps its witness and pad indices, but its ciphertext
    ``column`` now also encrypts ``shift``; the row is re-digested and
    re-bound, so every check that reads no plaintext still passes."""
    n = batch.modulus
    values = list(batch.ciphertexts[k])
    values[column] = values[column] * (1 + shift % n * n) % (n * n)
    batch.ciphertexts[k] = values
    digest = hashlib.sha256(paillier.ciphertext_bytes(values)).digest()
    proofs = batch.proofs
    proofs.ciphertext_digests[k] = digest
    proofs.bindings[k] = binding(proofs.device_ids[k], proofs.round_numbers[k], digest)


# -------------------------------------------------------------------- draws


def randrange_loop(rng: random.Random, n: int, count: int) -> List[int]:
    return [rng.randrange(n) for _ in range(count)]


def pool_draw(pool: ObfuscatorPool, rng: random.Random) -> Tuple[List[int], int]:
    """One obfuscator: ``subset_size`` scalar draws, and their pads folded."""
    indices = [rng.randrange(pool.pool_size) for _ in range(pool.subset_size)]
    return indices, pad_of(pool, indices)


def pad_of(pool: ObfuscatorPool, indices: Sequence[int]) -> int:
    """The pads at ``indices``, folded left to right."""
    n2 = pool.public_key.n_squared
    acc = pool._pads[indices[0]]
    for i in indices[1:]:
        acc = acc * pool._pads[i] % n2
    return acc


# ------------------------------------------------------------------- stages


def encode_shard_vectors(
    shard: DeviceShard, ctx: ShardContext, rng: random.Random
) -> Tuple[np.ndarray, List[List[int]]]:
    online_idx = np.flatnonzero(shard.online)
    online_ids = shard.device_ids[online_idx]
    vectors: List[List[int]] = []
    malicious = shard.malicious[online_idx]
    if ctx.one_hot:
        cats = np.mod(shard.values[online_idx], ctx.categories).astype(np.int64)
        if ctx.bins > 1:
            bin_draws = [rng.randrange(ctx.bins) for _ in range(len(online_idx))]
        else:
            bin_draws = [0] * len(online_idx)
        slots = np.asarray(bin_draws, dtype=np.int64) * ctx.categories + cats
        for pos in range(len(online_idx)):
            vector = [0] * ctx.width
            if malicious[pos]:
                for slot in range(min(3, ctx.width)):
                    vector[slot] = 1
            else:
                vector[int(slots[pos])] = 1
            vectors.append(vector)
        return online_ids, vectors
    rows = shard.values[online_idx]
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    for pos in range(len(online_idx)):
        row = [int(v) for v in rows[pos][: ctx.width]]
        if len(row) < ctx.width:
            row = row + [0] * (ctx.width - len(row))
        if malicious[pos]:
            row[0] = 1000
        vectors.append(row)
    return online_ids, vectors


def upload_shard(
    shard: DeviceShard, ctx: ShardContext, rng: random.Random
) -> ObjectBatch:
    online_ids, vectors = encode_shard_vectors(shard, ctx, rng)
    uploads: List[Upload] = []
    for pos, device_id in enumerate(online_ids):
        vector = vectors[pos]
        plaintexts = ctx.packing.pack(vector) if ctx.packing is not None else vector
        cts, pad_indices = [], []
        for value in plaintexts:
            indices, pad = pool_draw(ctx.pool, rng)
            cts.append(paillier.encrypt_with_pad(ctx.public_key, value, pad))
            pad_indices.append(indices)
        proof = prove(
            ctx.statement, int(device_id), ctx.round_number, ciphertext_vector_digest(cts)
        )
        uploads.append(Upload(int(device_id), cts, proof, vector, pad_indices))
    return ObjectBatch(shard.shard_id, uploads)


def opens(upload: Upload, ctx: ShardContext) -> bool:
    """Whether every ciphertext re-encrypts exactly from the witness under
    the pad its indices name."""
    plaintexts = ctx.packing.pack(upload.witness) if ctx.packing is not None else upload.witness
    if not len(plaintexts) == len(upload.pad_indices) == len(upload.ciphertexts):
        return False
    for value, indices, ct in zip(plaintexts, upload.pad_indices, upload.ciphertexts):
        if any(not 0 <= i < ctx.pool.pool_size for i in indices):
            return False
        pad = pad_of(ctx.pool, indices)
        if paillier.encrypt_with_pad(ctx.public_key, value, pad) != ct:
            return False
    return True


def verify_shard(batch: ObjectBatch, ctx: ShardContext) -> ShardIntakeResult:
    accepted: List[Upload] = []
    rejected: List[int] = []
    for upload in batch.uploads:
        proof = upload.proof
        if proof.ciphertext_digest != ciphertext_vector_digest(upload.ciphertexts):
            rejected.append(upload.device_id)
            continue
        # The proof must be the one for this uploader, round and query.
        if (
            proof.device_id != upload.device_id
            or proof.round_number != ctx.round_number
            or proof.statement != ctx.statement
        ):
            rejected.append(upload.device_id)
            continue
        if not verify(proof, upload.witness) or not opens(upload, ctx):
            rejected.append(upload.device_id)
            continue
        accepted.append(upload)

    partials: Optional[List[paillier.PaillierCiphertext]] = None
    if accepted:
        width = len(accepted[0].ciphertexts)
        partials = []
        for j in range(width):
            total = accepted[0].ciphertexts[j]
            for upload in accepted[1:]:
                total = paillier.add_ciphertexts(total, upload.ciphertexts[j])
            partials.append(total)

    upload_digests = [upload_digest(u) for u in accepted]
    hasher = hashlib.sha256(b"shard-leaf")
    hasher.update(batch.shard_id.to_bytes(8, "big"))
    for dig in upload_digests:
        hasher.update(dig)
    return ShardIntakeResult(
        shard_id=batch.shard_id,
        modulus=ctx.public_key.n,
        partials=partials,
        accepted=len(accepted),
        rejected=rejected,
        upload_digests=upload_digests,
        leaf_digest=hasher.digest(),
        uploads_received=len(batch.uploads),
    )
