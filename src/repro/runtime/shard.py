"""Device shards: struct-of-arrays batches for the input phase.

A :class:`DeviceShard` holds one contiguous slice of the population as
numpy arrays (ids, raw values, liveness, malice) plus the label of the
RNG substream every value-relevant draw for that shard comes from. The
shard is the unit of everything in the intake: the event
scheduler schedules per-shard work, journal checkpoints are per-shard,
fault-plan replay re-derives per-shard streams, and aggregation-tree
leaves ingest per-shard batches.

The heavy per-device costs of a device-at-a-time intake and how the shard
stages remove them:

* **Encryption randomness.** Paillier encryption spends one ~2k-bit-op
  modular exponentiation per ciphertext drawing ``r^n mod n^2``. The
  intake amortizes it with an :class:`ObfuscatorPool`: a small pool of
  precomputed pads ``h_i = z^{α_i} mod n^2`` for one n-th residue ``z``
  (drawn from a labelled stream; the executor sizes it to the run, never
  above 64) from which each device takes a random subset *product* — still a
  uniform-looking element of the subgroup of n-th residues, at the cost
  of a handful of modular multiplications instead of a full
  exponentiation. This is the classic precomputed-randomization trade
  (cf. batch-RSA / fast Schnorr preprocessing); DESIGN.md records it as
  a simulation-scale substitution alongside the HMAC sortition tags.
* **Draw scheduling.** Each shard owns its labelled stream outright, so
  it draws exactly one pad subset per *packed* ciphertext.
* **Encoding.** One-hot bin placement is drawn and encoded per shard
  with numpy, not per device in the interpreter loop.
* **Shard-at-a-time draws.** A shard's bin draws and all of its
  ``subset_size x ciphertexts`` pad indices come from one bulk replay of
  the shard stream (:func:`~.bulk_draws.randrange_many`), subset products are formed
  from pair products memoised on the pool, and each distinct witness
  vector is packed once (ARCHITECTURE.md §19).
* **Columns, not objects.** A shard's uploads travel from ``upload`` to
  the tree leaf as a :class:`ShardUploadBatch` of columns — raw
  ciphertext values under one modulus, shared witness rows, the proofs
  as :class:`~repro.crypto.zkp.ProofColumns` — and the leaf sum folds raw
  values; an ``Upload`` exists only when :meth:`ShardUploadBatch.upload`
  is asked for one (ARCHITECTURE.md §21).

Every stage function here is **pure per shard** — it reads its
arguments, draws only from the shard's own stream, and returns a value —
so a shard's bytes depend on its stream and its columns, never on which
shards ran before it.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..crypto import paillier
from ..crypto.backend import get_backend

# The column kernels, bound under the names the per-device stages called:
# that is where bench/trace.py hooks the proving and verification layers.
from ..crypto.zkp import (
    ProofColumns,
    Statement,
    prove_columns as prove,
    verify_columns as zkp_verify,
)
from .aggregator import Upload, upload_digests
from .bulk_draws import randrange_many
from .packing import SlotPacking


@dataclass
class DeviceShard:
    """One contiguous slice of the population, struct-of-arrays.

    ``online``/``malicious`` are snapshots taken by the ``churn`` event
    immediately before the shard uploads, so population faults applied at
    phase boundaries are visible to the shard without per-device lookups.
    """

    shard_id: int
    device_ids: np.ndarray  # int64, shape (n,)
    values: np.ndarray  # int64, shape (n,) categorical or (n, width) numeric
    online: np.ndarray  # bool, shape (n,)
    malicious: np.ndarray  # bool, shape (n,)
    stream_label: str = ""

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def online_count(self) -> int:
        return int(np.count_nonzero(self.online))


class ObfuscatorPool:
    """Precomputed Paillier encryption randomness, drawn by subset product.

    ``pool_size`` pads are powers ``z^α mod n^2`` of one n-th residue,
    drawn by :func:`paillier.draw_pads` from the given (labelled, seeded)
    stream; that hides under DCRA alone what independent ``r^n`` would
    (docs/PROTOCOL.md §3). The pool is built by the key's holder, which
    computes the pads through the key's primes; it keeps only the public
    key. An obfuscator is ``subset_size`` pads sampled with replacement
    (:meth:`draw`) and multiplied (:meth:`products`) — a random n-th
    residue for a few modular multiplications instead of one modular
    exponentiation. The pads are immutable; the pair-
    product memo only ever gains entries that are a function of the pads,
    so one pool serves every shard of a run (and two of a library caller's
    threads filling one entry write the same value).
    """

    def __init__(
        self,
        secret_key: paillier.PaillierPrivateKey,
        rng: random.Random,
        pool_size: int = 64,
        subset_size: int = 8,
    ):
        if pool_size < 2 or subset_size < 1:
            raise ValueError("pool needs >= 2 pads and a positive subset size")
        self.public_key = secret_key.public
        self.pool_size = pool_size
        self.subset_size = subset_size
        self._n2 = self.public_key.n_squared
        self._pads: Tuple[int, ...] = tuple(
            paillier.draw_pads(secret_key, rng, pool_size)
        )
        #: ``pads[i] * pads[j] % n2`` under key ``i * pool_size + j``, filled on demand.
        self._pairs: Dict[int, int] = {}

    def draw(self, rng: random.Random, count: int) -> np.ndarray:
        """The pool indices of ``count`` obfuscators, one row of ``subset_size``
        each: exactly ``count * subset_size`` successive ``rng.randrange(pool_size)``."""
        indices = randrange_many(rng, self.pool_size, count * self.subset_size)
        return indices.reshape(count, self.subset_size)

    def products(self, indices: np.ndarray) -> List[int]:
        """The obfuscator each ``subset_size``-long row of ``indices`` names.

        Consecutive indices are multiplied as memoised pairs, so an
        obfuscator costs ``(subset_size - 1) // 2`` multiplications plus at
        most ``subset_size // 2`` memo fills — never more than the
        ``subset_size - 1`` of a plain fold, and the same residue because
        the product is commutative.
        """
        n2, pads, pairs, size = self._n2, self._pads, self._pairs, self.pool_size
        indices = indices.reshape(-1, self.subset_size)
        paired = self.subset_size // 2 * 2
        keys = (indices[:, 0:paired:2] * size + indices[:, 1:paired:2]).tolist()
        odd = indices[:, paired].tolist() if paired < self.subset_size else None
        out: List[int] = []
        for pos, row in enumerate(keys):
            acc = None if odd is None else pads[odd[pos]]
            for key in row:
                pair = pairs.get(key)
                if pair is None:
                    pair = pairs[key] = pads[key // size] * pads[key % size] % n2
                acc = pair if acc is None else acc * pair % n2
            out.append(acc)
        return out

    def power_product(self, counts: Sequence[int]) -> int:
        """``Π_i pads[i]^counts[i] mod n^2``: the product of all obfuscators
        whose pooled indices hold ``i`` ``counts[i]`` times."""
        powmod, n2 = get_backend().powmod, self._n2
        acc = 1
        for pad, count in zip(self._pads, counts):
            if count:
                acc = acc * powmod(pad, count, n2) % n2
        return acc


@dataclass(frozen=True)
class ShardContext:
    """Everything a shard stage needs beyond the shard itself.

    Immutable and shared (read-only) by every shard of a run; the only
    mutable inputs to a stage are the shard and its own RNG stream.
    """

    public_key: paillier.PaillierPublicKey
    statement: Statement
    categories: int
    bins: int
    one_hot: bool
    width: int
    round_number: int
    packing: Optional[SlotPacking]
    pool: ObfuscatorPool


@dataclass
class ShardUploadBatch:
    """The ``upload`` stage's output: one shard's uploads as columns.

    Row ``k`` is one online device's submission: ``device_ids[k]`` sent the
    raw ciphertext values ``ciphertexts[k]`` (every one under ``modulus``,
    held once), the witness ``witnesses[k]`` (devices with equal vectors
    share one list) and row ``k`` of ``proofs``. ``pad_indices[k, j]``
    names the pool pads behind ciphertext ``j``; with the witness, they are
    the simulated network's trapdoor (docs/PROTOCOL.md §3 "Leaf equation").
    """

    shard_id: int
    modulus: int
    device_ids: List[int]
    ciphertexts: List[List[int]]
    witnesses: List[List[int]]
    pad_indices: np.ndarray  # int64, shape (rows, ciphertexts a row, subset_size)
    proofs: ProofColumns
    submit_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.device_ids)

    def upload(self, k: int) -> Upload:
        """Row ``k`` as the wire object — for a test, an audit or a report;
        the intake itself never builds one."""
        return Upload(
            self.device_ids[k],
            paillier.ciphertexts_under(self.modulus, self.ciphertexts[k]),
            self.proofs.proof(k),
            list(self.witnesses[k]),
            self.pad_indices[k].tolist(),
        )


@dataclass
class ShardIntakeResult:
    """The ``verify`` stage's output: one aggregation-tree leaf's intake.

    ``partials`` are the per-packed-slot homomorphic sums over the
    accepted uploads (``None`` when every upload was rejected), all under
    ``modulus`` — the batch's, which the tree compares with its own key;
    ``leaf_digest`` commits to the accepted uploads in order. A result
    restored from the journal (:meth:`from_leaf`) has no ``upload_digests``.
    """

    shard_id: int
    modulus: int
    partials: Optional[List[paillier.PaillierCiphertext]]
    accepted: int
    rejected: List[int]
    upload_digests: List[bytes]
    leaf_digest: bytes
    submit_seconds: float = 0.0
    verify_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    uploads_received: int = 0

    def as_leaf(self) -> Dict[str, object]:
        """The deterministic part, JSON-canonical: what the journal's shard
        checkpoint records and :meth:`from_leaf` restores (ciphertexts as
        lowercase hex; no per-upload digests, no timings)."""
        return {
            "received": self.uploads_received,
            "accepted": self.accepted,
            "rejected": list(self.rejected),
            "digest": self.leaf_digest.hex(),
            "partials": None
            if self.partials is None
            else [format(ct.value, "x") for ct in self.partials],
        }

    @classmethod
    def from_leaf(
        cls, shard_id: int, modulus: int, leaf: Dict[str, object]
    ) -> "ShardIntakeResult":
        """A journaled :meth:`as_leaf` back as the intake result of shard
        ``shard_id`` under ``modulus``, with zero timings."""
        partials = leaf["partials"]
        return cls(
            shard_id=shard_id,
            modulus=modulus,
            partials=None
            if partials is None
            else paillier.ciphertexts_under(modulus, [int(value, 16) for value in partials]),
            accepted=leaf["accepted"],
            rejected=list(leaf["rejected"]),
            upload_digests=[],
            leaf_digest=bytes.fromhex(leaf["digest"]),
            uploads_received=leaf["received"],
        )


# ------------------------------------------------------------------ stages


def _encode_shard_vectors(
    shard: DeviceShard, ctx: ShardContext, rng: random.Random
) -> Tuple[List[int], List[List[int]], List[int]]:
    """Witness vectors of the shard's online devices, each distinct one once.

    Returns ``(online_ids, rows, codes)``: device ``online_ids[k]``'s vector
    is ``rows[codes[k]]``. One-hot bin placement consumes one ``randrange``
    per online device from the shard stream (stable order: ascending device
    id), so malformed/honest mixes stay reproducible.
    """
    online_idx = np.flatnonzero(shard.online)
    online_ids = shard.device_ids[online_idx].tolist()
    malicious = shard.malicious[online_idx]
    width = ctx.width
    if ctx.one_hot:
        cats = np.mod(shard.values[online_idx], ctx.categories).astype(np.int64)
        if ctx.bins > 1:
            cats += randrange_many(rng, ctx.bins, len(online_idx)) * ctx.categories
        rows = [[0] * slot + [1] + [0] * (width - slot - 1) for slot in range(width)]
        # Malformed upload: claim membership in several categories.
        rows.append([1] * min(3, width) + [0] * (width - min(3, width)))
        return online_ids, rows, np.where(malicious, width, cats).tolist()
    values = shard.values[online_idx]
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    table = np.zeros((len(online_idx), width), dtype=np.int64)
    table[:, : values.shape[1]] = values[:, :width]
    # Out-of-range value ("pretending the user is 1,000 years old").
    table[malicious, 0] = 1000
    index: Dict[Tuple[int, ...], int] = {}
    codes = [index.setdefault(tuple(row), len(index)) for row in table.tolist()]
    return online_ids, [list(row) for row in index], codes


def upload_shard(
    shard: DeviceShard, ctx: ShardContext, rng: random.Random
) -> ShardUploadBatch:
    """The ``upload`` stage: encode, encrypt, and prove a whole shard.

    Each online device contributes one row of the batch — packed ciphertext
    values obfuscated via the pad pool (one subset-product per packed
    ciphertext), the pad indices behind them, their digest, and the
    well-formedness proof — the bytes of an ``Upload``, built a column at a
    time: the shard stream yields the bin draws, then every pad index of the
    shard in (device, ciphertext, subset position) order.
    """
    started = time.perf_counter()
    packing = ctx.packing
    online_ids, rows, codes = _encode_shard_vectors(shard, ctx, rng)
    packed = {
        code: packing.pack(rows[code]) if packing is not None else rows[code]
        for code in set(codes)
    }
    per_upload = packing.packed_width if packing is not None else ctx.width
    indices = ctx.pool.draw(rng, per_upload * len(codes))
    ciphertexts = paillier.encrypt_rows_with_pads(
        ctx.public_key, packed, codes, ctx.pool.products(indices)
    )
    digests = [
        hashlib.sha256(paillier.ciphertext_bytes(values)).digest() for values in ciphertexts
    ]
    return ShardUploadBatch(
        shard.shard_id,
        ctx.public_key.n,
        online_ids,
        ciphertexts,
        [rows[code] for code in codes],
        indices.reshape(len(codes), per_upload, ctx.pool.subset_size),
        prove(ctx.statement, online_ids, ctx.round_number, digests),
        time.perf_counter() - started,
    )


def _packed_witnesses(
    batch: ShardUploadBatch, ctx: ShardContext, rows: Sequence[int]
) -> Tuple[List[List[int]], List[int]]:
    """Each distinct witness of ``rows`` packed once, and per row which is its own."""
    index: Dict[Tuple[int, ...], int] = {}
    codes = [index.setdefault(tuple(batch.witnesses[k]), len(index)) for k in rows]
    packing = ctx.packing
    return [packing.pack(row) if packing is not None else list(row) for row in index], codes


def _leaf_equation_holds(
    batch: ShardUploadBatch, ctx: ShardContext, rows: List[int], partials: List[int]
) -> bool:
    """Whether each packed column ``j`` of the partial is ``(1 + M_j·n) ·
    Π_i pad_i^{cnt_ij} mod n²``: ``M_j`` the sum of the rows' packed
    witnesses (the sum of the packings, so slot carries cannot fail an honest
    leaf) and ``cnt_ij`` the uses of pool pad ``i`` in their column ``j``.
    Every pad is an n-th residue, so a passing leaf decrypts to exactly ``M``."""
    n, n2, pool = ctx.public_key.n, ctx.public_key.n_squared, ctx.pool
    packed, codes = _packed_witnesses(batch, ctx, rows)
    counted, indices = Counter(codes).items(), batch.pad_indices[rows]
    return partials == [
        (1 + sum(times * packed[code][j] for code, times in counted) % n * n)
        * pool.power_product(np.bincount(indices[:, j].ravel(), minlength=pool.pool_size).tolist())
        % n2
        for j in range(indices.shape[1])
    ]


def _rows_that_open(batch: ShardUploadBatch, ctx: ShardContext, rows: List[int]) -> List[int]:
    """Those of ``rows`` whose ciphertexts re-encrypt exactly from their
    witness under the pads their indices name, in order."""
    packed, codes = _packed_witnesses(batch, ctx, rows)
    pads = ctx.pool.products(batch.pad_indices[rows])
    expected = paillier.encrypt_rows_with_pads(ctx.public_key, packed, codes, pads)
    return [k for k, values in zip(rows, expected) if batch.ciphertexts[k] == values]


def verify_shard(batch: ShardUploadBatch, ctx: ShardContext) -> ShardIntakeResult:
    """The ``verify`` + leaf-``aggregate`` stage: one tree leaf's intake.

    Per row it checks the proof's ciphertext digest against the stored
    values, that the proof is *this* uploader's, round's and statement's,
    that the pad indices name pool pads, and (the ZKP kernel) the statement
    on the witness. The accepted rows fold into per-slot partials under the
    batch's one modulus, which must pass the leaf equation; a leaf that
    fails rejects each row that does not re-encrypt to its ciphertext and
    re-checks the rest. Rows whose deviations cancel inside a leaf pass together and leave
    the partial the sum of their witnesses — all acceptance attests
    (docs/PROTOCOL.md §3). The leaf digest commits to the accepted upload
    digests in order.
    """
    started = time.perf_counter()
    proofs, ids = batch.proofs, batch.device_ids
    statement, round_number = ctx.statement, ctx.round_number
    bodies = [paillier.ciphertext_bytes(values) for values in batch.ciphertexts]
    indices = batch.pad_indices
    in_pool = ((indices >= 0) & (indices < ctx.pool.pool_size)).all(axis=(1, 2)).tolist()
    named = [
        k
        for k, body in enumerate(bodies)
        if proofs.ciphertext_digests[k] == hashlib.sha256(body).digest()
        and proofs.device_ids[k] == ids[k]
        and proofs.round_numbers[k] == round_number
        and (proofs.statements[k] is statement or proofs.statements[k] == statement)
        and in_pool[k]
    ]
    accepted = zkp_verify(proofs, batch.witnesses, named)

    partials: Optional[List[paillier.PaillierCiphertext]] = None
    aggregate_seconds = 0.0
    while accepted:
        summed = time.perf_counter()
        partials = paillier.sum_columns(batch.modulus, [batch.ciphertexts[k] for k in accepted])
        aggregate_seconds += time.perf_counter() - summed
        if _leaf_equation_holds(batch, ctx, accepted, [ct.value for ct in partials]):
            break
        opening = _rows_that_open(batch, ctx, accepted)
        if opening == accepted:
            raise RuntimeError(f"shard {batch.shard_id}: leaf equation fails on rows that open")
        accepted, partials = opening, None
    kept = set(accepted)
    rejected = [device_id for k, device_id in enumerate(ids) if k not in kept]
    verify_seconds = time.perf_counter() - started - aggregate_seconds

    digests = upload_digests([ids[k] for k in accepted], [bodies[k] for k in accepted])
    leaf_digest = hashlib.sha256(
        b"shard-leaf" + batch.shard_id.to_bytes(8, "big") + b"".join(digests)
    ).digest()
    return ShardIntakeResult(
        shard_id=batch.shard_id,
        modulus=batch.modulus,
        partials=partials,
        accepted=len(accepted),
        rejected=rejected,
        upload_digests=digests,
        leaf_digest=leaf_digest,
        submit_seconds=batch.submit_seconds,
        verify_seconds=verify_seconds,
        aggregate_seconds=aggregate_seconds,
        uploads_received=len(batch),
    )


def build_shards(
    device_ids: Sequence[int],
    values: np.ndarray,
    online: np.ndarray,
    malicious: np.ndarray,
    shard_size: int,
) -> List[DeviceShard]:
    """Slice a population's struct-of-arrays view into contiguous shards."""
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    ids = np.asarray(device_ids, dtype=np.int64)
    shards: List[DeviceShard] = []
    for shard_id, start in enumerate(range(0, len(ids), shard_size)):
        stop = start + shard_size
        shards.append(
            DeviceShard(
                shard_id=shard_id,
                device_ids=ids[start:stop],
                values=values[start:stop],
                online=np.asarray(online[start:stop], dtype=bool).copy(),
                malicious=np.asarray(malicious[start:stop], dtype=bool).copy(),
                stream_label=f"sharded/upload/{shard_id}",
            )
        )
    return shards
