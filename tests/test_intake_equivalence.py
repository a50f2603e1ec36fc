"""The columnar shard intake against its per-device oracle (``tests/oracles``).

The shard stages replay the shard stream in bulk, multiply memoised pad
pairs, pack each distinct vector once, hash every digest in one call and
carry a shard's uploads as columns of raw values, never as one object per
device. None of that may be observable: uploads, the RNG stream's end
position, accept/reject order, leaf digests and partial sums must match
the scalar, object-per-device reference byte for byte — and a proof that
is not the one for this uploader, round and query, or a ciphertext that
does not open to its witness, must be rejected.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import paillier, zkp
from repro.crypto.zkp import one_hot_statement, range_statement
from repro.runtime import aggregator
from repro.runtime.aggregator import Upload
from repro.runtime.bulk_draws import randrange_many
from repro.runtime.packing import SlotPacking
from repro.runtime.shard import (
    DeviceShard,
    ObfuscatorPool,
    ShardContext,
    upload_shard,
    verify_shard,
)

from .oracles import intake_reference as ref

SK = paillier.keygen(bits=96, rng=random.Random(3))
PK = SK.public


# ---------------------------------------------------------- randrange_many


@pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 2**31 + 1])
@pytest.mark.parametrize("count", [0, 1, 10**4])
def test_randrange_many_replays_the_scalar_loop(n, count):
    bulk, scalar = random.Random(n * 31 + count), random.Random(n * 31 + count)
    # Start mid-block, so a refill of the 624-word state falls inside the draw.
    bulk.getrandbits(32 * 600), scalar.getrandbits(32 * 600)
    assert randrange_many(bulk, n, count).tolist() == ref.randrange_loop(scalar, n, count)
    assert bulk.getstate() == scalar.getstate()


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2**32 - 1), st.sampled_from([2**k for k in range(32)])),
    count=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
def test_randrange_many_any_bound(n, count, seed):
    bulk, scalar = random.Random(seed), random.Random(seed)
    assert randrange_many(bulk, n, count).tolist() == ref.randrange_loop(scalar, n, count)
    assert bulk.getstate() == scalar.getstate()


@pytest.mark.parametrize("n", [0, -5, 2**32])
def test_randrange_many_refuses_what_it_cannot_replay(n):
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(ValueError):
        randrange_many(rng, n, 4)
    assert rng.getstate() == before


# -------------------------------------------------------------- pad draws


@settings(max_examples=60, deadline=None)
@given(
    pool_size=st.integers(2, 12),
    subset_size=st.integers(1, 9),
    counts=st.lists(st.integers(0, 40), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
)
def test_pool_draw_matches_the_scalar_fold(pool_size, subset_size, counts, seed):
    pool = ObfuscatorPool(SK, random.Random(seed), pool_size=pool_size, subset_size=subset_size)
    bulk, scalar = random.Random(seed + 1), random.Random(seed + 1)
    for count in counts:  # later calls hit the pair memo earlier ones filled
        indices = pool.draw(bulk, count)
        want = [ref.pool_draw(pool, scalar) for _ in range(count)]
        assert indices.shape == (count, subset_size)
        assert indices.tolist() == [drawn for drawn, _ in want]
        assert pool.products(indices) == [pad for _, pad in want]
        assert bulk.getstate() == scalar.getstate()
    # Every memo entry is the product it is filed under.
    for key, pair in pool._pairs.items():
        i, j = divmod(key, pool_size)
        assert pair == pool._pads[i] * pool._pads[j] % PK.n_squared
    # Each entry cost one multiplication, so the total stays below the fold's.
    assert len(pool._pairs) <= sum(counts) * (subset_size // 2)


def test_workers_racing_to_fill_the_pair_memo_draw_what_the_fold_draws():
    """Shard workers share one pool: a memo entry two of them fill at once
    must come out as the same product, and no draw may see a torn one."""
    pool = ObfuscatorPool(SK, random.Random(11), pool_size=6, subset_size=4)

    def scalar(worker):
        rng = random.Random(worker)
        return [ref.pool_draw(pool, rng)[1] for _ in range(400)]

    want = {worker: scalar(worker) for worker in range(8)}
    got, errors = {}, []
    start = threading.Barrier(8)

    def work(worker):
        try:
            start.wait(timeout=10)
            rng = random.Random(worker)
            got[worker] = [pad for _ in range(40) for pad in pool.products(pool.draw(rng, 10))]
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert got == want
    assert len(pool._pairs) <= pool.pool_size**2


# ---------------------------------------------------------- digest layouts


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.one_of(st.integers(-(2**70), 2**70), st.booleans()), max_size=12),
    salt=st.binary(max_size=8),
    device_id=st.integers(0, 2**63),
    round_number=st.integers(0, 2**40),
    cts=st.lists(st.integers(0, 2**400), max_size=4),
)
def test_one_shot_digests_hash_the_same_bytes(values, salt, device_id, round_number, cts):
    statement = one_hot_statement(4)
    # Any bytes stand in for the ciphertext digest.
    proof = zkp.prove(statement, device_id, round_number, salt)
    assert proof.binding == ref.binding(device_id, round_number, salt)
    ciphertexts = [paillier.PaillierCiphertext(v, PK.n) for v in cts]
    digest = aggregator.ciphertext_vector_digest(ciphertexts)
    assert digest == ref.ciphertext_vector_digest(ciphertexts)
    upload = Upload(device_id, ciphertexts, None, values, [])
    assert upload.digest() == ref.upload_digest(upload)
    assert aggregator.upload_digests([device_id], [paillier.ciphertext_bytes(cts)]) == [
        upload.digest()
    ]
    assert zkp.prove(statement, device_id, round_number, digest) == ref.prove(
        statement, device_id, round_number, digest
    )


# ------------------------------------------------------------ shard stages


@st.composite
def shard_cases(draw):
    one_hot = draw(st.booleans())
    categories = draw(st.integers(1, 5))
    bins = draw(st.sampled_from([1, 3])) if one_hot else 1
    width = categories * bins if one_hot else categories
    n = draw(st.one_of(st.integers(0, 24), st.sampled_from([1, 7, 64])))
    if draw(st.booleans()):
        online = [False] * n  # an empty-online shard
    else:
        online = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.integers(0, 4)) == 0:
        malicious = [True] * n  # nothing to accept: no partials, an empty leaf
    else:
        malicious = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if one_hot:
        values = np.asarray(
            draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=np.int64
        )
    else:
        # Rows narrower, as wide as, or wider than the statement; 1-D when 1 wide.
        columns = draw(st.integers(1, width + 1))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, 100), min_size=columns, max_size=columns),
                min_size=n, max_size=n,
            )
        )
        values = np.asarray(rows, dtype=np.int64).reshape(n, columns)
        if columns == 1 and draw(st.booleans()):
            values = values.reshape(n)
    packing = None
    if draw(st.booleans()):
        packing = SlotPacking(width=width, slot_bits=16, lanes=draw(st.integers(1, width)))
    pool = ObfuscatorPool(
        SK,
        random.Random(draw(st.integers(0, 2**32))),
        pool_size=draw(st.integers(2, 9)),
        subset_size=draw(st.integers(1, 6)),
    )
    ctx = ShardContext(
        public_key=PK,
        statement=one_hot_statement(width) if one_hot else range_statement(width, 0, 100),
        categories=categories,
        bins=bins,
        one_hot=one_hot,
        width=width,
        round_number=draw(st.integers(0, 5)),
        packing=packing,
        pool=pool,
    )
    shard = DeviceShard(
        shard_id=draw(st.integers(0, 3)),
        device_ids=np.arange(100, 100 + n, dtype=np.int64),
        values=values,
        online=np.asarray(online, dtype=bool),
        malicious=np.asarray(malicious, dtype=bool),
        stream_label="sharded/upload/0",
    )
    return shard, ctx, draw(st.integers(0, 2**32))


def upload_fields(upload):
    assert type(upload.device_id) is int and type(upload.witness) is list
    assert all(type(v) is int for v in upload.witness)
    assert all(type(i) is int for indices in upload.pad_indices for i in indices)
    return (
        upload.device_id,
        [(ct.value, ct.n) for ct in upload.ciphertexts],
        upload.proof,  # a frozen dataclass: == compares every InputProof field
        upload.witness,
        upload.pad_indices,
    )


def intake_fields(result):
    return (
        result.shard_id,
        result.modulus,
        result.partials,
        result.accepted,
        result.rejected,
        result.upload_digests,
        result.leaf_digest,
        result.uploads_received,
    )


@settings(max_examples=150, deadline=None)
@given(case=shard_cases())
def test_shard_stages_match_the_per_device_oracle(case):
    shard, ctx, seed = case
    bulk, scalar = random.Random(seed), random.Random(seed)
    got = upload_shard(shard, ctx, bulk)
    want = ref.upload_shard(shard, ctx, scalar)
    uploads = ref.as_objects(got).uploads
    assert [upload_fields(u) for u in uploads] == [upload_fields(u) for u in want.uploads]
    assert len(got) == shard.online_count and got.modulus == PK.n
    assert bulk.getstate() == scalar.getstate()
    # Equal vectors share a row in the columns; an Upload built from one owns its copy.
    for k, upload in enumerate(uploads):
        upload.witness.append(7)
        assert len(got.witnesses[k]) == ctx.width

    result = verify_shard(got, ctx)
    assert intake_fields(result) == intake_fields(ref.verify_shard(want, ctx))
    if ctx.width > 1 or not ctx.one_hot:  # a 1-wide "several categories" vector is one-hot
        assert result.rejected == shard.device_ids[shard.online & shard.malicious].tolist()
    # Row k, asked for as an object, digests to what the leaf committed for column k.
    kept = [got.upload(k) for k in range(len(got)) if got.device_ids[k] not in result.rejected]
    assert [u.digest() for u in kept] == result.upload_digests


def _flip(digest: bytes) -> bytes:
    return bytes([digest[0] ^ 1]) + digest[1:]


def _entry(column_of, change):
    """The tamper that replaces row ``k`` of one column with ``change`` of it."""

    def tamper(batch, k):
        column_of(batch)[k] = change(column_of(batch)[k])

    return tamper


def _other_first_pad(indices):
    changed = indices.copy()
    changed[0, 0] = 1 if changed[0, 0] == 0 else 0
    return changed


def _pad_outside_the_pool(indices):
    changed = indices.copy()
    changed[0, 0] = -1
    return changed


#: Per column of the batch, what tampering with row ``k`` does. Each entry
#: either fails a per-row check or shifts the leaf equation by a fixed
#: amount (the witness by 1 a slot, the forgery by 10^6 in slot 0), and no
#: mix of up to four shifts balances, so they can be mixed over any victims.
TAMPERS = {
    "ciphertext": _entry(lambda b: b.ciphertexts, lambda values: [values[0] + 1] + values[1:]),
    "proof device": _entry(lambda b: b.proofs.device_ids, lambda device_id: device_id + 1),
    "proof round": _entry(lambda b: b.proofs.round_numbers, lambda rnd: rnd + 1),
    # A statement every witness here satisfies, just not the query's.
    "proof statement": _entry(
        lambda b: b.proofs.statements, lambda statement: range_statement(statement.length, 0, 1000)
    ),
    "ciphertext digest": _entry(lambda b: b.proofs.ciphertext_digests, _flip),
    "binding": _entry(lambda b: b.proofs.bindings, _flip),
    # The row is shared with every device that sent the same vector: replaced,
    # never mutated. Where the new row still satisfies the statement, only
    # the leaf equation tells it from the ciphertext.
    "witness": _entry(lambda b: b.witnesses, lambda row: [v + 1 for v in row]),
    # Honest witness and pad indices, 10^6 more in slot 0, re-digested and
    # re-bound: nothing but the opening tells.
    "forged ciphertext": lambda batch, k: ref.forge_ciphertext(batch, k, 10**6),
}

#: Tampers that two rows can cancel inside one leaf, by trading pads or
#: witnesses between them (``tests/test_leaf_equation.py``), so these are
#: tried one victim at a time.
LONE_TAMPERS = {
    "pad index": _entry(lambda b: b.pad_indices, _other_first_pad),
    "pad index outside the pool": _entry(lambda b: b.pad_indices, _pad_outside_the_pool),
    # Another vector that satisfies the statement: the proof commits to no
    # witness, the ciphertext does.
    "substituted witness": _entry(lambda b: b.witnesses, lambda row: row[1:] + row[:1]),
}


def tamper(batch, how, k):
    {**TAMPERS, **LONE_TAMPERS}[how](batch, k)


@settings(max_examples=100, deadline=None)
@given(case=shard_cases(), data=st.data())
def test_tampered_batches_are_rejected_in_the_same_order(case, data):
    shard, ctx, seed = case
    batch = upload_shard(shard, ctx, random.Random(seed))
    if len(batch) < 2:
        return
    rejected_anyway = set(verify_shard(batch, ctx).rejected)
    victims = data.draw(
        st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=4, unique=True)
    )
    for index in victims:
        tamper(batch, data.draw(st.sampled_from(sorted(TAMPERS))), index)
    result = verify_shard(batch, ctx)
    assert intake_fields(result) == intake_fields(ref.verify_shard(ref.as_objects(batch), ctx))
    # Exactly the tampered devices are lost, nobody beside them.
    lost = rejected_anyway | {batch.device_ids[k] for k in victims}
    assert result.rejected == [d for d in batch.device_ids if d in lost]


@pytest.mark.parametrize("how", sorted({**TAMPERS, **LONE_TAMPERS}))
def test_every_column_is_checked_for_every_upload(how):
    """The tamper matrix, one column at a time, on a shard nobody else fails in."""
    width = 4
    ctx = ShardContext(
        public_key=PK,
        statement=one_hot_statement(width),
        categories=width,
        bins=1,
        one_hot=True,
        width=width,
        round_number=3,
        packing=SlotPacking(width=width, slot_bits=16, lanes=2),
        pool=ObfuscatorPool(SK, random.Random(1), pool_size=4, subset_size=2),
    )
    n = 7
    shard = DeviceShard(
        shard_id=2,
        device_ids=np.arange(10, 10 + n, dtype=np.int64),
        values=np.arange(n, dtype=np.int64),
        online=np.ones(n, dtype=bool),
        malicious=np.zeros(n, dtype=bool),
        stream_label="sharded/upload/2",
    )
    for victim in range(n):
        batch = upload_shard(shard, ctx, random.Random(5))
        tamper(batch, how, victim)
        result = verify_shard(batch, ctx)
        assert result.rejected == [10 + victim] and result.accepted == n - 1
        assert intake_fields(result) == intake_fields(
            ref.verify_shard(ref.as_objects(batch), ctx)
        )


# ------------------------------------------- proofs belong to their upload


def test_proof_for_another_uploader_round_or_statement_is_rejected():
    """The fail-open regression: ``zkp.verify`` alone accepts all three."""
    width, round_number = 4, 7
    ctx = ShardContext(
        public_key=PK,
        statement=one_hot_statement(width),
        categories=width,
        bins=1,
        one_hot=True,
        width=width,
        round_number=round_number,
        packing=None,
        pool=ObfuscatorPool(SK, random.Random(1), pool_size=4, subset_size=2),
    )
    rng = random.Random(2)

    def upload(device_id, witness, statement, proof_device, proof_round):
        indices = ctx.pool.draw(rng, width)
        cts = [
            paillier.encrypt_with_pad(PK, value, pad)
            for value, pad in zip(witness, ctx.pool.products(indices))
        ]
        proof = zkp.prove(
            statement, proof_device, proof_round, aggregator.ciphertext_vector_digest(cts)
        )
        return Upload(device_id, cts, proof, witness, indices.tolist())

    def intake(uploads):
        return verify_shard(ref.as_columns(ref.ObjectBatch(0, uploads), PK.n), ctx)

    honest = upload(1, [0, 1, 0, 0], ctx.statement, 1, round_number)
    # Not one-hot, but carrying a statement it does satisfy.
    relabelled = upload(2, [1, 1, 1, 0], range_statement(width, 0, 1), 2, round_number)
    # Well-formed, but minted for device 9 in round 3.
    replayed = upload(3, [0, 0, 1, 0], ctx.statement, 9, 3)
    batch = [honest, relabelled, replayed]
    assert all(zkp.verify(u.proof, u.witness) for u in batch)

    result = intake(batch)
    assert result.rejected == [2, 3]
    assert result.accepted == 1
    assert result.upload_digests == [honest.digest()]
    # Each binding comparison on its own.
    for device, rnd in ((9, round_number), (3, 3)):
        lone = upload(3, [0, 0, 1, 0], ctx.statement, device, rnd)
        assert intake([lone]).rejected == [3]


def test_a_batch_under_another_key_cannot_reach_the_tree():
    """One modulus per batch: the leaf sum carries it and the tree compares it once."""
    other_sk = paillier.keygen(bits=96, rng=random.Random(4))
    other = other_sk.public
    ctx = ShardContext(
        public_key=other,
        statement=one_hot_statement(2),
        categories=2,
        bins=1,
        one_hot=True,
        width=2,
        round_number=0,
        packing=None,
        pool=ObfuscatorPool(other_sk, random.Random(1), pool_size=4, subset_size=2),
    )
    shard = DeviceShard(
        0, np.arange(1, 4, dtype=np.int64), np.zeros(3, dtype=np.int64),
        np.ones(3, dtype=bool), np.zeros(3, dtype=bool), "sharded/upload/0",
    )
    result = verify_shard(upload_shard(shard, ctx, random.Random(3)), ctx)
    assert result.modulus == other.n and all(ct.n == other.n for ct in result.partials)
    with pytest.raises(ValueError, match="different key"):
        aggregator.AggregatorTree(PK, num_leaves=2).ingest_leaf(result)
