"""The shard-at-a-time intake against its per-device oracle (``tests/oracles``).

The shard stages replay the shard stream in bulk, multiply memoised pad
pairs, pack each distinct vector once and hash every digest in one call.
None of that may be observable: uploads, the RNG stream's end position,
accept/reject order, leaf digests and partial sums must match the scalar,
per-device reference byte for byte — and a proof that is not the one for
this uploader, round and query must be rejected.
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
from repro.runtime.packing import SlotPacking
from repro.runtime.shard import (
    DeviceShard,
    ObfuscatorPool,
    ShardContext,
    ShardUploadBatch,
    randrange_many,
    upload_shard,
    verify_shard,
)

from .oracles import intake_reference as ref

PK = paillier.keygen(bits=96, rng=random.Random(3)).public


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
    pool = ObfuscatorPool(PK, random.Random(seed), pool_size=pool_size, subset_size=subset_size)
    bulk, scalar = random.Random(seed + 1), random.Random(seed + 1)
    for count in counts:  # later calls hit the pair memo earlier ones filled
        assert pool.draw(bulk, count) == [ref.pool_draw(pool, scalar) for _ in range(count)]
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
    pool = ObfuscatorPool(PK, random.Random(11), pool_size=6, subset_size=4)

    def scalar(worker):
        rng = random.Random(worker)
        return [ref.pool_draw(pool, rng) for _ in range(400)]

    want = {worker: scalar(worker) for worker in range(8)}
    got, errors = {}, []
    start = threading.Barrier(8)

    def work(worker):
        try:
            start.wait(timeout=10)
            rng = random.Random(worker)
            got[worker] = [pad for _ in range(40) for pad in pool.draw(rng, 10)]
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
    assert zkp._digest_values(values, salt) == ref.digest_values(values, salt)
    assert zkp._digest_values(tuple(values), salt) == ref.digest_values(values, salt)
    ct_digest, witness_digest = b"c" * 32, b"w" * 32
    assert zkp._binding(device_id, round_number, ct_digest, witness_digest) == ref.binding(
        device_id, round_number, ct_digest, witness_digest
    )
    ciphertexts = [paillier.PaillierCiphertext(v, PK.n) for v in cts]
    digest = aggregator.ciphertext_vector_digest(ciphertexts)
    assert digest == ref.ciphertext_vector_digest(ciphertexts)
    upload = Upload(device_id, ciphertexts, None, values)
    assert upload.digest() == ref.upload_digest(upload)
    assert zkp.prove(one_hot_statement(4), values, device_id, round_number, digest) == ref.prove(
        one_hot_statement(4), values, device_id, round_number, digest
    )


def test_witness_body_memo_cannot_confuse_keys_that_compare_equal():
    # 1, True and 1.0 are one cache key and one encoding; 2.5 truncates like int().
    salt = b"12345678"
    assert zkp._digest_values([True, 0], salt) == zkp._digest_values([1, 0], salt)
    assert zkp._digest_values([1.0, 0], salt) == ref.digest_values([1.0, 0], salt)
    assert zkp._digest_values([2.5], salt) == ref.digest_values([2.5], salt)
    assert zkp._digest_values([np.int64(7)], salt) == ref.digest_values([7], salt)


# ------------------------------------------------------------ shard stages


@st.composite
def shard_cases(draw):
    one_hot = draw(st.booleans())
    categories = draw(st.integers(1, 5))
    bins = draw(st.sampled_from([1, 3])) if one_hot else 1
    width = categories * bins if one_hot else categories
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        online = [False] * n  # an empty-online shard
    else:
        online = draw(st.lists(st.booleans(), min_size=n, max_size=n))
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
        PK,
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
    return (
        upload.device_id,
        [(ct.value, ct.n) for ct in upload.ciphertexts],
        upload.proof,  # a frozen dataclass: == compares every InputProof field
        upload.witness,
    )


def intake_fields(result):
    return (
        result.shard_id,
        result.partials,
        result.accepted,
        result.rejected,
        result.upload_digests,
        result.leaf_digest,
        result.ciphertext_additions,
        result.uploads_received,
    )


@settings(max_examples=150, deadline=None)
@given(case=shard_cases())
def test_shard_stages_match_the_per_device_oracle(case):
    shard, ctx, seed = case
    bulk, scalar = random.Random(seed), random.Random(seed)
    got = upload_shard(shard, ctx, bulk)
    want = ref.upload_shard(shard, ctx, scalar)
    assert [upload_fields(u) for u in got.uploads] == [upload_fields(u) for u in want.uploads]
    assert len(got.uploads) == shard.online_count
    assert bulk.getstate() == scalar.getstate()
    # Witnesses are each upload's own list, never one shared between devices.
    assert len({id(u.witness) for u in got.uploads}) == len(got.uploads)

    result = verify_shard(got, ctx)
    assert intake_fields(result) == intake_fields(ref.verify_shard(want, ctx))
    if ctx.width > 1 or not ctx.one_hot:  # a 1-wide "several categories" vector is one-hot
        assert result.rejected == shard.device_ids[shard.online & shard.malicious].tolist()


@settings(max_examples=60, deadline=None)
@given(case=shard_cases(), data=st.data())
def test_tampered_batches_are_rejected_in_the_same_order(case, data):
    shard, ctx, seed = case
    batch = upload_shard(shard, ctx, random.Random(seed))
    uploads = batch.uploads
    if len(uploads) < 2:
        return
    victims = data.draw(
        st.lists(st.integers(0, len(uploads) - 1), min_size=1, max_size=4, unique=True)
    )
    for how, index in enumerate(victims):
        upload = uploads[index]
        if how % 3 == 0:  # ciphertext swapped after the proof was made
            upload.ciphertexts[0] = paillier.tampered(upload.ciphertexts[0])
        elif how % 3 == 1:  # a neighbour's proof, replayed
            upload.proof = uploads[(index + 1) % len(uploads)].proof
        else:  # a witness the proof never committed to
            upload.witness = [v + 1 for v in upload.witness]
    result = verify_shard(batch, ctx)
    assert intake_fields(result) == intake_fields(ref.verify_shard(batch, ctx))
    assert set(result.rejected) >= {uploads[i].device_id for i in victims}


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
        pool=ObfuscatorPool(PK, random.Random(1), pool_size=4, subset_size=2),
    )
    rng = random.Random(2)

    def upload(device_id, witness, statement, proof_device, proof_round):
        cts = [
            paillier.encrypt_with_pad(PK, value, pad)
            for value, pad in zip(witness, ctx.pool.draw(rng, width))
        ]
        proof = zkp.prove(
            statement, witness, proof_device, proof_round,
            aggregator.ciphertext_vector_digest(cts),
        )
        return Upload(device_id, cts, proof, witness)

    honest = upload(1, [0, 1, 0, 0], ctx.statement, 1, round_number)
    # Not one-hot, but carrying a statement it does satisfy.
    relabelled = upload(2, [1, 1, 1, 0], range_statement(width, 0, 1), 2, round_number)
    # Well-formed, but minted for device 9 in round 3.
    replayed = upload(3, [0, 0, 1, 0], ctx.statement, 9, 3)
    batch = [honest, relabelled, replayed]
    assert all(zkp.verify(u.proof, u.witness) for u in batch)

    result = verify_shard(ShardUploadBatch(0, batch, 0.0), ctx)
    assert result.rejected == [2, 3]
    assert result.accepted == 1
    assert result.upload_digests == [honest.digest()]
    # Each binding comparison on its own.
    for device, rnd in ((9, round_number), (3, 3)):
        lone = upload(3, [0, 0, 1, 0], ctx.statement, device, rnd)
        assert verify_shard(ShardUploadBatch(0, [lone], 0.0), ctx).rejected == [3]
