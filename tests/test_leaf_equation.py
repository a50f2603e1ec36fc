"""The leaf equation: a leaf's accepted ciphertexts open to its accepted witnesses.

A device's proof is checked on the witness it hands over; nothing in the
proof reads the ciphertext's plaintext. ``verify_shard`` closes that gap
once per leaf: the product of the accepted rows' ciphertexts must be
``(1 + M·n) · Π_i pad_i^{cnt_i} mod n²`` for ``M`` the sum of their packed
witnesses and ``cnt_i`` the uses of pool pad ``i`` (docs/PROTOCOL.md §3
"Leaf equation"). These tests pin what that buys — a forged ciphertext is
named and dropped, at the shard and end to end — and exactly what it does
not: rows whose deviations cancel inside one leaf pass together, and the
leaf still decrypts to the sum of their witnesses.
"""

import random

import numpy as np
import pytest

from repro.crypto import paillier
from repro.crypto.zkp import one_hot_statement
from repro.planner.search import plan_query
from repro.queries.catalog import get
from repro.runtime import shard as shard_module
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
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
N = 7
PACKINGS = [None, SlotPacking(width=4, slot_bits=16, lanes=2)]


def context(packing=None):
    return ShardContext(
        public_key=PK,
        statement=one_hot_statement(4),
        categories=4,
        bins=1,
        one_hot=True,
        width=4,
        round_number=3,
        packing=packing,
        pool=ObfuscatorPool(SK, random.Random(1), pool_size=4, subset_size=2),
    )


def honest_batch(ctx, values=None):
    """Devices 10..16, one vote each (device ``10 + k`` in category ``k mod 4``)."""
    shard = DeviceShard(
        shard_id=2,
        device_ids=np.arange(10, 10 + N, dtype=np.int64),
        values=np.arange(N, dtype=np.int64) if values is None else values,
        online=np.ones(N, dtype=bool),
        malicious=np.zeros(N, dtype=bool),
        stream_label="sharded/upload/2",
    )
    return upload_shard(shard, ctx, random.Random(5))


def opened(result):
    return [paillier.decrypt(SK, ct) for ct in result.partials]


@pytest.mark.parametrize("packing", PACKINGS)
def test_a_forged_ciphertext_is_named_at_the_shard(packing):
    """Honest witness and pad indices, 10^6 more in slot 0, re-digested and
    re-bound: every per-row check passes, and the leaf still names it."""
    ctx = context(packing)
    honest = honest_batch(ctx)
    batch = honest_batch(ctx)
    ref.forge_ciphertext(batch, 3, 10**6)
    result = verify_shard(batch, ctx)
    assert result.rejected == [13] and result.accepted == N - 1
    assert result.rejected == ref.verify_shard(ref.as_objects(batch), ctx).rejected
    # What is left is the honest sum less the forger's own (honest) row.
    forger = [paillier.decrypt(SK, ct) for ct in honest.upload(3).ciphertexts]
    assert opened(result) == [
        total - own for total, own in zip(opened(verify_shard(honest, ctx)), forger)
    ]


def test_a_forged_ciphertext_cannot_pick_the_top1_winner(monkeypatch):
    """End to end: one device keeps its honest witness and pushes 100 votes
    into category 3 of a population that votes 20:1:1:1 for category 0."""
    spec = get("top1")
    env = spec.environment(40, categories=4, epsilon=8.0)
    planning = plan_query(spec.source, env, name="top1")
    network = FederatedNetwork(40, rng=random.Random(504))
    network.load_categorical_data(4, distribution=[20, 1, 1, 1])
    executor = QueryExecutor(
        network, planning, committee_size=4, key_prime_bits=96, rng=random.Random(505)
    )
    original = shard_module.upload_shard
    forgers = []

    def forge_then_upload(shard, ctx, rng):
        batch = original(shard, ctx, rng)
        if not forgers:
            lanes = ctx.packing.lanes if ctx.packing is not None else 1
            slot_bits = ctx.packing.slot_bits if ctx.packing is not None else 0
            ref.forge_ciphertext(batch, 0, 100 << (3 % lanes) * slot_bits, column=3 // lanes)
            forgers.append(batch.device_ids[0])
        return batch

    monkeypatch.setattr(shard_module, "upload_shard", forge_then_upload)
    result = executor.run()
    assert result.rejected_devices == forgers
    assert result.value == 0


@pytest.mark.parametrize("packing", PACKINGS)
@pytest.mark.parametrize("how", ["plaintext shifts", "swapped pads"])
def test_deviations_that_cancel_inside_a_leaf_pass_and_leave_the_honest_sum(packing, how):
    """The check's exact guarantee. Two colluding rows either shift their
    plaintexts by +δ and −δ or swap their pad indices: neither opens on its
    own (the per-row oracle rejects both), but together they leave both
    sides of the equation as they were, so the leaf accepts them — and its
    partial still decrypts to exactly the honest sum of the witnesses."""
    ctx = context(packing)
    honest = verify_shard(honest_batch(ctx), ctx)
    batch = honest_batch(ctx)
    if how == "plaintext shifts":
        ref.forge_ciphertext(batch, 1, 10**6)
        ref.forge_ciphertext(batch, 4, -(10**6))
    else:
        assert np.sort(batch.pad_indices[1]).tolist() != np.sort(batch.pad_indices[4]).tolist()
        batch.pad_indices[[1, 4]] = batch.pad_indices[[4, 1]]
    assert ref.verify_shard(ref.as_objects(batch), ctx).rejected == [11, 14]
    result = verify_shard(batch, ctx)
    assert result.rejected == [] and result.accepted == N
    assert opened(result) == opened(honest)


@pytest.mark.parametrize(
    "packing, values",
    [
        (None, None),
        (PACKINGS[1], None),
        # Seven votes in a 2-bit slot carry into its neighbour: the equation
        # sums the packings, so the carry is on both of its sides.
        (SlotPacking(width=4, slot_bits=2, lanes=2), np.zeros(N, dtype=np.int64)),
    ],
)
def test_an_honest_leaf_never_re_encrypts_a_row(monkeypatch, packing, values):
    """The per-row fallback is for a failing leaf only: an honest one passes
    its equation outright, and a forged one falls back once."""
    ctx = context(packing)
    honest, forged = honest_batch(ctx, values), honest_batch(ctx, values)
    ref.forge_ciphertext(forged, 5, 1)
    calls = []
    encrypt = paillier.encrypt_rows_with_pads

    def counting(*args):
        calls.append(len(args[2]))
        return encrypt(*args)

    monkeypatch.setattr(paillier, "encrypt_rows_with_pads", counting)
    assert verify_shard(honest, ctx).rejected == [] and calls == []
    assert verify_shard(forged, ctx).rejected == [15] and calls == [N]
