"""The vector hand-off against its element-at-a-time oracle (``tests/oracles``).

``redistribute_vector`` deals, commits, verifies and combines a whole
vector in one pass, with every power of the Feldman generator read off a
cached byte comb. None of that may be observable: the new shares and the
RNG stream's end position must match one full VSR round per element on the
builtin ``pow``, a tampered sub-share or commitment must be refused with the
same error, and the fixed-base kernel must equal ``pow`` on every exponent.
The same holds one layer up: ``Committee.send_via_vsr`` / ``recover_shares``
move the engines' y-columns through it without building a share object, and
what arrives is what the oracle computes from the exported columns.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import shamir, vsr
from repro.crypto.backend import AcceleratedBackend, PureBackend
from repro.crypto.field import MERSENNE_61, MERSENNE_127, PrimeField
from repro.crypto.vsr import (
    VSRError,
    _group_for_field,
    combine_vector,
    deal_committed,
    redistribute_vector,
)
from repro.runtime.committee import Committee

from .conftest import share_values
from .oracles import vsr_reference as ref

FIELDS = {61: PrimeField(MERSENNE_61), 127: PrimeField(MERSENNE_127)}


# ------------------------------------------------- vector protocol ≡ oracle


@st.composite
def hand_offs(draw):
    """(field, old y-vectors of the reachable dealers, t_old, t_new, new ids, secrets)."""
    field = FIELDS[draw(st.sampled_from([61, 127]))]
    ids = st.integers(1, 10**6)
    old_ids = draw(st.lists(ids, min_size=3, max_size=7, unique=True))
    new_ids = draw(st.lists(ids, min_size=3, max_size=7, unique=True))
    old_t = draw(st.integers(0, (len(old_ids) - 1) // 2))
    new_t = draw(st.integers(0, (len(new_ids) - 1) // 2))
    length = draw(st.sampled_from([0, 1, 17]))
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    secrets = [rng.randrange(field.modulus) for _ in range(length)]
    shares = share_values(secrets, old_t, old_ids, field, rng)
    # The dealers `exclude_members` leaves: any subset that still holds a quorum.
    reachable = draw(
        st.lists(st.sampled_from(old_ids), min_size=old_t + 1, max_size=len(old_ids), unique=True)
    )
    old = {x: [s.y for s in shares[x]] for x in old_ids if x in reachable}
    return field, old, old_t, new_t, new_ids, secrets, seed


@settings(max_examples=60, deadline=None)
@given(hand_offs())
def test_vector_hand_off_matches_the_per_element_oracle(case):
    field, old, old_t, new_t, new_ids, secrets, seed = case
    fast, slow = random.Random(seed), random.Random(seed)
    got = redistribute_vector(old, old_t, new_t, new_ids, field, fast)
    want = ref.redistribute_vector(old, old_t, new_t, new_ids, field, slow)
    assert got == want
    assert list(got) == list(new_ids)
    assert fast.getstate() == slow.getstate()
    quorum = new_ids[: new_t + 1]
    for i, secret in enumerate(secrets):
        points = [shamir.Share(pid, got[pid][i]) for pid in quorum]
        assert shamir.reconstruct_secret(points, field) == secret


@pytest.mark.parametrize("what", ["sub_share", "commitment"])
@pytest.mark.parametrize("seed", range(6))
def test_tampering_is_refused_naming_the_same_dealer(what, seed):
    field = FIELDS[127 if seed % 2 else 61]
    rng = random.Random(seed)
    old_ids, new_ids, old_t, new_t, length = [3, 9, 4, 12, 7], [2, 5, 11, 6], 2, 1, 5
    secrets = [rng.randrange(field.modulus) for _ in range(length)]
    shares = share_values(secrets, old_t, old_ids, field, rng)
    old = {x: [s.y for s in shares[x]] for x in old_ids}
    dealers = old_ids[: old_t + 1]
    element, d, j = rng.randrange(length), rng.randrange(len(dealers)), rng.randrange(len(new_ids))
    k = rng.randrange(new_t + 1)

    def corrupt(commitments, subs):
        if what == "sub_share":
            subs[j] = (subs[j] + 1) % field.modulus
        else:
            commitments[k] = commitments[k] * 2 % _group_for_field(field)[0]

    def tamper(i, messages):
        if i == element:
            corrupt(messages[d][1], messages[d][2])

    draws = random.Random(seed + 100)
    with pytest.raises(VSRError) as slow:
        ref.redistribute_vector(old, old_t, new_t, new_ids, field, draws, tamper)
    constants = [old[x][i] for i in range(length) for x in dealers]
    commitments, subs = deal_committed(constants, new_t, new_ids, field, random.Random(seed + 100))
    row = element * len(dealers) + d
    corrupt(commitments[row], subs[row])
    with pytest.raises(VSRError) as fast:
        combine_vector(dealers, new_ids, new_t, commitments, subs, field)
    assert str(fast.value) == str(slow.value)
    assert f"dealer {dealers[d]} " in str(fast.value)


# ------------------------------------------- committee hand-off ≡ oracle


def _oracle_rng(rng):
    """A generator parked where ``rng`` is now, for the oracle's draws."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


@pytest.mark.parametrize("excluded", [(), (103,), (101, 104)], ids=["all", "one-lost", "two-lost"])
@pytest.mark.parametrize("sizes", [(5, 4), (7, 3), (5, 7)], ids=lambda s: "{}to{}".format(*s))
def test_send_via_vsr_matches_the_oracle(sizes, excluded):
    rng = random.Random(sum(sizes) + len(excluded))
    sender = Committee("a", list(range(101, 101 + sizes[0])), rng, bit_width=24)
    recipient = Committee("b", list(range(201, 201 + sizes[1])), rng, bit_width=24)
    secrets = [7, -3, 2**20, 0, -(2**22)]
    values = sender.share_values(secrets)
    columns = sender.engine.export_columns(values)
    slow = _oracle_rng(rng)
    moved = sender.send_via_vsr(values, recipient, exclude_members=excluded)
    dealers = [
        pid
        for pid, member in zip(sender.engine.party_ids, sender.members)
        if member not in excluded
    ]
    want = ref.redistribute_vector(
        {pid: columns[pid] for pid in dealers},
        sender.threshold,
        recipient.threshold,
        recipient.engine.party_ids,
        sender.field,
        slow,
    )
    assert recipient.engine.export_columns(moved) == want
    assert rng.getstate() == slow.getstate()
    assert [recipient.engine.open(v) for v in moved] == secrets
    assert sender.engine.export_columns(values) == columns  # the sender's copy is untouched


@pytest.mark.parametrize("lost", [[102], [101, 105]], ids=["one-lost", "two-lost"])
def test_recover_shares_matches_the_oracle(lost):
    committee = Committee("keygen", list(range(101, 108)), random.Random(5), bit_width=24)
    vectors = {"lam": committee.share_values([11, -12, 13]), "mu": committee.share_values([14])}
    exported = {label: committee.engine.export_columns(v) for label, v in vectors.items()}
    old_threshold = committee.threshold
    survivors = [
        pid for pid, m in zip(committee.engine.party_ids, committee.members) if m not in lost
    ]
    rng = random.Random(6)
    slow = _oracle_rng(rng)
    recovered = committee.recover_shares(vectors, lost, rng)
    assert committee.size == len(survivors)
    for label in vectors:  # one hand-off per label, in the dict's order
        want = ref.redistribute_vector(
            {pid: exported[label][pid] for pid in survivors},
            old_threshold,
            committee.threshold,
            committee.engine.party_ids,
            committee.field,
            slow,
        )
        assert committee.engine.export_columns(recovered[label]) == want
    assert rng.getstate() == slow.getstate()
    assert [committee.engine.open(v) for v in recovered["lam"]] == [11, -12, 13]


def test_a_cheating_dealer_is_named_through_the_committee(monkeypatch):
    rng = random.Random(17)
    sender = Committee("a", [101, 102, 103, 104, 105], rng, bit_width=24)
    recipient = Committee("b", [201, 202, 203, 204], rng, bit_width=24)
    values = sender.share_values([4, 5, 6])
    columns = sender.engine.export_columns(values)
    dealers = sender.engine.party_ids[: sender.threshold + 1]
    element, d, j = 1, 2, 3
    honest_deal = vsr.deal_committed

    def crooked_deal(*args):
        commitments, subs = honest_deal(*args)
        subs[element * len(dealers) + d][j] += 1
        return commitments, subs

    def tamper(i, messages):
        if i == element:
            messages[d][2][j] += 1

    slow = _oracle_rng(rng)
    monkeypatch.setattr(vsr, "deal_committed", crooked_deal)
    with pytest.raises(VSRError) as fast:
        sender.send_via_vsr(values, recipient)
    with pytest.raises(VSRError) as reference:
        ref.redistribute_vector(
            columns, sender.threshold, recipient.threshold, recipient.engine.party_ids,
            sender.field, slow, tamper,
        )
    assert str(fast.value) == str(reference.value) == (
        f"sub-share from dealer {dealers[d]} failed verification"
    )


# ------------------------------------------------------- fixed-base kernel


@pytest.fixture(params=[PureBackend, AcceleratedBackend])
def backend(request):
    return request.param()


def _check(backend, base, exps, mod):
    got = backend.powmod_base_vector(base, exps, mod)
    assert got == [pow(base, e, mod) for e in exps]
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("bits", [61, 127])
def test_fixed_base_kernel_equals_pow(backend, bits):
    q, g = _group_for_field(FIELDS[bits])
    table_bytes = (q.bit_length() + 7) // 8
    rng = random.Random(bits)
    edge = [0, 1, 255, 256, q - 1, q, (1 << 8 * table_bytes) - 1]
    wider = [1 << 8 * table_bytes, (1 << 8 * table_bytes + 8) - 1]
    _check(backend, g, edge + wider + [-1, -q] + [rng.randrange(q) for _ in range(500)], q)
    assert backend.powmod_base_vector(g, [], q) == []
    _check(backend, g, [rng.randrange(q) for _ in range(50)], q)  # repeated base
    info = backend._comb.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # Same base under another modulus, and another base: no stale rows.
    _check(backend, g, edge + wider, q + 2)
    _check(backend, g + 1, edge + wider, q)
    _check(backend, g, edge, 1)
    assert backend._comb.cache_info().misses == 4


def test_table_cache_is_bounded_and_per_instance():
    one, other = PureBackend(), PureBackend()
    for base in range(2, 12):
        _check(one, base, [0, 1, 10**9], 10**12 + 39)
    assert one._comb.cache_info().currsize <= 4
    assert other._comb.cache_info().currsize == 0


def test_two_threads_may_build_the_same_table(backend):
    q, g = _group_for_field(FIELDS[127])
    rng = random.Random(9)
    exps = [rng.randrange(q) for _ in range(200)]
    want = [pow(g, e, q) for e in exps]
    results, barrier = {}, threading.Barrier(4)

    def worker(name):
        barrier.wait(timeout=10)
        results[name] = backend.powmod_base_vector(g, exps, q)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == {i: want for i in range(4)}
