"""The columnar population against its per-device oracle (``tests/oracles``).

``FederatedNetwork`` keeps its devices as columns, draws their secrets and
malice flags a chunk of devices at a time, fills their data with bulk
replays of ``randrange`` / ``choices`` / ``randint``, and ranks sortition
tags as a stream. None of that may be observable: the secrets, malice
flags, values, registry root, committees and ``rng.getstate()`` after
construction and after every loader must equal the object-per-device
reference's. A ``Device`` is a view that writes through, and a population
is freed by reference counting alone.
"""

import gc
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import sortition
from repro.runtime import network as network_module
from repro.runtime.network import FederatedNetwork

from .oracles.network_reference import ReferenceNetwork

WEIGHTS = st.one_of(st.integers(0, 50), st.floats(0.0, 100.0))


@st.composite
def loader_calls(draw):
    """One loader call, as ``(method name, arguments)``."""
    kind = draw(st.sampled_from(["uniform", "weighted", "numeric"]))
    if kind == "uniform":
        return "load_categorical_data", (draw(st.integers(1, 2**20)),)
    if kind == "weighted":
        # One positive weight keeps the total above zero, as choices() needs.
        weights = [draw(st.integers(1, 50))] + draw(st.lists(WEIGHTS, max_size=11))
        return "load_categorical_data", (len(weights), draw(st.permutations(weights)))
    low = draw(st.integers(-1000, 1000))
    high = low + draw(st.integers(0, 2**20))
    return "load_numeric_data", (low, high, draw(st.integers(1, 5)))


def assert_same_population(net, ref):
    assert net.secrets == b"".join(d.secret for d in ref.devices)
    assert [d.malicious for d in net.devices] == [d.malicious for d in ref.devices]
    assert [d.value for d in net.devices] == [d.value for d in ref.devices]
    assert net.rng.getstate() == ref.rng.getstate()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(4, 200),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    chunk=st.sampled_from([1, 3, 64, network_module.CHUNK]),
    calls=st.lists(loader_calls(), max_size=3),
    committee_size=st.integers(1, 4),
)
def test_population_matches_the_per_device_oracle(
    n, fraction, seed, chunk, calls, committee_size
):
    with mock.patch.object(network_module, "CHUNK", chunk):
        net = FederatedNetwork(n, rng=random.Random(seed), malicious_fraction=fraction)
    ref = ReferenceNetwork(n, random.Random(seed), malicious_fraction=fraction)
    assert_same_population(net, ref)
    assert net.sortition.block == ref.sortition.block
    assert net.sortition.registry.root == ref.sortition.registry.root
    for name, args in calls:
        getattr(net, name)(*args)
        getattr(ref, name)(*args)
        assert_same_population(net, ref)
    committees = min(n // committee_size, 8)
    assert (
        net.select_committees(committees, committee_size).committees
        == ref.select_committees(committees, committee_size).committees
    )


def test_a_population_past_one_chunk_matches_the_oracle():
    n = network_module.CHUNK + 5
    net = FederatedNetwork(n, rng=random.Random(65), malicious_fraction=0.01)
    ref = ReferenceNetwork(n, random.Random(65), malicious_fraction=0.01)
    net.load_categorical_data(8)
    ref.load_categorical_data(8)
    assert_same_population(net, ref)
    assert net.sortition.registry.root == ref.sortition.registry.root
    assert net.select_committees(64, 4).committees == ref.select_committees(64, 4).committees


def test_sortition_past_two_tag_chunks_matches_the_oracle():
    """The tags are hashed a chunk of secrets at a time; a population two
    chunks and a ragged tail long must seat the same committees."""
    n = 2 * sortition.CHUNK + 17
    net = FederatedNetwork(n, rng=random.Random(66))
    ref = ReferenceNetwork(n, random.Random(66))
    assert net.sortition.registry.root == ref.sortition.registry.root
    for block in (net.sortition.block, bytes(32)):
        net.advance_round(block)
        ref.sortition = ref.sortition.advance(block, [d.device_id for d in ref.devices])
        assert net.sortition.registry.root == ref.sortition.registry.root
        assert net.select_committees(100, 5).committees == ref.select_committees(100, 5).committees


class TestDeviceViews:
    def test_writes_go_through_to_the_columns(self):
        net = FederatedNetwork(10, seed=4)
        net.load_categorical_data(3)
        last = net.devices[-1]
        last.value, last.online, last.malicious = 7, False, True
        assert (net.values[9], net.online[9], net.malicious[9]) == (7, False, True)
        assert (net.device(10).value, net.device(10).online) == (7, False)
        assert [d.device_id for d in net.devices[2:5]] == [3, 4, 5]
        with pytest.raises(IndexError):
            net.devices[10]

    def test_soa_view_hands_out_copies(self):
        net = FederatedNetwork(8, seed=5)
        net.load_categorical_data(4)
        _ids, values, online, malicious = net.soa_view()
        values[:], online[:], malicious[:] = 99, False, True
        assert net.soa_view()[1].tolist() == net.values
        assert net.online.all() and not net.malicious.any()


def test_a_population_is_freed_by_reference_counting():
    """No reference cycle runs through a network and its views: with the
    cyclic collector off, dropping the last reference frees it."""
    gc.disable()
    try:
        net = FederatedNetwork(64, seed=6)
        net.load_numeric_data(0, 3, width=2)
        for device in net.devices:
            device.online = device.device_id % 2 == 0
        net.devices[3].value = [1, 1]
        net.device(5).malicious = True
        net.select_committees(4, 4)
        net.soa_view()
        alive = weakref.ref(net)
        del net, device
        assert alive() is None
    finally:
        gc.enable()
