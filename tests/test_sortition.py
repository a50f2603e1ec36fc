"""Tests for sortition-based committee selection (§5.1)."""

import hmac
import random
from unittest import mock

import pytest

from repro.crypto import sortition
from repro.crypto.merkle import MerkleTree
from repro.crypto.sortition import (
    SortitionState,
    SortitionTicket,
    compute_ticket,
    jointly_generate_block,
    run_sortition,
    selection_probability,
)


def make_tickets(n, block=b"block", round_number=0, seed=1):
    rng = random.Random(seed)
    return [
        compute_ticket(i, rng.getrandbits(128).to_bytes(16, "big"), block, round_number)
        for i in range(1, n + 1)
    ]


class TestTickets:
    def test_deterministic(self):
        secret = b"s" * 16
        a = compute_ticket(1, secret, b"block", 3)
        b = compute_ticket(1, secret, b"block", 3)
        assert a.tag == b.tag

    def test_round_changes_tag(self):
        secret = b"s" * 16
        assert compute_ticket(1, secret, b"block", 1).tag != compute_ticket(
            1, secret, b"block", 2
        ).tag

    def test_block_changes_tag(self):
        secret = b"s" * 16
        assert compute_ticket(1, secret, b"b1", 1).tag != compute_ticket(
            1, secret, b"b2", 1
        ).tag

    def test_secret_changes_tag(self):
        assert compute_ticket(1, b"a" * 16, b"b", 1).tag != compute_ticket(
            1, b"c" * 16, b"b", 1
        ).tag

    @pytest.mark.parametrize("width", [1, 16, 63, 64])
    def test_tag_is_hmac_sha256_of_the_round_message(self, width):
        rng = random.Random(width)
        for round_number in (0, 1, 2**40):
            secret, block = rng.randbytes(width), rng.randbytes(32)
            message = block + round_number.to_bytes(8, "big") + b"\x00"
            ticket = compute_ticket(9, secret, block, round_number)
            assert ticket == SortitionTicket(9, hmac.digest(secret, message, "sha256"))

    @pytest.mark.parametrize("width", [0, 65])
    def test_a_secret_outside_one_sha256_block_is_refused(self, width):
        with pytest.raises(ValueError):
            compute_ticket(1, b"k" * width, b"block", 0)


class TestSelection:
    def test_committee_shapes(self):
        tickets = make_tickets(50)
        assignment = run_sortition(tickets, num_committees=3, committee_size=5)
        assert len(assignment.committees) == 3
        assert all(len(c) == 5 for c in assignment.committees)

    def test_each_device_serves_at_most_once(self):
        tickets = make_tickets(50)
        assignment = run_sortition(tickets, 4, 5)
        selected = assignment.selected_devices
        assert len(selected) == len(set(selected)) == 20

    def test_lowest_hashes_selected(self):
        tickets = make_tickets(20)
        assignment = run_sortition(tickets, 2, 3)
        ordered = sorted(tickets, key=lambda t: (t.tag, t.device_id))
        expected = [t.device_id for t in ordered[:6]]
        assert assignment.selected_devices == expected

    def test_committee_of(self):
        tickets = make_tickets(20)
        assignment = run_sortition(tickets, 2, 3)
        for idx, members in enumerate(assignment.committees):
            for device in members:
                assert assignment.committee_of(device) == idx
        unselected = set(range(1, 21)) - set(assignment.selected_devices)
        assert assignment.committee_of(next(iter(unselected))) == -1

    def test_insufficient_devices(self):
        with pytest.raises(ValueError):
            run_sortition(make_tickets(5), 2, 3)

    def test_duplicate_devices_rejected(self):
        tickets = make_tickets(10)
        with pytest.raises(ValueError):
            run_sortition(tickets + [tickets[0]], 2, 3)

    def test_selection_is_unbiased_ish(self):
        """Across many rounds, every device is selected a similar number of
        times — no device can grind its deterministic tag."""
        counts = {i: 0 for i in range(1, 21)}
        rng = random.Random(0)
        secrets = {i: rng.getrandbits(128).to_bytes(16, "big") for i in counts}
        rounds = 400
        for r in range(rounds):
            block = rng.getrandbits(128).to_bytes(16, "big")
            tickets = [compute_ticket(i, s, block, r) for i, s in secrets.items()]
            assignment = run_sortition(tickets, 1, 5)
            for d in assignment.selected_devices:
                counts[d] += 1
        expected = rounds * 5 / 20
        for device, count in counts.items():
            assert 0.5 * expected < count < 1.5 * expected, (device, count)

    def test_selection_probability(self):
        assert selection_probability(1000, 2, 5) == pytest.approx(0.01)
        assert selection_probability(5, 2, 5) == 1.0


class TestState:
    def test_initial_and_advance(self):
        state = SortitionState.initial([1, 2, 3], b"seed")
        assert state.round_number == 0
        advanced = state.advance(b"newblock", [1, 2, 3, 4])
        assert advanced.round_number == 1
        assert advanced.block == b"newblock"
        assert len(advanced.registry) == 4

    def test_advance_keeps_the_registry_only_when_every_leaf_is_the_same(self):
        state = SortitionState.initial([1, 2, 3, 4], b"seed")
        with mock.patch.object(sortition, "MerkleTree", side_effect=AssertionError):
            same = state.advance(b"b1", [1, 2, 3, 4])
            assert same.advance(b"b2", (1, 2, 3, 4)).registry is state.registry
            assert same.advance(b"b2", range(1, 5)).registry is state.registry
        assert same.registry is state.registry
        fresh_roots = set()
        for device_ids in ([1, 2, 3, 5], [1, 2, 4, 3], [1, 2, 3], [1, 2, 3, 4, 5], range(2, 6)):
            moved = state.advance(b"b1", device_ids)
            assert moved.registry is not state.registry
            assert moved.registry.root == MerkleTree(
                [d.to_bytes(8, "big") for d in device_ids]
            ).root
            assert moved.registry.root != state.registry.root
            fresh_roots.add(moved.registry.root)
        assert len(fresh_roots) == 5

    def test_a_ranged_registry_is_kept_without_building_a_leaf(self):
        state = SortitionState.initial(range(1, 5), b"seed")
        assert state.registry.root == SortitionState.initial([1, 2, 3, 4], b"seed").registry.root
        with mock.patch.object(sortition, "MerkleTree", side_effect=AssertionError):
            kept = state.advance(b"b1", range(1, 5)).advance(b"b2", [1, 2, 3, 4])
        assert kept.registry is state.registry and kept.round_number == 2
        for device_ids in (range(1, 4), range(1, 6), range(2, 6)):
            moved = state.advance(b"b1", device_ids)
            assert moved.registry.root == SortitionState.initial(list(device_ids), b"x").registry.root
            assert moved.registry.root != state.registry.root

    def test_lowest_tags_fill_the_seats_in_sorted_order(self):
        tickets = make_tickets(200, seed=5)
        ordered = sorted(tickets, key=lambda t: (t.tag, t.device_id))
        for committees, size in ((3, 4), (1, 1), (10, 20), (0, 4)):
            assignment = run_sortition(tickets, committees, size)
            assert assignment.selected_devices == [
                t.device_id for t in ordered[: committees * size]
            ]

    def test_joint_block_generation(self):
        block = jointly_generate_block({1: b"\x01\x02", 2: b"\x03\x04"})
        assert block == b"\x02\x06"

    def test_joint_block_single_honest_contribution_matters(self):
        base = jointly_generate_block({1: b"\xaa", 2: b"\xbb"})
        changed = jointly_generate_block({1: b"\xaa", 2: b"\xbc"})
        assert base != changed

    def test_joint_block_empty_rejected(self):
        with pytest.raises(ValueError):
            jointly_generate_block({})
