"""Sortition: unbiased random committee selection (§5.1).

Arboretum generalizes Honeycrisp's sortition. The system holds a public
random block B_i and a Merkle tree M_i of registered devices. For query i,
each device deterministically signs (B_i, i, 0) and hashes the signature;
the c*m devices with the lowest hashes form the committees, the device with
the x-th lowest hash joining committee floor(x/m). Determinism matters: a
device cannot grind for a favourable hash because its signature over the
fixed message is unique.

The paper uses RSA with deterministic padding; we substitute an HMAC-based
deterministic tag keyed by each device's secret (a keyed VRF stand-in with
the same uniform-ordering property — see DESIGN.md).
"""

from __future__ import annotations

import heapq
import hmac
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .merkle import MerkleTree


@dataclass(frozen=True)
class SortitionTicket:
    """One device's lottery entry: a deterministic tag over the round seed."""

    device_id: int
    tag: bytes


def compute_ticket(device_id: int, device_secret: bytes, block: bytes, round_number: int) -> SortitionTicket:
    """Deterministically derive a device's ticket for a query round.

    The message is (B_i, i, 0) as in §5.1; HMAC with the device secret plays
    the role of the deterministic signature, and the tag doubles as the
    signature hash that orders the lottery.
    """
    return lowest_tickets([(device_id, device_secret)], block, round_number, 1)[0]


def lowest_tickets(
    devices: Iterable[Tuple[int, bytes]], block: bytes, round_number: int, count: int
) -> List[SortitionTicket]:
    """The ``count`` lowest tickets of a round among ``(device_id, secret)`` pairs.

    Ranks a stream of bare ``(tag, device_id)`` pairs — the order
    :func:`run_sortition` uses — so at most ``count`` of them are alive at
    once, and builds a ticket only for those that win a seat.
    """
    message = block + round_number.to_bytes(8, "big") + b"\x00"
    ranked = heapq.nsmallest(
        count,
        ((hmac.digest(secret, message, "sha256"), device_id) for device_id, secret in devices),
    )
    return [SortitionTicket(device_id, tag) for tag, device_id in ranked]


@dataclass(frozen=True)
class CommitteeAssignment:
    """The outcome of one sortition round."""

    committees: List[List[int]]
    committee_size: int

    def committee_of(self, device_id: int) -> int:
        """Index of the committee this device serves on, or -1 if none."""
        for idx, members in enumerate(self.committees):
            if device_id in members:
                return idx
        return -1

    @property
    def selected_devices(self) -> List[int]:
        return [d for committee in self.committees for d in committee]


def run_sortition(
    tickets: Sequence[SortitionTicket],
    num_committees: int,
    committee_size: int,
) -> CommitteeAssignment:
    """Select ``num_committees`` committees of ``committee_size`` devices.

    Devices are ordered by their ticket tags; the device with the x-th
    lowest tag joins committee floor(x/m). Each device serves on at most
    one committee.
    """
    needed = num_committees * committee_size
    if len(tickets) < needed:
        raise ValueError(
            f"{len(tickets)} devices cannot fill {num_committees} committees of {committee_size}"
        )
    ids = {t.device_id for t in tickets}
    if len(ids) != len(tickets):
        raise ValueError("duplicate device ids in sortition tickets")
    ordered = heapq.nsmallest(needed, tickets, key=lambda t: (t.tag, t.device_id))
    committees = [
        [t.device_id for t in ordered[k * committee_size : (k + 1) * committee_size]]
        for k in range(num_committees)
    ]
    return CommitteeAssignment(committees, committee_size)


def selection_probability(num_devices: int, num_committees: int, committee_size: int) -> float:
    """Probability that a given device serves on any committee this round."""
    return min(1.0, (num_committees * committee_size) / num_devices)


@dataclass
class SortitionState:
    """Public per-round state: the random block and the device registry.

    The key-generation committee refreshes both at every query (§5.2): a
    fresh block B_{i+1} is jointly generated in MPC, and the new Merkle tree
    M_i of registered devices is pinned inside the signed query authorization
    certificate, which prevents "computational grinding" by a Byzantine
    aggregator.
    """

    block: bytes
    registry: MerkleTree
    round_number: int = 0

    @classmethod
    def initial(cls, device_ids: Sequence[int], seed: bytes) -> "SortitionState":
        """Trusted-setup state (the aggregator is honest at startup, §3.1)."""
        leaves = [d.to_bytes(8, "big") for d in device_ids]
        return cls(block=seed, registry=MerkleTree(leaves), round_number=0)

    def advance(self, new_block: bytes, device_ids: Sequence[int]) -> "SortitionState":
        """Move to the next round with a committee-generated random block.

        The registry tree is immutable, so a round whose device set has
        byte-identical leaves keeps the same tree; any difference (a
        changed, reordered, added or removed device) builds a fresh one.
        """
        leaves = tuple(d.to_bytes(8, "big") for d in device_ids)
        registry = self.registry if leaves == self.registry.leaves else MerkleTree(leaves)
        return SortitionState(new_block, registry, self.round_number + 1)


def jointly_generate_block(member_randomness: Dict[int, bytes]) -> bytes:
    """XOR the committee members' random contributions into the next block.

    Matches §5.2: B_{i+1} = ⊕_j x_j inside the keygen MPC, so a single
    honest member suffices for an unpredictable block.
    """
    if not member_randomness:
        raise ValueError("need at least one contribution")
    width = max(len(r) for r in member_randomness.values())
    acc = bytearray(width)
    for contribution in member_randomness.values():
        padded = contribution.ljust(width, b"\x00")
        for i, byte in enumerate(padded):
            acc[i] ^= byte
    return bytes(acc)
