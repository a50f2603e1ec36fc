"""Sortition: unbiased random committee selection (§5.1).

Arboretum generalizes Honeycrisp's sortition. The system holds a public
random block B_i and a Merkle tree M_i of registered devices. For query i,
each device deterministically signs (B_i, i, 0) and hashes the signature;
the c*m devices with the lowest hashes form the committees, the device with
the x-th lowest hash joining committee floor(x/m). Determinism matters: a
device cannot grind for a favourable hash because its signature over the
fixed message is unique.

The paper uses RSA with deterministic padding; we substitute HMAC-SHA256
keyed by each device's secret (a keyed VRF stand-in with the same
uniform-ordering property — see DESIGN.md), computed as RFC 2104's two
SHA-256 calls over key pads translated a chunk of secrets at a time.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .merkle import MerkleTree

#: Secrets whose key pads are translated at once: two 64 KB transients at
#: 16-byte secrets, whatever the population.
CHUNK = 1 << 12

#: SHA-256's block size; RFC 2104 pads a key shorter than it with zeros.
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


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
    (ticket,) = lowest_tickets(device_secret, len(device_secret), block, round_number, 1)
    return SortitionTicket(device_id, ticket.tag)


def lowest_tickets(
    secrets: bytes, width: int, block: bytes, round_number: int, count: int
) -> List[SortitionTicket]:
    """The ``count`` lowest tickets of a round over a packed secret column.

    Device ``i`` holds ``secrets[width·(i − 1) : width·i]``. Ranks a stream
    of bare ``(tag, device_id)`` pairs — the order :func:`run_sortition`
    uses — so at most ``count`` of them are alive at once, and builds a
    ticket only for those that win a seat. Each tag is exactly
    ``hmac.digest(secret, message, "sha256")``.
    """
    if not 0 < width <= _BLOCK:
        raise ValueError(f"a sortition secret is 1 to {_BLOCK} bytes, not {width}")
    message = block + round_number.to_bytes(8, "big") + b"\x00"
    ranked = heapq.nsmallest(count, _tags(secrets, width, message))
    return [SortitionTicket(device_id, tag) for tag, device_id in ranked]


def _tags(secrets: bytes, width: int, message: bytes) -> Iterator[Tuple[bytes, int]]:
    """``(HMAC-SHA256(secret, message), device_id)`` for every secret, in order."""
    sha256 = hashlib.sha256
    inner_tail = b"\x36" * (_BLOCK - width) + message
    outer_tail = b"\x5c" * (_BLOCK - width)
    step = CHUNK * width
    for start in range(0, len(secrets), step):
        chunk = secrets[start : start + step]
        ipads, opads = chunk.translate(_IPAD), chunk.translate(_OPAD)
        for device_id, at in enumerate(range(0, len(chunk), width), start // width + 1):
            inner = sha256(ipads[at : at + width] + inner_tail).digest()
            yield sha256(opads[at : at + width] + outer_tail + inner).digest(), device_id


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
    #: The device ids the registry was built from, in leaf order.
    device_ids: Sequence[int]
    round_number: int = 0

    @classmethod
    def initial(cls, device_ids: Sequence[int], seed: bytes) -> "SortitionState":
        """Trusted-setup state (the aggregator is honest at startup, §3.1)."""
        ids = _frozen(device_ids)
        return cls(seed, _registry(ids), ids)

    def advance(self, new_block: bytes, device_ids: Sequence[int]) -> "SortitionState":
        """Move to the next round with a committee-generated random block.

        The registry tree is immutable, so a round over the same device ids
        in the same order keeps the same tree; any difference (a changed,
        reordered, added or removed device) builds a fresh one. Two ranges
        compare in O(1), so a population that only ever lists
        ``range(1, N + 1)`` builds no leaf after setup.
        """
        ids = _frozen(device_ids)
        if ids == self.device_ids or tuple(ids) == tuple(self.device_ids):
            return SortitionState(new_block, self.registry, self.device_ids, self.round_number + 1)
        return SortitionState(new_block, _registry(ids), ids, self.round_number + 1)


def _frozen(device_ids: Sequence[int]) -> Sequence[int]:
    """An immutable copy of ``device_ids``; a range is one already."""
    return device_ids if isinstance(device_ids, range) else tuple(device_ids)


def _registry(device_ids: Sequence[int]) -> MerkleTree:
    return MerkleTree([d.to_bytes(8, "big") for d in device_ids])


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
