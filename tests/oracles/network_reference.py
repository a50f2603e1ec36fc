"""The object-per-device population, kept as the differential oracle.

This is ``FederatedNetwork`` as it stood before the population became
columns: one slotted ``Device`` dataclass per device holding its own
secret, every draw one scalar ``random.Random`` call, and sortition ranking
a list of every device's ``(tag, id)`` pair.
``tests/test_network_equivalence.py`` builds it and the product from one
seed and requires identical secrets, malice flags, values, registry root,
committees and ``rng.getstate()``.

Nothing in ``src/`` imports this module and no option selects it.
"""

from __future__ import annotations

import heapq
import hmac
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto.sortition import (
    CommitteeAssignment,
    SortitionState,
    SortitionTicket,
    run_sortition,
)


@dataclass(slots=True)
class Device:
    """One participant device, as it was stored before the columns."""

    device_id: int
    secret: bytes
    value: object = None
    malicious: bool = False
    online: bool = True


class ReferenceNetwork:
    """The per-device constructor, loaders and sortition ranking."""

    def __init__(
        self, num_devices: int, rng: random.Random, malicious_fraction: float = 0.0
    ):
        self.rng = rng
        self.devices: List[Device] = []
        for device_id in range(1, num_devices + 1):
            secret = self.rng.getrandbits(128).to_bytes(16, "big")
            malicious = self.rng.random() < malicious_fraction
            self.devices.append(Device(device_id, secret, malicious=malicious))
        sortition_seed = self.rng.getrandbits(256).to_bytes(32, "big")
        self.sortition = SortitionState.initial(
            [d.device_id for d in self.devices], sortition_seed
        )

    def load_categorical_data(self, categories: int, distribution: Sequence[float] = None) -> None:
        if distribution is not None:
            if len(distribution) != categories:
                raise ValueError("distribution length must equal category count")
            population = list(range(categories))
            for d in self.devices:
                d.value = self.rng.choices(population, weights=distribution, k=1)[0]
        else:
            for d in self.devices:
                d.value = self.rng.randrange(categories)

    def load_numeric_data(self, low: int, high: int, width: int = 1) -> None:
        for d in self.devices:
            row = [self.rng.randint(low, high) for _ in range(width)]
            d.value = row if width > 1 else row[0]

    def select_committees(
        self, num_committees: int, committee_size: int
    ) -> CommitteeAssignment:
        message = (
            self.sortition.block
            + self.sortition.round_number.to_bytes(8, "big")
            + b"\x00"
        )
        ranked = heapq.nsmallest(
            num_committees * committee_size,
            [(hmac.digest(d.secret, message, "sha256"), d.device_id) for d in self.devices],
        )
        tickets = [SortitionTicket(device_id, tag) for tag, device_id in ranked]
        return run_sortition(tickets, num_committees, committee_size)
