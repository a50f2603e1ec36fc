"""The simulated federated deployment: devices and sortition state (§5.1).

The runtime executes chosen plans end-to-end at small scale with real
cryptography (Paillier AHE, Shamir MPC, VSR, ZKPs, Merkle audits), which is
how we validate plans *functionally*; deployment-scale numbers come from
the cost model, exactly as in the paper's methodology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.sortition import (
    CommitteeAssignment,
    SortitionState,
    lowest_tickets,
    run_sortition,
)


@dataclass(slots=True)
class Device:
    """One participant device.

    ``value`` is the device's raw datum: a category index for one-hot
    queries, or a numeric vector for bounded queries. ``malicious`` devices
    submit malformed uploads (exercising the ZKP rejection path);
    ``online`` models churn — offline devices cannot serve on committees
    (§5.1 tolerates up to a fraction g of each committee going offline).
    """

    device_id: int
    secret: bytes
    value: object = None
    malicious: bool = False
    online: bool = True


class FederatedNetwork:
    """A population of devices plus the public sortition state."""

    def __init__(
        self,
        num_devices: int,
        rng: Optional[random.Random] = None,
        malicious_fraction: float = 0.0,
        seed: Optional[int] = None,
    ):
        if num_devices < 4:
            raise ValueError("a federated deployment needs at least 4 devices")
        if rng is None and seed is None:
            raise ValueError(
                "FederatedNetwork needs an explicit rng= or seed=; an "
                "unseeded deployment cannot be replayed, which breaks both "
                "reproducibility and fault-recovery equivalence checks"
            )
        self.rng = rng if rng is not None else random.Random(seed)
        self.devices: List[Device] = []
        for device_id in range(1, num_devices + 1):
            secret = self.rng.getrandbits(128).to_bytes(16, "big")
            malicious = self.rng.random() < malicious_fraction
            self.devices.append(Device(device_id, secret, malicious=malicious))
        sortition_seed = self.rng.getrandbits(256).to_bytes(32, "big")
        self.sortition = SortitionState.initial(
            [d.device_id for d in self.devices], sortition_seed
        )
        self._check_contiguous_ids()

    def _check_contiguous_ids(self) -> None:
        """Validate once that ``devices[i].device_id == i + 1``.

        ``device()`` and the struct-of-arrays gathers index the list
        directly on that invariant instead of scanning or keeping an
        id->index map, which is what keeps shard construction at 10^6
        devices linear. Checked once here (O(n)) so a future constructor
        change that breaks the layout fails loudly, not with silently
        wrong lookups.
        """
        for index, dev in enumerate(self.devices):
            if dev.device_id != index + 1:
                raise ValueError(
                    f"device list is not contiguously numbered: position "
                    f"{index} holds device_id {dev.device_id!r}"
                )

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def device_ids(self) -> List[int]:
        return [d.device_id for d in self.devices]

    def device(self, device_id: int) -> Device:
        if not 1 <= device_id <= len(self.devices):
            raise KeyError(
                f"unknown device id {device_id!r}; this deployment has "
                f"devices 1..{len(self.devices)}"
            )
        return self.devices[device_id - 1]

    def load_categorical_data(self, categories: int, distribution: Sequence[float] = None) -> None:
        """Assign each device a category, optionally with a skewed distribution."""
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
        """Assign each device a bounded numeric vector."""
        for d in self.devices:
            row = [self.rng.randint(low, high) for _ in range(width)]
            d.value = row if width > 1 else row[0]

    def soa_view(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One linear gather of the population as struct-of-arrays.

        Returns ``(device_ids, values, online, malicious)`` numpy arrays
        in device-id order — the input the intake slices into
        :class:`~repro.runtime.shard.DeviceShard` batches. Relies on the
        contiguous-id invariant checked at construction, so the gather is
        O(n) with no per-device lookups. ``values`` is ``(n,)`` int64 for
        scalar data and ``(n, width)`` for numeric vectors; devices with
        no loaded datum contribute 0.
        """
        n = len(self.devices)
        ids = np.arange(1, n + 1, dtype=np.int64)
        online = np.fromiter(
            (d.online for d in self.devices), dtype=bool, count=n
        )
        malicious = np.fromiter(
            (d.malicious for d in self.devices), dtype=bool, count=n
        )
        first = self.devices[0].value
        if isinstance(first, (list, tuple)):
            values = np.asarray([d.value for d in self.devices], dtype=np.int64)
        else:
            values = np.fromiter(
                (d.value if d.value is not None else 0 for d in self.devices),
                dtype=np.int64,
                count=n,
            )
        return ids, values, online, malicious

    def take_offline(self, device_ids: Sequence[int]) -> None:
        """Churn hook: the listed devices stop responding."""
        for device_id in device_ids:
            self.device(device_id).online = False

    def restore(self, device_ids: Sequence[int]) -> None:
        """Churn hook: previously offline devices come back mid-execution."""
        for device_id in device_ids:
            self.device(device_id).online = True

    def online_members(self, members: Sequence[int]) -> List[int]:
        return [m for m in members if self.device(m).online]

    def select_committees(
        self, num_committees: int, committee_size: int
    ) -> CommitteeAssignment:
        """Run one sortition round over the current public block (§5.1):
        every registered device's tag is ranked, the ``c·m`` seats become
        tickets (a population too small yields fewer, and is refused)."""
        tickets = lowest_tickets(
            ((d.device_id, d.secret) for d in self.devices),
            self.sortition.block,
            self.sortition.round_number,
            num_committees * committee_size,
        )
        return run_sortition(tickets, num_committees, committee_size)

    def advance_round(self, new_block: bytes) -> None:
        """Move sortition state forward with the committee-generated block."""
        self.sortition = self.sortition.advance(new_block, self.device_ids)
