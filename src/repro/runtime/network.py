"""The simulated federated deployment: devices and sortition state (§5.1).

The runtime executes chosen plans end-to-end at small scale with real
cryptography (Paillier AHE, Shamir MPC, VSR, ZKPs, Merkle audits), which is
how we validate plans *functionally*; deployment-scale numbers come from
the cost model, exactly as in the paper's methodology.

The population is its columns: device ``i`` is row ``i - 1`` of the secrets
(one ``bytes``), the liveness and malice flags (numpy bool arrays) and the
data (one list). A :class:`Device` is a view of one row, built when asked
for, so a million devices are a few arrays and not a million objects
(ARCHITECTURE §5).
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence as SequenceABC
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.sortition import (
    CommitteeAssignment,
    SortitionState,
    lowest_tickets,
    run_sortition,
)
from .bulk_draws import doubles, random_many, randrange_many, words

#: Bytes of one device's secret (its ``getrandbits(128)``).
SECRET_BYTES = 16

#: Devices drawn per ``getrandbits`` call at construction: six 32-bit words
#: each, so the transient stays at 1.5 MB whatever the population.
CHUNK = 1 << 16


class Device:
    """One participant device: a view of its row of the network's columns.

    ``value`` is the device's raw datum: a category index for one-hot
    queries, or a numeric vector for bounded queries. ``malicious`` devices
    submit malformed uploads (exercising the ZKP rejection path);
    ``online`` models churn — offline devices cannot serve on committees
    (§5.1 tolerates up to a fraction g of each committee going offline).
    All three are assignable and write through to the network.
    """

    __slots__ = ("network", "index")

    def __init__(self, network: "FederatedNetwork", index: int):
        self.network = network
        self.index = index

    def __repr__(self) -> str:
        return (
            f"Device({self.device_id}, value={self.value!r}, "
            f"malicious={self.malicious}, online={self.online})"
        )

    @property
    def device_id(self) -> int:
        return self.index + 1

    @property
    def secret(self) -> bytes:
        start = SECRET_BYTES * self.index
        return self.network.secrets[start : start + SECRET_BYTES]

    @property
    def value(self) -> object:
        return self.network.values[self.index]

    @value.setter
    def value(self, value: object) -> None:
        self.network.values[self.index] = value

    @property
    def online(self) -> bool:
        return bool(self.network.online[self.index])

    @online.setter
    def online(self, online: bool) -> None:
        self.network.online[self.index] = online

    @property
    def malicious(self) -> bool:
        return bool(self.network.malicious[self.index])

    @malicious.setter
    def malicious(self, malicious: bool) -> None:
        self.network.malicious[self.index] = malicious


class DeviceList(SequenceABC):
    """``network.devices``: the population as a sequence of views.

    Built on each access and never stored on the network, so no reference
    cycle keeps a population alive past its last owner.
    """

    __slots__ = ("network",)

    def __init__(self, network: "FederatedNetwork"):
        self.network = network

    def __len__(self) -> int:
        return len(self.network)

    def __getitem__(self, index):
        rows = range(len(self.network))[index]
        if isinstance(index, slice):
            return [Device(self.network, row) for row in rows]
        return Device(self.network, rows)

    def __iter__(self):
        network = self.network
        return (Device(network, row) for row in range(len(network)))


class FederatedNetwork:
    """A population of devices plus the public sortition state.

    ``secrets`` (``SECRET_BYTES`` a device), ``online``, ``malicious`` and
    ``values`` are the population; :attr:`devices` and :meth:`device` hand
    out views of it and :meth:`soa_view` copies.
    """

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
        # Device by device the stream is getrandbits(128) for the secret,
        # then random() for the malice draw: six words, taken a chunk at a
        # time. The secret's words go most significant first.
        secrets = []
        self.malicious = np.empty(num_devices, dtype=bool)
        for start in range(0, num_devices, CHUNK):
            stop = min(num_devices, start + CHUNK)
            block = words(self.rng, 6 * (stop - start)).reshape(-1, 6)
            secrets.append(block[:, 3::-1].astype(">u4").tobytes())
            self.malicious[start:stop] = doubles(block[:, 4], block[:, 5]) < malicious_fraction
        self.secrets = b"".join(secrets)
        self.online = np.ones(num_devices, dtype=bool)
        self.values: List[object] = [None] * num_devices
        sortition_seed = self.rng.getrandbits(256).to_bytes(32, "big")
        self.sortition = SortitionState.initial(range(1, num_devices + 1), sortition_seed)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def devices(self) -> DeviceList:
        return DeviceList(self)

    @property
    def device_ids(self) -> List[int]:
        return list(range(1, len(self) + 1))

    def _row(self, device_id: int) -> int:
        if not 1 <= device_id <= len(self):
            raise KeyError(
                f"unknown device id {device_id!r}; this deployment has "
                f"devices 1..{len(self)}"
            )
        return device_id - 1

    def device(self, device_id: int) -> Device:
        return Device(self, self._row(device_id))

    def load_categorical_data(self, categories: int, distribution: Sequence[float] = None) -> None:
        """Assign each device a category, optionally with a skewed distribution.

        Draws what one ``rng.randrange(categories)`` — or, weighted, one
        ``rng.choices(range(categories), weights=distribution)`` — per device
        would, in bulk (for non-negative weights whose running sums float64
        holds exactly, as it does any float or any integer below 2**53).
        """
        n = len(self)
        if distribution is None:
            self.values = randrange_many(self.rng, categories, n).tolist()
            return
        if len(distribution) != categories:
            raise ValueError("distribution length must equal category count")
        cumulative = list(itertools.accumulate(distribution))
        total = cumulative[-1] + 0.0
        if not (total > 0.0 and math.isfinite(total)):
            raise ValueError("total of weights must be greater than zero and finite")
        # choices() bisects random() * total into the running sums, clipped
        # to the last category.
        picks = np.searchsorted(
            np.asarray(cumulative[:-1], dtype=np.float64),
            random_many(self.rng, n) * total,
            side="right",
        )
        self.values = picks.tolist()

    def load_numeric_data(self, low: int, high: int, width: int = 1) -> None:
        """Assign each device a bounded numeric vector: one ``rng.randint(low,
        high)`` per element, drawn in bulk, device by device."""
        if not -(2**63) <= low <= high < 2**63:
            raise ValueError("numeric data needs -2**63 <= low <= high < 2**63")
        n = len(self)
        rows = low + randrange_many(self.rng, high - low + 1, n * width).reshape(n, width)
        self.values = rows.tolist() if width > 1 else rows[:, 0].tolist()

    def soa_view(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The population as struct-of-arrays copies.

        Returns ``(device_ids, values, online, malicious)`` numpy arrays
        in device-id order — the input the intake slices into
        :class:`~repro.runtime.shard.DeviceShard` batches. ``values`` is
        ``(n,)`` int64 for scalar data and ``(n, width)`` for numeric
        vectors; devices with no loaded datum contribute 0.
        """
        n = len(self)
        if isinstance(self.values[0], (list, tuple)):
            values = np.asarray(self.values, dtype=np.int64)
        else:
            values = np.fromiter(
                (0 if value is None else value for value in self.values),
                dtype=np.int64,
                count=n,
            )
        ids = np.arange(1, n + 1, dtype=np.int64)
        return ids, values, self.online.copy(), self.malicious.copy()

    def take_offline(self, device_ids: Sequence[int]) -> None:
        """Churn hook: the listed devices stop responding."""
        for device_id in device_ids:
            self.online[self._row(device_id)] = False

    def restore(self, device_ids: Sequence[int]) -> None:
        """Churn hook: previously offline devices come back mid-execution."""
        for device_id in device_ids:
            self.online[self._row(device_id)] = True

    def online_members(self, members: Sequence[int]) -> List[int]:
        return [m for m in members if self.online[self._row(m)]]

    def select_committees(
        self, num_committees: int, committee_size: int
    ) -> CommitteeAssignment:
        """Run one sortition round over the current public block (§5.1):
        every registered device's tag is ranked, the ``c·m`` seats become
        tickets (a population too small yields fewer, and is refused)."""
        tickets = lowest_tickets(
            self.secrets,
            SECRET_BYTES,
            self.sortition.block,
            self.sortition.round_number,
            num_committees * committee_size,
        )
        return run_sortition(tickets, num_committees, committee_size)

    def advance_round(self, new_block: bytes) -> None:
        """Move sortition state forward with the committee-generated block."""
        self.sortition = self.sortition.advance(new_block, range(1, len(self) + 1))
