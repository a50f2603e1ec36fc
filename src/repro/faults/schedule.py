"""Fault plans: seeded, deterministic schedules of fault events.

A :class:`FaultPlan` is pure data — which faults hit which protocol phase
— and is consumed by :class:`repro.faults.injector.FaultInjector`. Plans
are either hand-written (the named scenarios in
:mod:`repro.faults.scenarios`) or generated from a seed with
:meth:`FaultPlan.random_plan`, which is what the fault-rate sweep in
``repro.eval`` uses: the same seed always yields the same schedule, so a
chaos run is exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from .events import (
    COORDINATOR_CRASH,
    CRASH,
    FAULT_KINDS,
    STRAGGLER,
    VSR_LOSS,
    FaultEvent,
)

#: Protocol phases the executor announces to the injector, in order.
PHASES = ("keygen", "input", "decrypt", "program")

#: Fault kinds whose recovery must reproduce the fault-free answer
#: bit-for-bit (they disturb the protocol, not the data).
PROTOCOL_KINDS = (CRASH, STRAGGLER, VSR_LOSS)

#: Longest delay, in seconds, a random schedule gives a straggler.
MAX_STRAGGLER_DELAY = 90.0


@dataclass(frozen=True)
class FaultPlan:
    """A named, immutable schedule of fault events."""

    name: str
    description: str = ""
    events: Tuple[FaultEvent, ...] = ()
    #: True when the schedule is designed to exceed the §5.1 tolerance and
    #: the correct behaviour is a typed UnrecoverableFault.
    expect_unrecoverable: bool = False
    #: True when the schedule changes which inputs reach the aggregate
    #: (garbage uploads, pre-upload churn), so the released value may
    #: legitimately differ from the fault-free run.
    mutates_inputs: bool = False

    def __post_init__(self):
        for event in self.events:
            if event.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {event.kind!r}")
            if event.phase not in PHASES:
                raise ValueError(
                    f"unknown phase {event.phase!r}; phases are {PHASES}"
                )

    @property
    def crashes_coordinator(self) -> bool:
        """True when the schedule kills the coordinator process itself.

        Such plans only complete when the executor carries a durable
        journal (``repro chaos`` drives them through crash→resume).
        """
        return any(e.kind == COORDINATOR_CRASH for e in self.events)

    def as_dict(self) -> dict:
        """JSON-safe form, embedded in execution-journal manifests."""
        return {
            "name": self.name,
            "description": self.description,
            "events": [e.as_dict() for e in self.events],
            "expect_unrecoverable": self.expect_unrecoverable,
            "mutates_inputs": self.mutates_inputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", ())),
            expect_unrecoverable=data.get("expect_unrecoverable", False),
            mutates_inputs=data.get("mutates_inputs", False),
        )

    def describe(self) -> str:
        header = f"{self.name}: {self.description or '(no description)'}"
        if not self.events:
            return header + "\n  (no fault events)"
        return header + "".join(f"\n  - {e.describe()}" for e in self.events)

    # ------------------------------------------------------------ builders

    @classmethod
    def random_plan(
        cls,
        seed: int,
        num_faults: int,
        phases: Sequence[str] = ("decrypt", "program"),
        kinds: Sequence[str] = PROTOCOL_KINDS,
        name: str = "",
    ) -> "FaultPlan":
        """A seeded random schedule of ``num_faults`` protocol faults.

        Identical ``(seed, num_faults, phases, kinds)`` always produce the
        identical plan; this is the generator behind the eval sweep and the
        property tests.
        """
        rng = random.Random(seed)
        events = []
        for _ in range(num_faults):
            kind = rng.choice(list(kinds))
            phase = rng.choice(list(phases))
            delay = (
                round(rng.uniform(1.0, MAX_STRAGGLER_DELAY), 3)
                if kind == STRAGGLER
                else 0.0
            )
            events.append(FaultEvent(kind, phase, delay=delay))
        return cls(
            name=name or f"random[seed={seed},n={num_faults}]",
            description=f"seeded random schedule of {num_faults} protocol faults",
            events=tuple(events),
        )
