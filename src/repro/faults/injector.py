"""The fault injector: the runtime's single point of contact with chaos.

The executor consults the injector at **phase boundaries** (population
faults: dropout/restore, garbage uploads, VSR message loss) and the MPC
engine consults it **between rounds** through the ``round_hook`` it
installs on every committee engine (crashes, stragglers, equivocation).
All injected failures surface as typed exceptions the recovery layer in
``runtime/executor.py`` knows how to handle; everything is recorded in
the shared :class:`~repro.faults.events.EventLog`.

Every executor carries one: a run without a scheduled fault gets an
injector over the empty ``none`` plan, so a plain run *is* the fault-free
twin chaos runs are compared against. Determinism is the whole point:
besides the schedule, the injector owns a tree of named substreams
(:meth:`FaultInjector.fresh`) derived from one master seed via SHA-256, so
every value-relevant random draw of every run is keyed by a stable label
rather than by a position in a shared stream. That is what makes a
recovered run *bit-identical* to its fault-free twin: replaying a phase
re-derives the same keys and noise, and extra recovery work (or one more
dealer draw) cannot shift the draws of later phases.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence

from ..mpc.engine import CheatingDetected
from .events import (
    COORDINATOR_CRASH,
    CRASH,
    DROPOUT,
    EQUIVOCATE,
    GARBAGE,
    PENDING,
    RESTORE,
    STRAGGLER,
    TOLERATED,
    VSR_LOSS,
    EventLog,
    FaultEvent,
)
from .schedule import FaultPlan


class InjectedFailure(Exception):
    """Base class for failures the injector simulates."""

    def __init__(self, message: str, event: Optional[FaultEvent] = None):
        super().__init__(message)
        self.event = event


class PartyTimeout(InjectedFailure):
    """A committee member missed the round timeout (crash or long straggle)."""


def derive_stream_seed(master_seed: int, label: str) -> int:
    """A 64-bit seed for the named substream, stable across processes."""
    digest = hashlib.sha256(f"{master_seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class FaultInjector:
    """Drives one :class:`FaultPlan` through one query execution.

    Injectors are single-use: they consume schedule events as the run
    progresses and accumulate the event log. Build a fresh injector (same
    plan, same seed) to replay a run.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        round_timeout: float = 30.0,
    ):
        self.plan = plan
        self.seed = seed
        self.round_timeout = round_timeout
        self.log = EventLog()
        self.clock = 0.0
        self.current_phase: Optional[str] = None
        #: First committee allocated per phase, for symbolic target lookup.
        self.allocations: Dict[str, object] = {}
        self._pending: List[FaultEvent] = list(plan.events)
        self._armed: List[FaultEvent] = []

    # ------------------------------------------------------------- streams

    def fresh(self, label: str) -> random.Random:
        """A brand-new stream for ``label`` — identical on every call.

        Use for draws that must survive a phase replay unchanged (noise,
        sampling offsets, per-device upload randomness).
        """
        return random.Random(derive_stream_seed(self.seed, label))

    # ------------------------------------------------------- phase control

    def begin_phase(self, phase: str) -> None:
        """Arm this phase's mid-protocol faults (crash/straggle/equivocate)."""
        self.current_phase = phase
        self._armed.extend(
            self._take(phase, (CRASH, STRAGGLER, EQUIVOCATE))
        )

    def _take(self, phase: str, kinds: Sequence[str]) -> List[FaultEvent]:
        hits = [e for e in self._pending if e.phase == phase and e.kind in kinds]
        for event in hits:
            self._pending.remove(event)
        return hits

    def population_events(self, phase: str) -> List[FaultEvent]:
        """Consume this phase's dropout/restore events."""
        return self._take(phase, (DROPOUT, RESTORE))

    def garbage_events(self, phase: str) -> List[FaultEvent]:
        """Consume this phase's garbage-upload events."""
        return self._take(phase, (GARBAGE,))

    def take_vsr_loss(self) -> Optional[FaultEvent]:
        """Consume one lost-VSR-message event for the current phase, if any."""
        hits = self._take(self.current_phase or "", (VSR_LOSS,))
        return hits[0] if hits else None

    def take_coordinator_crash(
        self, checkpoint_label: str, checkpoint_seq: int
    ) -> Optional[FaultEvent]:
        """Consume one coordinator-death event matching this checkpoint.

        A coordinator-crash event targets a checkpoint, not a device: a
        string target names the checkpoint label (``"allocate/keygen"``),
        an integer target names the global checkpoint ordinal, and a
        ``None`` target fires at the first checkpoint of the event's
        phase. These events never arm via :meth:`begin_phase` — they are
        process deaths, not member faults, and the executor consumes them
        directly at its journal checkpoints.
        """
        for event in self._pending:
            if event.kind != COORDINATOR_CRASH:
                continue
            if self.current_phase is not None and event.phase != self.current_phase:
                continue
            target = event.target
            if (
                target is None
                or target == checkpoint_label
                or (isinstance(target, int) and target == checkpoint_seq)
            ):
                self._pending.remove(event)
                return event
        return None

    def unconsumed(self) -> List[FaultEvent]:
        return list(self._pending) + list(self._armed)

    # -------------------------------------------------------- allocations

    def note_allocation(self, phase: str, committee: object) -> None:
        """Remember the first committee allocated in ``phase`` so symbolic
        targets like ``"keygen#1"`` can be resolved later."""
        self.allocations.setdefault(phase, committee)

    def resolve_devices(self, event: FaultEvent) -> List[int]:
        """Turn an event's target into concrete device ids."""
        target = event.target
        if target is None:
            return []
        items = target if isinstance(target, (tuple, list)) else (target,)
        devices: List[int] = []
        for item in items:
            if isinstance(item, int):
                devices.append(item)
                continue
            phase, _, index = str(item).partition("#")
            committee = self.allocations.get(phase)
            if committee is None:
                self.log.note(
                    f"target {item!r} references phase {phase!r} with no "
                    "allocated committee; skipped"
                )
                continue
            members = committee.members
            devices.append(members[int(index or 0) % len(members)])
        return devices

    # ----------------------------------------------------- failure firing

    def on_round(self) -> None:
        """Hook installed on every committee engine: called between MPC
        rounds, fires any armed mid-protocol fault for the current phase."""
        if self._armed:
            self.maybe_fail()

    def maybe_fail(self) -> None:
        """Fire the next armed fault for the current phase, if any.

        Stragglers within the round timeout are absorbed (simulated wait);
        everything else raises a typed failure for the recovery layer.
        """
        while self._armed:
            event = self._armed.pop(0)
            if event.kind == STRAGGLER and event.delay <= self.round_timeout:
                self.clock += event.delay
                self.log.waited_seconds += event.delay
                self.log.record(
                    event,
                    detection=f"member response lagged {event.delay:g}s",
                    recovery=(
                        f"absorbed within the {self.round_timeout:g}s round "
                        "timeout; no replay needed"
                    ),
                    outcome=TOLERATED,
                )
                continue
            self.clock += self.round_timeout
            self.log.waited_seconds += self.round_timeout
            if event.kind == EQUIVOCATE:
                self.log.record(
                    event,
                    detection=(
                        "opened share failed the degree-t consistency check "
                        "(equivocating member)"
                    ),
                    recovery=PENDING,
                )
                raise CheatingDetected(
                    f"injected equivocation during phase {event.phase!r}"
                )
            detection = (
                f"round timeout expired after {event.delay:g}s straggle"
                if event.kind == STRAGGLER
                else "member stopped responding mid-protocol (round timeout)"
            )
            self.log.record(event, detection=detection, recovery=PENDING)
            raise PartyTimeout(
                f"injected {event.kind} during phase {event.phase!r}", event
            )

    def backoff(self, attempt: int) -> None:
        """Account one retry's exponential backoff against the sim clock."""
        wait = self.round_timeout * (2 ** (attempt - 1))
        self.clock += wait
        self.log.waited_seconds += wait
        self.log.retries += 1

    # -------------------------------------------------------------- finish

    def finish(self) -> EventLog:
        """Close out the run: note any events that never got to fire."""
        leftovers = self.unconsumed()
        if leftovers:
            self.log.note(
                f"{len(leftovers)} scheduled event(s) never triggered "
                f"(phase not reached): "
                + "; ".join(e.describe() for e in leftovers)
            )
        return self.log
