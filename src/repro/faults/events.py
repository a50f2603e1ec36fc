"""Structured fault/recovery event log (the `repro.faults` ledger).

Every injected fault flows through the same life cycle — *injected* →
*detected* → *recovery action* → *outcome* — and every step is recorded
here so tests and the ``repro chaos`` CLI can assert that no fault went
unhandled. The log is also the payload of :class:`UnrecoverableFault`,
the typed error raised when a schedule's losses genuinely exceed the
§5.1 tolerance: callers always get the full forensic trail, never a hang
or a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

# --------------------------------------------------------------- fault kinds

#: A device stops responding at the start of a phase (churn, §5.1's g).
DROPOUT = "dropout"
#: A previously churned device comes back online at the start of a phase.
RESTORE = "restore"
#: A committee member crashes mid-protocol (detected via round timeout).
CRASH = "crash"
#: A committee member answers late; below the round timeout the delay is
#: absorbed, above it the member is treated as crashed.
STRAGGLER = "straggler"
#: A member submits an inconsistent share (caught by the degree-t check).
EQUIVOCATE = "equivocate"
#: A device uploads a malformed witness (caught by the ZKP statement check).
GARBAGE = "garbage"
#: One dealer's VSR redistribution message is lost in transit.
VSR_LOSS = "vsr-loss"
#: The *coordinator process itself* dies at a named execution-journal
#: checkpoint (`runtime/journal.py`). Unlike every other kind, this is not
#: a protocol fault the phase-retry loop can absorb: the run survives only
#: if a durable journal exists to resume from.
COORDINATOR_CRASH = "coordinator-crash"

FAULT_KINDS = (
    DROPOUT,
    RESTORE,
    CRASH,
    STRAGGLER,
    EQUIVOCATE,
    GARBAGE,
    VSR_LOSS,
    COORDINATOR_CRASH,
)

#: Fault kinds that change *which data enters the aggregate* (and therefore
#: legitimately change the released value); every other kind must be
#: recovered to a bit-identical result.
DATA_CHANGING_KINDS = frozenset({GARBAGE})

# ------------------------------------------------------------------- events

#: A target names who the fault hits: an absolute device id, a symbolic
#: committee-member reference like ``"keygen#1"`` (member 1 of the first
#: committee allocated in the ``keygen`` phase), or a tuple of either.
Target = Union[int, str, Tuple[Union[int, str], ...]]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what kind, during which phase, against whom."""

    kind: str
    phase: str
    target: Optional[Target] = None
    delay: float = 0.0  # seconds; stragglers only
    note: str = ""

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def describe(self) -> str:
        parts = [f"{self.kind} @ {self.phase}"]
        if self.target is not None:
            parts.append(f"target={self.target!r}")
        if self.delay:
            parts.append(f"delay={self.delay:g}s")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)

    def as_dict(self) -> dict:
        """JSON-safe representation (tuples become lists)."""
        target = self.target
        if isinstance(target, tuple):
            target = list(target)
        return {
            "kind": self.kind,
            "phase": self.phase,
            "target": target,
            "delay": self.delay,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        target = data.get("target")
        if isinstance(target, list):
            target = tuple(target)
        return cls(
            kind=data["kind"],
            phase=data["phase"],
            target=target,
            delay=data.get("delay", 0.0),
            note=data.get("note", ""),
        )


# ------------------------------------------------------------ event records

#: Outcome states an :class:`EventRecord` can end in.
RECOVERED = "recovered"      # a recovery action restored progress
TOLERATED = "tolerated"      # absorbed without any replay (e.g. short delay)
UNRECOVERABLE = "unrecoverable"
PENDING = "pending"          # detection logged; recovery still in flight
UNDETECTED = "undetected"    # injected but nothing noticed (a test failure)


@dataclass
class EventRecord:
    """One injected fault paired with its detection and recovery."""

    fault: FaultEvent
    detection: str
    recovery: str
    outcome: str = PENDING

    def format(self) -> str:
        return (
            f"[{self.fault.phase}] {self.fault.kind}"
            + (f" target={self.fault.target!r}" if self.fault.target is not None else "")
            + f" -> detected: {self.detection}"
            + f" -> recovery: {self.recovery}"
            + f" -> {self.outcome}"
        )

    def as_dict(self) -> dict:
        return {
            "fault": self.fault.as_dict(),
            "detection": self.detection,
            "recovery": self.recovery,
            "outcome": self.outcome,
        }


@dataclass
class EventLog:
    """Ordered record of injected faults plus recovery-overhead counters."""

    records: List[EventRecord] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    retries: int = 0
    waited_seconds: float = 0.0

    def record(
        self, fault: FaultEvent, detection: str, recovery: str, outcome: str = PENDING
    ) -> EventRecord:
        rec = EventRecord(fault, detection, recovery, outcome)
        self.records.append(rec)
        return rec

    def note(self, message: str) -> None:
        self.notes.append(message)

    def resolve_phase(self, phase: str, outcome: str, recovery: str = "") -> None:
        """Settle every still-pending record of ``phase`` with ``outcome``."""
        for rec in self.records:
            if rec.fault.phase == phase and rec.outcome == PENDING:
                rec.outcome = outcome
                if recovery and rec.recovery in ("", PENDING):
                    rec.recovery = recovery

    # ------------------------------------------------------------- queries

    @property
    def injected(self) -> int:
        return len(self.records)

    @property
    def recovered(self) -> int:
        return sum(1 for r in self.records if r.outcome in (RECOVERED, TOLERATED))

    def by_kind(self, kind: str) -> List[EventRecord]:
        return [r for r in self.records if r.fault.kind == kind]

    # ----------------------------------------------------------- rendering

    def as_dict(self) -> dict:
        """JSON-safe representation; the exact form the execution journal
        embeds in its checkpoint records and ``repro chaos --json`` emits."""
        return {
            "records": [rec.as_dict() for rec in self.records],
            "notes": list(self.notes),
            "retries": self.retries,
            "waited_seconds": self.waited_seconds,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — digestable."""
        import json

        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def format(self) -> str:
        lines = [
            f"fault log: {self.injected} injected, {self.recovered} recovered/"
            f"tolerated; {self.retries} phase retries, "
            f"{self.waited_seconds:.1f}s simulated waiting"
        ]
        for rec in self.records:
            lines.append("  " + rec.format())
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class UnrecoverableFault(Exception):
    """The fault budget exceeded the §5.1 tolerance; recovery is impossible.

    Carries the full :class:`EventLog` so the caller can see exactly which
    injected fault broke the run and what recovery was attempted first.
    """

    def __init__(self, reason: str, log: Optional[EventLog] = None):
        super().__init__(reason)
        self.reason = reason
        self.log = log if log is not None else EventLog()


class CoordinatorCrash(Exception):
    """The simulated coordinator process died at a journal checkpoint.

    Deliberately *not* a subclass of ``InjectedFailure``: the executor's
    phase-retry machinery must not catch it — a process death takes the
    whole in-memory run with it. The only recovery is a new incarnation
    resuming from the durable :class:`~repro.runtime.journal.ExecutionJournal`
    (whose path, when one was attached, rides along here).
    """

    def __init__(
        self,
        reason: str,
        event: Optional[FaultEvent] = None,
        checkpoint: Optional[str] = None,
        checkpoint_seq: Optional[int] = None,
        journal_path: Optional[str] = None,
    ):
        super().__init__(reason)
        self.reason = reason
        self.event = event
        self.checkpoint = checkpoint
        self.checkpoint_seq = checkpoint_seq
        self.journal_path = journal_path
