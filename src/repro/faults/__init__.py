"""Deterministic fault injection and churn-tolerant recovery (`repro.faults`).

Arboretum sizes committees so that a malicious fraction *and* a churned
fraction g of members can be tolerated (§5.1); this package is the
machinery that *proves* the runtime actually survives such a fleet. A
:class:`FaultPlan` is a seeded schedule of fault events (mid-phase device
dropout, stragglers, crashed committee members, equivocating shares,
garbage uploads, lost VSR messages); the :class:`FaultInjector` feeds
them to the runtime at phase boundaries and between MPC rounds; the
:class:`EventLog` records every injected fault paired with its detection,
recovery action, and outcome. Schedules that stay within the tolerance
recover to bit-identical results; schedules that exceed it raise a typed
:class:`UnrecoverableFault` carrying the log.
"""

from .events import (
    COORDINATOR_CRASH,
    CRASH,
    DATA_CHANGING_KINDS,
    DROPOUT,
    EQUIVOCATE,
    FAULT_KINDS,
    GARBAGE,
    PENDING,
    RECOVERED,
    RESTORE,
    STRAGGLER,
    TOLERATED,
    UNDETECTED,
    UNRECOVERABLE,
    VSR_LOSS,
    CoordinatorCrash,
    EventLog,
    EventRecord,
    FaultEvent,
    UnrecoverableFault,
)
from .injector import (
    FaultInjector,
    InjectedFailure,
    PartyTimeout,
    derive_stream_seed,
)
from .schedule import PHASES, PROTOCOL_KINDS, FaultPlan
from .scenarios import SCENARIOS, get_scenario, list_scenarios

__all__ = [
    "COORDINATOR_CRASH",
    "CRASH",
    "DATA_CHANGING_KINDS",
    "DROPOUT",
    "EQUIVOCATE",
    "FAULT_KINDS",
    "GARBAGE",
    "PENDING",
    "PHASES",
    "PROTOCOL_KINDS",
    "RECOVERED",
    "RESTORE",
    "SCENARIOS",
    "STRAGGLER",
    "TOLERATED",
    "UNDETECTED",
    "UNRECOVERABLE",
    "VSR_LOSS",
    "CoordinatorCrash",
    "EventLog",
    "EventRecord",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InjectedFailure",
    "PartyTimeout",
    "UnrecoverableFault",
    "derive_stream_seed",
    "get_scenario",
    "list_scenarios",
]
