"""The multi-tenant query service: admit → schedule → cache → execute.

:class:`QueryService` is the long-running serving layer over one
deployment (:class:`~repro.session.AnalyticsSession`): many analysts
(tenants), one device population, one global ε. A submission's life:

1. **Admit** (`submit`, any thread): the admission controller checks the
   tenant envelope and the global pool — *before any planner work* — and
   reserves the requested budget, or raises a typed
   ``BudgetExhausted`` / ``AdmissionRejected``. Admitted submissions get
   a decomposable cost–utility score and enter the queue.
2. **Schedule** (`process_next`, dispatcher): the budget scheduler picks
   cheap/high-utility work first with deadline aging and a starvation
   fence (see ``scheduler.py``); expired deadlines settle without
   charging.
3. **Cache** — the submission's normalized-IR + environment fingerprint
   probes the keyed plan cache; a hit skips the planner search entirely,
   a miss plans and populates.
4. **Execute** — the plan runs through the session's executor, whose gate
   checks it (a cached plan included) before keygen, and which debits the
   global accountant exactly once under the submission's unique charge
   label (the journal-backed ``charge_once`` path);
   settlement converts the reservation into tenant spend.

Execution is serialized by the dispatcher — the protocol itself is
sequential per deployment (sortition chains query to query, §5.1) —
while admission, scoring, and queueing are fully thread-safe, so a
library caller may :meth:`~QueryService.submit` from its own threads; the
service itself starts none. Scheduling reads only the service's logical
clock, so a seeded replay is deterministic.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import UnrecoverableFault
from ..planner.search import PLANNING_FAILURES
from ..privacy.accountant import PrivacyCost
from ..runtime.certificate import CertificateError
from ..runtime.executor import BudgetExhausted, ExecutionError, QueryRejected
from ..runtime.interp import InterpreterError
from ..runtime.journal import JournalError
from ..session import AnalyticsSession, BudgetReport, budget_report_for
from ..verify.report import PlanVerificationError
from . import cache  # cache.query_fingerprint: the name bench/trace.py wraps
from .admission import (
    DEFAULT_UTILITY,
    AdmissionController,
    AdmissionRejected,
    AdmissionScore,
    Submission,
)
from .scheduler import BudgetScheduler
from .tenants import TenantPolicy, TenantRegistry

#: How executing a planned query fails short of a bug: a protocol that
#: cannot complete, faults past the §5.1 tolerance, a refused certificate,
#: the plan gate's refusal, a program the interpreter rejects, or a journal
#: that does not replay.
EXECUTION_FAILURES = (
    ExecutionError, UnrecoverableFault, CertificateError, PlanVerificationError,
    InterpreterError, JournalError,
)


@dataclass
class ServiceStatistics:
    """Counter block for one service instance (``repro serve`` prints it).

    Cache counters are mirrored from :class:`PlanCache.statistics` when
    the block is rendered; latency percentiles are the benchmark's job —
    statistics here never influence scheduling or accounting.
    """

    submitted: int = 0
    admitted: int = 0
    rejected_budget: int = 0
    rejected_policy: int = 0
    expired_deadlines: int = 0
    executed: int = 0
    failed: int = 0
    repriced_rejections: int = 0
    planner_invocations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    epsilon_charged: float = 0.0
    dispatch_ticks: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


@dataclass
class ServiceRecord:
    """One settled submission, in dispatch order (the service's ledger)."""

    seq: int
    tenant: str
    name: str
    outcome: str  # "executed" | "rejected" | "expired" | "failed"
    cache_hit: bool = False
    epsilon_charged: float = 0.0
    value: Optional[object] = None
    error: Optional[str] = None
    submit_tick: int = 0
    dispatch_tick: int = 0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


class SubmissionTicket:
    """Future-like handle returned by :meth:`QueryService.submit`."""

    def __init__(self, submission: Submission, score: AdmissionScore):
        self.submission = submission
        self.score = score
        self._done = threading.Event()
        self._record: Optional[ServiceRecord] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def settle(self, record: ServiceRecord) -> None:
        """Resolve the ticket; called once by the service dispatcher."""
        self._record = record
        self._done.set()

    def record(self, timeout: Optional[float] = None) -> ServiceRecord:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"submission {self.submission.name!r} is still queued"
            )
        return self._record

    def result(self, timeout: Optional[float] = None) -> object:
        """The released query value; raises the typed error on failure."""
        record = self.record(timeout)
        if record.outcome == "executed":
            return record.value
        if record.outcome == "expired":
            raise AdmissionRejected(record.error or "deadline expired")
        raise QueryRejected(record.error or f"submission {record.name!r} failed")


class QueryService:
    """Long-running multi-tenant front end over one analytics session."""

    def __init__(
        self,
        session: AnalyticsSession,
        tenants: Sequence[TenantPolicy],
    ):
        self.session = session
        self.tenants = TenantRegistry(list(tenants))
        self.admission = AdmissionController(session.accountant, self.tenants)
        self.scheduler = BudgetScheduler()
        self.cache = cache.PlanCache()
        self.statistics = ServiceStatistics()
        self.records: List[ServiceRecord] = []
        self._clock_lock = threading.RLock()
        #: The dispatcher serializes plan+execute; the protocol is
        #: sequential per deployment (one sortition chain).
        self._dispatch_lock = threading.RLock()
        self._tick = 0
        self._seq = 0
        self._tickets: Dict[int, SubmissionTicket] = {}

    # --------------------------------------------------------------- clock

    @property
    def tick(self) -> int:
        with self._clock_lock:
            return self._tick

    def _advance(self) -> int:
        with self._clock_lock:
            self._tick += 1
            return self._tick

    # -------------------------------------------------------------- intake

    def submit(
        self,
        tenant: str,
        source: str,
        categories: int,
        epsilon: Optional[float] = None,
        utility: Optional[float] = None,
        deadline: Optional[int] = None,
        sensitivity: Optional[float] = None,
        row_encoding: str = "one_hot",
        value_range: Optional[Tuple[float, float]] = None,
    ) -> SubmissionTicket:
        """Admit one query; thread-safe; raises typed errors on refusal.

        ``deadline`` is a logical-clock tick (see ``scheduler.py``);
        ``utility`` defaults to ``DEFAULT_UTILITY``. The
        returned ticket settles when the dispatcher executes, expires, or
        rejects the submission.
        """
        with self._clock_lock:
            self._seq += 1
            seq = self._seq
            submit_tick = self._advance()
        requested = epsilon if epsilon is not None else self.session.epsilon_per_query
        submission = Submission(
            seq=seq,
            tenant=tenant,
            source=source,
            categories=categories,
            epsilon=requested,
            name=f"{tenant}/{seq:04d}",
            sensitivity=sensitivity,
            row_encoding=row_encoding,
            value_range=value_range,
            utility=utility if utility is not None else DEFAULT_UTILITY,
            deadline=deadline,
            submit_tick=submit_tick,
            cost=PrivacyCost(requested, 0.0),
        )
        self.statistics.submitted += 1
        try:
            score = self.admission.admit(submission)
        except BudgetExhausted:
            self.statistics.rejected_budget += 1
            raise
        except AdmissionRejected:
            self.statistics.rejected_policy += 1
            raise
        ticket = SubmissionTicket(submission, score)
        with self._clock_lock:
            self._tickets[seq] = ticket
        self.scheduler.enqueue(submission)
        self.statistics.admitted += 1
        return ticket

    def submit_many(self, requests: Sequence[Dict[str, object]]) -> List[object]:
        """Admit ``requests`` in order, on the caller's thread.

        Each request is keyword arguments for :meth:`submit`. Returns one
        entry per request, *in request order*: the ticket, or the typed
        rejection the submission raised. Used by the CLI's workload replay.
        """
        outcomes: List[object] = []
        for kwargs in requests:
            try:
                outcomes.append(self.submit(**kwargs))
            except QueryRejected as exc:
                outcomes.append(exc)
        return outcomes

    # ------------------------------------------------------------ dispatch

    def _expire(self, submission: Submission, now_tick: int) -> ServiceRecord:
        self.admission.settle_rejected(submission)
        self.statistics.expired_deadlines += 1
        record = ServiceRecord(
            seq=submission.seq,
            tenant=submission.tenant,
            name=submission.name,
            outcome="expired",
            error=(
                f"deadline tick {submission.deadline} passed before "
                f"dispatch (now {now_tick})"
            ),
            submit_tick=submission.submit_tick,
            dispatch_tick=now_tick,
        )
        self._settle(record)
        return record

    def _settle(self, record: ServiceRecord) -> None:
        self.records.append(record)
        with self._clock_lock:
            ticket = self._tickets.pop(record.seq, None)
        if ticket is not None:
            ticket.settle(record)

    def _fail(
        self, submission: Submission, record: ServiceRecord, exc: BaseException
    ) -> None:
        """Settle a submission whose planning or execution raised ``exc``.

        A failure after keygen may have legitimately charged the budget
        (the certificate was signed); mirror whatever the accountant
        recorded into the tenant account, so no hold outlives the
        submission and its ticket resolves as failed.
        """
        if self.session.accountant.charged(submission.name):
            self.admission.settle_executed(submission)
            record.epsilon_charged = submission.cost.epsilon
            self.statistics.epsilon_charged += submission.cost.epsilon
        else:
            self.admission.settle_rejected(submission)
        self.statistics.failed += 1
        record.error = f"{type(exc).__name__}: {exc}"
        self._settle(record)

    def _plan(self, submission: Submission):
        """Cache-or-plan; returns (planning, cache_hit, seconds)."""
        env = self.session.environment(
            submission.categories,
            submission.epsilon,
            submission.sensitivity,
            submission.row_encoding,
            submission.value_range,
        )
        started = time.perf_counter()
        key = cache.query_fingerprint(submission.source, env)
        planning = self.cache.lookup(key)
        self.statistics.cache_hits = self.cache.statistics.hits
        self.statistics.cache_misses = self.cache.statistics.misses
        hit = planning is not None
        if planning is None:
            self.statistics.planner_invocations += 1
            planning = self.session.planner(env).plan_source(
                submission.source, name=f"shape:{key[:12]}"
            )
            self.cache.store(key, planning)
        return planning, hit, time.perf_counter() - started

    def process_next(self) -> Optional[ServiceRecord]:
        """Dispatch one submission (or expire dead ones); None when idle."""
        with self._dispatch_lock:
            now = self._advance()
            submission, expired = self.scheduler.pick(now)
            for dead in expired:
                self._expire(dead, now)
            if submission is None:
                return None
            self.statistics.dispatch_ticks += 1
            record = ServiceRecord(
                seq=submission.seq,
                tenant=submission.tenant,
                name=submission.name,
                outcome="failed",
                submit_tick=submission.submit_tick,
                dispatch_tick=now,
            )
            try:
                planning, record.cache_hit, record.plan_seconds = self._plan(
                    submission
                )
            except QueryRejected as exc:  # planning-stage policy refusal
                self.admission.settle_rejected(submission)
                record.outcome, record.error = "rejected", str(exc)
                self._settle(record)
                return record
            except PLANNING_FAILURES as exc:
                self._fail(submission, record, exc)
                return record
            except BaseException as exc:  # a bug: settle, then propagate
                self._fail(submission, record, exc)
                raise
            try:
                # Re-base the reservation on the certified cost before the
                # executor charges it (admission reserved the request).
                self.admission.reprice(
                    submission,
                    PrivacyCost(
                        planning.certificate.epsilon, planning.certificate.delta
                    ),
                )
            except BudgetExhausted as exc:
                # reprice released the hold and counted the rejection.
                self.statistics.repriced_rejections += 1
                record.outcome, record.error = "rejected", str(exc)
                self._settle(record)
                return record
            started = time.perf_counter()
            try:
                result = self.session.execute_planning(
                    planning, name=submission.name, charge_label=submission.name
                )
            except QueryRejected as exc:
                self.admission.settle_rejected(submission)
                record.outcome, record.error = "rejected", str(exc)
                self._settle(record)
                return record
            except EXECUTION_FAILURES as exc:
                self._fail(submission, record, exc)
                return record
            except BaseException as exc:  # a bug or a process death
                self._fail(submission, record, exc)
                raise
            record.execute_seconds = time.perf_counter() - started
            self.admission.settle_executed(submission)
            self.statistics.executed += 1
            self.statistics.epsilon_charged += submission.cost.epsilon
            record.outcome = "executed"
            record.epsilon_charged = submission.cost.epsilon
            record.value = result.value
            self._settle(record)
            return record

    def drain(self) -> List[ServiceRecord]:
        """Dispatch until the queue is empty; returns this drain's records.

        Includes deadline expirations settled along the way — every
        queued submission ends up in exactly one record.
        """
        start = len(self.records)
        while len(self.scheduler) > 0:
            self.process_next()
        return self.records[start:]

    # ------------------------------------------------------------ reporting

    def tenant_report(self) -> List[Dict[str, object]]:
        return self.tenants.report()

    def budget_report(self) -> BudgetReport:
        """The global accountant's per-label ledger (session view)."""
        return budget_report_for(self.session.accountant)
