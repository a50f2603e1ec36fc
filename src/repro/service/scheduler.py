"""Budget scheduler: cost–utility ordering with deadline aging.

The scheduler owns the admitted queue and decides which submission runs
next. Ordering is Shrinkwrap-style — cheap, high-utility queries first,
so one global ε serves as many analysts as possible — but pure greed
starves: an expensive low-utility query could wait forever behind a
stream of cheap arrivals. Two mechanisms bound the wait:

**Aging.** The dynamic priority adds an aging term that grows linearly
with queue ticks waited, up to 1.0 at ``AGING_HORIZON``; a deadline adds
an urgency term that ramps as the deadline approaches. Static priority
lives in [0, 1], so once a submission has waited long enough its dynamic
terms dominate any newcomer's static advantage.

**The starvation fence.** Any submission that has waited at least
``AGING_HORIZON`` ticks is promoted into a FIFO express tier that
*always* outranks the scored tier. Hence starvation-freedom is
unconditional, not just likely: every dispatch advances the clock, so a
waiting submission reaches the fence after at most ``AGING_HORIZON``
ticks and then at most (queue length at promotion) older promotions run
before it — a finite bound independent of future arrivals.

Determinism: priorities read only submission fields and the service's
logical clock (no wall time, no RNG), and every tie breaks on the
submission sequence number, so a seeded replay dispatches in an
identical order every run.

Deadlines: a submission whose deadline tick has passed is never
dispatched — ``pick`` expires it (the service releases its budget hold
and fails its ticket with a typed error), so a dead query cannot charge
the accountant.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .admission import Submission


#: Ticks until the aging term saturates and the starvation fence
#: promotes the submission to the express tier.
AGING_HORIZON = 64
#: Weights of the dynamic (queue-time) priority terms.
WEIGHT_AGING = 0.6
WEIGHT_URGENCY = 0.8


class BudgetScheduler:
    """Priority queue over admitted submissions (logical-clock driven)."""

    def __init__(self):
        self._lock = threading.RLock()
        self._queue: Dict[int, Submission] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def enqueue(self, submission: Submission) -> None:
        with self._lock:
            self._queue[submission.seq] = submission

    # ------------------------------------------------------------- priority

    def dynamic_priority(self, submission: Submission, now_tick: int) -> float:
        """Static admission priority plus aging and deadline urgency."""
        waited = max(0, now_tick - submission.submit_tick)
        aging = min(1.0, waited / AGING_HORIZON)
        urgency = 0.0
        if submission.deadline is not None:
            window = max(1, submission.deadline - submission.submit_tick)
            urgency = min(1.0, waited / window)
        static = submission.score.priority if submission.score else 0.0
        return static + WEIGHT_AGING * aging + WEIGHT_URGENCY * urgency

    # ----------------------------------------------------------- dispatch

    def pick(
        self, now_tick: int
    ) -> Tuple[Optional[Submission], List[Submission]]:
        """Remove and return (next submission, expired submissions).

        The next submission is the express-tier head (FIFO among
        fence-promoted entries) or, failing that, the best dynamic
        priority with ties broken by lowest sequence number. Expired
        submissions (deadline tick < now) are removed, never dispatched;
        the caller settles their budget holds.
        """
        with self._lock:
            expired = [
                s
                for s in self._queue.values()
                if s.deadline is not None and s.deadline < now_tick
            ]
            for submission in expired:
                del self._queue[submission.seq]
            if not self._queue:
                return None, expired
            express = sorted(
                seq
                for seq, s in self._queue.items()
                if now_tick - s.submit_tick >= AGING_HORIZON
            )
            if express:
                return self._queue.pop(express[0]), expired
            best_seq = min(
                self._queue,
                key=lambda seq: (
                    -self.dynamic_priority(self._queue[seq], now_tick),
                    seq,
                ),
            )
            return self._queue.pop(best_seq), expired
