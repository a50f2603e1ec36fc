"""Event-driven shard scheduler for the input phase.

A loop over every device once per protocol phase is exactly what stops a
simulated runtime well short of the paper's 10^9-device pitch: it touches
all N devices even when most of the work is independent and batchable.
The intake instead models the input pipeline as **events over device
shards** — ``churn`` (sync a
shard's liveness with the population), ``upload`` (encode + encrypt +
prove a whole shard batch), ``verify`` (ZKP-check the batch at an
aggregation-tree leaf), ``aggregate`` (ingest the partial sums into the
tree), and ``fold`` (combine an internal tree node whose children are
all complete) — and this module drains whichever events are *ready*
instead of walking the population.

Drain order
-----------

The events posted before :meth:`EventScheduler.drain` (one ``churn`` per
shard: cheap, serial, and where each shard's labelled stream is derived)
run first, in post order. What they post — the shards' ``upload`` events —
is held back and released in **waves** of ``max(1, workers)``; a wave
drains to completion (``upload``, ``verify``, ``aggregate`` and whatever
``fold`` became ready) before the next is released, so at most one wave of
uploaded-but-not-ingested batches exists at any time: intake memory is
bounded by the wave, not by the number of shards.

Determinism contract
--------------------

The scheduler must produce byte-identical results whether events are
drained one at a time (the **serial oracle**) or farmed out to a worker
pool. Three rules make that true:

* Events are totally ordered by their post sequence number; the heap
  drains them in that order, and a parallel batch's results are applied
  in that same order, so side effects commute with worker count (waves
  are released in the order their events were returned).
* Handlers for parallel-safe kinds (``upload``, ``verify``) are pure
  per-shard functions: they read only their event payload and return
  ``(result, followups)``. All shared-state mutation lives in serial
  kinds (``aggregate``, ``fold``), which the scheduler never dispatches
  concurrently.
* Follow-up events returned by a handler are posted in handler-return
  order, after the whole batch is merged — never from inside a worker.

Workers are threads (the crypto is pure-Python big-int arithmetic, so a
process pool could be slotted behind the same merge contract on a
multi-core box; the byte-identical guarantee is what makes that swap
safe to do later).
"""

from __future__ import annotations

import heapq
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Event kinds of the sharded input pipeline, in pipeline order.
CHURN = "churn"
UPLOAD = "upload"
VERIFY = "verify"
AGGREGATE = "aggregate"
FOLD = "fold"

EVENT_KINDS = (CHURN, UPLOAD, VERIFY, AGGREGATE, FOLD)

#: A handler returns (result, followups); followups are (kind, shard_id,
#: payload) triples the scheduler posts after the event (batch) completes.
Followup = Tuple[str, int, object]


@dataclass(frozen=True)
class ShardEvent:
    """One unit of ready work against one shard (or tree node).

    ``seq`` is assigned by the scheduler at post time and totally orders
    the run; ``shard_id`` names the shard for the intake kinds and the
    tree-node ordinal for ``fold`` events.
    """

    seq: int
    kind: str
    shard_id: int
    payload: object = None

    def __lt__(self, other: "ShardEvent") -> bool:
        return self.seq < other.seq


@dataclass
class SchedulerStatistics:
    """Observability counters for one drained pipeline."""

    events_processed: Dict[str, int] = field(default_factory=dict)
    batches_dispatched: int = 0
    max_batch: int = 0
    workers: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "events_processed": dict(self.events_processed),
            "batches_dispatched": self.batches_dispatched,
            "max_batch": self.max_batch,
            "workers": self.workers,
        }


class EventScheduler:
    """Drains shard events in deterministic order, optionally in parallel.

    ``workers <= 1`` is the serial oracle: one event at a time, in seq
    order, one shard per wave. ``workers > 1`` releases ``workers`` shards
    a wave and dispatches maximal runs of consecutive ready events of the
    same parallel-safe kind to a thread pool, merging their results back in
    seq order — byte-identical to the oracle by construction (see the
    module docstring's contract).
    """

    def __init__(self, workers: int = 0):
        self.workers = max(0, int(workers))
        self._heap: List[ShardEvent] = []
        self._handlers: Dict[str, Callable[[ShardEvent], Tuple[object, Sequence[Followup]]]] = {}
        self._parallel_kinds: set = set()
        self._seq = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self.stats = SchedulerStatistics(workers=self.workers)

    def register(
        self,
        kind: str,
        handler: Callable[[ShardEvent], Tuple[object, Sequence[Followup]]],
        parallel: bool = False,
    ) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; kinds are {EVENT_KINDS}")
        self._handlers[kind] = handler
        if parallel:
            self._parallel_kinds.add(kind)

    def post(self, kind: str, shard_id: int, payload: object = None) -> ShardEvent:
        if kind not in self._handlers:
            raise ValueError(f"no handler registered for event kind {kind!r}")
        event = ShardEvent(self._seq, kind, shard_id, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    # ---------------------------------------------------------------- drain

    def _pop_batch(self) -> List[ShardEvent]:
        """The maximal run of ready same-kind parallel events, else one.

        Only consecutive (by seq) events of one parallel-safe kind batch
        together; each touches a distinct shard by construction of the
        pipeline (one event per shard per stage), so the batch has no
        intra-batch ordering constraints beyond the merge order.
        """
        first = heapq.heappop(self._heap)
        if self.workers <= 1 or first.kind not in self._parallel_kinds:
            return [first]
        batch = [first]
        while self._heap and self._heap[0].kind == first.kind:
            batch.append(heapq.heappop(self._heap))
        return batch

    def drain(self) -> int:
        """Process events until none remain — those already posted first, what
        they return a wave at a time; returns the count handled."""
        waiting: deque = deque()
        try:
            handled = self._drain_ready(lambda *followup: waiting.append(followup))
            while waiting:
                for _ in range(min(len(waiting), max(1, self.workers))):
                    self.post(*waiting.popleft())
                handled += self._drain_ready(self.post)
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        return handled

    def _drain_ready(self, post: Callable[..., object]) -> int:
        """Run the heap dry in seq order, handing every followup to ``post``."""
        handled = 0
        while self._heap:
            batch = self._pop_batch()
            handled += len(batch)
            kind = batch[0].kind
            self.stats.events_processed[kind] = (
                self.stats.events_processed.get(kind, 0) + len(batch)
            )
            self.stats.batches_dispatched += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            if len(batch) == 1:
                outcomes = [self._handlers[kind](batch[0])]
            else:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(max_workers=self.workers)
                outcomes = list(self._pool.map(self._handlers[kind], batch))
            # Merge in seq order: followups post (and any serial side
            # effects already happened) exactly as the oracle would.
            for _result, followups in outcomes:
                for followup in followups or ():
                    post(*followup)
        return handled

    @property
    def pending(self) -> int:
        return len(self._heap)
