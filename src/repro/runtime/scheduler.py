"""Event-driven shard scheduler for the input phase.

A loop over every device once per protocol phase is exactly what stops a
simulated runtime well short of the paper's 10^9-device pitch: it touches
all N devices even when most of the work is independent and batchable.
The intake instead models the input pipeline as **events over device
shards** — ``churn`` (sync a shard's liveness with the population),
``upload`` (encode + encrypt + prove a whole shard batch), ``verify``
(ZKP-check the batch at an aggregation-tree leaf), ``aggregate`` (ingest
the partial sums into the tree), and ``fold`` (combine an internal tree
node whose children are all complete) — and this module drains whichever
events are *ready* instead of walking the population.

Drain order
-----------

One thread of control, one event at a time. The events posted before
:meth:`EventScheduler.drain` (one ``churn`` per shard: cheap, and where
each shard's labelled stream is derived) run first, in post order. What
they return — the shards' ``upload`` events — is held back and released
one at a time; a released event and everything it leads to (``verify``,
``aggregate`` and whatever ``fold`` became ready) runs to completion, in
post order, before the next is released. So at most one
uploaded-but-not-ingested batch exists at any time: intake memory is
bounded by one shard, not by the number of shards, and the order of every
side effect (checkpoints, RNG labels, tree folds) is a function of the
post order alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Sequence, Tuple

#: Event kinds of the sharded input pipeline, in pipeline order.
CHURN = "churn"
UPLOAD = "upload"
VERIFY = "verify"
AGGREGATE = "aggregate"
FOLD = "fold"

EVENT_KINDS = (CHURN, UPLOAD, VERIFY, AGGREGATE, FOLD)

#: A handler returns (result, followups); followups are (kind, shard_id,
#: payload) triples the scheduler posts after the event completes.
Followup = Tuple[str, int, object]
Handler = Callable[["ShardEvent"], Tuple[object, Sequence[Followup]]]


@dataclass(frozen=True)
class ShardEvent:
    """One unit of ready work: ``shard_id`` names the shard for the intake
    kinds and the tree-node ordinal for ``fold`` events."""

    kind: str
    shard_id: int
    payload: object = None


class EventScheduler:
    """A FIFO of shard events, drained one at a time in post order."""

    def __init__(self) -> None:
        self._queue: Deque[ShardEvent] = deque()
        self._handlers: Dict[str, Handler] = {}

    def register(self, kind: str, handler: Handler) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; kinds are {EVENT_KINDS}")
        self._handlers[kind] = handler

    def post(self, kind: str, shard_id: int, payload: object = None) -> None:
        if kind not in self._handlers:
            raise ValueError(f"no handler registered for event kind {kind!r}")
        self._queue.append(ShardEvent(kind, shard_id, payload))

    def drain(self) -> int:
        """Process events until none remain — those already posted first, what
        they return one at a time; returns the count handled."""
        held: Deque[Followup] = deque()
        handled = self._run(lambda *followup: held.append(followup))
        while held:
            self.post(*held.popleft())
            handled += self._run(self.post)
        return handled

    def _run(self, post: Callable[..., object]) -> int:
        """Run the queue dry in post order, handing every followup to ``post``."""
        handled = 0
        while self._queue:
            event = self._queue.popleft()
            handled += 1
            _result, followups = self._handlers[event.kind](event)
            for followup in followups or ():
                post(*followup)
        return handled
