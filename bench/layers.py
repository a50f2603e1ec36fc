"""Per-layer metric values of a traced run, from spans, counts and outputs.

Three sources, all read at the layer boundaries and none inside the program:
the spans' self times (``trace.py``), the counts the wrappers observed, and
the counters the program already returns with its outputs
(``PlannerStatistics``, ``RuntimeStatistics``, the service ledger). Every
value is per pass; counts are exact because every pass gets the same inputs.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from .metrics import PER_LAYER
from .trace import SPAN_COUNTS, LayerTotals, Recorder
from .workloads import DurableRun, Execution, Op, Replay

ENGINE_COUNTERS = (
    "rounds", "openings", "multiplications", "comparisons", "bytes_sent", "triples_consumed",
)


class OutputTally:
    """Counters the program returned with its outputs, summed over passes."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = defaultdict(float)
        #: (start, end) clock readings, resolved on the steady clock later.
        self.queue_waits: List[Tuple[float, float]] = []
        self.resume_pairs: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
        #: seconds the service itself measured, with the pass they fell in.
        self.stage_seconds: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        self.passes = 0

    def _planning(self, planning) -> None:
        stats = planning.statistics
        self.sums["planner.nodes"] += stats.prefixes_considered
        self.sums["planner.candidates_scored"] += stats.candidates_scored
        self.sums["cost_hits"] += stats.cost_cache_hits
        self.sums["cost_lookups"] += stats.cost_cache_hits + stats.cost_cache_misses
        self.sums["expansion_hits"] += stats.expansion_cache_hits
        self.sums["expansion_lookups"] += (
            stats.expansion_cache_hits + stats.expansion_cache_misses
        )

    def _result(self, result) -> None:
        stats = result.statistics
        self.sums["runtime.shard.uploads"] += stats.uploads_submitted
        self.sums["runtime.shard.rejected"] += len(result.rejected_devices)
        self.sums["runtime.aggregator.ciphertext_additions"] += stats.ciphertext_additions
        self.sums["runtime.scheduler.events"] += stats.scheduler_events
        self.sums["runtime.scheduler.batches"] += stats.scheduler_batches

    def add(self, ops: Sequence[Op]) -> None:
        index = self.passes
        self.passes += 1
        for op in ops:
            output = op.output
            if isinstance(output, tuple):  # plan_catalog: (planning, report)
                self._planning(output[0])
            elif isinstance(output, Execution):
                self._planning(output.planning)
                self._result(output.result)
            elif isinstance(output, DurableRun):
                self._planning(output.planning)
                self._result(output.result)
                self.sums["runtime.journal.records"] += output.result.statistics.journal_records
                self.sums["runtime.journal.bytes"] += os.path.getsize(output.journal_path)
            elif isinstance(output, Replay):
                service = output.service
                self.sums["cache_hits"] += service.cache.statistics.hits
                self.sums["cache_lookups"] += (
                    service.cache.statistics.hits + service.cache.statistics.misses
                )
                self.sums["service.planner_invocations"] += service.statistics.planner_invocations
                for submitted, dispatched, _settled in output.timeline.values():
                    self.queue_waits.append((submitted, dispatched))
                for record in service.records:
                    self.stage_seconds["service.plan_ms"].append((index, record.plan_seconds))
                    self.stage_seconds["service.execute_ms"].append((index, record.execute_seconds))
        if len(ops) == 2 and isinstance(ops[1].output, DurableRun):
            self.resume_pairs.append(
                ((ops[0].started, ops[0].ended), (ops[1].started, ops[1].ended))
            )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: LayerTotals,
    recorder: Recorder,
    tally: OutputTally,
    steady_seconds: Callable[[float, float], float],
    pass_speed: Sequence[float],
    traced_pass_s: Sequence[float],
    untraced_pass_s: float,
    missing_targets: int,
    calib_ms: float,
) -> Dict[str, float]:
    """Every per-layer metric, per traced pass.

    ``steady_seconds(start, end)`` measures an interval on the steady clock;
    ``traced_pass_s`` are the traced passes' steady seconds and
    ``pass_speed[i]`` is steady over raw seconds of traced pass ``i``, which
    scales the stage times the service measured with its own raw clock.
    """
    passes = max(tally.passes, 1)
    values: Dict[str, float] = {layer.name: 0.0 for layer in PER_LAYER}
    for name, seconds in totals.seconds.items():
        values[name] = seconds / passes
    # The one inclusive time: an execution as the service sees it, children
    # and all — what a submission queues behind (its self time is glue).
    values["session.execute_s"] = totals.spanned["session.execute_s"] / passes
    for count, span in SPAN_COUNTS.items():
        values[count] = totals.calls[span] / passes
    for name, count in recorder.counts.items():
        values[name] = count / passes
    for counter in ENGINE_COUNTERS:
        values[f"mpc.engine.{counter}"] = (
            sum(getattr(engine.counters, counter) for engine in recorder.engines) / passes
        )
    for name, total in tally.sums.items():
        if name in values:
            values[name] = total / passes
    sums = tally.sums
    values["planner.cost_cache_hit_ratio"] = _ratio(sums["cost_hits"], sums["cost_lookups"])
    values["planner.expansion_cache_hit_ratio"] = _ratio(
        sums["expansion_hits"], sums["expansion_lookups"]
    )
    values["service.cache.hit_ratio"] = _ratio(sums["cache_hits"], sums["cache_lookups"])
    # Uploads over the whole drained intake pipeline (churn, upload, verify,
    # aggregate, fold), not over the upload stage alone.
    values["runtime.shard.uploads_per_s"] = _ratio(
        sums["runtime.shard.uploads"], totals.spanned["runtime.scheduler.drain_s"]
    )
    if tally.queue_waits:
        values["service.queue_wait_ms"] = 1000.0 * statistics.median(
            steady_seconds(start, end) for start, end in tally.queue_waits
        )
    for name, samples in tally.stage_seconds.items():
        values[name] = 1000.0 * statistics.median(
            seconds * pass_speed[index] for index, seconds in samples
        )
    if tally.resume_pairs:
        values["runtime.journal.resume_overhead"] = statistics.median(
            steady_seconds(*resumed) / steady_seconds(*plain)
            for plain, resumed in tally.resume_pairs
        )
    values["bench.trace_coverage"] = _ratio(totals.covered, sum(traced_pass_s))
    values["bench.trace_overhead"] = statistics.median(traced_pass_s) / untraced_pass_s - 1.0
    values["bench.trace_targets_missing"] = float(missing_targets)
    values["bench.calib_ms"] = calib_ms
    return values
