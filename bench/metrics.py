"""The metric registry: names, units, bounds, and what each layer should move.

``BENCHMARK.json`` lists the same metrics with only the keys the builder's
contract allows; ``tests/test_schema.py`` holds the two in step. The
``moves`` of a per-layer metric is the prediction written down before any
change is measured: the end-to-end metric it should move, and the workloads
on which it should.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

ALL = ("plan_catalog", "intake_65k", "program_mix", "durable_16k", "service_mix")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float
    what: str
    better: str = "lower"


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workloads) this layer metric should move.
    moves: Tuple[str, Tuple[str, ...]]


END_TO_END = (
    EndToEnd("setup_s", "s", 0.25, "process start to first timed pass: imports, generators, one warm-up pass"),
    EndToEnd("pass_s", "s", 0.20, "median steady time of one pass of the workload's fixed operations"),
    EndToEnd("peak_rss_mb", "MB", 0.05, "ru_maxrss of the workload's own process"),
    EndToEnd("sub_p50_ms", "ms", 0.20, "median latency of one operation: submit-call to ticket-settle on service_mix"),
    EndToEnd("sub_p95_ms", "ms", 0.25, "the highest of p95, p90, p75 of that latency with ten samples beyond it, else the median"),
)

_PLANNER = ("pass_s", ("plan_catalog", "program_mix", "service_mix"))
_INTAKE = ("pass_s", ("intake_65k", "durable_16k"))
_POOL = ("pass_s", ("program_mix", "service_mix"))
_PROGRAM = ("pass_s", ("program_mix", "service_mix", "intake_65k"))
_TAIL = ("sub_p95_ms", ("service_mix", "program_mix"))
_JOURNAL = ("pass_s", ("durable_16k",))
_SERVICE = ("sub_p50_ms", ("service_mix",))
_EVERY = ("pass_s", ALL)


def _layers(unit: str, better: str, moves, *names: str) -> List[PerLayer]:
    return [PerLayer(name, unit, better, moves) for name in names]


PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layers("s", "lower", _PLANNER,
            "lang.parse_s", "privacy.certify_s", "planner.lower_s", "planner.search_s",
            "verify.gate_s", "planner.serialize_s")
    + _layers("count", "lower", _PLANNER, "planner.nodes", "planner.candidates_scored")
    + _layers("ratio", "higher", _PLANNER,
              "planner.cost_cache_hit_ratio", "planner.expansion_cache_hit_ratio")
    + _layers("s", "lower", ("peak_rss_mb", ("intake_65k",)), "runtime.network.build_s")
    + _layers("s", "lower", _INTAKE, "crypto.sortition.select_s")
    + _layers("count", "lower", _INTAKE, "crypto.sortition.tickets")
    + _layers("s", "lower", _INTAKE,
              "runtime.shard.build_s", "runtime.shard.pad_draw_s", "runtime.shard.upload_s",
              "runtime.shard.verify_s", "crypto.zkp.prove_s", "crypto.zkp.verify_s",
              "runtime.packing.pack_s")
    + _layers("s", "lower", _POOL, "runtime.shard.pool_s")
    + _layers("count", "higher", _INTAKE,
              "runtime.shard.uploads", "runtime.shard.rejected", "crypto.zkp.proofs")
    + _layers("1/s", "higher", _INTAKE, "runtime.shard.uploads_per_s")
    + _layers("s", "lower", _INTAKE,
              "runtime.aggregator.ingest_s", "runtime.aggregator.fold_s",
              "runtime.aggregator.audit_s", "crypto.merkle.build_s", "runtime.scheduler.drain_s")
    + _layers("count", "lower", _INTAKE,
              "runtime.aggregator.ciphertext_additions", "crypto.merkle.leaves",
              "runtime.scheduler.events", "runtime.scheduler.batches")
    + _layers("s", "lower", _PROGRAM,
              "crypto.paillier.keygen_s", "crypto.paillier.decrypt_s",
              "runtime.committee.allocate_s", "runtime.committee.vsr_s",
              "mpc.engine.mul_s", "mpc.engine.open_s", "mpc.engine.input_s",
              "mpc.protocols.noise_s", "runtime.interp.execute_s")
    + _layers("s", "lower", _TAIL, "mpc.engine.cmp_s")
    + _layers("count", "lower", _PROGRAM,
              "runtime.committee.allocated", "runtime.committee.vsr_calls",
              "mpc.engine.mul_calls", "mpc.engine.rounds", "mpc.engine.openings",
              "mpc.engine.multiplications", "mpc.engine.comparisons",
              "mpc.engine.bytes_sent", "mpc.engine.triples_consumed")
    + _layers("s", "lower", _JOURNAL, "runtime.journal.append_s", "runtime.journal.load_s")
    + _layers("count", "lower", _JOURNAL,
              "runtime.journal.records", "runtime.journal.bytes", "runtime.journal.replayed")
    + _layers("ratio", "lower", _JOURNAL, "runtime.journal.resume_overhead")
    + _layers("s", "lower", _SERVICE,
              "service.admission.admit_s", "service.scheduler.pick_s",
              "service.cache.lookup_s", "service.dispatch_s", "session.execute_s")
    + _layers("ratio", "higher", _SERVICE, "service.cache.hit_ratio")
    + _layers("count", "lower", _SERVICE, "service.planner_invocations", "privacy.accountant.charges")
    + _layers("ms", "lower", _SERVICE,
              "service.queue_wait_ms", "service.plan_ms", "service.execute_ms")
    + _layers("s", "lower", _EVERY, "runtime.executor.self_s")
    + _layers("ratio", "higher", _EVERY, "bench.trace_coverage")
    + _layers("ratio", "lower", _EVERY, "bench.trace_overhead")
    + _layers("count", "lower", _EVERY, "bench.trace_targets_missing")
    + _layers("ms", "lower", _EVERY, "bench.calib_ms")
)


# ------------------------------------------------------------------ statistics


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses one with under ten samples beyond it.

    A tail percentile read off fewer samples than that is the maximum by
    another name. The median (``p <= 50``) is always answerable.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(0, math.ceil(p * len(ordered) / 100.0 - 1e-9) - 1)
    if p > 50 and len(ordered) - 1 - rank < 10:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples has only "
            f"{len(ordered) - 1 - rank} beyond it; ten are needed"
        )
    return ordered[rank]


#: The tail is read at one of these, so that a pass more or fewer in a run
#: does not slide it along a distribution made of a few distinct operations.
TAIL_GRID = (95.0, 90.0, 75.0)


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p95, p90, p75 with ten of ``count`` samples beyond it.

    ``None`` under 40 samples: then no tail is supported, only the median.
    """
    for p in TAIL_GRID:
        rank = max(0, math.ceil(p * count / 100.0 - 1e-9) - 1)
        if count - 1 - rank >= 10:
            return p
    return None


def latency_summary(samples_ms: Sequence[float], guaranteed: int) -> Tuple[float, float, float]:
    """(p50, tail, tail percentile used); the tail is the median when unsupported.

    ``guaranteed`` is the sample count every measured run of the workload
    reaches (operations a pass × ``min_passes``). The percentile is chosen for
    that count, not for the count at hand: a faster program fits more passes
    into a run, and must not thereby have its tail read further out.
    """
    p50 = statistics.median(samples_ms)
    p = tail_percentile(min(len(samples_ms), guaranteed))
    if p is None:
        return p50, p50, 50.0
    return p50, percentile(samples_ms, p), p
