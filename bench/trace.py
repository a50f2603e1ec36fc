"""Span wrappers around the layers' public callables, installed from outside.

``Tracer.install()`` replaces each callable named in ``TARGETS`` — on the
module or class *where the program looks the name up* — with a wrapper that
records a span (name, parent, start, end) in memory; ``remove()`` puts the
originals back. The end-to-end runs never install anything. A layer's
``_s`` metric is its spans' **self time** per pass: duration minus the
child spans, so nested layers (``less_than`` calling ``mul``) never count
the same moment twice and the self times of a pass add up to the time the
pass spent inside any span at all — ``bench.trace_coverage`` over the pass.

A target that no longer exists is skipped and counted in
``bench.trace_targets_missing``: a refactor that deletes a function loses
that layer's row, not the benchmark.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Target:
    """One callable to wrap: where it is looked up, and what it feeds."""

    span: Optional[str]  # the layer metric its self time feeds; None = observe only
    owner: str  # "package.module" or "package.module:Class"
    attribute: str
    observe: Optional[Callable[["Recorder", tuple, object], None]] = None
    #: Calls nothing that is wrapped itself and runs once per device: gets the
    #: cheaper wrapper that never touches the span stack.
    leaf: bool = False


def _count(name: str, weigh: Callable[[tuple, object], int] = lambda args, result: 1):
    def observe(recorder: "Recorder", args: tuple, result: object) -> None:
        recorder.counts[name] = recorder.counts.get(name, 0) + weigh(args, result)

    return observe


def _keep_engine(recorder: "Recorder", args: tuple, result: object) -> None:
    recorder.engines.append(args[0])


_SEARCH = "repro.planner.search"
_SHARD = "repro.runtime.shard"
_EXECUTOR = "repro.runtime.executor"
_NETWORK = "repro.runtime.network:FederatedNetwork"
_ENGINE = "repro.mpc.engine:MPCEngine"
_JOURNAL = "repro.runtime.journal:ExecutionJournal"
_ADMISSION = "repro.service.admission:AdmissionController"
_TREE = "repro.runtime.aggregator:AggregatorTree"

TARGETS: Tuple[Target, ...] = (
    # planner front end and search, where Planner.plan_program looks them up
    Target("lang.parse_s", _SEARCH, "parse"),
    Target("lang.parse_s", _SEARCH, "simplify"),
    Target("privacy.certify_s", _SEARCH, "certify"),
    Target("planner.lower_s", _SEARCH, "lower"),
    Target("planner.search_s", _SEARCH + ":Planner", "plan_logical"),
    Target("verify.gate_s", "repro.verify", "verify_planning_result"),
    Target("verify.gate_s", "repro.verify.dataflow", "analyze_planning_result"),
    Target("planner.serialize_s", "repro.planner.serialize", "planning_result_to_dict"),
    Target("planner.serialize_s", "repro.service.cache", "query_fingerprint"),
    # population and sortition
    Target("runtime.network.build_s", _NETWORK, "__init__"),
    Target("runtime.network.build_s", _NETWORK, "load_categorical_data"),
    Target("runtime.network.build_s", _NETWORK, "load_numeric_data"),
    Target("runtime.network.build_s", _NETWORK, "soa_view"),
    Target(
        # One ticket per registered device per round: counted here, because a
        # wrapper around compute_ticket itself would cost more than the ticket.
        "crypto.sortition.select_s", _NETWORK, "select_committees",
        _count("crypto.sortition.tickets", lambda args, result: len(args[0].devices)),
    ),
    Target("crypto.sortition.select_s", _NETWORK, "advance_round"),
    # sharded intake
    Target("runtime.shard.build_s", _SHARD, "build_shards"),
    Target("runtime.shard.pool_s", _SHARD + ":ObfuscatorPool", "__init__"),
    Target("runtime.shard.pad_draw_s", _SHARD + ":ObfuscatorPool", "draw", leaf=True),
    Target("runtime.shard.upload_s", _SHARD, "upload_shard"),
    Target("runtime.shard.verify_s", _SHARD, "verify_shard"),
    Target("crypto.zkp.prove_s", _SHARD, "prove", leaf=True),
    Target("crypto.zkp.verify_s", _SHARD, "zkp_verify", leaf=True),
    # the flat plane a session still executes on (service_mix)
    Target("crypto.zkp.prove_s", _EXECUTOR, "prove"),
    Target("crypto.zkp.verify_s", "repro.runtime.aggregator", "zkp_verify"),
    Target("runtime.aggregator.fold_s", "repro.runtime.aggregator:AggregatorNode", "aggregate"),
    Target("runtime.aggregator.audit_s", "repro.runtime.aggregator:AggregatorNode", "run_audits"),
    Target("runtime.packing.pack_s", "repro.runtime.packing:SlotPacking", "pack", leaf=True),
    # aggregation tree and scheduler
    Target("runtime.aggregator.ingest_s", _TREE, "ingest_leaf"),
    Target("runtime.aggregator.fold_s", _TREE, "fold_node"),
    Target("runtime.aggregator.audit_s", _TREE, "run_audits"),
    Target(
        "crypto.merkle.build_s", "repro.crypto.merkle:MerkleTree", "__init__",
        _count("crypto.merkle.leaves", lambda args, result: len(args[1])),
    ),
    Target("runtime.scheduler.drain_s", "repro.runtime.scheduler:EventScheduler", "drain"),
    # keys, committees, MPC
    Target("crypto.paillier.keygen_s", "repro.crypto.paillier", "keygen"),
    Target("crypto.paillier.decrypt_s", "repro.crypto.paillier", "decrypt"),
    Target("runtime.committee.allocate_s", "repro.runtime.committee:CommitteePool", "allocate"),
    Target("runtime.committee.vsr_s", "repro.runtime.committee:Committee", "send_via_vsr"),
    Target(None, _ENGINE, "__init__", _keep_engine),
    Target("mpc.engine.mul_s", _ENGINE, "mul"),
    Target("mpc.engine.cmp_s", _ENGINE, "less_than"),
    Target("mpc.engine.cmp_s", _ENGINE, "greater_than"),
    Target("mpc.engine.open_s", _ENGINE, "open"),
    Target("mpc.engine.open_s", _ENGINE, "open_unsigned"),
    Target("mpc.engine.input_s", _ENGINE, "input_value"),
    Target("mpc.engine.input_s", _ENGINE, "input_values"),
    Target("mpc.protocols.noise_s", _EXECUTOR, "shared_gumbel_noise"),
    Target("mpc.protocols.noise_s", _EXECUTOR, "shared_laplace_noise"),
    Target("runtime.interp.execute_s", "repro.runtime.interp:SecureInterpreter", "execute"),
    Target("runtime.executor.self_s", _EXECUTOR + ":QueryExecutor", "run"),
    # journal
    Target(
        "runtime.journal.append_s", _JOURNAL, "checkpoint",
        _count("runtime.journal.replayed", lambda args, result: 1 if result else 0),
    ),
    Target("runtime.journal.append_s", _JOURNAL, "charge"),
    Target("runtime.journal.append_s", _JOURNAL, "record_crash"),
    Target("runtime.journal.append_s", _JOURNAL, "record_result"),
    Target("runtime.journal.append_s", _JOURNAL, "create"),
    Target("runtime.journal.load_s", _JOURNAL, "load"),
    # service
    Target("service.admission.admit_s", _ADMISSION, "admit"),
    Target("service.admission.admit_s", _ADMISSION, "reprice"),
    Target("service.admission.admit_s", _ADMISSION, "settle_executed"),
    Target("service.admission.admit_s", _ADMISSION, "settle_rejected"),
    Target("service.scheduler.pick_s", "repro.service.scheduler:BudgetScheduler", "pick"),
    Target("service.cache.lookup_s", "repro.service.cache:PlanCache", "lookup"),
    Target("service.dispatch_s", "repro.service.service:QueryService", "submit"),
    Target("service.dispatch_s", "repro.service.service:QueryService", "process_next"),
    Target("session.execute_s", "repro.session:AnalyticsSession", "execute_planning"),
    Target(
        None, "repro.privacy.accountant:PrivacyAccountant", "charge_once",
        _count("privacy.accountant.charges", lambda args, result: 1 if result else 0),
    ),
)

#: Count metrics that are simply how many spans a layer recorded.
SPAN_COUNTS = {
    "crypto.zkp.proofs": "crypto.zkp.prove_s",
    "runtime.committee.allocated": "runtime.committee.allocate_s",
    "runtime.committee.vsr_calls": "runtime.committee.vsr_s",
    "mpc.engine.mul_calls": "mpc.engine.mul_s",
}

SPAN_NAMES: Tuple[str, ...] = tuple(sorted({t.span for t in TARGETS if t.span}))
#: Room for the span name beside the parent index in one recorded integer.
NAME_SLOTS = 256


class Recorder:
    """Spans and counts of one traced run, kept in memory until it ends.

    A span is one entry in four parallel arrays of numbers, not an object:
    a quarter of a million tuples per pass would hand the garbage collector
    the very work the trace is trying to measure.
    """

    def __init__(self) -> None:
        #: (index of the enclosing span, or -1) * NAME_SLOTS + index into SPAN_NAMES
        self.links = array("q")
        self.starts = array("d")  # time.perf_counter() readings
        self.ends = array("d")
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = {}
        self.engines: List[object] = []

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Record a finished span by hand (the wrappers write the arrays directly)."""
        self.links.append(parent * NAME_SLOTS + SPAN_NAMES.index(name))
        self.starts.append(start)
        self.ends.append(end)
        return len(self.links) - 1

    def names_and_parents(self):
        """The two halves of ``links``, as arrays."""
        links = np.asarray(self.links, dtype=np.int64)
        return links % NAME_SLOTS, links // NAME_SLOTS


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    observe = target.observe
    if target.span is None:

        def observer(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(recorder, args, result)
            return result

        observer.__wrapped__ = fn
        return observer

    name = SPAN_NAMES.index(target.span)
    links, starts, ends = recorder.links, recorder.starts, recorder.ends
    stack, clock = recorder.stack, time.perf_counter

    if target.leaf:

        def leaf(*args, **kwargs):
            links.append(stack[-1] * NAME_SLOTS + name)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(clock())

        leaf.__wrapped__ = fn
        return leaf

    def span(*args, **kwargs):
        index = len(starts)
        links.append(stack[-1] * NAME_SLOTS + name)
        ends.append(0.0)
        stack.append(index)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(recorder, args, result)
            return result
        finally:
            ends[index] = clock()
            stack.pop()

    span.__wrapped__ = fn
    return span


def _resolve(owner: str) -> object:
    module, _, cls = owner.partition(":")
    resolved = importlib.import_module(module)
    return getattr(resolved, cls) if cls else resolved


class Tracer:
    """Installs the wrappers over ``targets`` and takes them off again."""

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = targets
        self.recorder = Recorder()
        self.missing: List[str] = []
        self._originals: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing.clear()
        for target in self.targets:
            try:
                owner = _resolve(target.owner)
                original = vars(owner)[target.attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.owner}.{target.attribute}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(_wrap(original.__func__, target, self.recorder))
            else:
                wrapped = _wrap(original, target, self.recorder)
            self._originals.append((owner, target.attribute, original))
            setattr(owner, target.attribute, wrapped)

    def remove(self) -> None:
        # Reverse order, so a name wrapped twice gets its first original back.
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()


# ------------------------------------------------------------------ arithmetic


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]):
    """Each span's duration minus its direct children's durations."""
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    own = durations.copy()
    nested = parents >= 0
    np.subtract.at(own, parents[nested], durations[nested])
    return own


@dataclass
class LayerTotals:
    """Sums over the spans that began inside a traced pass."""

    seconds: Dict[str, float]  # self time per layer
    spanned: Dict[str, float]  # whole durations per layer, children included
    calls: Dict[str, int]
    covered: float  # seconds of the passes spent inside any span
    spans: List[Tuple[str, int, float, float]]  # every span, on the steady clock


def layer_totals(
    recorder: Recorder,
    steady: Callable[[Sequence[float]], np.ndarray],
    passes: Sequence[Tuple[float, float]],
) -> LayerTotals:
    """Per-layer totals over ``passes``, given as (start, end) clock readings.

    ``steady`` maps readings to the steady clock, so a calibration sample
    that interrupted a span is not billed to it. Spans recorded between
    passes (the checks reload journals) are kept in ``spans`` but not summed.
    """
    if not len(recorder.links):
        empty = {name: 0 for name in SPAN_NAMES}
        return LayerTotals(dict(empty), dict(empty), dict(empty), 0.0, [])
    names, parents = recorder.names_and_parents()
    begun = np.asarray(recorder.starts, dtype=float)
    starts = steady(begun)
    ends = steady(np.asarray(recorder.ends, dtype=float))
    inside = np.zeros(len(names), dtype=bool)
    for started, ended in passes:
        inside |= (begun >= started) & (begun <= ended)
    own = np.where(inside, self_times(parents, starts, ends), 0.0)
    whole = np.where(inside, ends - starts, 0.0)
    seconds = np.bincount(names, weights=own, minlength=len(SPAN_NAMES))
    spanned = np.bincount(names, weights=whole, minlength=len(SPAN_NAMES))
    calls = np.bincount(names[inside], minlength=len(SPAN_NAMES))
    return LayerTotals(
        {name: float(seconds[i]) for i, name in enumerate(SPAN_NAMES)},
        {name: float(spanned[i]) for i, name in enumerate(SPAN_NAMES)},
        {name: int(calls[i]) for i, name in enumerate(SPAN_NAMES)},
        float(own.sum()),
        [
            (SPAN_NAMES[n], p, s, e)
            for n, p, s, e in zip(names.tolist(), parents.tolist(), starts.tolist(), ends.tolist())
        ],
    )
