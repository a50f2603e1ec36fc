"""Plan representation and scoring (§4.4, §4.6).

A concrete plan is a sequence of *vignettes*: short computation stages,
each assigned to the aggregator, to (parallel) committees of participant
devices, or to the participant devices themselves, each with a
cryptographic mode (clear / AHE / FHE / MPC). Scoring turns a vignette
sequence into the six-metric CostVector via the cost model, recomputing
the minimum committee size for the plan's committee count first (§5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .committees import CommitteeParameters
from .costmodel import (
    CostModel,
    CostVector,
    DeviceProfile,
    REFERENCE_SERVER,
    SchemeParams,
    Work,
)


class Location(str, enum.Enum):
    AGGREGATOR = "aggregator"
    COMMITTEE = "committee"
    PARTICIPANT = "participant"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    return f"{seconds * 1000:.1f} ms"


def _fmt_bytes(n: float) -> str:
    for unit, scale in (("PB", 1e15), ("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if n >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{n:.0f} B"


@dataclass(slots=True)
class Vignette:
    """One stage of a concrete plan.

    ``instances`` is the number of parallel executions (committees for
    committee vignettes, devices for participant vignettes; 1 for the
    aggregator). ``work`` is per instance — and, for committee vignettes,
    per *member*. Vignettes sharing a ``committee_group`` run on the same
    committees, so one member pays for all of them; vignettes in different
    groups run on disjoint committees.
    """

    name: str
    location: Location
    crypto: str  # "clear" | "ahe" | "fhe" | "mpc"
    work: Work
    instances: float = 1.0
    committee_group: Optional[str] = None
    committee_type: Optional[str] = None  # "keygen" | "decryption" | "operations"

    def score_stub(self) -> tuple:
        """What :meth:`ScoreAccumulator.add` folds for this vignette, read
        from its fields as they are now."""
        return score_stub(
            (
                self.name,
                self.location,
                self.crypto,
                self.work,
                self.instances,
                self.committee_group,
                self.committee_type,
            )
        )


def vignette_row(
    name: str,
    location: Location,
    crypto: str,
    work: Work,
    instances: float = 1.0,
    committee_group: Optional[str] = None,
    committee_type: Optional[str] = None,
) -> tuple:
    """One emitted vignette before it is built: its :class:`Vignette` fields
    in order, so ``Vignette(*row)`` builds it.

    The planner's emitters produce rows; the search prices a segment from
    the :func:`score_stub` of each of its rows and builds vignettes only for
    the plans it makes. Every row passes through here, so a
    committee row without a group fails at emission, built or not.
    """
    if location is Location.COMMITTEE and not committee_group:
        raise ValueError(f"committee vignette {name!r} needs a group")
    return (name, location, crypto, work, instances, committee_group, committee_type)


@dataclass
class CommitteeTypeCost:
    """Per-member cost of serving on one committee of a given type (Fig 7)."""

    committee_type: str
    seconds: float
    bytes_sent: float
    committees: float


@dataclass
class PlanScore:
    """Everything scoring produces for one candidate."""

    cost: CostVector
    committee_params: CommitteeParameters
    committee_breakdown: List[CommitteeTypeCost]
    aggregator_breakdown: Dict[str, Tuple[float, float]]  # name -> (sec, bytes)
    participant_base_seconds: float
    participant_base_bytes: float


@dataclass
class Plan:
    """A fully instantiated, scored candidate."""

    query_name: str
    choices: Dict[str, str]
    vignettes: List[Vignette]
    scheme: SchemeParams
    score: PlanScore
    #: The structured choice objects (one per logical op); the runtime
    #: executor reads batch sizes and fanouts from these.
    choice_list: List[object] = field(default_factory=list)

    @property
    def cost(self) -> CostVector:
        return self.score.cost

    @property
    def committee_params(self) -> CommitteeParameters:
        return self.score.committee_params

    def explain(self, model: CostModel, num_participants: int) -> str:
        """A per-vignette cost table: where every second and byte goes.

        The analyst-facing counterpart of :meth:`describe`: for each
        vignette, who runs it, how many instances, what one instance costs
        in compute and traffic, and (for committee vignettes) what that
        means for a selected member.
        """
        m = self.committee_params.committee_size
        lines = [
            f"{'vignette':16s} {'where':12s} {'crypto':6s} {'instances':>10s} "
            f"{'compute/inst':>13s} {'traffic/inst':>13s}"
        ]
        for v in self.vignettes:
            size = m if v.location is Location.COMMITTEE else 1
            seconds = model.compute_seconds(v.work, size)
            sent = model.traffic_bytes(v.work, size)
            received = model.received_bytes(v.work, size)
            traffic = sent + received
            lines.append(
                f"{v.name:16s} {v.location.value:12s} {v.crypto:6s} "
                f"{v.instances:>10g} {_fmt_seconds(seconds):>13s} "
                f"{_fmt_bytes(traffic):>13s}"
            )
        cost = self.cost
        lines.append("")
        lines.append(
            f"totals: aggregator {cost.aggregator_core_seconds / 3600:,.1f} core-h / "
            f"{_fmt_bytes(cost.aggregator_bytes)}; participant expected "
            f"{_fmt_seconds(cost.participant_expected_seconds)} / "
            f"{_fmt_bytes(cost.participant_expected_bytes)}, max "
            f"{_fmt_seconds(cost.participant_max_seconds)} / "
            f"{_fmt_bytes(cost.participant_max_bytes)}"
        )
        fraction = self.committee_params.selection_fraction(num_participants)
        lines.append(
            f"committees: {self.committee_params.num_committees:,} x {m} members "
            f"({fraction * 100:.4f}% of devices serve)"
        )
        return "\n".join(lines)

    def describe(self) -> str:
        lines = [f"plan for {self.query_name!r} ({self.scheme.name}, ring 2^{self.scheme.ring_log2})"]
        for key, value in sorted(self.choices.items()):
            lines.append(f"  choice {key} = {value}")
        params = self.committee_params
        lines.append(
            f"  committees: {params.num_committees} of size {params.committee_size}"
        )
        for v in self.vignettes:
            inst = f"x{v.instances:g}" if v.instances != 1 else ""
            lines.append(f"  vignette {v.name} @ {v.location.value}{inst} [{v.crypto}]")
        return "\n".join(lines)


def count_committees(vignettes: List[Vignette]) -> float:
    """Distinct committees a plan uses: one per (group, instances) block."""
    groups: Dict[str, float] = {}
    for v in vignettes:
        if v.location is Location.COMMITTEE:
            groups[v.committee_group] = max(
                groups.get(v.committee_group, 0.0), v.instances
            )
    return sum(groups.values())


def score_stub(row: tuple) -> tuple:
    """Precomputed scoring inputs for one :func:`vignette_row`.

    ``(kind, cost-cache token, instances, breakdown/group label,
    committee type, mailbox payload bytes, work)`` — everything
    :meth:`ScoreAccumulator.add` needs, the ``Work`` only for a cost-cache
    miss. The expander computes one per row of an emission and folds the
    same stubs at every node that extends by that emission.
    """
    name, location, _crypto, work, instances, group, ctype = row
    if location is Location.COMMITTEE:
        return (
            2,
            work.cache_key(),
            instances,
            group,
            ctype or "operations",
            work.payload_bytes_sent,
            work,
        )
    if location is Location.AGGREGATOR:
        return (0, work.cache_key(), instances, name, None, 0.0, work)
    return (1, work.cache_key(), instances, f"participant:{name}", None, 0.0, work)


class ScoreAccumulator:
    """Left-fold scoring state over a vignette sequence.

    This is the incremental core of :func:`score_vignettes`: folding
    vignettes one at a time (in list order, at a fixed committee size m)
    produces *bit-identical* sums to scoring the whole sequence at once,
    because float left-folds compose — ``fold(xs + ys)`` equals
    ``fold(fold(xs), ys)``. The branch-and-bound search exploits this by
    keeping one accumulator per search node and extending it with the new
    op's segment only; when the committee size (or the keygen work)
    changes, the search re-folds the full sequence instead.

    It folds :func:`score_stub` tuples: a :class:`Vignette` supplies one
    through :meth:`Vignette.score_stub`, and the expander folds the stubs of
    its emissions' rows without building vignettes. Per-stub (seconds, sent,
    received) come from :meth:`CostModel.cached_costs`, so repeated folds of
    shared stubs cost a dict lookup.
    """

    __slots__ = (
        "num_participants",
        "model",
        "device",
        "device_speed",
        "m",
        "aggregator_seconds",
        "aggregator_bytes",
        "expected_seconds",
        "expected_bytes",
        "base_seconds",
        "base_bytes",
        "group_seconds",
        "group_bytes",
        "group_type",
        "group_instances",
        "aggregator_breakdown",
    )

    def __init__(
        self,
        num_participants: int,
        model: CostModel,
        device: DeviceProfile,
        m: int,
    ):
        self.num_participants = num_participants
        self.model = model
        self.device = device
        self.device_speed = device.speed
        self.m = m
        self.aggregator_seconds = 0.0
        self.aggregator_bytes = 0.0
        self.expected_seconds = 0.0
        self.expected_bytes = 0.0
        self.base_seconds = 0.0
        self.base_bytes = 0.0
        # Per committee group: accumulated member cost (one member serves on
        # one committee of the group, and pays for every vignette in it).
        self.group_seconds: Dict[str, float] = {}
        self.group_bytes: Dict[str, float] = {}
        self.group_type: Dict[str, str] = {}
        self.group_instances: Dict[str, float] = {}
        self.aggregator_breakdown: Dict[str, Tuple[float, float]] = {}

    def copy(self) -> "ScoreAccumulator":
        new = ScoreAccumulator.__new__(ScoreAccumulator)
        new.num_participants = self.num_participants
        new.model = self.model
        new.device = self.device
        new.device_speed = self.device_speed
        new.m = self.m
        new.aggregator_seconds = self.aggregator_seconds
        new.aggregator_bytes = self.aggregator_bytes
        new.expected_seconds = self.expected_seconds
        new.expected_bytes = self.expected_bytes
        new.base_seconds = self.base_seconds
        new.base_bytes = self.base_bytes
        new.group_seconds = dict(self.group_seconds)
        new.group_bytes = dict(self.group_bytes)
        new.group_type = dict(self.group_type)
        new.group_instances = dict(self.group_instances)
        new.aggregator_breakdown = dict(self.aggregator_breakdown)
        return new

    def add(self, stub: tuple) -> None:
        # This fold is the hottest loop in the planner; its inputs (location
        # kind, cost-cache token, group label, mailbox payload) come
        # precomputed in a score_stub, and CostModel.cached_costs is
        # inlined — on a hit the function call would cost more than the dict
        # lookup it wraps. All float expressions are kept exactly as the
        # readable originals so cached and uncached folds stay bit-identical.
        kind, token, instances, label, ctype, payload, work = stub
        model = self.model
        if kind == 2:  # COMMITTEE
            m = self.m
            costs = model.cost_cache.get((token, m))
            if costs is None:
                costs = model.cached_costs(work, m)
            else:
                model.cache_hits += 1
            sec_m, sent_m, recv_m = costs
            seconds = sec_m / self.device_speed
            bytes_sent = sent_m + recv_m
            probability = instances * m / self.num_participants
            if probability > 1.0:
                probability = 1.0
            self.expected_seconds += probability * seconds
            self.expected_bytes += probability * bytes_sent
            group_seconds = self.group_seconds
            group_seconds[label] = group_seconds.get(label, 0.0) + seconds
            group_bytes = self.group_bytes
            group_bytes[label] = group_bytes.get(label, 0.0) + bytes_sent
            self.group_type.setdefault(label, ctype)
            group_instances = self.group_instances
            prev = group_instances.get(label, 0.0)
            group_instances[label] = prev if prev > instances else instances
            # The aggregator relays committee payloads (mailbox, §5.4).
            forwarded = (recv_m + payload) * m * instances
            self.aggregator_bytes += forwarded
            prev = self.aggregator_breakdown.get("forwarding", (0.0, 0.0))
            self.aggregator_breakdown["forwarding"] = (prev[0], prev[1] + forwarded)
            return
        costs = model.cost_cache.get((token, 1))
        if costs is None:
            costs = model.cached_costs(work)
        else:
            model.cache_hits += 1
        sec1, sent1, recv1 = costs
        if kind == 0:  # AGGREGATOR
            seconds = sec1 * instances
            bytes_sent = sent1 * instances
            self.aggregator_seconds += seconds
            self.aggregator_bytes += bytes_sent
            prev = self.aggregator_breakdown.get(label, (0.0, 0.0))
            self.aggregator_breakdown[label] = (
                prev[0] + seconds,
                prev[1] + bytes_sent,
            )
        else:  # PARTICIPANT
            seconds = sec1 / self.device_speed
            # Participant bandwidth counts both directions (Table 1 reports
            # "participant bandwidth"; the worst-case GB comes from tree
            # helpers *receiving* fanout-many ciphertexts).
            bytes_sent = sent1 + recv1
            if instances >= self.num_participants:
                # Every device runs this (e.g. input encryption).
                self.base_seconds += seconds
                self.base_bytes += bytes_sent
            else:
                probability = instances / self.num_participants
                self.expected_seconds += probability * seconds
                self.expected_bytes += probability * bytes_sent
                group_seconds = self.group_seconds
                group_seconds[label] = group_seconds.get(label, 0.0) + seconds
                group_bytes = self.group_bytes
                group_bytes[label] = group_bytes.get(label, 0.0) + bytes_sent
                self.group_type[label] = "helper"
                group_instances = self.group_instances
                prev = group_instances.get(label, 0.0)
                group_instances[label] = prev if prev > instances else instances

    def extended(self, stubs) -> "ScoreAccumulator":
        """A new accumulator with ``stubs`` folded in (same m)."""
        new = self.copy()
        for stub in stubs:
            new.add(stub)
        return new

    def cost(self) -> CostVector:
        max_group_seconds = max(self.group_seconds.values(), default=0.0)
        max_group_bytes = max(self.group_bytes.values(), default=0.0)
        return CostVector(
            aggregator_core_seconds=self.aggregator_seconds,
            aggregator_bytes=self.aggregator_bytes,
            participant_expected_seconds=self.base_seconds + self.expected_seconds,
            participant_expected_bytes=self.base_bytes + self.expected_bytes,
            participant_max_seconds=self.base_seconds + max_group_seconds,
            participant_max_bytes=self.base_bytes + max_group_bytes,
        )

    def bound_terms(self) -> Tuple[float, ...]:
        """The (seconds, bytes) pairs ``PrefixExpander.child``'s bound adds:
        aggregator, expected participant, always-on, largest group."""
        return (
            self.aggregator_seconds,
            self.aggregator_bytes,
            self.base_seconds + self.expected_seconds,
            self.base_bytes + self.expected_bytes,
            self.base_seconds,
            self.base_bytes,
            max(self.group_seconds.values(), default=0.0),
            max(self.group_bytes.values(), default=0.0),
        )

    def finish(self, committee_params: CommitteeParameters) -> PlanScore:
        breakdown_by_type: Dict[str, CommitteeTypeCost] = {}
        for group, seconds in self.group_seconds.items():
            ctype = self.group_type[group]
            entry = breakdown_by_type.get(ctype)
            if entry is None or seconds > entry.seconds:
                breakdown_by_type[ctype] = CommitteeTypeCost(
                    ctype, seconds, self.group_bytes[group], self.group_instances[group]
                )
        return PlanScore(
            cost=self.cost(),
            committee_params=committee_params,
            committee_breakdown=sorted(
                breakdown_by_type.values(), key=lambda c: c.committee_type
            ),
            aggregator_breakdown=self.aggregator_breakdown,
            participant_base_seconds=self.base_seconds,
            participant_base_bytes=self.base_bytes,
        )


def score_vignettes(
    vignettes: List[Vignette],
    num_participants: int,
    model: CostModel,
    # Costs are reported at reference-server speed, matching the paper's
    # methodology (Figs 6-7 are cluster measurements; §7.5 estimates the
    # device slowdown separately).
    device: DeviceProfile = REFERENCE_SERVER,
    committee_params: Optional[CommitteeParameters] = None,
) -> PlanScore:
    """Score a full vignette sequence into the six metrics.

    Committee sizing (§5.1) runs first, because member costs and selection
    probabilities depend on m. Expected participant cost sums the
    always-on participant work plus each committee vignette's member cost
    weighted by the probability of serving on it; maximum participant cost
    takes the most expensive committee group.
    """
    if committee_params is None:
        committee_params = CommitteeParameters.for_plan(count_committees(vignettes))
    accum = ScoreAccumulator(
        num_participants, model, device, committee_params.committee_size
    )
    for v in vignettes:
        accum.add(v.score_stub())
    return accum.finish(committee_params)
