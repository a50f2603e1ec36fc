"""Experiment harness: regenerates every table and figure of §7.

Each ``figN``/``tableN`` function returns structured rows (and can print
them in a layout mirroring the paper); the benchmark suite calls these and
checks the *shape* claims (who wins, by roughly what factor, where the
crossovers fall) rather than absolute numbers — our substrate is a
calibrated model, not the authors' testbed (see DESIGN.md).

Experimental setup follows §7.1/§7.2: N = 10^9 participants, f = 3%
malicious, 15% churn tolerance, 10^-8 failure probability over 1,000
queries; participants may send up to 4 GB and compute up to 20 minutes,
and the aggregator is limited to 1,000 core-hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..baselines.bohler import bohler_member_traffic
from ..baselines.honeycrisp import honeycrisp_score
from ..baselines.orchard import orchard_score
from ..baselines.strawmen import (
    ZIPCODE_CATEGORIES,
    ZIPCODE_PARTICIPANTS,
    all_to_all_mpc,
    fhe_only,
)
from ..planner.costmodel import Constraints, CostModel, Goal
from ..planner.plan import PlanScore
from ..planner.search import Planner, PlanningFailed, PlanningResult
from ..queries.catalog import ALL_QUERIES, LEGACY_SYSTEMS, PAPER_N, QuerySpec, get

#: §7.2 limits: 4 GB / 20 min per participant, 1,000 aggregator core-hours
#: ... the aggregator limit in §7.2 applies to *computation time given
#: 1,000 cores*, i.e. wall-clock hours; Fig 8(b) shows up to ~15 h, so the
#: core-second budget is 1,000 cores x that wall-clock allowance. We bound
#: core-seconds directly at 1,000 cores x 24 h.
PAPER_CONSTRAINTS = Constraints(
    participant_max_bytes=4e9,
    participant_max_seconds=20 * 60.0,
    aggregator_core_seconds=1000 * 24 * 3600.0,
)

_plan_cache: Dict[Tuple[str, int, float], PlanningResult] = {}


def plan_paper_query(
    spec: QuerySpec,
    num_participants: int = PAPER_N,
    constraints: Optional[Constraints] = None,
    model: Optional[CostModel] = None,
    use_cache: bool = True,
) -> PlanningResult:
    """Plan one catalog query at deployment scale with the §7.2 limits."""
    key = (spec.name, num_participants, id(constraints) if constraints else 0)
    if use_cache and key in _plan_cache:
        return _plan_cache[key]
    env = spec.environment(num_participants)
    planner = Planner(
        env,
        model=model,
        constraints=constraints or PAPER_CONSTRAINTS,
        goal=Goal("participant_expected_seconds"),
    )
    result = planner.plan_source(spec.source, spec.name)
    if use_cache:
        _plan_cache[key] = result
    return result


def plan_all_queries(num_participants: int = PAPER_N) -> Dict[str, PlanningResult]:
    return {
        spec.name: plan_paper_query(spec, num_participants) for spec in ALL_QUERIES
    }


# --------------------------------------------------------------------------
# Table 1 — strawman comparison
# --------------------------------------------------------------------------


@dataclass
class Table1Row:
    approach: str
    aggregator_computation: str
    participant_bandwidth_typical: str
    participant_bandwidth_worst: str
    numerical: bool
    categorical: str  # "yes" / "limited" / "no"
    participants_contribute: str
    optimization: str


def _fmt_bytes(n: float) -> str:
    for unit, scale in (("PB", 1e15), ("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if n >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{n:.0f} B"


def table1() -> List[Table1Row]:
    """§3.2 / Table 1 for the zip-code example (N=10^8, R=41,683)."""
    n, c = ZIPCODE_PARTICIPANTS, ZIPCODE_CATEGORIES
    fhe = fhe_only(n, c)
    mpc = all_to_all_mpc(n)
    bohler = bohler_member_traffic(n, committee_size=40)
    spec = get("top1")
    arboretum = plan_paper_query(spec, num_participants=n, use_cache=False)
    arb_cost = arboretum.plan.cost
    orchard_env = spec.environment(n)
    orchard = orchard_score(orchard_env, released_values=c, uses_em=False)

    rows = [
        Table1Row(
            "FHE",
            f"~{fhe.aggregator_core_years:.0f} years",
            _fmt_bytes(fhe.participant_bytes_typical),
            _fmt_bytes(fhe.participant_bytes_worst),
            True,
            "yes",
            "no",
            "no",
        ),
        Table1Row(
            "All-to-all MPC",
            "n/a",
            _fmt_bytes(mpc.participant_bytes_typical),
            _fmt_bytes(mpc.participant_bytes_worst),
            True,
            "yes",
            "yes",
            "no",
        ),
        Table1Row(
            "Böhler [14]",
            "n/a",
            "kBs",
            _fmt_bytes(bohler.member_traffic_bytes),
            True,
            "yes",
            "1 committee",
            "no",
        ),
        Table1Row(
            "Orchard [54]",
            f"{orchard.cost.aggregator_core_seconds / 3600:.0f} core-hours",
            _fmt_bytes(orchard.cost.participant_expected_bytes),
            _fmt_bytes(orchard.cost.participant_max_bytes),
            True,
            "limited",
            "1 committee",
            "no",
        ),
        Table1Row(
            "Arboretum",
            f"{arb_cost.aggregator_core_seconds / 3600:.0f} core-hours",
            _fmt_bytes(arb_cost.participant_expected_bytes),
            _fmt_bytes(arb_cost.participant_max_bytes),
            True,
            "yes",
            "yes",
            "automatic",
        ),
    ]
    return rows


# --------------------------------------------------------------------------
# Table 2 — supported queries
# --------------------------------------------------------------------------


@dataclass
class Table2Row:
    query: str
    action: str
    source: str
    lines: int
    paper_lines: int


def table2() -> List[Table2Row]:
    return [
        Table2Row(q.name, q.action, q.source_paper, q.lines, q.paper_lines)
        for q in ALL_QUERIES
    ]


# --------------------------------------------------------------------------
# Figures 6-8 — per-entity costs
# --------------------------------------------------------------------------


@dataclass
class ParticipantCostRow:
    """Fig 6: expected per-participant cost, split base vs MPC expectation."""

    query: str
    system: str  # "arboretum" / "honeycrisp" / "orchard"
    encryption_verification_seconds: float
    mpc_seconds: float
    encryption_verification_bytes: float
    mpc_bytes: float

    @property
    def total_seconds(self) -> float:
        return self.encryption_verification_seconds + self.mpc_seconds

    @property
    def total_bytes(self) -> float:
        return self.encryption_verification_bytes + self.mpc_bytes


def _participant_row(query: str, system: str, score: PlanScore) -> ParticipantCostRow:
    cost = score.cost
    return ParticipantCostRow(
        query=query,
        system=system,
        encryption_verification_seconds=score.participant_base_seconds,
        mpc_seconds=cost.participant_expected_seconds - score.participant_base_seconds,
        encryption_verification_bytes=score.participant_base_bytes,
        mpc_bytes=cost.participant_expected_bytes - score.participant_base_bytes,
    )


def _legacy_score(spec: QuerySpec) -> Optional[PlanScore]:
    env = spec.environment()
    if spec.name == "cms":
        return honeycrisp_score(env, released_values=1)
    if spec.name == "bayes":
        return orchard_score(env, released_values=spec.categories)
    if spec.name == "k-medians":
        return orchard_score(env, released_values=spec.categories)
    return None


def fig6() -> List[ParticipantCostRow]:
    """Expected bandwidth and computation per participant (Fig 6)."""
    rows: List[ParticipantCostRow] = []
    for spec in ALL_QUERIES:
        result = plan_paper_query(spec)
        rows.append(_participant_row(spec.name, "arboretum", result.plan.score))
        legacy = _legacy_score(spec)
        if legacy is not None:
            rows.append(
                _participant_row(spec.name, LEGACY_SYSTEMS[spec.name], legacy)
            )
    return rows


@dataclass
class CommitteeCostRow:
    """Fig 7: actual per-member cost of serving, by committee type."""

    query: str
    system: str
    committee_type: str
    seconds: float
    bytes_sent: float
    committees: float


def fig7() -> List[CommitteeCostRow]:
    rows: List[CommitteeCostRow] = []
    for spec in ALL_QUERIES:
        result = plan_paper_query(spec)
        for entry in result.plan.score.committee_breakdown:
            rows.append(
                CommitteeCostRow(
                    spec.name,
                    "arboretum",
                    entry.committee_type,
                    entry.seconds,
                    entry.bytes_sent,
                    entry.committees,
                )
            )
        legacy = _legacy_score(spec)
        if legacy is not None:
            for entry in legacy.committee_breakdown:
                rows.append(
                    CommitteeCostRow(
                        spec.name,
                        LEGACY_SYSTEMS[spec.name],
                        entry.committee_type,
                        entry.seconds,
                        entry.bytes_sent,
                        entry.committees,
                    )
                )
    return rows


def committee_selection_fraction(query: str) -> float:
    """§7.2: fraction of participants serving on any committee per run."""
    result = plan_paper_query(get(query))
    params = result.plan.committee_params
    return params.selection_fraction(result.logical_plan.env.num_participants)


@dataclass
class AggregatorCostRow:
    """Fig 8: aggregator traffic and computation (1,000 cores)."""

    query: str
    system: str
    forwarding_bytes: float
    verification_core_seconds: float
    operations_core_seconds: float

    @property
    def total_core_seconds(self) -> float:
        return self.verification_core_seconds + self.operations_core_seconds

    def hours_on_cores(self, cores: int = 1000) -> float:
        return self.total_core_seconds / cores / 3600.0


def _aggregator_row(query: str, system: str, score: PlanScore) -> AggregatorCostRow:
    breakdown = score.aggregator_breakdown
    verify_seconds = breakdown.get("verify", (0.0, 0.0))[0]
    operations = sum(sec for name, (sec, _b) in breakdown.items() if name != "verify")
    return AggregatorCostRow(
        query=query,
        system=system,
        forwarding_bytes=score.cost.aggregator_bytes,
        verification_core_seconds=verify_seconds,
        operations_core_seconds=operations,
    )


def fig8() -> List[AggregatorCostRow]:
    rows: List[AggregatorCostRow] = []
    for spec in ALL_QUERIES:
        result = plan_paper_query(spec)
        rows.append(_aggregator_row(spec.name, "arboretum", result.plan.score))
        legacy = _legacy_score(spec)
        if legacy is not None:
            rows.append(_aggregator_row(spec.name, LEGACY_SYSTEMS[spec.name], legacy))
    return rows


# --------------------------------------------------------------------------
# Figure 9 — planner runtime
# --------------------------------------------------------------------------


@dataclass
class PlannerRuntimeRow:
    query: str
    runtime_seconds: float
    prefixes_considered: int
    candidates_scored: int
    space_size: int
    cost_cache_hits: int = 0
    expansion_cache_hits: int = 0


def fig9() -> List[PlannerRuntimeRow]:
    rows = []
    for spec in ALL_QUERIES:
        result = plan_paper_query(spec, use_cache=False)
        stats = result.statistics
        rows.append(
            PlannerRuntimeRow(
                spec.name,
                stats.runtime_seconds,
                stats.prefixes_considered,
                stats.candidates_scored,
                stats.space_size,
                stats.cost_cache_hits,
                stats.expansion_cache_hits,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Figure 10 — scalability of top1 under aggregator limits
# --------------------------------------------------------------------------


@dataclass
class ScalabilityPoint:
    num_participants: int
    limit_core_hours: Optional[float]
    aggregator_hours: Optional[float]  # core-hours
    expected_minutes: Optional[float]
    max_minutes: Optional[float]


def fig10(
    exponents: range = range(17, 31),
    limits: Tuple[Optional[float], ...] = (1000.0, 5000.0, None),
) -> List[ScalabilityPoint]:
    spec = get("top1")
    points: List[ScalabilityPoint] = []
    for limit in limits:
        for exp in exponents:
            n = 2**exp
            constraints = Constraints(
                participant_max_bytes=PAPER_CONSTRAINTS.participant_max_bytes,
                participant_max_seconds=PAPER_CONSTRAINTS.participant_max_seconds,
                aggregator_core_seconds=None if limit is None else limit * 3600.0,
            )
            try:
                result = plan_paper_query(
                    spec, num_participants=n, constraints=constraints, use_cache=False
                )
                cost = result.plan.cost
                points.append(
                    ScalabilityPoint(
                        n,
                        limit,
                        cost.aggregator_core_seconds / 3600.0,
                        cost.participant_expected_seconds / 60.0,
                        cost.participant_max_seconds / 60.0,
                    )
                )
            except PlanningFailed:
                # The aggregator cannot even afford the mandatory work
                # (e.g. ZKP checks) under this limit — the line stops, as in
                # Fig 10(a) for A=1000 beyond N=2^28.
                points.append(ScalabilityPoint(n, limit, None, None, None))
    return points


# --------------------------------------------------------------------------
# Pretty printers
# --------------------------------------------------------------------------


# ------------------------------------------------------- chaos sweep (§5.1)


@dataclass
class ChaosRow:
    """One point of the injected-fault-rate vs recovery-overhead sweep."""

    num_faults: int
    seed: int
    completed: bool
    identical: bool
    retries: int
    extra_committees: int
    waited_seconds: float


def chaos_sweep(
    fault_counts: Tuple[int, ...] = (0, 1, 2, 3),
    seeds: Tuple[int, ...] = (3, 4),
    devices: int = 32,
    committee_size: int = 4,
) -> List[ChaosRow]:
    """Sweep the injected protocol-fault count against recovery overhead.

    The §5.1 claim under test: any schedule within the tolerance recovers
    to the *bit-identical* released value of its fault-free twin — the
    fault rate buys only overhead (retries, extra committees, simulated
    waiting), never a different answer.
    """
    from ..faults import FaultPlan, UnrecoverableFault
    from ..runtime.deployment import CHAOS_QUERY, Deployment
    from ..verify.invariants import run_twin_identical

    rows: List[ChaosRow] = []
    for seed in seeds:
        deployment = Deployment(
            recipe="chaos", query_name="chaos-sweep", source=CHAOS_QUERY, devices=devices,
            categories=8, epsilon=4.0, sensitivity=1.0, committee_size=committee_size,
            seed=seed, shard_size=1024, tree_fanout=16, key_prime_bits=96, fault_seed=seed,
            scenario=FaultPlan("none").as_dict(),
        )
        baseline, _ = deployment.run()
        for num_faults in fault_counts:
            plan = FaultPlan.random_plan(
                seed=seed * 1000 + num_faults, num_faults=num_faults
            )
            try:
                outcome, _ = replace(deployment, scenario=plan.as_dict()).run()
            except UnrecoverableFault as exc:
                rows.append(
                    ChaosRow(
                        num_faults, seed, False, False,
                        exc.log.retries, 0, exc.log.waited_seconds,
                    )
                )
                continue
            log = outcome.fault_log
            rows.append(
                ChaosRow(
                    num_faults,
                    seed,
                    True,
                    not run_twin_identical(outcome, baseline, plan),
                    log.retries,
                    outcome.committees_used - baseline.committees_used,
                    log.waited_seconds,
                )
            )
    return rows


def print_chaos() -> None:
    print("Chaos — injected protocol faults vs recovery overhead")
    print(
        f"{'faults':>6s} {'seed':>5s} {'done':>5s} {'identical':>9s} "
        f"{'retries':>7s} {'extra-cmte':>10s} {'waited':>8s}"
    )
    for r in chaos_sweep():
        print(
            f"{r.num_faults:6d} {r.seed:5d} {str(r.completed):>5s} "
            f"{str(r.identical):>9s} {r.retries:7d} {r.extra_committees:10d} "
            f"{r.waited_seconds:7.1f}s"
        )


def print_table1() -> None:
    print(f"Table 1 — approaches at N={ZIPCODE_PARTICIPANTS:.0e}, R={ZIPCODE_CATEGORIES}")
    header = (
        f"{'approach':16s} {'aggregator':>16s} {'bw typ.':>10s} {'bw worst':>10s} "
        f"{'categorical':>11s} {'contribute':>12s} {'optimize':>9s}"
    )
    print(header)
    for r in table1():
        print(
            f"{r.approach:16s} {r.aggregator_computation:>16s} "
            f"{r.participant_bandwidth_typical:>10s} {r.participant_bandwidth_worst:>10s} "
            f"{r.categorical:>11s} {r.participants_contribute:>12s} {r.optimization:>9s}"
        )


def print_table2() -> None:
    print("Table 2 — supported queries")
    print(f"{'query':10s} {'action':26s} {'from':6s} {'lines':>5s} {'paper':>5s}")
    for r in table2():
        print(f"{r.query:10s} {r.action:26s} {r.source:6s} {r.lines:>5d} {r.paper_lines:>5d}")


def print_fig6() -> None:
    print("Fig 6 — expected per-participant cost")
    print(f"{'query':10s} {'system':10s} {'enc+verif':>10s} {'MPC':>8s} {'traffic':>10s}")
    for r in fig6():
        print(
            f"{r.query:10s} {r.system:10s} {r.encryption_verification_seconds:9.1f}s "
            f"{r.mpc_seconds:7.1f}s {_fmt_bytes(r.total_bytes):>10s}"
        )


def print_fig7() -> None:
    print("Fig 7 — per-member committee cost by type")
    print(f"{'query':10s} {'system':10s} {'type':11s} {'compute':>9s} {'traffic':>10s} {'count':>8s}")
    for r in fig7():
        print(
            f"{r.query:10s} {r.system:10s} {r.committee_type:11s} "
            f"{r.seconds / 60:8.1f}m {_fmt_bytes(r.bytes_sent):>10s} {r.committees:8.0f}"
        )


def print_fig8() -> None:
    print("Fig 8 — aggregator cost (1,000 cores)")
    print(f"{'query':10s} {'system':10s} {'traffic':>10s} {'verif':>8s} {'ops':>8s} {'hours':>6s}")
    for r in fig8():
        print(
            f"{r.query:10s} {r.system:10s} {_fmt_bytes(r.forwarding_bytes):>10s} "
            f"{r.verification_core_seconds / 3600:7.0f}h {r.operations_core_seconds / 3600:7.0f}h "
            f"{r.hours_on_cores():6.1f}"
        )


def print_fig9() -> None:
    print("Fig 9 — planner runtime")
    for r in fig9():
        print(
            f"{r.query:10s} {r.runtime_seconds * 1000:9.1f} ms  "
            f"prefixes={r.prefixes_considered:6d} candidates={r.candidates_scored:5d} "
            f"space={r.space_size:7d} cache_hits={r.cost_cache_hits:6d}"
        )


def print_fig10() -> None:
    print("Fig 10 — top1 scalability under aggregator limits")
    for p in fig10():
        limit = "none" if p.limit_core_hours is None else f"{p.limit_core_hours:.0f}ch"
        if p.aggregator_hours is None:
            print(f"N=2^{int(math.log2(p.num_participants)):2d} A={limit:7s} INFEASIBLE")
        else:
            print(
                f"N=2^{int(math.log2(p.num_participants)):2d} A={limit:7s} "
                f"agg={p.aggregator_hours:8.1f}ch exp={p.expected_minutes:6.2f}m "
                f"max={p.max_minutes:6.1f}m"
            )


def main() -> None:
    print_table1()
    print()
    print_table2()
    print()
    print_fig6()
    print()
    print_fig7()
    print()
    print_fig8()
    print()
    print_fig9()
    print()
    print_fig10()


if __name__ == "__main__":
    main()
