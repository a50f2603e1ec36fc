"""Analytics sessions: many queries against one deployment.

Arboretum is built for repeated use — the sortition block chains from
query to query (§5.1), the authorization certificate carries the remaining
privacy budget forward (§5.2), and the planner's cost model is shared.
:class:`AnalyticsSession` packages that lifecycle: it owns the accountant,
the (simulated) network, and a planner per environment, and exposes one
call per query.

    session = AnalyticsSession(network, epsilon_budget=4.0)
    winner = session.ask("aggr = sum(db); output(em(aggr));", categories=8)
    count = session.ask(COUNT_QUERY, categories=8)
    session.remaining_epsilon()   # what's left
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .analysis.types import QueryEnvironment
from .planner.costmodel import Constraints, CostModel, Goal
from .planner.search import Planner, PlanningResult
from .privacy.accountant import PrivacyAccountant
from .runtime.executor import QueryExecutor, QueryResult
from .runtime.network import FederatedNetwork


@dataclass
class SessionRecord:
    """One answered (or refused) query in the session's history."""

    name: str
    epsilon: float
    planning: PlanningResult
    result: Optional[QueryResult]


@dataclass(frozen=True)
class BudgetLine:
    """One source's (label's) total debits in a budget report."""

    label: str
    epsilon: float
    delta: float
    charges: int


@dataclass(frozen=True)
class BudgetReport:
    """Structured per-source budget accounting for a session.

    ``by_label`` aggregates the accountant's ledger per charge label
    (one label per query, or per service submission), in first-charge
    order, so the service layer and the CLI can render per-tenant /
    per-query breakdowns without re-walking the raw history.
    """

    epsilon_budget: float
    delta_budget: float
    spent_epsilon: float
    spent_delta: float
    remaining_epsilon: float
    remaining_delta: float
    by_label: Tuple[BudgetLine, ...] = field(default_factory=tuple)

    def as_dict(self) -> Dict[str, object]:
        return {
            "epsilon_budget": self.epsilon_budget,
            "delta_budget": self.delta_budget,
            "spent_epsilon": self.spent_epsilon,
            "spent_delta": self.spent_delta,
            "remaining_epsilon": self.remaining_epsilon,
            "remaining_delta": self.remaining_delta,
            "by_label": [
                {
                    "label": line.label,
                    "epsilon": line.epsilon,
                    "delta": line.delta,
                    "charges": line.charges,
                }
                for line in self.by_label
            ],
        }


def budget_report_for(accountant: PrivacyAccountant) -> BudgetReport:
    """Aggregate an accountant's ledger into a :class:`BudgetReport`."""
    spent, remaining, history = accountant.snapshot()
    totals: Dict[str, List[float]] = {}
    order: List[str] = []
    for label, cost in history:
        if label not in totals:
            totals[label] = [0.0, 0.0, 0]
            order.append(label)
        totals[label][0] += cost.epsilon
        totals[label][1] += cost.delta
        totals[label][2] += 1
    return BudgetReport(
        epsilon_budget=accountant.epsilon_budget,
        delta_budget=accountant.delta_budget,
        spent_epsilon=spent.epsilon,
        spent_delta=spent.delta,
        remaining_epsilon=remaining.epsilon,
        remaining_delta=remaining.delta,
        by_label=tuple(
            BudgetLine(label, *totals[label][:2], charges=int(totals[label][2]))
            for label in order
        ),
    )


class AnalyticsSession:
    """A stateful, budget-enforcing interface over one deployment."""

    def __init__(
        self,
        network: FederatedNetwork,
        epsilon_budget: float,
        delta_budget: float = 1e-6,
        epsilon_per_query: float = 1.0,
        sensitivity: float = 1.0,
        committee_size: int = 4,
        key_prime_bits: int = 96,
        constraints: Optional[Constraints] = None,
        goal: Optional[Goal] = None,
        model: Optional[CostModel] = None,
        rng: Optional[random.Random] = None,
    ):
        self.network = network
        self.accountant = PrivacyAccountant(epsilon_budget, delta_budget)
        self.epsilon_per_query = epsilon_per_query
        self.sensitivity = sensitivity
        self.committee_size = committee_size
        self.key_prime_bits = key_prime_bits
        self.constraints = constraints
        self.goal = goal
        self.model = model
        self.rng = rng or random.Random()
        self.history: List[SessionRecord] = []
        self._planners: Dict[tuple, Planner] = {}

    # ------------------------------------------------------------- planning

    def environment(
        self,
        categories: int,
        epsilon: Optional[float] = None,
        sensitivity: Optional[float] = None,
        row_encoding: str = "one_hot",
        value_range: Optional[tuple] = None,
    ) -> QueryEnvironment:
        """The planning environment this session would use for a query.

        Public so layers above the session (the multi-tenant service's
        plan-cache fingerprinting) can see exactly the environment that
        planning will run against.
        """
        from .analysis.ranges import Interval
        from .analysis.types import ValueType

        element = None
        if value_range is not None:
            element = ValueType("int", Interval(float(value_range[0]), float(value_range[1])))
        return QueryEnvironment(
            num_participants=len(self.network),
            row_width=categories,
            db_element=element,
            epsilon=epsilon if epsilon is not None else self.epsilon_per_query,
            sensitivity=sensitivity if sensitivity is not None else self.sensitivity,
            row_encoding=row_encoding,
        )

    def planner(self, env: QueryEnvironment) -> Planner:
        """The (memoized) planner for ``env`` — same instance ``plan`` uses."""
        key = (
            env.row_width,
            env.epsilon,
            env.sensitivity,
            env.row_encoding,
            env.db_element.interval.lo,
            env.db_element.interval.hi,
        )
        if key not in self._planners:
            self._planners[key] = Planner(
                env,
                model=self.model,
                constraints=self.constraints,
                goal=self.goal,
            )
        return self._planners[key]

    def plan(
        self,
        source: str,
        categories: int,
        name: str = "query",
        epsilon: Optional[float] = None,
        sensitivity: Optional[float] = None,
        row_encoding: str = "one_hot",
        value_range: Optional[tuple] = None,
    ) -> PlanningResult:
        """Certify and plan without executing (no budget is spent)."""
        env = self.environment(
            categories, epsilon, sensitivity, row_encoding, value_range
        )
        return self.planner(env).plan_source(source, name)

    # ------------------------------------------------------------ execution

    def ask(
        self,
        source: str,
        categories: int,
        name: str = "query",
        epsilon: Optional[float] = None,
        sensitivity: Optional[float] = None,
        row_encoding: str = "one_hot",
        value_range: Optional[tuple] = None,
    ) -> QueryResult:
        """Plan, budget-check, and execute one query.

        Raises :class:`repro.runtime.executor.BudgetExhausted` (a
        :class:`~repro.runtime.executor.QueryRejected` subclass) when the
        accountant declines the query's certified cost; a refused query
        spends nothing and is recorded with ``result=None``.
        """
        from .privacy.accountant import PrivacyCost
        from .runtime.executor import BudgetExhausted

        planning = self.plan(
            source, categories, name, epsilon, sensitivity, row_encoding, value_range
        )
        cost = PrivacyCost(planning.certificate.epsilon, planning.certificate.delta)
        if not self.accountant.can_afford(cost):
            # Refuse before any committee work, with the typed error the
            # service layer's admission controller distinguishes on.
            self.history.append(
                SessionRecord(name, planning.certificate.epsilon, planning, None)
            )
            remaining = self.accountant.remaining()
            raise BudgetExhausted(
                f"query {name!r} needs ε={cost.epsilon:g} but only "
                f"ε={remaining.epsilon:g} of the session budget remains"
            )
        return self.execute_planning(planning, name)

    def execute_planning(
        self,
        planning: PlanningResult,
        name: str = "query",
        charge_label: Optional[str] = None,
    ) -> QueryResult:
        """Execute an already-planned query against this deployment.

        The budget is charged by the executor under ``charge_label``
        (default: ``name``) via the exactly-once ``charge_once`` path.
        This is the entry point the multi-tenant service uses for plans
        served from its keyed cache — the planning result may have been
        produced for an earlier submission, so the charge label must come
        from the submission, not from the plan.
        """
        from .runtime.executor import QueryRejected

        # Each query gets its own stream off the session's: how much one
        # query's dealers draw must not move the next query's master seed.
        executor = QueryExecutor(
            self.network,
            planning,
            committee_size=self.committee_size,
            key_prime_bits=self.key_prime_bits,
            rng=random.Random(self.rng.getrandbits(64)),
            accountant=self.accountant,
            charge_label=charge_label if charge_label is not None else name,
        )
        try:
            result = executor.run()
        except QueryRejected:
            self.history.append(
                SessionRecord(name, planning.certificate.epsilon, planning, None)
            )
            raise
        self.history.append(
            SessionRecord(name, planning.certificate.epsilon, planning, result)
        )
        return result

    # ------------------------------------------------------------ inspection

    def remaining_epsilon(self) -> float:
        return self.accountant.remaining().epsilon

    def spent_epsilon(self) -> float:
        return self.accountant.spent.epsilon

    def budget_report(self) -> BudgetReport:
        """Structured per-source remaining/spent epsilon for this session."""
        return budget_report_for(self.accountant)

    def can_afford(self, source: str, categories: int, **kwargs) -> bool:
        """Would the keygen committee authorize this query right now?"""
        from .privacy.accountant import PrivacyCost

        planning = self.plan(source, categories, **kwargs)
        cost = PrivacyCost(planning.certificate.epsilon, planning.certificate.delta)
        return self.accountant.can_afford(cost)

    @property
    def queries_answered(self) -> int:
        return sum(1 for record in self.history if record.result is not None)
