"""The query planner: search over candidate plans (§4.4, §4.6, §7.3).

The planner explores the choice tree produced by ``expand.choice_space``
depth-first, scoring partial assignments as it goes. Two heuristics keep
the search tractable (§4.4):

* **branch-and-bound** — a prefix is scored by instantiating only the ops
  chosen so far; since costs only grow as ops are added, a prefix that
  already violates a constraint or exceeds the best-known goal value can
  be discarded with its whole subtree;
* **constraint pruning** — partial solutions are discarded as soon as they
  exceed one of the analyst's limits.

Setting ``heuristics=False`` reproduces the §7.3 ablation: the planner
enumerates every full candidate, keeps them all in memory like a naive
implementation, and aborts with :class:`PlannerOutOfMemory` once the
candidate list exceeds the memory budget (the paper's planner ran out of
memory for half the queries with heuristics disabled).

The search is incremental: each node extends its parent's
:class:`~.expand.PrefixExpander` state by one op's vignettes and its
running :class:`~.plan.ScoreAccumulator` by the new segment, so per-node
work is O(1) amortized instead of O(depth). Emissions and per-Work
cost-model evaluations are memoized (hit/miss counters land in
:class:`PlannerStatistics`). The from-scratch evaluator it replaced
(partial re-instantiation + full rescoring per node) lives on as the test
oracle ``tests/oracles/search_reference.py``, which drives the same
control loop (`_SearchRun`) through :meth:`Planner._evaluator`.

With ``order_choices`` (default on when heuristics are on), surviving
children at each node are visited cheapest-first by their partial goal
value — an admissible lower bound on any completion, since costs only
grow as ops are added — so the incumbent tightens early and more of the
tree falls to the bound. That shared incumbent *is* the pruning, so the
search is one walk in the calling process (ARCHITECTURE §26).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.types import QueryEnvironment
from ..lang.ast import Program
from ..lang.parser import parse
from ..lang.simplify import simplify
from ..privacy.certify import Certificate, certify
from .costmodel import Constraints, CostModel, Goal
from .expand import Choice, ExpansionError, PrefixExpander, choice_space, space_size
from .ir import LogicalPlan, lower
from .plan import Plan


class PlanningFailed(Exception):
    """Raised when no candidate satisfies the analyst's constraints."""


class PlannerOutOfMemory(Exception):
    """Raised by the no-heuristics ablation when the candidate list blows up."""


@dataclass
class PlannerStatistics:
    """Search effort counters (Fig 9 reports runtime; §7.3 reports prefixes)."""

    space_size: int = 0
    prefixes_considered: int = 0
    candidates_scored: int = 0
    candidates_feasible: int = 0
    pruned_by_constraint: int = 0
    pruned_by_bound: int = 0
    runtime_seconds: float = 0.0
    #: Memoized cost-model evaluations (CostModel.cached_costs).
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    #: Memoized per-(op, choice, entry-state) vignette emissions.
    expansion_cache_hits: int = 0
    expansion_cache_misses: int = 0
    #: Nodes whose surviving children were visited in a different
    #: (cheapest-first) order than the catalog order.
    nodes_reordered: int = 0


@dataclass
class PlanningResult:
    """The chosen plan plus search statistics.

    ``privacy_certificate`` is the dataflow analyzer's machine-checkable
    proof summary (:class:`repro.verify.certificate.PrivacyCertificate`),
    attached by :meth:`Planner.plan_logical` when the analysis is clean;
    the executor re-analyzes and compares digests before running.
    """

    plan: Optional[Plan]
    statistics: PlannerStatistics
    certificate: Certificate
    logical_plan: LogicalPlan
    privacy_certificate: Optional[object] = None

    @property
    def succeeded(self) -> bool:
        return self.plan is not None


# --------------------------------------------------------------------------
# The search-node evaluator
# --------------------------------------------------------------------------


class _IncrementalEvaluator:
    """Resumable evaluation through a :class:`PrefixExpander`.

    Extension reuses the parent node's vignettes and running score; the
    leaf reuses the depth-d node outright (it already folded every
    vignette), fixing the original planner's double instantiation of full
    assignments.
    """

    def __init__(self, logical: LogicalPlan, model: CostModel, num_participants: int):
        self.logical = logical
        self.model = model
        self.n = num_participants
        self.expander = PrefixExpander(logical, model)

    @property
    def cache_hits(self) -> int:
        return self.expander.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.expander.cache_misses

    def root(self):
        return self.expander.root()

    def extend(self, node, choice: Choice):
        return self.expander.extend(node, choice)

    # Structural failures surface at extension time; the search core
    # accounts for the skipped subtree's leaves in naive mode.
    naive_extend = extend

    def leaf(self, node):
        score = self.expander.leaf_score(node)
        expander = self.expander
        logical = self.logical

        def make_plan() -> Plan:
            return Plan(
                query_name=logical.query_name,
                choices={c.key: c.label() for c in node.choices},
                vignettes=expander.leaf_vignettes(node),
                scheme=node.scheme,
                score=score,
                choice_list=list(node.choices),
            )

        return score.cost, make_plan


# --------------------------------------------------------------------------
# The search loop
# --------------------------------------------------------------------------


class _SearchRun:
    """One depth-first search over the choice tree.

    The control flow never looks inside a node: the evaluator supplies
    ``root``/``extend``/``naive_extend``/``leaf``, so the test oracle's
    from-scratch evaluator visits nodes in the same order, prunes at the
    same places, and counts every statistic identically.
    """

    def __init__(self, planner: "Planner", logical: LogicalPlan, space, evaluator, stats):
        self.planner = planner
        self.logical = logical
        self.space = space
        self.evaluator = evaluator
        self.stats = stats
        self.best: Optional[Plan] = None
        self.best_score = float("inf")
        self.best_composite = float("inf")
        self.kept_candidates: List[Plan] = []  # only populated without heuristics
        # suffix_leaves[d]: leaves in a subtree rooted at depth d, and
        # suffix_prefixes[d]: prefixes a full walk of that subtree visits.
        # Used to account for structurally-invalid subtrees in naive mode,
        # where the original planner walked and scored-and-failed them all.
        leaves = [1] * (len(space) + 1)
        prefixes = [0] * (len(space) + 1)
        for i in range(len(space) - 1, -1, -1):
            leaves[i] = leaves[i + 1] * len(space[i][1])
            prefixes[i] = len(space[i][1]) * (1 + prefixes[i + 1])
        self.suffix_leaves = leaves
        self.suffix_prefixes = prefixes

    def run(self) -> Optional[Plan]:
        root = self.evaluator.root()
        if self.planner.heuristics:
            self._dfs(root, 0)
        else:
            self._dfs_naive(root, 0)
        return self.best

    # ----------------------------------------------------------- internals

    def _leaf(self, node) -> Optional[Plan]:
        stats = self.stats
        planner = self.planner
        stats.candidates_scored += 1
        scored = self.evaluator.leaf(node)
        if scored is None:
            return None
        cost, make_plan = scored
        if not planner.constraints.allows(cost):
            stats.pruned_by_constraint += 1
            return None
        stats.candidates_feasible += 1
        plan = make_plan()
        if planner.goal.better(cost, self.best_score, self.best_composite):
            self.best = plan
            self.best_score = planner.goal.score(cost)
            self.best_composite = planner.goal.composite(cost)
        return plan

    def _dfs(self, node, depth: int) -> None:
        if depth == len(self.space):
            self._leaf(node)
            return
        stats = self.stats
        planner = self.planner
        goal = planner.goal
        # Two phases: score every child against the incumbent-at-entry,
        # then recurse (optionally cheapest-first), re-checking the bound
        # against the freshly tightened incumbent before each descent. A
        # child is counted as bound-pruned exactly once, whichever phase
        # discards it, so the totals match a single-phase loop.
        children = []
        for index, choice in enumerate(self.space[depth][1]):
            stats.prefixes_considered += 1
            try:
                child = self.evaluator.extend(node, choice)
            except ExpansionError:
                continue
            cost = child.cost
            if planner.constraints.first_violation(cost) is not None:
                stats.pruned_by_constraint += 1
                continue
            value = goal.score(cost)
            # Strict bound: costs only grow as ops are added, so a
            # prefix already *strictly* above the incumbent cannot
            # improve it; ties stay open for the lexicographic
            # composite to decide at the leaves.
            if value > self.best_score and not goal.is_tied(value, self.best_score):
                stats.pruned_by_bound += 1
                continue
            children.append((value, index, child))
        if planner.order_choices and len(children) > 1:
            ordered = sorted(children, key=lambda entry: (entry[0], entry[1]))
            if [entry[1] for entry in ordered] != [entry[1] for entry in children]:
                stats.nodes_reordered += 1
            children = ordered
        for value, _index, child in children:
            if value > self.best_score and not goal.is_tied(value, self.best_score):
                stats.pruned_by_bound += 1
                continue
            self._dfs(child, depth + 1)

    def _dfs_naive(self, node, depth: int) -> None:
        if depth == len(self.space):
            plan = self._leaf(node)
            if plan is not None:
                self.kept_candidates.append(plan)
                if len(self.kept_candidates) > self.planner.memory_budget_candidates:
                    raise PlannerOutOfMemory(
                        f"naive enumeration exceeded the memory budget of "
                        f"{self.planner.memory_budget_candidates} candidates for "
                        f"query {self.logical.query_name!r}"
                    )
            return
        stats = self.stats
        for choice in self.space[depth][1]:
            stats.prefixes_considered += 1
            try:
                child = self.evaluator.naive_extend(node, choice)
            except ExpansionError:
                # The original planner only discovered structural failures
                # at the leaves: it walked every prefix below this one and
                # scored-and-failed every leaf. Account for both without
                # walking the subtree.
                stats.candidates_scored += self.suffix_leaves[depth + 1]
                stats.prefixes_considered += self.suffix_prefixes[depth + 1]
                continue
            self._dfs_naive(child, depth + 1)


# --------------------------------------------------------------------------
# The planner
# --------------------------------------------------------------------------


class Planner:
    """Arboretum's query planner.

    Parameters mirror §4.2: the analyst supplies an optimization ``goal``
    and optional ``constraints`` (limits on any of the six metrics); the
    planner returns the best plan that satisfies the limits, or raises
    :class:`PlanningFailed`.

    ``order_choices`` visits surviving children cheapest-first (defaults
    to on when heuristics are on).
    """

    def __init__(
        self,
        env: QueryEnvironment,
        model: Optional[CostModel] = None,
        constraints: Optional[Constraints] = None,
        goal: Optional[Goal] = None,
        heuristics: bool = True,
        memory_budget_candidates: int = 250_000,
        verify: Optional[bool] = None,
        order_choices: Optional[bool] = None,
    ):
        self.env = env
        self.model = model or CostModel()
        self.constraints = constraints or Constraints()
        self.goal = goal or Goal()
        self.heuristics = heuristics
        self.memory_budget_candidates = memory_budget_candidates
        if verify is None:
            verify = os.environ.get("REPRO_VERIFY", "").lower() in ("1", "true", "yes")
        self.verify = verify
        if order_choices is None:
            order_choices = heuristics
        self.order_choices = order_choices

    # ----------------------------------------------------------- front door

    def plan_source(
        self,
        source: str,
        name: str = "query",
        certificate: Optional[Certificate] = None,
    ) -> PlanningResult:
        """Parse, certify, lower, and plan query-language source text."""
        return self.plan_program(parse(source), name, certificate)

    def plan_program(
        self,
        program: Program,
        name: str = "query",
        certificate: Optional[Certificate] = None,
        fold_constants: bool = True,
    ) -> PlanningResult:
        """Plan a parsed program.

        ``certificate`` defaults to automatic certification; pass a
        :func:`repro.privacy.certify.manual_certificate` to plan programs
        whose privacy proof the analyst supplies themselves (§4.2).
        Constant folding runs first by default, which also guarantees the
        §4.4 rule that no vignette consists only of constant assignments.
        """
        if fold_constants:
            program = simplify(program)
        if certificate is None:
            certificate = certify(program, self.env)
        logical = lower(program, self.env, certificate, name)
        return self.plan_logical(logical, certificate)

    # --------------------------------------------------------------- search

    def plan_logical(
        self, logical: LogicalPlan, certificate: Certificate
    ) -> PlanningResult:
        started = time.perf_counter()
        stats = PlannerStatistics(space_size=space_size(logical))
        evaluator = self._evaluator(logical)
        cost_hits = self.model.cache_hits
        cost_misses = self.model.cache_misses
        best = _SearchRun(self, logical, choice_space(logical), evaluator, stats).run()
        stats.cost_cache_hits = self.model.cache_hits - cost_hits
        stats.cost_cache_misses = self.model.cache_misses - cost_misses
        stats.expansion_cache_hits = evaluator.cache_hits
        stats.expansion_cache_misses = evaluator.cache_misses
        stats.runtime_seconds = time.perf_counter() - started
        result = PlanningResult(best, stats, certificate, logical)
        if best is None:
            raise PlanningFailed(
                f"no plan for {logical.query_name!r} satisfies the constraints "
                f"({stats.candidates_scored} candidates scored, "
                f"{stats.pruned_by_constraint} pruned by constraints)"
            )
        # Post-condition: dataflow-analyze the winning plan and attach the
        # machine-checkable privacy certificate. The analysis never raises;
        # under --verify a dirty report (or any failed invariant) is fatal.
        # Imported lazily — verify depends on this module.
        from ..verify.dataflow import analyze_planning_result

        df_report, privacy_certificate = analyze_planning_result(result)
        result.privacy_certificate = privacy_certificate
        if self.verify:
            from ..verify import verify_planning_result

            verify_planning_result(result).raise_if_failed()
            df_report.raise_if_failed()
        return result

    def _evaluator(self, logical: LogicalPlan):
        """The search-node evaluator of one run (the test oracle's seam)."""
        return _IncrementalEvaluator(logical, self.model, self.env.num_participants)


def plan_query(
    source: str,
    env: QueryEnvironment,
    name: str = "query",
    constraints: Optional[Constraints] = None,
    goal: Optional[Goal] = None,
    model: Optional[CostModel] = None,
    heuristics: bool = True,
    memory_budget_candidates: int = 250_000,
    verify: Optional[bool] = None,
    order_choices: Optional[bool] = None,
) -> PlanningResult:
    """One-call convenience wrapper: source text in, PlanningResult out."""
    planner = Planner(
        env,
        model=model,
        constraints=constraints,
        goal=goal,
        heuristics=heuristics,
        memory_budget_candidates=memory_budget_candidates,
        verify=verify,
        order_choices=order_choices,
    )
    return planner.plan_source(source, name)
