"""The query planner: search over candidate plans (§4.4, §4.6, §7.3).

The planner explores the choice tree produced by ``expand.choice_space``
depth-first, scoring partial assignments as it goes. Three heuristics keep
the search tractable (§4.4):

* **branch-and-bound, bound first, build survivors** — since costs only
  grow as ops are added, a prefix that already violates a constraint or
  exceeds the best-known goal value is discarded with its whole subtree.
  One evaluator call per child, ``child(node, choice, pruned)``, prices it
  first (its parent's totals plus its segment's, never above its exact
  cost) and builds it only if ``pruned`` keeps that bound; the built child
  is then checked on its exact cost;
* **constraint pruning** — partial solutions are discarded as soon as they
  exceed one of the analyst's limits;
* **one choice per instantiation class** — the walk takes
  ``expand.distinct_choices`` of the choice space: of the choices of one op that emit
  identical vignettes and an identical end state from every build state
  (``expand.instantiation_class``; today the select-max batch sizes and
  fan-outs at or above the category count), only the first in catalog
  order. It is exact: class members have identical segments and end
  states, hence isomorphic subtrees with bit-identical costs; children are
  visited in ``(value, index)`` order and ``Goal.better`` needs a strictly
  smaller composite to replace a tie, so a later member could never
  displace the first, and dropping it moves no incumbent and no prune.
  ``stats.space_size`` stays the legal ``choice_space`` product, and the
  plan verifier checks each choice against that legal set.

Setting ``heuristics=False`` reproduces the §7.3 ablation: the planner
enumerates every full candidate of the legal space, keeps them all in memory like a naive
implementation, and aborts with :class:`PlannerOutOfMemory` once the
candidate list exceeds the memory budget (the paper's planner ran out of
memory for half the queries with heuristics disabled).

The search is incremental: the evaluator is a
:class:`~.expand.PrefixExpander`, each of whose nodes is its parent plus
one op's emission, with the running :class:`~.plan.ScoreAccumulator`
extended by that emission's score stubs, so per-node work is O(1)
amortized instead of O(depth). Emissions are memoized per expander as
rows, priced from their stubs; no node holds a vignette, and a plan's are
built from its node's emission chain for that plan alone. Each row holds
a shared, immutable ``Work``: the emitters take them from bounded
process-wide memos, so each distinct ``Work`` is built and keyed once, and
per-Work cost-model evaluations are memoized per cost model (hit/miss
counters land in :class:`PlannerStatistics`). The from-scratch evaluator
it replaced (partial re-instantiation + full rescoring per node) lives on
as the test oracle ``tests/oracles/search_reference.py``, which drives the
same control loop (`_SearchRun`) through :meth:`Planner._evaluator`.

With the heuristics on, surviving children at each node are visited
cheapest-first by their partial goal value — an admissible lower bound
on any completion, since costs only grow as ops are added — so the
incumbent tightens early and more of the
tree falls to the bound. That shared incumbent *is* the pruning, so the
search is one walk in the calling process (ARCHITECTURE §3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.types import AnalysisError, QueryEnvironment
from ..lang.ast import Program
from ..lang.lexer import LexError
from ..lang.parser import ParseError, parse
from ..lang.simplify import simplify
from ..privacy.certify import Certificate, CertificationError, certify
from .costmodel import Constraints, CostModel, Goal
from .expand import ExpansionError, PrefixExpander, choice_space, distinct_choices
from .ir import LogicalPlan, LoweringError, lower
from .plan import Plan
from ..verify.report import PlanVerificationError  # after the modules verify reads


class PlanningFailed(Exception):
    """Raised when no candidate satisfies the analyst's constraints."""


class PlannerOutOfMemory(Exception):
    """Raised by the no-heuristics ablation when the candidate list blows up."""


#: How planning query text fails short of a bug: a query that does not lex,
#: parse, type-check, certify, lower or expand, a search with no feasible
#: plan, or the plan gate's refusal. Callers that plan text from outside (the
#: service, a journal's manifest) catch exactly these.
PLANNING_FAILURES = (
    LexError, ParseError, AnalysisError, CertificationError, LoweringError,
    ExpansionError, PlanningFailed, PlannerOutOfMemory, PlanVerificationError,
)


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
    proof summary (:class:`repro.verify.certificate.PrivacyCertificate`)
    and ``verification`` the merged report it was checked under, both set
    by :func:`repro.verify.gate`; the executor's gate re-analyzes the plan
    before every run, a cached one included, and compares digests.
    """

    plan: Optional[Plan]
    statistics: PlannerStatistics
    certificate: Certificate
    logical_plan: LogicalPlan
    privacy_certificate: Optional[object] = None
    verification: Optional[object] = None

    @property
    def succeeded(self) -> bool:
        return self.plan is not None


# --------------------------------------------------------------------------
# The search loop
# --------------------------------------------------------------------------


class _SearchRun:
    """One depth-first search over the choice tree.

    The control flow never looks inside a node: the evaluator supplies
    ``root``/``child``/``naive_extend``/``leaf``, so the test oracle's
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

    def run(self) -> Optional[Plan]:
        root = self.evaluator.root()
        if self.planner.heuristics:
            self._dfs(root, 0)
            return self.best
        # suffix_leaves[d]: leaves in a subtree rooted at depth d, and
        # suffix_prefixes[d]: prefixes a full walk of that subtree visits.
        # Used to account for structurally-invalid subtrees in naive mode,
        # where the original planner walked and scored-and-failed them all.
        space = self.space
        leaves = [1] * (len(space) + 1)
        prefixes = [0] * (len(space) + 1)
        for i in range(len(space) - 1, -1, -1):
            leaves[i] = leaves[i + 1] * len(space[i][1])
            prefixes[i] = len(space[i][1]) * (1 + prefixes[i + 1])
        self.suffix_leaves = leaves
        self.suffix_prefixes = prefixes
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

    def _pruned(self, cost) -> bool:
        """Count and discard a child whose ``cost`` (exact, or a bound below
        it) breaks a constraint or is *strictly* above the incumbent: costs
        only grow as ops are added, and ties stay open for the composite."""
        planner = self.planner
        if planner.constraints.first_violation(cost) is not None:
            self.stats.pruned_by_constraint += 1
            return True
        value = planner.goal.score(cost)
        if value > self.best_score and not planner.goal.is_tied(value, self.best_score):
            self.stats.pruned_by_bound += 1
            return True
        return False

    def _dfs(self, node, depth: int) -> None:
        if depth == len(self.space):
            self._leaf(node)
            return
        stats = self.stats
        goal = self.planner.goal
        pruned = self._pruned
        # Phase 1, bound first, build survivors: the evaluator builds a
        # child only if ``pruned`` keeps its lower bound at the
        # incumbent-at-entry, and the child is then checked on its exact
        # cost. The bound never exceeds that cost, so it prunes only
        # children the exact check would prune (the oracle tests hold the
        # counters to a search that builds every child).
        children = []
        for index, choice in enumerate(self.space[depth][1]):
            stats.prefixes_considered += 1
            try:
                child = self.evaluator.child(node, choice, pruned)
            except ExpansionError:
                continue
            if child is None or pruned(child.cost):
                continue
            children.append((goal.score(child.cost), index, child))
        # Phase 2: recurse cheapest-first, re-checking the bound against
        # the freshly tightened incumbent before each descent. A child is
        # counted as bound-pruned exactly once, whichever phase discards
        # it, so the totals match a single-phase loop.
        if len(children) > 1:
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
    :class:`PlanningFailed`. Every returned plan has passed
    :func:`repro.verify.gate` (which raises ``PlanVerificationError``).
    """

    def __init__(
        self,
        env: QueryEnvironment,
        model: Optional[CostModel] = None,
        constraints: Optional[Constraints] = None,
        goal: Optional[Goal] = None,
        heuristics: bool = True,
        memory_budget_candidates: int = 250_000,
    ):
        self.env = env
        self.model = model or CostModel()
        self.constraints = constraints or Constraints()
        self.goal = goal or Goal()
        self.heuristics = heuristics
        self.memory_budget_candidates = memory_budget_candidates

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
    ) -> PlanningResult:
        """Plan a parsed program.

        ``certificate`` defaults to automatic certification; pass a
        :func:`repro.privacy.certify.manual_certificate` to plan programs
        whose privacy proof the analyst supplies themselves (§4.2).
        Constant folding runs first, which also guarantees the §4.4 rule
        that no vignette consists only of constant assignments.
        """
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
        space = choice_space(logical)
        stats = PlannerStatistics(space_size=math.prod(len(options) for _op, options in space))
        if self.heuristics:
            space = distinct_choices(space)
        evaluator = self._evaluator(logical)
        cost_hits = self.model.cache_hits
        cost_misses = self.model.cache_misses
        best = _SearchRun(self, logical, space, evaluator, stats).run()
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
        # Post-condition: the winning plan passes the plan gate, which
        # attaches its privacy certificate; a dirty plan is never returned.
        # Imported lazily — verify depends on this module.
        from ..verify import gate

        gate(result)
        return result

    def _evaluator(self, logical: LogicalPlan):
        """The search-node evaluator of one run (the test oracle's seam)."""
        return PrefixExpander(logical, self.model)


def plan_query(
    source: str,
    env: QueryEnvironment,
    name: str = "query",
    constraints: Optional[Constraints] = None,
    goal: Optional[Goal] = None,
    model: Optional[CostModel] = None,
    heuristics: bool = True,
    memory_budget_candidates: int = 250_000,
) -> PlanningResult:
    """One-call convenience wrapper: source text in, PlanningResult out."""
    planner = Planner(
        env,
        model=model,
        constraints=constraints,
        goal=goal,
        heuristics=heuristics,
        memory_budget_candidates=memory_budget_candidates,
    )
    return planner.plan_source(source, name)
