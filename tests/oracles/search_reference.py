"""From-scratch plan search, kept as the differential oracle.

This is the planner's evaluator as it stood before the search went
incremental: every extension re-instantiates and re-scores the whole
prefix, and every leaf re-instantiates the full assignment. It plugs into
the product's own control loop (``repro.planner.search._SearchRun``)
through the one seam the planner offers, :meth:`Planner._evaluator`. Its
``child`` builds every child, where the incremental evaluator's prices a
child first and builds only one the search's ``pruned`` keeps, so node
visit order, pruning decisions and every effort counter must come out
identical to the incremental evaluator's — which is what
``tests/test_search_equivalence.py`` requires, on every catalog query,
with heuristics on and off and with cheapest-first ordering off.

Nothing in ``src/`` imports this module and no option selects it.
"""

from __future__ import annotations

from typing import Tuple

from repro.planner.costmodel import CostModel
from repro.planner.expand import Choice, ExpansionError, instantiate
from repro.planner.ir import LogicalPlan
from repro.planner.plan import Plan, score_vignettes
from repro.planner.search import Planner


class _RefNode:
    """Reference search node: just the prefix and its partial cost."""

    __slots__ = ("choices", "cost")

    def __init__(self, choices: Tuple[Choice, ...], cost):
        self.choices = choices
        self.cost = cost


class ReferenceEvaluator:
    """From-scratch evaluation, byte-for-byte the original planner."""

    cache_hits = 0
    cache_misses = 0

    def __init__(self, logical: LogicalPlan, model: CostModel, num_participants: int):
        self.logical = logical
        self.model = model
        self.n = num_participants

    def root(self) -> _RefNode:
        return _RefNode((), None)

    def child(self, node: _RefNode, choice: Choice, pruned) -> _RefNode:
        # Builds every child: no bound, so the search checks each child's
        # exact cost.
        choices = node.choices + (choice,)
        vignettes, _scheme = instantiate(
            self.logical, choices, self.model, partial=True
        )
        score = score_vignettes(vignettes, self.n, self.model)
        return _RefNode(choices, score.cost)

    def naive_extend(self, node: _RefNode, choice: Choice) -> _RefNode:
        # Without heuristics the original planner never instantiates
        # prefixes; structural failures only surface at the leaves.
        return _RefNode(node.choices + (choice,), None)

    def leaf(self, node: _RefNode):
        try:
            vignettes, scheme = instantiate(self.logical, node.choices, self.model)
        except ExpansionError:
            return None
        score = score_vignettes(vignettes, self.n, self.model)
        logical = self.logical
        choices = node.choices

        def make_plan() -> Plan:
            return Plan(
                query_name=logical.query_name,
                choices={c.key: c.label() for c in choices},
                vignettes=vignettes,
                scheme=scheme,
                score=score,
                choice_list=list(choices),
            )

        return score.cost, make_plan


class ReferencePlanner(Planner):
    """A :class:`Planner` whose every search runs the from-scratch evaluator."""

    def _evaluator(self, logical: LogicalPlan) -> ReferenceEvaluator:
        return ReferenceEvaluator(logical, self.model, self.env.num_participants)
