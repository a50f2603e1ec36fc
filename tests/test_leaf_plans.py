"""Every plan the search makes is the plan ``instantiate`` builds, and its own.

``test_search_equivalence.py`` compares only the winners with the
from-scratch oracle. Here every feasible leaf of a heuristic catalog walk
is held to it: ``PrefixExpander.leaf``'s ``make_plan`` builds the plan's
vignettes from its node's emission chain, and the plan must serialize
byte for byte like the one :func:`instantiate` and :func:`score_vignettes`
give for the same choices. And since a plan builds its own vignettes, no
two candidates of a naive walk share one: a change to one plan's vignette
reaches no other.
"""

import json

import pytest

from repro.eval.experiments import PAPER_CONSTRAINTS, PAPER_N
from repro.planner.expand import PrefixExpander, choice_space, instantiate
from repro.planner.plan import Plan, score_vignettes
from repro.planner.search import Planner, PlannerStatistics, _SearchRun
from repro.planner.serialize import plan_to_dict
from repro.queries.catalog import ALL_QUERIES
from tests.test_search_equivalence import CATALOG_SIZES


class _Recording(PrefixExpander):
    """Keeps every plan its leaves make."""

    def __init__(self, *args):
        super().__init__(*args)
        self.plans = []

    def leaf(self, node):
        cost, make_plan = super().leaf(node)

        def recorded():
            plan = make_plan()
            self.plans.append(plan)
            return plan

        return cost, recorded


class _RecordingPlanner(Planner):
    def _evaluator(self, logical):
        self.recording = _Recording(logical, self.model)
        return self.recording


def _bytes(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def _instantiated(logical, plan, model):
    vignettes, scheme = instantiate(logical, plan.choice_list, model)
    return Plan(
        query_name=logical.query_name,
        choices={c.key: c.label() for c in plan.choice_list},
        vignettes=vignettes,
        scheme=scheme,
        score=score_vignettes(vignettes, logical.env.num_participants, model),
        choice_list=list(plan.choice_list),
    )


@pytest.mark.parametrize("n", CATALOG_SIZES)
def test_every_feasible_leaf_builds_the_instantiated_plan(n):
    checked = 0
    for spec in ALL_QUERIES:
        planner = _RecordingPlanner(spec.environment(n), constraints=PAPER_CONSTRAINTS)
        result = planner.plan_source(spec.source, spec.name)
        plans = planner.recording.plans
        assert len(plans) == result.statistics.candidates_feasible
        for plan in plans:
            expected = _instantiated(result.logical_plan, plan, planner.model)
            assert _bytes(plan) == _bytes(expected), (spec.name, n, plan.choices)
            checked += 1
    assert checked >= len(ALL_QUERIES)


def test_no_two_naive_candidates_share_a_vignette():
    kept = 0
    for spec in ALL_QUERIES:
        planner = Planner(
            spec.environment(PAPER_N), constraints=PAPER_CONSTRAINTS, heuristics=False
        )
        logical = planner.plan_source(spec.source, spec.name).logical_plan
        run = _SearchRun(
            planner,
            logical,
            choice_space(logical),
            planner._evaluator(logical),
            PlannerStatistics(),
        )
        run.run()
        ids = [id(v) for plan in run.kept_candidates for v in plan.vignettes]
        assert len(ids) == len(set(ids)), spec.name
        kept += len(run.kept_candidates)
    assert kept > len(ALL_QUERIES)
