"""The optimized search must be a pure speedup, never a behavior change.

The planner's incremental search (prefix expansion + emission/cost caches
+ cheapest-first ordering + optional parallel root split) must select the
*identical* plan — byte-for-byte after serialization — and traverse the
search space with identical effort counters as the from-scratch oracle
(``tests/oracles/search_reference.py``, the same control loop over the
original evaluator), on every catalog query, with and without the
branch-and-bound heuristics, and for any ``workers`` setting.
"""

import json

import pytest

from repro.eval.experiments import PAPER_CONSTRAINTS, PAPER_N
from repro.planner.costmodel import Goal
from repro.planner.search import Planner, PlannerOutOfMemory, plan_query
from repro.planner.serialize import plan_to_dict
from repro.queries.catalog import ALL_QUERIES
from tests.oracles.search_reference import ReferencePlanner

#: Effort counters that must match the oracle's at identical settings.
#: (Cache and runtime counters are evaluator-specific by design.)
COUNTERS = (
    "space_size",
    "prefixes_considered",
    "candidates_scored",
    "candidates_feasible",
    "pruned_by_constraint",
    "pruned_by_bound",
    "nodes_reordered",
)

_cache = {}


def _run(spec, planner_class=Planner, **kwargs):
    key = (spec.name, planner_class, tuple(sorted(kwargs.items())))
    if key not in _cache:
        env = spec.environment(PAPER_N)
        planner = planner_class(
            env,
            constraints=PAPER_CONSTRAINTS,
            goal=Goal("participant_expected_seconds"),
            **kwargs,
        )
        result = planner.plan_source(spec.source, spec.name)
        _cache[key] = (
            json.dumps(plan_to_dict(result.plan), sort_keys=True),
            {name: getattr(result.statistics, name) for name in COUNTERS},
        )
    return _cache[key]


@pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda spec: spec.name)
class TestEngineEquivalence:
    def test_plan_and_counters_match_reference(self, spec):
        optimized = _run(spec)
        reference = _run(spec, ReferencePlanner)
        assert optimized[0] == reference[0]
        assert optimized[1] == reference[1]

    def test_naive_ablation_matches_reference(self, spec):
        optimized = _run(spec, heuristics=False)
        reference = _run(spec, ReferencePlanner, heuristics=False)
        assert optimized[0] == reference[0]
        assert optimized[1] == reference[1]

    def test_parallel_workers_select_identical_plan(self, spec):
        sequential = _run(spec)
        parallel = _run(spec, workers=2)
        assert parallel[0] == sequential[0]

    def test_ordering_off_matches_reference_traversal(self, spec):
        optimized = _run(spec, order_choices=False)
        reference = _run(spec, ReferencePlanner, order_choices=False)
        assert optimized[0] == reference[0]
        assert optimized[1] == reference[1]


class TestNaiveSemanticsPreserved:
    def test_memory_budget_raises_in_both_engines(self):
        spec = ALL_QUERIES[1]  # topK: large enough space to overflow
        env = spec.environment(PAPER_N)
        for planner_class in (Planner, ReferencePlanner):
            planner = planner_class(
                env,
                constraints=PAPER_CONSTRAINTS,
                goal=Goal("participant_expected_seconds"),
                heuristics=False,
                memory_budget_candidates=5,
            )
            with pytest.raises(PlannerOutOfMemory):
                planner.plan_source(spec.source, spec.name)

    def test_plan_query_plumbs_budget_and_verify(self):
        # The convenience wrapper used to drop both kwargs silently.
        spec = ALL_QUERIES[1]
        env = spec.environment(PAPER_N)
        with pytest.raises(PlannerOutOfMemory):
            plan_query(
                spec.source,
                env,
                name=spec.name,
                heuristics=False,
                memory_budget_candidates=5,
                verify=False,
            )
        result = plan_query(spec.source, env, name=spec.name, verify=True)
        assert result.plan is not None
