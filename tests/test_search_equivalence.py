"""The optimized search must be a pure speedup, never a behavior change.

The planner's incremental search (prefix expansion + emission/cost caches
+ cheapest-first ordering) must select the *identical* plan — byte-for-byte
after serialization — and traverse the search space with identical effort
counters as the from-scratch oracle (``tests/oracles/search_reference.py``,
the same control loop over the original evaluator), on every catalog query,
with and without the branch-and-bound heuristics. The oracle drives the
product's own ``_SearchRun`` loop, so ``PARENT_PINS`` additionally holds
that loop to bytes captured before the root-split plumbing was cut out of
it.
"""

import hashlib
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

#: sha256 of the serialized plan and the ``COUNTERS`` values per catalog
#: query at default settings, captured on commit 036c2c2 (the parent of the
#: PR that deleted ``Planner(workers=)``; ARCHITECTURE §26).
PARENT_PINS = {
    "top1": (
        "08eacf0d9d721c3171342a7d091c594fce575c67def52e200c09df762bc1271b",
        (364, 379, 1, 1, 236, 127, 2),
    ),
    "topK": (
        "1afab76bf4d90d21eae362775d8b9be8b3aed147de952561683fb0728c4c16f0",
        (715, 730, 1, 1, 470, 244, 2),
    ),
    "gap": (
        "2a38db57854c5fe0fbf6c30e4a35ee131e13d200f7a77c224350d608ddc0936b",
        (2184, 386, 1, 1, 236, 130, 3),
    ),
    "auction": (
        "be3ff37b775f33b31e542ee2de7ba2c3007777c0e302e2f7be69af6acc6e6a35",
        (3640, 2335, 7, 7, 1445, 706, 16),
    ),
    "hypotest": (
        "c543251bcfc3a8a722cdcef095d962c0a9a21c4dc3764d70cfdd5f9d6ec640f5",
        (78, 26, 1, 1, 0, 17, 2),
    ),
    "secrecy": (
        "3da15382c0a014ba9de41d0e1cf086de10f933a4f5c442907943a2bd1a201b7c",
        (1820, 327, 1, 1, 214, 99, 2),
    ),
    "median": (
        "f85c29f00ed65408d47d07044928c98db00f6cb2e5a9b6c867000aab84d2f6af",
        (3640, 3421, 1, 1, 2110, 1074, 15),
    ),
    "cms": (
        "ec5b08ab9d6c81f1c85e4b6f298416e0ff64608e864ec2d619bc0c9141b7d13e",
        (13, 16, 1, 1, 0, 12, 1),
    ),
    "bayes": (
        "14d999ebbee119f605d82cb90350b410847a6445b2172003b8af836f8a6afe00",
        (234, 183, 1, 1, 81, 51, 9),
    ),
    "k-medians": (
        "25e411635e16ae4364e2f7d2c7167eb4f4872ec610a1473887143580dd260c09",
        (312, 137, 1, 1, 41, 46, 8),
    ),
}

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

    def test_ordering_off_matches_reference_traversal(self, spec):
        optimized = _run(spec, order_choices=False)
        reference = _run(spec, ReferencePlanner, order_choices=False)
        assert optimized[0] == reference[0]
        assert optimized[1] == reference[1]


def test_catalog_plans_and_counters_match_the_parent_commit():
    assert {spec.name for spec in ALL_QUERIES} == set(PARENT_PINS)
    for spec in ALL_QUERIES:
        document, counters = _run(spec)
        assert (
            hashlib.sha256(document.encode()).hexdigest(),
            tuple(counters[name] for name in COUNTERS),
        ) == PARENT_PINS[spec.name], spec.name


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
