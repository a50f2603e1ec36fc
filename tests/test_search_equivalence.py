"""The optimized search must be a pure speedup, never a behavior change.

The planner's incremental search (prefix expansion + emission/cost caches
+ cheapest-first ordering) must select the *identical* plan — byte-for-byte
after serialization — and traverse the search space with identical effort
counters as the from-scratch oracle (``tests/oracles/search_reference.py``,
the same control loop over the original evaluator), on every catalog query,
with and without the branch-and-bound heuristics. The oracle drives the
product's own ``_SearchRun`` loop, so ``PARENT_PINS`` additionally holds
that loop to bytes captured before the root-split plumbing was cut out of
it. ``SIZE_PINS`` (plans and counters at the other two benchmark sizes) and
``STRIPPED_DIGEST`` (whole planning results at all three, less the cache
counters) hold bytes captured before the search priced children first.
"""

import hashlib
import json

import pytest

from repro.eval.experiments import PAPER_CONSTRAINTS, PAPER_N
from repro.planner.costmodel import Goal
from repro.planner.search import Planner, PlannerOutOfMemory, plan_query
from repro.planner.serialize import plan_to_dict, planning_result_to_dict
from repro.queries.catalog import ALL_QUERIES
from repro.runtime.journal import canonical_json
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

#: The plan sha256 and ``COUNTERS`` at the two other sizes ``plan_catalog``
#: plans, captured on commit f470c3b, before the search bounded each child
#: ahead of building it.
SIZE_PINS = {
    10**5: {
        "top1": (
            "c8289ab40ba8d112c25f0742d4d5624ce250fd266b09d3add8db58d138932c98",
            (364, 379, 1, 1, 236, 127, 2),
        ),
        "topK": (
            "8bfa70b44ce93244d86673736b158619b9220bc75843711dda951c2c2084d9e3",
            (715, 730, 1, 1, 470, 244, 2),
        ),
        "gap": (
            "09b32549a60cbc15843cf81228ac1e42dccc02d5d8633c36c688e79298c27b10",
            (2184, 428, 2, 2, 236, 156, 3),
        ),
        "auction": (
            "ad97e5c013fd552c60a5ac07f2483a6b4e3e453e1c92531d9237628e821d4642",
            (3640, 2140, 8, 8, 1319, 655, 16),
        ),
        "hypotest": (
            "686b3911509c31bf16ef046c6fdc6e28ee031b8ad68305e7fc846ece1dc90269",
            (78, 131, 1, 1, 2, 60, 1),
        ),
        "secrecy": (
            "36da78b1dacdbb93820c36fc4252c9ca4573eee7cda60431b7908ae38b2f7c77",
            (1820, 913, 1, 1, 584, 293, 4),
        ),
        "median": (
            "e5a13c9c9d7d76036b9e72655232d5afb2eaffb24857a4257f3e5d09003c3033",
            (3640, 3590, 2, 2, 2218, 1127, 15),
        ),
        "cms": (
            "5d550e2c8b799a76a660b898d22ad9f5edbcf7596238ac8950f34009f6297f28",
            (13, 25, 1, 1, 0, 12, 1),
        ),
        "bayes": (
            "7d9e5459ea0ee6d6b83c5b7dc284e8d8d8728f192fd90471db95c39a6b3b88e1",
            (234, 321, 1, 1, 154, 75, 14),
        ),
        "k-medians": (
            "9456d51d9ff53a3e4c2b31fde12febe9ddf6eebd20d167b1286b51d6ae9f0193",
            (312, 397, 1, 1, 154, 75, 14),
        ),
    },
    10**7: {
        "top1": (
            "ef284b75bf3911757a6fed7852fc1c151d71cbfe470e16cad7c941206d3a8289",
            (364, 379, 1, 1, 236, 127, 2),
        ),
        "topK": (
            "e7f2c1d9d79f0842d736e0f9fc6e53e536defa767d2e1c0287a959b2f921186c",
            (715, 730, 1, 1, 470, 244, 2),
        ),
        "gap": (
            "34853801c783f07496fb990705559b30feb96c2ba43d5a70338378610607db8e",
            (2184, 422, 1, 1, 236, 148, 3),
        ),
        "auction": (
            "be228bac7d0723293948ffe73080d5fd396565aaa75fd6bf5859a93977c8d8d1",
            (3640, 2335, 7, 7, 1445, 706, 16),
        ),
        "hypotest": (
            "7fa2bf08bc086d46df41ce355958303ddfc0630b879d78ae911941cc6722e39e",
            (78, 92, 1, 1, 1, 46, 2),
        ),
        "secrecy": (
            "6f13f6e04dc9e00f067764b1eac7b87105d111382fbd092fbac97ea192edc621",
            (1820, 327, 1, 1, 203, 110, 2),
        ),
        "median": (
            "6f2c5b089cbb22842d23b9af0c7d0de4b808b8a37486c91d8df09c5bd188c1b3",
            (3640, 3421, 1, 1, 2110, 1074, 15),
        ),
        "cms": (
            "ea315fbc48631fd28a35cf6774469ce3a6f69e7e506b59fa67372457f39e9078",
            (13, 22, 1, 1, 0, 12, 1),
        ),
        "bayes": (
            "56a95b5f4f0593d7815138096c5fdaa8caae52c2177d0b0ec657e25b0876753d",
            (234, 312, 1, 1, 148, 75, 14),
        ),
        "k-medians": (
            "0b3de58ae8514bbf0b59b21942c2a693cc6407503d01d43d5a68bc1783d49306",
            (312, 343, 1, 1, 127, 75, 14),
        ),
    },
}

#: sha256 over the catalog at the three sizes of every planning result's
#: canonical JSON less its wall-clock and its four cache counters, and the
#: emission-cache (hits, misses) summed over those 30 plans, both on the same
#: commit: the bound may move the cost-cache counters (fewer children are
#: folded) and no other byte, and each child is still looked up once.
STRIPPED_DIGEST = "8bf28882fc1d60f35e643555df44441671b08a716170c86596b05720cd4a38eb"
EXPANSION_LOOKUPS = (23_654, 4_129)
CACHE_COUNTERS = (
    "cost_cache_hits",
    "cost_cache_misses",
    "expansion_cache_hits",
    "expansion_cache_misses",
)
CATALOG_SIZES = (10**5, 10**7, PAPER_N)

_cache = {}


def _planned(spec, planner_class=Planner, n=PAPER_N, **kwargs):
    key = (spec.name, planner_class, n, tuple(sorted(kwargs.items())))
    if key not in _cache:
        env = spec.environment(n)
        planner = planner_class(
            env,
            constraints=PAPER_CONSTRAINTS,
            goal=Goal("participant_expected_seconds"),
            **kwargs,
        )
        _cache[key] = planner.plan_source(spec.source, spec.name)
    return _cache[key]


def _run(spec, planner_class=Planner, **kwargs):
    result = _planned(spec, planner_class, **kwargs)
    return (
        json.dumps(plan_to_dict(result.plan), sort_keys=True),
        {name: getattr(result.statistics, name) for name in COUNTERS},
    )


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


def test_catalog_plans_and_counters_match_the_parent_commit():
    assert {spec.name for spec in ALL_QUERIES} == set(PARENT_PINS)
    for spec in ALL_QUERIES:
        document, counters = _run(spec)
        assert (
            hashlib.sha256(document.encode()).hexdigest(),
            tuple(counters[name] for name in COUNTERS),
        ) == PARENT_PINS[spec.name], spec.name


@pytest.mark.parametrize("n", sorted(SIZE_PINS))
def test_catalog_at_the_other_sizes_matches_the_parent_commit(n):
    for spec in ALL_QUERIES:
        result = _planned(spec, n=n)
        document = json.dumps(plan_to_dict(result.plan), sort_keys=True)
        assert (
            hashlib.sha256(document.encode()).hexdigest(),
            tuple(getattr(result.statistics, name) for name in COUNTERS),
        ) == SIZE_PINS[n][spec.name], spec.name


def test_only_the_cost_cache_counters_move_on_the_catalog():
    documents = []
    lookups = [0, 0]
    for n in CATALOG_SIZES:
        for spec in ALL_QUERIES:
            document = planning_result_to_dict(_planned(spec, n=n))
            statistics = document["statistics"]
            statistics.pop("runtime_seconds")
            lookups[0] += statistics["expansion_cache_hits"]
            lookups[1] += statistics["expansion_cache_misses"]
            for name in CACHE_COUNTERS:
                statistics.pop(name)
            documents.append(canonical_json(document))
    digest = hashlib.sha256("\n".join(documents).encode()).hexdigest()
    assert digest == STRIPPED_DIGEST
    assert tuple(lookups) == EXPANSION_LOOKUPS


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
        # The convenience wrapper used to drop its kwargs silently.
        spec = ALL_QUERIES[1]
        env = spec.environment(PAPER_N)
        with pytest.raises(PlannerOutOfMemory):
            plan_query(
                spec.source,
                env,
                name=spec.name,
                heuristics=False,
                memory_budget_candidates=5,
            )
        result = plan_query(spec.source, env, name=spec.name)
        assert result.plan is not None
        assert result.verification.ok  # it went through the plan gate
