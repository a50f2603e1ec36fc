"""The search's pre-build bound is admissible, and so the search is unchanged.

``PrefixExpander.child(node, choice, pruned)`` prices a child from its
parent's totals and its segment's memoized totals, and builds it only if the
search's ``pruned`` keeps that bound. That is exact only if the bound never
exceeds the child's built cost on any of the six metrics, which these tests
check on every child the walk meets (the catalog at three sizes, and the
runtime-scale grid of ``test_choice_classes``), together with the two
assumptions the bound rests on beyond "costs grow as ops are added": member
costs do not fall as the committee size m grows (m itself does not fall as
committees are added), and the two-group keygen vignette costs at least the
one-group one. The bound prices a segment from its emitted rows without
building it, so the rows must fold like the vignettes the from-scratch path
builds; and the rows share immutable ``Work`` values across plans, so a
tampered plan must leave the next one alone. The property at the end holds
the whole search to the from-scratch oracle, which builds every child.
"""

import dataclasses
import functools
import itertools
import json
import math

import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.eval.experiments import PAPER_CONSTRAINTS, PAPER_N
from repro.lang.parser import parse
from repro.lang.simplify import simplify
from repro.planner.committees import CommitteeParameters
from repro.planner.costmodel import CostModel, CostVector, Goal, REFERENCE_SERVER
from repro.planner.expand import PrefixExpander, distinct_choice_space, instantiate
from repro.planner.ir import lower
from repro.planner.search import (
    PLANNING_FAILURES,
    Planner,
    PlannerStatistics,
    _SearchRun,
)
from repro.planner.plan import ScoreAccumulator
from repro.planner.serialize import plan_to_dict
from repro.privacy.certify import certify
from repro.queries.catalog import ALL_QUERIES, get
from tests.conftest import SEARCH_FUZZ
from tests.oracles.search_reference import ReferencePlanner
from tests.test_choice_classes import CATEGORIES, DEVICES, GOALS
from tests.test_search_equivalence import CATALOG_SIZES, COUNTERS


class _Checking(PrefixExpander):
    """Builds every child it bounds and records ``(bound, exact cost)``, and
    each bounded child's prefix with the emission its bound priced."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pairs = []
        self.segments = []

    def child(self, node, choice, pruned):
        bounds = []
        built = super().child(node, choice, lambda bound: bounds.append(bound) or False)
        if not bounds:
            return built  # a scheme flip: built unpriced
        (bound,) = bounds
        self.pairs.append((bound, built.cost))
        self.segments.append((tuple(e.choice for e in built.chain()), built.emitted))
        return None if pruned(bound) else built


_logicals = {}
_walks = {}


def _logical(spec, n, categories):
    key = (spec.name, n, categories)
    if key not in _logicals:
        if categories is None:
            env = spec.environment(n)
        else:
            env = spec.environment(n, categories=categories, epsilon=8.0)
        program = simplify(parse(spec.source))
        _logicals[key] = lower(program, env, certify(program, env), spec.name)
    return _logicals[key]


def _walk(spec, n, categories=None, goal=Goal(), constraints=PAPER_CONSTRAINTS):
    """The heuristic search of one query, through a :class:`_Checking` evaluator."""
    key = (spec.name, n, categories, goal, constraints)
    if key not in _walks:
        logical = _logical(spec, n, categories)
        planner = Planner(logical.env, constraints=constraints, goal=goal)
        evaluator = _Checking(logical, planner.model)
        _SearchRun(
            planner, logical, distinct_choice_space(logical), evaluator, PlannerStatistics()
        ).run()
        _walks[key] = evaluator
    return _walks[key]


def _catalog_walks():
    return [_walk(spec, n) for n in CATALOG_SIZES for spec in ALL_QUERIES]


def _grid_walks():
    return [
        _walk(spec, devices, categories, goal, None)
        for spec, devices, categories, goal in itertools.product(
            ALL_QUERIES, DEVICES, CATEGORIES, GOALS
        )
    ]


def _exceeded(pairs):
    return [
        (metric, getattr(bound, metric), getattr(exact, metric))
        for bound, exact in pairs
        for metric in CostVector.METRICS
        if getattr(bound, metric) > getattr(exact, metric)
    ]


# ------------------------------------------------------------ admissibility


def test_bound_never_exceeds_the_built_child_on_the_catalog():
    pairs = [pair for walk in _catalog_walks() for pair in walk.pairs]
    assert len(pairs) > 20_000  # every non-flip child of a catalog pass
    assert _exceeded(pairs) == []


def test_bound_never_exceeds_the_built_child_on_the_runtime_grid():
    pairs = [pair for walk in _grid_walks() for pair in walk.pairs]
    assert pairs
    assert _exceeded(pairs) == []


def test_segments_priced_from_rows_fold_like_the_built_vignettes():
    """The bound prices a segment from its rows' stubs, never building it;
    the vignettes :func:`instantiate` builds for the same prefix fold to the
    same floor terms, bit for bit."""
    checked = 0
    for walk in _catalog_walks():
        floor_m = walk._floor_m

        @functools.lru_cache(maxsize=None)
        def built(choices, walk=walk):
            return instantiate(walk.plan, choices, walk.model, partial=True)[0]

        for choices, emitted in walk.segments:
            fold = ScoreAccumulator(walk.n, walk.model, REFERENCE_SERVER, floor_m)
            for v in built(choices)[len(built(choices[:-1])):]:
                fold.add(v.score_stub())
            assert fold.bound_terms() == emitted.floor, choices
            checked += 1
    assert checked > 20_000


# ------------------------------------------------------ what it rests on

#: Every committee size a plan of 1 .. 2^30 committees gets, in order.
_COUNTS = sorted(
    set(range(1, 2049)) | {int(1.25**i) for i in range(100) if 1.25**i <= 2**30}
)
SIZES = [CommitteeParameters.for_plan(k).committee_size for k in _COUNTS]


def test_committee_size_does_not_fall_as_committees_are_added():
    assert SIZES == sorted(SIZES)
    assert SIZES[0] == CommitteeParameters.for_plan(1).committee_size


def _emitted_works():
    works = {}
    for walk in _catalog_walks():
        emitted = [
            row[3]
            for entry, failure in walk._segments.values()
            if failure is None
            for row in entry.rows
        ]
        roots = [
            row[3]
            for node in walk._roots.values()
            for row in node.root.rows + node.root.keygen_rows
        ]
        for work in itertools.chain(emitted, roots):
            works.setdefault(work.cache_key(), work)
    return list(works.values())


def test_member_costs_do_not_fall_as_the_committee_grows():
    model = CostModel()
    sizes = sorted(set(SIZES))
    works = _emitted_works()
    assert len(works) > 100
    for work in works:
        costs = [model.cached_costs(work, m) for m in sizes]
        for smaller, larger in zip(costs, costs[1:]):
            assert all(a <= b for a, b in zip(smaller, larger)), work


def test_an_emitted_work_refuses_writes():
    # Emitted Works are shared by every row, plan and process-wide memo
    # that counts the same work: a write to one would reach all of them.
    for work in _emitted_works():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(work, "he_ct_mults", 4.0)


def test_a_tampered_plan_moves_no_later_plan():
    spec = get("top1")
    env = spec.environment(PAPER_N)

    def planned():
        return Planner(env, constraints=PAPER_CONSTRAINTS).plan_source(
            spec.source, spec.name
        )

    first = planned()
    before = json.dumps(plan_to_dict(first.plan), sort_keys=True)
    for v in first.plan.vignettes:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v.work, "he_ct_mults", 4.0)
        v.work = dataclasses.replace(v.work, he_ct_mults=4.0)
    assert json.dumps(plan_to_dict(planned().plan), sort_keys=True) == before


def test_two_group_keygen_costs_at_least_the_one_group_keygen():
    model = CostModel()
    sizes = sorted(set(SIZES))
    schemes = {scheme for walk in _catalog_walks() for scheme in walk._roots}
    assert len(schemes) > 1
    for walk in _catalog_walks():
        for scheme, node in walk._roots.items():
            one, two = (row[3] for row in node.root.keygen_rows)
            for m in sizes:
                pairs = zip(model.cached_costs(one, m), model.cached_costs(two, m))
                assert all(a <= b for a, b in pairs), (scheme, m)


# ------------------------------------------------------ the whole search


def _outcome(planner_class, spec, env):
    try:
        result = planner_class(env, constraints=PAPER_CONSTRAINTS).plan_source(
            spec.source, spec.name
        )
    except PLANNING_FAILURES as exc:
        return type(exc).__name__
    return (
        json.dumps(plan_to_dict(result.plan), sort_keys=True),
        [getattr(result.statistics, name) for name in COUNTERS],
    )


class TestSearchProperties:
    @SEARCH_FUZZ
    @given(
        spec=st.sampled_from(ALL_QUERIES),
        log_participants=st.floats(3.0, 9.0),
        categories=st.one_of(st.none(), st.integers(1, 64)),
    )
    def test_search_matches_the_from_scratch_oracle(
        self, spec, log_participants, categories
    ):
        env = spec.environment(
            math.floor(10**log_participants), categories=categories
        )
        assert _outcome(Planner, spec, env) == _outcome(ReferencePlanner, spec, env)

