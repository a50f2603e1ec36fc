"""The search walks one choice per instantiation class, and loses nothing.

``expand.instantiation_class`` groups the choices of one op that emit
identical vignettes and an identical end state from every build state;
``Planner.plan_logical`` walks ``expand.distinct_choice_space`` (the first
member of each class) instead of the whole legal ``choice_space``. These
tests hold the rule to the emitters (equal keys emit alike, different keys
do not), the collapsed search to a walk of the full legal space at runtime
scale (``test_search_equivalence.py`` runs at paper scale, where no class
has two members) and its counters to the from-scratch oracle's, and the
runtime to the same classes: a plan whose
select-max choice is swapped for another member of its class passes the
plan gate and releases the same values.
"""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.planner.costmodel import Goal, ahe_params_for, fhe_params_for
from repro.planner.expand import (
    _BuildState,
    _emit_pipeline_op,
    choice_space,
    distinct_choice_space,
    instantiation_class,
)
from repro.planner.ir import SelectMax
from repro.planner.search import (
    Planner,
    PlannerStatistics,
    PlanningFailed,
    PlanningResult,
    _SearchRun,
    plan_query,
)
from repro.planner.serialize import plan_to_dict
from repro.queries.catalog import ALL_QUERIES, get
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from repro.verify import PlanVerificationError, gate
from tests.oracles.search_reference import ReferencePlanner

COUNTERS = (
    "space_size",
    "prefixes_considered",
    "candidates_scored",
    "candidates_feasible",
    "pruned_by_constraint",
    "pruned_by_bound",
    "nodes_reordered",
)


class _OnlyOp:
    """Just enough of a ``LogicalPlan`` for ``choice_space``: one op."""

    def __init__(self, op):
        self.ops = [op]


def _gumbel_choices(op, space=choice_space):
    return [c for c in space(_OnlyOp(op))[0][1] if c.option == "gumbel_mpc"]


def _emit(op, choice, state):
    state = dataclasses.replace(state)
    vignettes = []
    _emit_pipeline_op(vignettes, state, op, choice, 1024)
    return vignettes, state


# ---------------------------------------------------------------- the rule


@settings(max_examples=100, deadline=None)
@example(categories=1, k=1, fhe=False, encrypted=True, fused=None, group_counter=0)
@example(categories=8, k=2, fhe=False, encrypted=True, fused=None, group_counter=0)
@example(categories=20, k=1, fhe=True, encrypted=False, fused=None, group_counter=3)
@example(categories=5000, k=1, fhe=False, encrypted=True, fused=None, group_counter=0)
@given(
    categories=st.one_of(
        st.integers(1, 64), st.sampled_from([511, 512, 513, 2048, 5000, 8192, 8193])
    ),
    k=st.integers(1, 4),
    fhe=st.booleans(),
    encrypted=st.booleans(),
    fused=st.one_of(st.none(), st.sampled_from([16, 64, 256, 1024])),
    group_counter=st.integers(0, 5),
)
def test_equal_keys_emit_alike_and_different_keys_do_not(
    categories, k, fhe, encrypted, fused, group_counter
):
    op = SelectMax(categories=categories, k=k)
    scheme = fhe_params_for(categories, depth=6) if fhe else ahe_params_for(categories)
    state = _BuildState(
        scheme=scheme,
        cts_per_participant=1,
        encrypted=encrypted,
        shared=not encrypted,
        group_counter=group_counter,
        fused_transform=None if fused is None else (fused, 2.0, 3.0),
    )
    emitted = {
        choice: _emit(op, choice, state) for choice in _gumbel_choices(op)
    }
    for a, b in itertools.combinations(emitted, 2):
        key_a, key_b = instantiation_class(op, a), instantiation_class(op, b)
        if key_a == key_b:
            assert emitted[a][0] == emitted[b][0], (a, b)
            assert emitted[a][1] == emitted[b][1], (a, b)
            continue
        # The key is exact from every build state, and finest where nothing
        # else reads the parameter: a fused batch below the category count
        # caps the noise batch, and a shared aggregate has no decryption
        # layer to read the decryption batch.
        read = (lambda key: key) if encrypted else (lambda key: key[:1] + key[2:])
        if fused is None and read(key_a) != read(key_b):
            assert emitted[a][0] != emitted[b][0], (a, b)


@pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda spec: spec.name)
def test_only_select_max_collapses(spec):
    env = spec.environment(256, categories=8, epsilon=8.0)
    logical = Planner(env).plan_source(spec.source, spec.name).logical_plan
    for (op, legal), (_op, walked) in zip(
        choice_space(logical), distinct_choice_space(logical)
    ):
        if isinstance(op, SelectMax):
            assert len(walked) < len(legal)
        else:
            assert walked == legal


@pytest.mark.parametrize(
    "categories, k, walked", [(1, 1, 1), (8, 1, 4), (8, 2, 8), (2**15, 1, 27), (2**15, 3, 54)]
)
def test_select_max_class_counts(categories, k, walked):
    op = SelectMax(categories=categories, k=k)
    legal = _gumbel_choices(op)
    # The first member of each class, in catalog order, under its own label.
    firsts = {}
    for choice in legal:
        firsts.setdefault(instantiation_class(op, choice), choice)
    assert _gumbel_choices(op, distinct_choice_space) == list(firsts.values())
    assert len(firsts) == walked


# ------------------------------------------------- search at runtime scale

DEVICES = (24, 256, 4096)
CATEGORIES = (1, 3, 8, 20)
#: The default goal picks ``expo_fhe`` for most select-maxes at these
#: sizes; participant bytes picks ``gumbel_mpc`` from a class of several.
GOALS = (Goal(), Goal("participant_expected_bytes"))


def _plan_bytes(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def _counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


@pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda spec: spec.name)
def test_collapsed_search_picks_the_full_walks_plan(spec):
    compared = 0
    for devices, categories, goal in itertools.product(DEVICES, CATEGORIES, GOALS):
        env = spec.environment(devices, categories=categories, epsilon=8.0)
        planner = Planner(env, goal=goal)
        try:
            result = planner.plan_source(spec.source, spec.name)
        except (PlanningFailed, PlanVerificationError):
            continue  # the query does not plan here (e.g. topK over 3 categories)
        logical = result.logical_plan
        full = _SearchRun(
            planner,
            logical,
            choice_space(logical),
            planner._evaluator(logical),
            PlannerStatistics(),
        ).run()
        where = (spec.name, devices, categories, goal.metric)
        assert _plan_bytes(result.plan) == _plan_bytes(full), where
        compared += 1
        if devices != 256:
            continue  # the from-scratch oracle is slow; 256 is program_mix's size
        reference = ReferencePlanner(env, goal=goal).plan_source(spec.source, spec.name)
        assert _plan_bytes(reference.plan) == _plan_bytes(result.plan), where
        assert _counters(reference.statistics) == _counters(result.statistics), where
    assert compared


# ------------------------------------------------- the runtime's classes


def _swapped(planning, choice):
    """``planning`` with its select-max choice replaced by ``choice``."""
    plan = planning.plan
    choice_list = [choice if c.key == choice.key else c for c in plan.choice_list]
    swapped = dataclasses.replace(
        plan,
        choice_list=choice_list,
        choices={c.key: c.label() for c in choice_list},
    )
    return PlanningResult(
        swapped, planning.statistics, planning.certificate, planning.logical_plan
    )


def _release(planning, seed):
    network = FederatedNetwork(256, rng=random.Random(seed))
    network.load_categorical_data(8, distribution=[4, 4, 3, 3, 2, 2, 1, 1])
    result = QueryExecutor(
        network,
        planning,
        committee_size=4,
        key_prime_bits=128,
        rng=random.Random(seed + 1),
        shard_size=256,
        tree_fanout=16,
    ).run()
    return repr(result.outputs), result.committees_used, result.epsilon_charged


@pytest.mark.parametrize("name", ["top1", "topK"])
def test_runtime_honours_the_classes(name):
    spec = get(name)
    # Under this goal both queries pick a gumbel_mpc choice whose class has
    # twelve members (every decryption batch, noise batches 16 and 64,
    # fan-outs 8 and 32).
    planning = plan_query(
        spec.source,
        spec.environment(256, categories=8, epsilon=8.0),
        name=name,
        goal=Goal("participant_expected_bytes"),
    )
    [(op, legal)] = [
        (op, options)
        for op, options in choice_space(planning.logical_plan)
        if isinstance(op, SelectMax)
    ]
    chosen = next(c for c in planning.plan.choice_list if c.key == legal[0].key)
    members = [
        c
        for c in legal
        if c != chosen and instantiation_class(op, c) == instantiation_class(op, chosen)
    ]
    assert len(members) == 11
    planned = [_release(planning, seed) for seed in (3, 11)]
    for member in members:
        swapped = _swapped(planning, member)
        assert swapped.plan.choices != planning.plan.choices
        assert swapped.plan.vignettes == planning.plan.vignettes
        gate(swapped)
        assert [_release(swapped, seed) for seed in (3, 11)] == planned, member
