"""Tests for operator expansion and plan scoring (§4.3-§4.6)."""

import gc
import traceback
import types

import pytest

from repro.eval.experiments import PAPER_CONSTRAINTS, PAPER_N
from repro.planner import expand, search
from repro.planner.costmodel import CostModel, Goal, Work
from repro.planner.expand import (
    ExpansionError,
    PrefixExpander,
    choice_space,
    instantiate,
)
from repro.planner.ir import SelectMax, VectorTransform
from repro.planner.plan import Location, count_committees, score_vignettes, vignette_row
from repro.queries.catalog import GAP
from tests.test_ir_lowering import lower_source
from tests.conftest import small_env

MODEL = CostModel()


def first_choices(plan, overrides=None):
    """Pick the first option per op, with optional {key_prefix: index}."""
    overrides = overrides or {}
    chosen = []
    for op, options in choice_space(plan):
        index = 0
        for prefix, want in overrides.items():
            if options and options[0].key.startswith(prefix):
                index = want
        chosen.append(options[index])
    return chosen


class TestChoiceSpace:
    def test_top1_space(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        space = choice_space(plan)
        assert len(space) == 4  # input, aggregate, select_max, output
        agg_options = space[1][1]
        assert any(c.option == "flat_aggregator" for c in agg_options)
        assert any(c.option == "participant_tree" for c in agg_options)
        assert any(c.option == "committee_tree" for c in agg_options)
        select_options = space[2][1]
        assert any(c.option == "expo_fhe" for c in select_options)
        assert any(c.option == "gumbel_mpc" for c in select_options)

    def test_space_size_multiplicative(self):
        result = search.Planner(small_env()).plan_source(
            "aggr = sum(db); r = em(aggr); output(r);"
        )
        total = 1
        for _op, options in choice_space(result.logical_plan):
            total *= len(options)
        assert result.statistics.space_size == total

    def test_linear_transform_allows_ahe(self):
        plan = lower_source(
            """
            aggr = sum(db);
            x = aggr[0] + aggr[1];
            n = laplace(x, 2 * sens / epsilon);
            output(n);
            """
        )
        transform_options = next(
            options
            for op, options in choice_space(plan)
            if isinstance(op, VectorTransform)
        )
        assert any(c.option == "aggregator_ahe" for c in transform_options)

    def test_nonlinear_transform_forbids_ahe(self):
        plan = lower_source(
            """
            aggr = sum(db);
            x = abs(aggr[0] - 24);
            n = laplace(x, sens / epsilon);
            output(n);
            """
        )
        transform_options = next(
            options
            for op, options in choice_space(plan)
            if isinstance(op, VectorTransform)
        )
        assert not any(c.option == "aggregator_ahe" for c in transform_options)
        assert any(c.option == "aggregator_fhe" for c in transform_options)

    def test_sampling_exposes_bin_choices(self):
        plan = lower_source(
            "s = sampleUniform(db, 0.1); aggr = sum(s); r = em(aggr); output(r);"
        )
        input_options = choice_space(plan)[0][1]
        assert all(c.option == "binned_upload" for c in input_options)
        assert len(input_options) > 1

    def test_topk_styles(self):
        plan = lower_source("aggr = sum(db); r = em(aggr, 3); output(r[0]);")
        select_options = next(
            options for op, options in choice_space(plan) if isinstance(op, SelectMax)
        )
        styles = {c.params[0] for c in select_options if c.option == "gumbel_mpc"}
        assert styles == {0, 1}  # oneshot and iterative


class TestInstantiation:
    def test_structure_gumbel(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        choices = first_choices(plan, {"select_max": 1})  # first gumbel option
        vignettes, scheme = instantiate(plan, choices, MODEL)
        names = [v.name for v in vignettes]
        assert names[0] == "input"
        assert names[1] == "keygen"
        assert "verify" in names
        assert "forwarding" in names
        assert "aggregate" in names
        assert "decrypt" in names
        assert "em-noise" in names
        assert "em-argmax" in names
        assert scheme.name == "ahe"  # gumbel path needs only additions

    def test_expo_path_uses_fhe(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        choices = first_choices(plan)  # expo_fhe is the first select option
        assert choices[2].option == "expo_fhe"
        vignettes, scheme = instantiate(plan, choices, MODEL)
        assert scheme.name == "fhe"
        assert any(v.name == "em-expo" for v in vignettes)

    def test_keygen_always_first_committee(self):
        plan = lower_source(
            "aggr = sum(db); n = laplace(aggr[0], sens / epsilon); output(n);"
        )
        vignettes, _ = instantiate(plan, first_choices(plan), MODEL)
        keygen = [v for v in vignettes if v.name == "keygen"]
        assert len(keygen) == 1
        assert keygen[0].committee_type == "keygen"

    def test_partial_prefix_is_subset(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        choices = first_choices(plan, {"select_max": 1})
        full, _ = instantiate(plan, choices, MODEL)
        partial, _ = instantiate(plan, choices[:2], MODEL, partial=True)
        assert len(partial) < len(full)

    def test_wrong_choice_count_rejected(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        with pytest.raises(ExpansionError):
            instantiate(plan, first_choices(plan)[:-1], MODEL)

    def test_committee_tree_aggregate(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        space = choice_space(plan)
        agg_choice = next(
            c for c in space[1][1] if c.option == "committee_tree"
        )
        choices = first_choices(plan, {"select_max": 1})
        choices[1] = agg_choice
        vignettes, _ = instantiate(plan, choices, MODEL)
        tree = [v for v in vignettes if v.name == "aggregate-tree"]
        assert tree and tree[0].location is Location.COMMITTEE


    def test_committee_row_without_a_group_fails_at_emission(self, monkeypatch):
        # The search prices children from rows it never builds into
        # vignettes, so the row, not the Vignette, refuses a committee
        # without a group.
        with pytest.raises(ValueError, match="'decrypt' needs a group"):
            vignette_row("decrypt", Location.COMMITTEE, "mpc", Work())
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        space = choice_space(plan)
        expander = PrefixExpander(plan, MODEL)
        node = expander.child(expander.root(), space[0][1][0])
        tree = next(c for c in space[1][1] if c.option == "committee_tree")
        monkeypatch.setattr(expand._BuildState, "new_group", lambda self, prefix: None)
        with pytest.raises(ValueError, match="'aggregate-tree' needs a group"):
            expander.child(node, tree)


class TestScoring:
    def _score(self, source, overrides=None, env=None):
        plan = lower_source(source, env=env)
        choices = first_choices(plan, overrides or {"select_max": 1})
        vignettes, _ = instantiate(plan, choices, MODEL)
        return score_vignettes(vignettes, plan.env.num_participants, MODEL)

    def test_six_metrics_positive(self):
        score = self._score("aggr = sum(db); r = em(aggr); output(r);")
        cost = score.cost
        for metric in cost.METRICS:
            assert cost.get(metric) > 0, metric

    def test_committee_breakdown_types(self):
        score = self._score("aggr = sum(db); r = em(aggr); output(r);")
        types = {c.committee_type for c in score.committee_breakdown}
        assert "keygen" in types
        assert "decryption" in types
        assert "operations" in types

    def test_max_exceeds_expected(self):
        # At deployment scale the committee probability is tiny, so a
        # selected member's cost dwarfs the expectation.
        score = self._score(
            "aggr = sum(db); r = em(aggr); output(r);",
            env=small_env(num_participants=10**7, categories=8),
        )
        cost = score.cost
        assert cost.participant_max_seconds > cost.participant_expected_seconds

    def test_count_committees(self):
        plan = lower_source("aggr = sum(db); r = em(aggr); output(r);")
        choices = first_choices(plan, {"select_max": 1})
        vignettes, _ = instantiate(plan, choices, MODEL)
        assert count_committees(vignettes) >= 3  # keygen + dec + ops

    def test_more_participants_dilute_expected_committee_cost(self):
        src = "aggr = sum(db); r = em(aggr); output(r);"
        small = self._score(src, env=small_env(num_participants=10**5, categories=8))
        large = self._score(src, env=small_env(num_participants=10**8, categories=8))
        small_mpc = small.cost.participant_expected_seconds - small.participant_base_seconds
        large_mpc = large.cost.participant_expected_seconds - large.participant_base_seconds
        assert large_mpc < small_mpc


def reachable_from(root):
    """The objects the collector reaches from ``root`` through data: it does
    not walk into classes, modules or functions (from which everything is
    reachable)."""
    code_like = (type, types.ModuleType, types.FunctionType, types.MethodType)
    seen, frontier = {id(root)}, [root]
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if id(referent) not in seen and not isinstance(referent, code_like):
                seen.add(id(referent))
                frontier.append(referent)
                yield referent


def first_failing_extension(expander, space, node=None, depth=0):
    """Depth-first: the first (node, choice) whose extension is refused."""
    node = node if node is not None else expander.root()
    for choice in space[depth][1]:
        try:
            child = expander.child(node, choice)
        except ExpansionError:
            return node, choice
        if depth + 1 < len(space):
            found = first_failing_extension(expander, space, child, depth + 1)
            if found is not None:
                return found
    return None


class TestCachedExpansionFailure:
    """A structurally invalid extension is cached; what is cached must not be
    the exception object, whose traceback would pin the frames that raised
    and re-raised it (and through them the search) until a gen-2 collection."""

    def test_every_hit_raises_a_fresh_identical_error(self):
        plan = lower_source(GAP.source)
        expander = PrefixExpander(plan, MODEL)
        node, choice = first_failing_extension(expander, choice_space(plan))
        hits = expander.cache_hits
        raised = []
        for _ in range(3):
            with pytest.raises(ExpansionError) as info:
                expander.child(node, choice)
            raised.append(info.value)
        assert expander.cache_hits == hits + 3
        assert len({id(exc) for exc in raised}) == 3
        assert {type(exc) for exc in raised} == {ExpansionError}
        assert {str(exc) for exc in raised} == {
            "data already secret-shared; aggregator HE stage is illegal"
        }
        # A fresh exception carries only the frames of its own raise.
        depths = [len(traceback.extract_tb(exc.__traceback__)) for exc in raised]
        assert len(set(depths)) == 1

    def test_search_leaves_no_exception_reachable_from_the_expander(self, monkeypatch):
        made = []

        class Recording(PrefixExpander):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(search, "PrefixExpander", Recording)
        planner = search.Planner(
            GAP.environment(PAPER_N),
            constraints=PAPER_CONSTRAINTS,
            goal=Goal("participant_expected_seconds"),
        )
        planner.plan_source(GAP.source, GAP.name)
        (expander,) = made
        failures = [entry[1] for entry in expander._segments.values() if entry[1] is not None]
        assert failures  # the search did run into refused extensions
        gc.collect()
        held = [
            obj
            for obj in reachable_from(expander)
            if isinstance(obj, (BaseException, types.TracebackType, types.FrameType))
        ]
        assert held == []
