"""Tests for the branch-and-bound planner (§4.6, §7.3)."""

import pytest

from repro.planner.costmodel import Constraints, Goal
from repro.planner.search import (
    Planner,
    PlannerOutOfMemory,
    PlanningFailed,
    plan_query,
)
from repro.queries.catalog import ALL_QUERIES
from tests.conftest import small_env

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"


class TestBasicPlanning:
    def test_plans_top1(self, env):
        result = plan_query(TOP1, env, name="top1")
        assert result.succeeded
        assert result.plan.query_name == "top1"
        assert result.statistics.candidates_scored > 0

    def test_choices_cover_all_ops(self, env):
        result = plan_query(TOP1, env)
        assert len(result.plan.choice_list) == len(result.logical_plan.ops)

    def test_statistics_populated(self, env):
        result = plan_query(TOP1, env)
        stats = result.statistics
        assert stats.space_size > 0
        assert stats.prefixes_considered > 0
        assert stats.runtime_seconds > 0

    def test_there_is_no_worker_count(self, env):
        # One search in one process (ARCHITECTURE §26): the option is gone,
        # not ignored.
        with pytest.raises(TypeError):
            Planner(env, workers=2)
        with pytest.raises(TypeError):
            plan_query(TOP1, env, workers=2)

    def test_describe_is_readable(self, env):
        result = plan_query(TOP1, env)
        text = result.plan.describe()
        assert "vignette" in text
        assert "committees" in text


class TestConstraints:
    def test_infeasible_raises(self, env):
        constraints = Constraints(participant_expected_seconds=1e-9)
        with pytest.raises(PlanningFailed):
            plan_query(TOP1, env, constraints=constraints)

    def test_constraint_forces_outsourcing(self):
        """Limiting the aggregator forces outsourcing the sum (§7.6)."""
        env = small_env(num_participants=2**30, categories=2**15, epsilon=0.1)
        # Force the flat-aggregation baseline by minimizing participant
        # bytes (tree helpers receive fanout-many ciphertexts).
        flat = plan_query(TOP1, env, name="flat", goal=Goal("participant_expected_bytes"))
        assert flat.plan.choices["aggregate[1]"] == "flat_aggregator"
        flat_agg = flat.plan.cost.aggregator_core_seconds
        squeezed = plan_query(
            TOP1,
            env,
            name="squeezed",
            goal=Goal("participant_expected_bytes"),
            constraints=Constraints(aggregator_core_seconds=flat_agg * 0.95),
        )
        # The squeezed plan must have moved the sum off the aggregator.
        assert squeezed.plan.choices["aggregate[1]"] != "flat_aggregator"
        assert squeezed.plan.cost.aggregator_core_seconds < flat_agg
        assert (
            squeezed.plan.cost.participant_expected_bytes
            >= flat.plan.cost.participant_expected_bytes
        )

    def test_impossible_aggregator_limit_raises(self):
        """Below the mandatory ZKP-verification work no plan exists — the
        Fig 10 red line stops (§7.6)."""
        env = small_env(num_participants=2**30, categories=2**15, epsilon=0.1)
        with pytest.raises(PlanningFailed):
            plan_query(
                TOP1,
                env,
                constraints=Constraints(aggregator_core_seconds=1000.0),
            )

    def test_goal_metric_respected(self, env):
        by_seconds = plan_query(TOP1, env, goal=Goal("participant_expected_seconds"))
        by_agg = plan_query(TOP1, env, goal=Goal("aggregator_core_seconds"))
        assert (
            by_agg.plan.cost.aggregator_core_seconds
            <= by_seconds.plan.cost.aggregator_core_seconds + 1e-9
        )


class TestBranchAndBound:
    def test_pruning_reduces_work(self, env):
        with_heuristics = Planner(env).plan_source(TOP1, "bb")
        without = Planner(env, heuristics=False).plan_source(TOP1, "naive")
        assert (
            with_heuristics.statistics.candidates_scored
            <= without.statistics.candidates_scored
        )
        # Both find equally good plans (pruning is safe).
        goal = Goal()
        assert goal.score(with_heuristics.plan.cost) == pytest.approx(
            goal.score(without.plan.cost)
        )

    def test_naive_mode_runs_out_of_memory(self, env):
        """§7.3: without heuristics the planner OOMs on bigger queries."""
        planner = Planner(env, heuristics=False, memory_budget_candidates=5)
        with pytest.raises(PlannerOutOfMemory):
            planner.plan_source(TOP1, "naive")

    def test_bound_prunes_counted(self, env):
        result = Planner(env).plan_source(TOP1, "bb")
        assert result.statistics.pruned_by_bound > 0


class TestAllCatalogQueries:
    @pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda s: s.name)
    def test_catalog_query_plans_at_small_scale(self, spec):
        categories = max(8, spec.categories if spec.categories <= 32 else 8)
        if spec.name == "k-medians":
            categories = 20
        if spec.name == "bayes":
            categories = 16
        env = spec.environment(num_participants=10**6, categories=categories)
        result = plan_query(spec.source, env, name=spec.name)
        assert result.succeeded
        cost = result.plan.cost
        assert cost.participant_expected_seconds > 0
        assert cost.aggregator_core_seconds > 0
