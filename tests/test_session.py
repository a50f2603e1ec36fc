"""Tests for the analytics-session layer."""

import random

import pytest

from repro.runtime.executor import QueryRejected
from repro.runtime.network import FederatedNetwork
from repro.session import AnalyticsSession

TOP1 = "aggr = sum(db); output(em(aggr));"
COUNT = "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"


def make_session(budget=10.0, epsilon=4.0, devices=40, seed=71):
    network = FederatedNetwork(devices, rng=random.Random(seed))
    network.load_categorical_data(8, distribution=[25, 1, 1, 1, 1, 1, 1, 1])
    return AnalyticsSession(
        network,
        epsilon_budget=budget,
        epsilon_per_query=epsilon,
        rng=random.Random(seed + 1),
    )


class TestLifecycle:
    def test_single_query(self):
        session = make_session()
        result = session.ask(TOP1, categories=8, name="top1")
        assert result.value == 0
        assert session.queries_answered == 1
        assert session.spent_epsilon() == pytest.approx(4.0)

    def test_budget_decreases_across_queries(self):
        session = make_session(budget=10.0, epsilon=4.0)
        session.ask(TOP1, categories=8, name="q1")
        session.ask(COUNT, categories=8, name="q2")
        assert session.remaining_epsilon() == pytest.approx(2.0)
        assert len(session.history) == 2

    def test_refusal_when_exhausted(self):
        session = make_session(budget=5.0, epsilon=4.0)
        session.ask(TOP1, categories=8, name="q1")
        with pytest.raises(QueryRejected):
            session.ask(TOP1, categories=8, name="q2")
        # Refusal costs nothing and is recorded.
        assert session.spent_epsilon() == pytest.approx(4.0)
        assert session.history[-1].result is None

    def test_can_afford(self):
        session = make_session(budget=5.0, epsilon=4.0)
        assert session.can_afford(TOP1, categories=8)
        session.ask(TOP1, categories=8)
        assert not session.can_afford(TOP1, categories=8)

    def test_sortition_advances_per_query(self):
        session = make_session(budget=20.0)
        session.ask(TOP1, categories=8)
        assert session.network.sortition.round_number == 1
        session.ask(COUNT, categories=8)
        assert session.network.sortition.round_number == 2

    def test_plan_only_spends_nothing(self):
        session = make_session()
        planning = session.plan(TOP1, categories=8)
        assert planning.succeeded
        assert session.spent_epsilon() == 0.0

    def test_planner_cache_reused(self):
        session = make_session(budget=20.0)
        session.plan(TOP1, categories=8)
        session.plan(COUNT, categories=8)
        assert len(session._planners) == 1  # same environment key

    def test_per_query_epsilon_override(self):
        session = make_session(budget=10.0, epsilon=4.0)
        session.ask(TOP1, categories=8, epsilon=1.0)
        assert session.spent_epsilon() == pytest.approx(1.0)


class TestOneIntake:
    def test_a_service_sized_query_is_one_shard(self):
        """24 devices (the service benchmark's deployment) fit one shard:
        a single leaf under the root, every online device uploads, and the
        malicious ones among them are exactly the rejected."""
        network = FederatedNetwork(
            24, rng=random.Random(71), malicious_fraction=0.25
        )
        network.load_categorical_data(8, distribution=[25, 1, 1, 1, 1, 1, 1, 1])
        network.take_offline([3, 9, 17])
        session = AnalyticsSession(
            network, epsilon_budget=10.0, epsilon_per_query=4.0, rng=random.Random(72)
        )
        result = session.ask(TOP1, categories=8, name="top1")
        online = [d for d in network.devices if d.online]
        malicious = [d.device_id for d in online if d.malicious]
        assert malicious and any(d.malicious for d in network.devices if not d.online)
        stats = result.statistics
        assert (stats.shards, stats.tree_depth) == (1, 2)
        assert stats.uploads_submitted == len(online) == 21
        assert stats.uploads_rejected == len(malicious)
        assert result.rejected_devices == malicious
        assert result.value == 0
