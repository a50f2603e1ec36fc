"""Tests for committee failover under churn (§5.1).

The paper tolerates a fraction g of each committee going offline; if a
committee loses more than that, its tasks move to committee i+1 mod c.
"""

import random

import pytest

from repro.planner.search import plan_query
from repro.queries.catalog import get
from repro.mpc.engine import DEFAULT_BIT_WIDTH
from repro.runtime.committee import CommitteeError, CommitteePool
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from repro.verify.invariants import run_release_certified


class TestPoolFailover:
    def _online_filter(self, offline):
        return lambda members: [m for m in members if m not in offline]

    def test_healthy_committee_used(self):
        pool = CommitteePool(
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter(set()),
        )
        assert pool.allocate("a").members == [1, 2, 3, 4]

    def test_partial_churn_tolerated(self):
        """Losing one of four members (25%) keeps the committee usable."""
        pool = CommitteePool(
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter({2}),
        )
        committee = pool.allocate("a")
        assert committee.members == [1, 3, 4]

    def test_dead_committee_skipped(self):
        """A committee past the churn bound is skipped; the task moves on."""
        pool = CommitteePool(
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter({1, 2}),
        )
        committee = pool.allocate("a")
        assert committee.members == [5, 6, 7, 8]
        assert pool.skipped == [[1, 2, 3, 4]]

    def test_all_dead_raises(self):
        pool = CommitteePool(
            [[1, 2, 3, 4]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter({1, 2, 3, 4}),
        )
        with pytest.raises(CommitteeError):
            pool.allocate("a")


class TestNetworkChurn:
    def test_take_offline(self):
        net = FederatedNetwork(10, rng=random.Random(0))
        net.take_offline([3, 7])
        assert not net.device(3).online
        assert net.online_members([1, 3, 5, 7]) == [1, 5]


class TestEndToEndWithChurn:
    def test_query_survives_churn(self):
        spec = get("top1")
        env = spec.environment(64, categories=8, epsilon=8.0)
        planning = plan_query(spec.source, env, name="top1")
        net = FederatedNetwork(64, rng=random.Random(20))
        net.load_categorical_data(8, distribution=[30, 1, 1, 1, 1, 1, 1, 1])
        # Take a quarter of the population offline before execution.
        net.take_offline(list(range(1, 17)))
        executor = QueryExecutor(
            net, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(21),
        )
        result = executor.run()
        assert result.value == 0
        assert not run_release_certified(planning, result)

    def test_offline_devices_do_not_upload(self):
        spec = get("cms")
        env = spec.environment(40, categories=1, epsilon=8.0)
        planning = plan_query(spec.source, env, name="cms")
        net = FederatedNetwork(40, rng=random.Random(22))
        net.load_numeric_data(1, 1, width=1)  # everyone reports exactly 1
        net.take_offline(list(range(1, 11)))  # 10 devices gone
        executor = QueryExecutor(
            net, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(23),
        )
        result = executor.run()
        # Noisy count reflects only the 30 online devices.
        assert abs(result.value - 30) < 4.0
        assert not run_release_certified(planning, result)
