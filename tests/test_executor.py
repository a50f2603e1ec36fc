"""End-to-end execution tests (§5): full protocol on a simulated network."""

import hashlib
import random

import pytest

from repro.planner.search import plan_query
from repro.privacy.accountant import PrivacyAccountant
from repro.runtime.executor import QueryExecutor, QueryRejected
from repro.runtime.network import FederatedNetwork
from tests.conftest import small_env

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"


def build_executor(
    source,
    categories=8,
    devices=40,
    epsilon=4.0,
    distribution=None,
    malicious_fraction=0.0,
    seed=11,
    env=None,
    name="q",
    accountant=None,
    numeric=None,
):
    env = env or small_env(
        num_participants=devices, categories=categories, epsilon=epsilon
    )
    planning = plan_query(source, env, name=name)
    network = FederatedNetwork(
        devices, rng=random.Random(seed), malicious_fraction=malicious_fraction
    )
    if numeric is not None:
        network.load_numeric_data(*numeric, width=categories)
    elif distribution is not None:
        network.load_categorical_data(categories, distribution)
    else:
        network.load_categorical_data(categories)
    executor = QueryExecutor(
        network,
        planning,
        committee_size=4,
        key_prime_bits=96,
        rng=random.Random(seed + 1),
        accountant=accountant,
    )
    return executor, network


def run_query(source, **settings):
    executor, network = build_executor(source, **settings)
    return executor.run(), network


class TestTop1:
    def test_dominant_category_wins(self):
        result, _net = run_query(
            TOP1, distribution=[1, 1, 30, 1, 1, 1, 1, 1], seed=3
        )
        assert result.value == 2
        assert result.rejected_devices == []
        assert result.audits_failed == 0
        assert result.committees_used >= 3

    def test_events_logged(self):
        result, _ = run_query(TOP1, distribution=[20, 1, 1, 1, 1, 1, 1, 1])
        assert any("keygen" in e for e in result.events)
        assert any("em selected" in e for e in result.events)


class TestMaliciousParticipants:
    def test_malformed_inputs_rejected(self):
        result, net = run_query(
            TOP1,
            distribution=[30, 1, 1, 1, 1, 1, 1, 1],
            malicious_fraction=0.2,
            seed=21,
        )
        malicious = {d.device_id for d in net.devices if d.malicious}
        assert malicious  # the seed produced some
        assert set(result.rejected_devices) == malicious
        # The result is still correct despite the rejected uploads.
        assert result.value == 0


class TestLaplaceQuery:
    SRC = "aggr = sum(db); n = laplace(aggr[0], sens / epsilon); output(n);"

    def test_noised_count_near_truth(self):
        result, net = run_query(self.SRC, epsilon=8.0, seed=5)
        true_count = sum(1 for d in net.devices if d.value == 0)
        assert abs(result.value - true_count) < 8.0  # noise scale 1/8

    def test_output_is_float(self):
        result, _ = run_query(self.SRC, epsilon=8.0)
        assert isinstance(result.value, float)


class TestTopK:
    SRC = "aggr = sum(db); r = em(aggr, 3); output(r[0]); output(r[1]); output(r[2]);"

    def test_distinct_winners(self):
        result, _ = run_query(
            self.SRC, distribution=[30, 20, 10, 1, 1, 1, 1, 1], seed=9
        )
        winners = result.outputs
        assert len(set(winners)) == 3
        assert set(winners) == {0, 1, 2}


class TestMedianQuery:
    SRC = """
    aggr = sum(db);
    c = len(aggr);
    cum = 0;
    for i = 0 to c - 1 do
      cum = cum + aggr[i];
      scores[i] = 0 - abs(N + 1 - 2 * cum);
    endfor
    r = em(scores);
    output(r);
    """

    def test_median_bin_selected(self):
        # Everyone in bins 3 or 4: the median is there.
        result, _ = run_query(
            self.SRC,
            distribution=[0.01, 0.01, 0.01, 10, 10, 0.01, 0.01, 0.01],
            epsilon=8.0,
            seed=13,
            env=small_env(num_participants=40, categories=8, epsilon=8.0, sensitivity=2.0),
        )
        assert result.value in (3, 4)


class TestSampling:
    SRC = "s = sampleUniform(db, 0.5); aggr = sum(s); r = em(aggr); output(r);"

    def test_sampled_query_runs(self):
        result, _ = run_query(
            self.SRC, distribution=[40, 1, 1, 1, 1, 1, 1, 1], seed=17, epsilon=8.0
        )
        assert result.value == 0
        assert any("sampled window" in e for e in result.events)


class TestBoundedRows:
    SRC = "aggr = sum(db); n = laplace(aggr[0], sens / epsilon); output(n);"

    def test_numeric_rows(self):
        env = small_env(num_participants=40, categories=4, epsilon=8.0)
        env = type(env)(
            num_participants=40,
            row_width=4,
            db_element=env.db_element,
            epsilon=8.0,
            sensitivity=1.0,
            row_encoding="bounded",
        )
        result, net = run_query(self.SRC, env=env, numeric=(0, 1), categories=4)
        true_count = sum(d.value[0] for d in net.devices)
        assert abs(result.value - true_count) < 8.0

    def test_out_of_range_rejected(self):
        env = small_env(num_participants=40, categories=4, epsilon=8.0)
        env = type(env)(
            num_participants=40,
            row_width=4,
            db_element=env.db_element,
            epsilon=8.0,
            sensitivity=1.0,
            row_encoding="bounded",
        )
        planning = plan_query(self.SRC, env, name="bounded")
        network = FederatedNetwork(40, rng=random.Random(2), malicious_fraction=0.15)
        network.load_numeric_data(0, 1, width=4)
        executor = QueryExecutor(
            network, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(3),
        )
        result = executor.run()
        malicious = {d.device_id for d in network.devices if d.malicious}
        assert set(result.rejected_devices) == malicious


class TestBudgetEnforcement:
    def test_query_rejected_when_budget_exhausted(self):
        accountant = PrivacyAccountant(epsilon_budget=1.0, delta_budget=1e-6)
        env = small_env(num_participants=40, categories=8, epsilon=4.0)
        planning = plan_query(TOP1, env, name="top1")
        network = FederatedNetwork(40, rng=random.Random(4))
        network.load_categorical_data(8)
        executor = QueryExecutor(
            network, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(5), accountant=accountant,
        )
        with pytest.raises(QueryRejected):
            executor.run()

    def test_budget_charged_on_success(self):
        accountant = PrivacyAccountant(epsilon_budget=10.0, delta_budget=1e-6)
        result, _ = run_query(
            TOP1, distribution=[20, 1, 1, 1, 1, 1, 1, 1], accountant=accountant
        )
        assert accountant.spent.epsilon == pytest.approx(4.0)
        assert accountant.history[0][0] == "q"


class TestSortitionAdvance:
    def test_round_advances_after_query(self):
        env = small_env(num_participants=40, categories=8, epsilon=4.0)
        planning = plan_query(TOP1, env)
        network = FederatedNetwork(40, rng=random.Random(6))
        network.load_categorical_data(8)
        block_before = network.sortition.block
        executor = QueryExecutor(
            network, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(7),
        )
        executor.run()
        assert network.sortition.round_number == 1
        assert network.sortition.block != block_before


class TestHeldSecretSeal:
    def test_seal_hashes_every_share_point_of_the_parked_key_limbs(self):
        """What a checkpoint records of the key-limb shares parked with the
        keygen committee: sha256 over ``name/party/x/y;`` per share, names
        sorted, value-major — recomputed here from the exported columns."""
        executor, _ = build_executor(TOP1)
        executor.run()
        (held,) = executor._held_secrets
        hasher = hashlib.sha256()
        for name in sorted(held.vectors):
            columns = held.committee.engine.export_columns(held.vectors[name])
            for i in range(len(held.vectors[name])):
                for x in sorted(columns):
                    hasher.update(f"{name}/{x}/{x}/{columns[x][i]};".encode("utf-8"))
        assert sorted(held.vectors) == ["lam", "mu"]
        assert executor._sealed_held_secrets() == [
            {
                "committee": held.committee.name,
                "members": list(held.committee.members),
                "vectors": {name: len(vector) for name, vector in held.vectors.items()},
                "seal": hasher.hexdigest(),
            }
        ]
