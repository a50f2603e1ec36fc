"""Tests for the cleartext reference interpreter, including semantic
equivalence between centralized and federated execution."""

import random
from collections import Counter

import pytest

from repro.planner.search import plan_query
from repro.queries.catalog import get
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from tests.oracles.reference_interp import (
    ReferenceError_,
    ReferenceInterpreter,
    one_hot_database,
    run_reference,
)


class TestBasics:
    def test_sum_over_db(self):
        db = one_hot_database([0, 1, 1, 2], width=3)
        outputs = run_reference(
            "aggr = sum(db); n = laplace(aggr[1], 0.0001); output(n);",
            db,
            rng=random.Random(1),
        )
        assert round(outputs[0]) == 2

    def test_loops_and_arrays(self):
        db = one_hot_database([0], width=2)
        outputs = run_reference(
            """
            aggr = sum(db);
            s = 0;
            for i = 0 to 4 do
              a[i] = i * i;
              s = s + a[i];
            endfor
            output(s);
            """,
            db,
        )
        assert outputs == [30]

    def test_conditionals(self):
        outputs = run_reference(
            "x = 3; if x > 2 && !(x == 4) then output(1); else output(0); endif",
            one_hot_database([0], 2),
        )
        assert outputs == [1]

    def test_builtins(self):
        outputs = run_reference(
            "output(clip(15, 0, 10)); output(abs(0 - 4)); output(len(sum(db)));",
            one_hot_database([0, 1], 3),
        )
        assert outputs == [10, 4, 3]

    def test_em_prefers_top_score(self):
        db = one_hot_database([2] * 50 + [0, 1], width=4)
        winners = Counter(
            run_reference(
                "aggr = sum(db); output(em(aggr));",
                db,
                epsilon=4.0,
                rng=random.Random(seed),
            )[0]
            for seed in range(30)
        )
        assert winners.most_common(1)[0][0] == 2

    def test_unknown_function(self):
        with pytest.raises(ReferenceError_):
            run_reference("output(spin(db));", one_hot_database([0], 2))

    def test_undefined_variable(self):
        with pytest.raises(ReferenceError_):
            run_reference("output(x);", one_hot_database([0], 2))

    def test_sampling(self):
        db = one_hot_database([0] * 100, width=2)
        interp = ReferenceInterpreter(db, rng=random.Random(3))
        outputs = interp.run_source(
            "s = sampleUniform(db, 0.5); aggr = sum(s); "
            "n = laplace(aggr[0], 0.0001); output(n);"
        )
        assert 30 < outputs[0] < 70


class TestCatalogQueriesRunCentrally:
    @pytest.mark.parametrize(
        "name", ["top1", "topK", "gap", "auction", "hypotest", "secrecy", "median"]
    )
    def test_one_hot_queries(self, name):
        spec = get(name)
        width = 8 if name != "hypotest" else 1
        db = one_hot_database([i % width for i in range(40)], width=width)
        outputs = run_reference(
            spec.source,
            db,
            epsilon=4.0,
            sensitivity=2.0 if name == "median" else 1.0,
            rng=random.Random(7),
        )
        assert outputs

    @pytest.mark.parametrize("name", ["cms", "bayes", "k-medians"])
    def test_bounded_queries(self, name):
        spec = get(name)
        width = {"cms": 1, "bayes": 8, "k-medians": 20}[name]
        rng = random.Random(9)
        db = [[rng.randint(0, 1) for _ in range(width)] for _ in range(40)]
        outputs = run_reference(
            spec.source,
            db,
            epsilon=8.0,
            rng=random.Random(11),
            constants=dict(spec.constants or {}),
        )
        assert outputs


class TestFederatedMatchesReference:
    """For deterministic-given-data answers (dominant categories, high ε),
    centralized and federated execution must agree exactly."""

    def _both(self, name, categories, distribution, epsilon=8.0, seed=51):
        spec = get(name)
        env = spec.environment(48, categories=categories, epsilon=epsilon)
        planning = plan_query(spec.source, env, name=name)
        net = FederatedNetwork(48, rng=random.Random(seed))
        net.load_categorical_data(categories, distribution)
        federated = QueryExecutor(
            net, planning, committee_size=4, key_prime_bits=96,
            rng=random.Random(seed + 1),
        ).run()
        db = one_hot_database([d.value for d in net.devices], categories)
        central = run_reference(
            spec.source,
            db,
            epsilon=epsilon,
            sensitivity=env.sensitivity,
            rng=random.Random(seed + 2),
        )
        return federated.outputs, central

    def test_top1_agreement(self):
        fed, central = self._both("top1", 8, [1, 1, 1, 1, 1, 1, 1, 40])
        assert fed[0] == central[0] == 7

    def test_median_agreement(self):
        fed, central = self._both(
            "median", 8, [0.01, 0.01, 0.01, 0.01, 44, 0.01, 0.01, 0.01]
        )
        assert fed[0] == central[0] == 4

    def test_hypotest_agreement(self):
        fed, central = self._both("hypotest", 1, [1.0])
        assert fed[0] == central[0] == 1  # everyone succeeds -> reject
