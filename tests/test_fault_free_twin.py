"""A plain run is its own fault-free twin (§5.1).

An executor built without a fault injector carries one over the empty
``none`` plan, seeded with the 64-bit word its constructor draws from the
rng it is given. So a plain run must release exactly what the run with that
injector spelled out releases — the result and every journal byte — and,
like any chaos run, a committee that is caught cheating fails over to the
next one instead of ending the run.
"""

import random

import pytest

from repro.faults import FaultInjector, UnrecoverableFault, get_scenario
from repro.mpc.engine import CheatingDetected
from repro.planner.search import plan_query
from repro.runtime.executor import QueryExecutor
from repro.runtime.journal import ExecutionJournal
from repro.runtime.network import FederatedNetwork
from repro.verify.invariants import run_faults_resolved, run_release_certified
from tests.conftest import small_env

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"
RELEASE = "aggr = sum(db); output(em(aggr)); output(laplace(aggr[0], sens / epsilon));"
SAMPLED = "s = sampleUniform(db, 0.5); aggr = sum(s); r = em(aggr); output(r);"

#: name -> (source, executor seed, shard size); only "journaled" writes a journal.
RUNS = {
    "top1-em": (TOP1, 3, 1024),
    "em-laplace-release": (RELEASE, 5, 1024),
    "sampled": (SAMPLED, 17, 1024),
    "journaled": (TOP1, 23, 8),
}


def _executor(source, seed, shard_size=1024, faults=None, journal=None):
    env = small_env(num_participants=32, categories=4, epsilon=8.0)
    network = FederatedNetwork(32, rng=random.Random(seed * 101))
    network.load_categorical_data(4, distribution=[12, 6, 3, 1])
    return QueryExecutor(
        network,
        plan_query(source, env, name="twin"),
        committee_size=3,
        key_prime_bits=64,
        rng=random.Random(seed),
        faults=faults,
        journal=journal,
        shard_size=shard_size,
        tree_fanout=2,
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_plain_run_is_the_empty_plan_run(name, tmp_path):
    source, seed, shard_size = RUNS[name]
    twin_seed = random.Random(seed).getrandbits(64)
    released, journals = [], []
    for kind, faults in (
        ("plain", None),
        ("twin", FaultInjector(get_scenario("none"), seed=twin_seed)),
    ):
        path = tmp_path / f"{kind}.journal"
        journal = ExecutionJournal.create(str(path)) if name == "journaled" else None
        executor = _executor(source, seed, shard_size, faults, journal)
        result = executor.run()
        assert not result.fault_log.records
        assert not run_release_certified(executor.planning, result)
        released.append(repr(result))
        journals.append(path.read_bytes() if journal is not None else None)
    assert released[0] == released[1]
    assert journals[0] == journals[1]
    if name == "journaled":
        assert journals[0]
    if name == "sampled":
        assert "sampled window" in released[0]


def _cheating_decryption(monkeypatch, times):
    """The next ``times`` decryption committees are caught cheating when
    they open the key; nothing in any fault plan schedules it."""
    allocate = QueryExecutor._allocate
    left = [times]

    def allocating(self, name):
        committee = allocate(self, name)
        if name == "decryption" and left[0]:
            left[0] -= 1

            def cheat(value):
                raise CheatingDetected("opened share failed the consistency check")

            committee.engine.open = cheat
        return committee

    monkeypatch.setattr(QueryExecutor, "_allocate", allocating)


def test_plain_run_fails_a_cheating_committee_over(monkeypatch):
    clean = _executor(TOP1, 3).run()
    _cheating_decryption(monkeypatch, times=1)
    result = _executor(TOP1, 3).run()
    assert result.outputs == clean.outputs
    assert not run_faults_resolved(result.fault_log)
    assert result.fault_log.retries == 1
    assert result.committees_used == clean.committees_used + 1
    assert any("replaying with a fresh committee" in e for e in result.events)


def test_plain_run_that_keeps_cheating_is_unrecoverable(monkeypatch):
    _cheating_decryption(monkeypatch, times=10**6)
    with pytest.raises(UnrecoverableFault) as caught:
        _executor(TOP1, 3).run()
    assert "decrypt" in str(caught.value)
