"""Fault-injection engine and churn-tolerant recovery (repro.faults).

The contract under test is §5.1's: committees are sized so that a
malicious fraction *and* a churned fraction of members can be tolerated,
with tasks failing over to committee i+1 mod c. Concretely:

* every within-tolerance fault schedule recovers to a released value
  **bit-identical** to the fault-free run with the same seeds;
* the event log pairs every injected fault with a detection, a recovery
  action, and a terminal outcome;
* schedules beyond the tolerance raise a typed ``UnrecoverableFault``
  carrying the log — never a hang, never a silently wrong answer.
"""

import random

import pytest

from repro.faults import (
    CRASH,
    DROPOUT,
    PENDING,
    PROTOCOL_KINDS,
    RECOVERED,
    STRAGGLER,
    TOLERATED,
    UNRECOVERABLE,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    UnrecoverableFault,
    derive_stream_seed,
    get_scenario,
    list_scenarios,
)
from repro.planner.search import plan_query
from repro.privacy.accountant import PrivacyAccountant
from repro.queries.catalog import ALL_QUERIES, get
from repro.mpc.engine import DEFAULT_BIT_WIDTH
from repro.runtime.committee import Committee, CommitteeError, CommitteePool
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from repro.crypto.vsr import VSRError
from repro.verify.invariants import (
    run_budget_once,
    run_faults_resolved,
    run_twin_identical,
)


# --------------------------------------------------------------- helpers


def _environment(spec):
    categories = {"hypotest": 1, "cms": 1, "k-medians": 20}.get(spec.name, 8)
    epsilon = {"bayes": 16.0, "k-medians": 40.0}.get(spec.name, 8.0)
    return spec.environment(32, categories=categories, epsilon=epsilon)


def _load_data(spec, net):
    if spec.name == "cms":
        net.load_numeric_data(0, 1, width=1)
    elif spec.name == "bayes":
        net.load_numeric_data(0, 1, width=8)
    elif spec.name == "k-medians":
        rng = random.Random(11)
        for d in net.devices:
            center = rng.randrange(10)
            row = [0] * 20
            row[center] = 1
            row[10 + center] = 1
            d.value = row
    elif spec.name == "hypotest":
        net.load_categorical_data(1)
    else:
        net.load_categorical_data(8, distribution=[20, 4, 1, 1, 1, 1, 1, 1])


def _execute(spec, plan, seed=5, accountant=None):
    """One end-to-end run of ``spec`` under the fault plan ``plan``."""
    env = _environment(spec)
    planning = plan_query(spec.source, env, name=spec.name)
    net = FederatedNetwork(32, rng=random.Random(seed))
    _load_data(spec, net)
    executor = QueryExecutor(
        net,
        planning,
        committee_size=4,
        key_prime_bits=96,
        rng=random.Random(seed + 1),
        accountant=accountant,
        faults=FaultInjector(plan, seed=seed),
    )
    return executor.run()


# ---------------------------------------------------------------- plans


class TestFaultPlan:
    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random_plan(seed=9, num_faults=5)
        b = FaultPlan.random_plan(seed=9, num_faults=5)
        assert a.events == b.events
        assert len(a.events) == 5
        assert all(e.kind in PROTOCOL_KINDS for e in a.events)
        assert all(e.phase in ("decrypt", "program") for e in a.events)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", "decrypt")

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan("bad", events=(FaultEvent(CRASH, "warmup"),))

    def test_scenarios_enumerable(self):
        names = [p.name for p in list_scenarios()]
        assert "none" in names and "overload" in names
        assert get_scenario("decrypt-crash").events[0].kind == CRASH
        with pytest.raises(KeyError):
            get_scenario("nope")


class TestInjectorStreams:
    def test_derive_stream_seed_is_stable(self):
        assert derive_stream_seed(0, "noise") == derive_stream_seed(0, "noise")
        assert derive_stream_seed(0, "noise") != derive_stream_seed(0, "audit")
        assert derive_stream_seed(0, "noise") != derive_stream_seed(1, "noise")

    def test_fresh_streams_replay_identically(self):
        inj = FaultInjector(FaultPlan("none"), seed=3)
        first = [inj.fresh("noise/em0/0").random() for _ in range(3)]
        second = [inj.fresh("noise/em0/0").random() for _ in range(3)]
        assert first == second

    def test_short_straggle_absorbed_long_raises(self):
        inj = FaultInjector(
            FaultPlan(
                "s",
                events=(
                    FaultEvent(STRAGGLER, "decrypt", delay=5.0),
                    FaultEvent(STRAGGLER, "decrypt", delay=300.0),
                ),
            ),
            round_timeout=30.0,
        )
        inj.begin_phase("decrypt")
        from repro.faults import PartyTimeout

        with pytest.raises(PartyTimeout):
            inj.maybe_fail()  # absorbs the 5s delay, raises on the 300s one
        assert inj.log.records[0].outcome == TOLERATED
        assert inj.log.waited_seconds == pytest.approx(5.0 + 30.0)


# ------------------------------------------------- committee pool (§5.1)


class TestCommitteePool:
    def _online_filter(self, offline):
        return lambda members: [m for m in members if m not in offline]

    def test_wrap_around_allocation(self):
        """Requests beyond the sortition count wrap to committee i mod c."""
        pool = CommitteePool(
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter(set()),
        )
        assert pool.allocate("a").members == [1, 2, 3, 4]
        assert pool.allocate("b").members == [5, 6, 7, 8]
        assert pool.allocate("c").members == [1, 2, 3, 4]

    def test_skip_on_churn_recorded_once(self):
        """A dead committee is skipped on every pass but recorded once."""
        pool = CommitteePool(
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter({1, 2}),
        )
        for name in ("a", "b", "c"):
            assert pool.allocate(name).members == [5, 6, 7, 8]
        assert pool.skipped == [[1, 2, 3, 4]]

    def test_exhaustion_raises_committee_error(self):
        pool = CommitteePool(
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            random.Random(0),
            DEFAULT_BIT_WIDTH,
            online_filter=self._online_filter({1, 2, 5, 6}),
        )
        with pytest.raises(CommitteeError):
            pool.allocate("a")
        assert len(pool.skipped) == 2


class TestShareRecovery:
    def test_survivors_reconstruct_identical_secrets(self):
        rng = random.Random(5)
        committee = Committee("keygen", [1, 2, 3, 4, 5], rng, DEFAULT_BIT_WIDTH)
        values = committee.share_values([10, 20, 30])
        recovered = committee.recover_shares({"v": values}, [2], rng)
        assert committee.members == [1, 3, 4, 5]
        assert [committee.engine.open(v) for v in recovered["v"]] == [10, 20, 30]

    def test_untouched_committee_is_a_no_op(self):
        rng = random.Random(5)
        committee = Committee("keygen", [1, 2, 3, 4, 5], rng, DEFAULT_BIT_WIDTH)
        values = committee.share_values([7])
        out = committee.recover_shares({"v": values}, [99], rng)
        assert out["v"] is values
        assert committee.members == [1, 2, 3, 4, 5]

    def test_below_quorum_raises(self):
        rng = random.Random(5)
        committee = Committee("keygen", [1, 2, 3, 4, 5], rng, DEFAULT_BIT_WIDTH)
        values = committee.share_values([7])
        with pytest.raises(CommitteeError):
            committee.recover_shares({"v": values}, [1, 2, 3], rng)

    def test_vsr_excludes_lost_dealer(self):
        rng = random.Random(6)
        sender = Committee("a", [1, 2, 3, 4, 5], rng, DEFAULT_BIT_WIDTH)
        recipient = Committee("b", [6, 7, 8, 9, 10], rng, DEFAULT_BIT_WIDTH)
        values = sender.share_values([42, 43])
        moved = sender.send_via_vsr(values, recipient, exclude_members=[1])
        assert [recipient.engine.open(v) for v in moved] == [42, 43]
        with pytest.raises(VSRError):
            sender.send_via_vsr(values, recipient, exclude_members=[1, 2, 3])


class TestNetworkRngRequired:
    def test_unseeded_network_rejected(self):
        with pytest.raises(ValueError, match="explicit rng= or seed="):
            FederatedNetwork(8)

    def test_seed_shortcut_is_deterministic(self):
        a = FederatedNetwork(8, seed=1)
        b = FederatedNetwork(8, seed=1)
        assert [d.secret for d in a.devices] == [d.secret for d in b.devices]

    def test_restore_reverses_take_offline(self):
        net = FederatedNetwork(8, seed=0)
        net.take_offline([2, 3])
        assert net.online_members([1, 2, 3, 4]) == [1, 4]
        net.restore([2, 3])
        assert net.online_members([1, 2, 3, 4]) == [1, 2, 3, 4]


# ------------------------------------------------ scenarios, end to end

RECOVERY_SCENARIOS = (
    "keygen-loss",
    "decrypt-crash",
    "double-crash",
    "straggler",
    "vsr-loss",
    "equivocate",
    "churn-wave",
)


class TestScenarioRecovery:
    @pytest.fixture(scope="class")
    def baseline(self):
        baseline = _execute(get("top1"), get_scenario("none"))
        # Slot packing is on, so every scenario below recovers packed runs.
        assert baseline.statistics.packing_lanes > 1
        return baseline

    @pytest.mark.parametrize("name", RECOVERY_SCENARIOS)
    def test_recovers_bit_identical(self, name, baseline):
        plan = get_scenario(name)
        result = _execute(get("top1"), plan)
        assert result.fault_log.records, "no fault was recorded"
        assert not run_twin_identical(result, baseline, plan)
        assert not run_faults_resolved(result.fault_log)

    def test_overload_raises_unrecoverable_with_log(self):
        with pytest.raises(UnrecoverableFault) as excinfo:
            _execute(get("top1"), get_scenario("overload"))
        log = excinfo.value.log
        assert log.records, "the unrecoverable fault left no forensic trail"
        dropped = log.by_kind(DROPOUT)
        assert dropped and dropped[0].outcome == UNRECOVERABLE
        assert dropped[0].recovery not in ("", PENDING)

    def test_garbage_uploads_rejected_not_aggregated(self):
        result = _execute(get("top1"), get_scenario("garbage-upload"))
        assert result.rejected_devices == [2, 3]
        assert result.fault_log.records, "no fault was recorded"
        assert not run_faults_resolved(result.fault_log)
        assert all(r.outcome == RECOVERED for r in result.fault_log.records)

    def test_failover_uses_extra_committees(self):
        baseline = _execute(get("top1"), get_scenario("none"))
        crashed = _execute(get("top1"), get_scenario("decrypt-crash"))
        assert crashed.committees_used > baseline.committees_used
        assert crashed.fault_log.retries >= 1

    def test_retry_budget_exhaustion_is_typed(self):
        """More same-phase crashes than retries must abort, not hang."""
        plan = FaultPlan(
            "crash-storm",
            events=tuple(FaultEvent(CRASH, "decrypt") for _ in range(4)),
            expect_unrecoverable=True,
        )
        with pytest.raises(UnrecoverableFault):
            _execute(get("top1"), plan)


class TestCatalogEquivalence:
    """The tentpole claim, for *every* catalog query: any within-tolerance
    protocol-fault schedule releases a byte-identical value."""

    @pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda s: s.name)
    def test_recovered_run_matches_fault_free(self, spec):
        fault_free = _execute(spec, FaultPlan("none"))
        plan = FaultPlan.random_plan(
            seed=17, num_faults=2, phases=("decrypt", "program")
        )
        faulted = _execute(spec, plan)
        assert faulted.fault_log.records, "no fault was recorded"
        assert not run_twin_identical(faulted, fault_free, plan)
        assert not run_faults_resolved(faulted.fault_log)


# --------------------------------------- DP accounting under churn/replay


class TestDPAccountingUnderFaults:
    def test_keygen_replay_charges_budget_once(self):
        spec = get("top1")
        accountant = PrivacyAccountant(epsilon_budget=100.0, delta_budget=1.0)
        result = _execute(
            spec,
            FaultPlan("keygen-crash", events=(FaultEvent(CRASH, "keygen"),)),
            accountant=accountant,
        )
        assert not run_budget_once(accountant, [("top1", result.epsilon_charged)])
        assert not run_faults_resolved(result.fault_log)

    def test_bin_sampling_survives_post_upload_churn(self):
        """Churn after upload must not perturb the sampled window (dp-*)."""
        spec = get("secrecy")
        baseline = _execute(spec, FaultPlan("none"))
        assert any("sampled window" in e for e in baseline.events)
        plan = FaultPlan(
            "post-upload-churn",
            events=(FaultEvent(DROPOUT, "decrypt", target=(5, 6, 7, 8)),),
        )
        churned = _execute(spec, plan)
        assert not run_twin_identical(churned, baseline, plan)
        assert any("sampled window" in e for e in churned.events)

    def test_pre_upload_churn_is_deterministic_and_isolated(self):
        """Devices that churn before uploading change only their own
        contribution: per-device upload streams keep every other device's
        bin placement fixed, so the dominant category still wins and the
        run replays byte-identically."""
        spec = get("secrecy")
        plan = FaultPlan(
            "pre-upload-churn",
            events=(FaultEvent(DROPOUT, "input", target=(30, 31, 32)),),
            mutates_inputs=True,
        )
        first = _execute(spec, plan)
        second = _execute(spec, plan)
        assert first.outputs == second.outputs
        baseline = _execute(spec, FaultPlan("none"))
        # Category 0 dominates 20:4; losing three uploads cannot flip it.
        assert first.value == baseline.value

    def test_certificate_survives_recovery(self):
        result = _execute(get("top1"), get_scenario("decrypt-crash"))
        assert result.authorization is not None
        assert result.epsilon_charged > 0
