"""Tests for the multi-tenant query service (admission/schedule/cache)."""

import dataclasses
import random
import sys
import threading

import pytest

from repro.lang.ast import Call, ExprStmt, Index, IntLit, Var
from repro.planner.serialize import query_fingerprint
from repro.privacy.accountant import PrivacyAccountant, PrivacyCost
from repro.runtime.executor import BudgetExhausted, QueryRejected
from repro.runtime.network import FederatedNetwork
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    BudgetScheduler,
    PlanCache,
    QueryService,
    Submission,
    TenantPolicy,
    TenantRegistry,
)
from repro.service.scheduler import AGING_HORIZON
from repro.session import AnalyticsSession
from repro.verify.invariants import run_budget_once, run_tenant_envelope

TOP1 = "aggr = sum(db); output(em(aggr));"
COUNT = "aggr = sum(db); output(laplace(aggr[0], sens / epsilon));"


def make_session(budget=20.0, devices=24, seed=71):
    network = FederatedNetwork(devices, rng=random.Random(seed))
    network.load_categorical_data(8, distribution=[25, 1, 1, 1, 1, 1, 1, 1])
    return AnalyticsSession(
        network,
        epsilon_budget=budget,
        delta_budget=1e-6,
        rng=random.Random(seed + 1),
    )


def make_service(budget=20.0, tenants=None, seed=71, devices=24):
    session = make_session(budget=budget, seed=seed, devices=devices)
    policies = tenants or [TenantPolicy("alice", 10.0, 1e-6),
                           TenantPolicy("bob", 10.0, 1e-6)]
    return QueryService(session, policies)


def _judge(service):
    """The service's ledgers under ``run-budget-once`` and
    ``run-tenant-envelope``: every charged submission once, at its ε."""
    charged = [(r.name, r.epsilon_charged) for r in service.records if r.epsilon_charged]
    return run_budget_once(service.session.accountant, charged) + run_tenant_envelope(
        service.tenants
    )


# --------------------------------------------------------------- accountant


class TestConcurrentAccountant:
    """Satellite: the accountant lock under hammering concurrent charges."""

    def test_same_label_charges_exactly_once(self):
        accountant = PrivacyAccountant(100.0, 0.0)
        barrier = threading.Barrier(16)
        outcomes = []

        def worker():
            barrier.wait()
            for _ in range(50):
                outcomes.append(accountant.charge_once(PrivacyCost(1.0, 0.0), "q"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 800 attempts under one label: exactly one may debit.
        assert outcomes.count(True) == 1
        assert not run_budget_once(accountant, [("q", 1.0)])

    def test_distinct_labels_all_charge_exactly_once(self):
        accountant = PrivacyAccountant(1000.0, 0.0)
        barrier = threading.Barrier(8)

        def worker(worker_id):
            barrier.wait()
            for i in range(25):
                label = f"w{worker_id}/q{i}"
                accountant.charge_once(PrivacyCost(1.0, 0.0), label)
                # Retry under the same label must be a no-op.
                accountant.charge_once(PrivacyCost(1.0, 0.0), label)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        executed = [(f"w{n}/q{i}", 1.0) for n in range(8) for i in range(25)]
        assert not run_budget_once(accountant, executed)

    def test_concurrent_plain_charges_never_lose_updates(self):
        accountant = PrivacyAccountant(10_000.0, 0.0)
        barrier = threading.Barrier(8)

        def worker(worker_id):
            barrier.wait()
            for i in range(100):
                accountant.charge(PrivacyCost(1.0, 0.0), f"w{worker_id}/{i}")

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        executed = [(f"w{n}/{i}", 1.0) for n in range(8) for i in range(100)]
        assert not run_budget_once(accountant, executed)


# ------------------------------------------------------------------ tenants


class TestTenants:
    def test_envelope_isolation(self):
        registry = TenantRegistry([TenantPolicy("a", 5.0)])
        account = registry.account("a")
        assert account.fits(PrivacyCost(5.0, 0.0))
        account.spent = PrivacyCost(3.0, 0.0)
        account.reserved = PrivacyCost(1.0, 0.0)
        assert account.fits(PrivacyCost(1.0, 0.0))
        assert not account.fits(PrivacyCost(1.5, 0.0))
        assert account.headroom().epsilon == pytest.approx(1.0)

    def test_unknown_tenant(self):
        registry = TenantRegistry()
        with pytest.raises(KeyError):
            registry.account("ghost")

    def test_duplicate_registration_rejected(self):
        registry = TenantRegistry([TenantPolicy("a", 1.0)])
        with pytest.raises(ValueError):
            registry.register(TenantPolicy("a", 2.0))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("a", -1.0)
        with pytest.raises(ValueError):
            TenantPolicy("a", 1.0, weight=0.0)


# ---------------------------------------------------------------- admission


def _submission(seq, tenant, epsilon, utility=0.5, deadline=None, tick=1):
    return Submission(
        seq=seq,
        tenant=tenant,
        source=COUNT,
        categories=8,
        epsilon=epsilon,
        name=f"{tenant}/{seq:04d}",
        utility=utility,
        deadline=deadline,
        submit_tick=tick,
        cost=PrivacyCost(epsilon, 0.0),
    )


class TestAdmission:
    def make(self, global_epsilon=10.0, tenant_epsilon=6.0):
        accountant = PrivacyAccountant(global_epsilon, 1e-6)
        registry = TenantRegistry([TenantPolicy("a", tenant_epsilon, 1e-6),
                                   TenantPolicy("b", tenant_epsilon, 1e-6)])
        return AdmissionController(accountant, registry)

    def test_admit_reserves_both_ledgers(self):
        controller = self.make()
        score = controller.admit(_submission(1, "a", 2.0))
        assert 0.0 <= score.priority <= 1.0
        assert controller.reserved.epsilon == pytest.approx(2.0)
        assert controller.tenants.account("a").reserved.epsilon == pytest.approx(2.0)

    def test_tenant_envelope_rejection_is_typed(self):
        controller = self.make(tenant_epsilon=3.0)
        with pytest.raises(BudgetExhausted):
            controller.admit(_submission(1, "a", 4.0))
        # Nothing held after a rejection.
        assert controller.reserved.epsilon == 0.0

    def test_reservations_serialize_concurrent_admissions(self):
        # Each submission fits alone; together they overflow the pool.
        controller = self.make(global_epsilon=5.0, tenant_epsilon=5.0)
        first = _submission(1, "a", 3.0)
        second = _submission(2, "b", 3.0)
        controller.admit(first)
        with pytest.raises(BudgetExhausted):
            controller.admit(second)
        # Releasing the first hold lets the second through.
        controller.settle_rejected(first)
        second.cost = PrivacyCost(3.0, 0.0)
        controller.admit(second)

    def test_policy_rejections(self):
        controller = self.make()
        with pytest.raises(AdmissionRejected):
            controller.admit(_submission(1, "ghost", 1.0))
        with pytest.raises(AdmissionRejected):
            controller.admit(_submission(2, "a", 1.0, utility=1.5))
        with pytest.raises(AdmissionRejected):
            controller.admit(_submission(3, "a", 1.0, deadline=1, tick=2))
        with pytest.raises(AdmissionRejected):
            controller.admit(_submission(4, "a", 100.0))  # per-query ε cap

    def test_reprice_down_releases_difference(self):
        controller = self.make()
        submission = _submission(1, "a", 4.0)
        controller.admit(submission)
        controller.reprice(submission, PrivacyCost(1.0, 0.0))
        assert controller.reserved.epsilon == pytest.approx(1.0)
        assert submission.cost.epsilon == pytest.approx(1.0)

    def test_reprice_up_past_budget_dies_with_hold_released(self):
        controller = self.make(global_epsilon=5.0)
        submission = _submission(1, "a", 2.0)
        controller.admit(submission)
        with pytest.raises(BudgetExhausted):
            controller.reprice(submission, PrivacyCost(6.0, 0.0))
        assert controller.reserved.epsilon == 0.0
        assert controller.tenants.account("a").reserved.epsilon == 0.0

    def test_settle_executed_books_tenant_spend(self):
        controller = self.make()
        submission = _submission(1, "a", 2.0)
        controller.admit(submission)
        controller.settle_executed(submission)
        account = controller.tenants.account("a")
        assert account.spent.epsilon == pytest.approx(2.0)
        assert account.reserved.epsilon == 0.0
        assert controller.reserved.epsilon == 0.0
        assert account.executed == 1


# ---------------------------------------------------------------- scheduler


class TestScheduler:
    def test_cost_utility_ordering(self):
        scheduler = BudgetScheduler()
        controller = TestAdmission().make(global_epsilon=50.0, tenant_epsilon=50.0)
        cheap = _submission(1, "a", 0.5, utility=0.9)
        dear = _submission(2, "a", 8.0, utility=0.2)
        for s in (cheap, dear):
            controller.admit(s)
            scheduler.enqueue(s)
        picked, expired = scheduler.pick(now_tick=3)
        assert picked is cheap and not expired
        picked, _ = scheduler.pick(now_tick=4)
        assert picked is dear

    def test_tie_breaks_on_sequence(self):
        scheduler = BudgetScheduler()
        a = _submission(1, "a", 1.0)
        b = _submission(2, "a", 1.0)
        scheduler.enqueue(b)
        scheduler.enqueue(a)
        picked, _ = scheduler.pick(now_tick=2)
        assert picked is a

    def test_starvation_fence_promotes_fifo(self):
        scheduler = BudgetScheduler()
        controller = TestAdmission().make(global_epsilon=50.0, tenant_epsilon=50.0)
        old = _submission(1, "a", 8.0, utility=0.0, tick=1)
        controller.admit(old)
        scheduler.enqueue(old)
        # A stream of newer, better-scored arrivals.
        for seq in range(2, 6):
            fresh = _submission(seq, "a", 0.5, utility=0.9, tick=seq)
            controller.admit(fresh)
            scheduler.enqueue(fresh)
        # Past the fence, the old submission wins regardless of score.
        picked, _ = scheduler.pick(now_tick=1 + AGING_HORIZON)
        assert picked is old

    def test_expired_deadlines_are_never_dispatched(self):
        scheduler = BudgetScheduler()
        dead = _submission(1, "a", 1.0, deadline=3, tick=1)
        live = _submission(2, "a", 1.0, tick=1)
        scheduler.enqueue(dead)
        scheduler.enqueue(live)
        picked, expired = scheduler.pick(now_tick=5)
        assert picked is live
        assert expired == [dead]
        assert len(scheduler) == 0

    def test_dynamic_priority_is_pure_in_clock_and_fields(self):
        scheduler = BudgetScheduler()
        s = _submission(1, "a", 1.0, deadline=10, tick=1)
        first = scheduler.dynamic_priority(s, 5)
        assert scheduler.dynamic_priority(s, 5) == first
        assert scheduler.dynamic_priority(s, 9) > first


# --------------------------------------------------------------- plan cache


class TestPlanCache:
    def plan(self, session, source=COUNT, epsilon=1.0):
        env = session.environment(8, epsilon, None, "one_hot", None)
        return env, session.planner(env).plan_source(source, name="shape")

    def test_roundtrip_hit_validates(self):
        session = make_session()
        env, planning = self.plan(session)
        cache = PlanCache()
        key = query_fingerprint(COUNT, env)
        cache.store(key, planning)
        assert cache.lookup(key) is planning
        assert cache.statistics.hits == 1

    def test_lru_capacity_eviction(self):
        session = make_session()
        env, planning = self.plan(session)
        cache = PlanCache(max_entries=2)
        for i in range(3):
            cache.store(f"key-{i}", planning)
        assert len(cache) == 2
        assert cache.statistics.capacity_evictions == 1
        assert cache.lookup("key-0") is None  # the oldest fell out

    def test_fingerprint_normalizes_and_discriminates(self):
        session = make_session()
        env = session.environment(8, 1.0, None, "one_hot", None)
        base = query_fingerprint(COUNT, env)
        spaced = "aggr = sum(db);   output(laplace(aggr[0], sens/epsilon));"
        assert query_fingerprint(spaced, env) == base
        env_other = session.environment(8, 2.0, None, "one_hot", None)
        assert query_fingerprint(COUNT, env_other) != base
        assert query_fingerprint(TOP1, env) != base


# ------------------------------------------------------------- the service


class TestQueryService:
    def test_submit_execute_settles_everything(self):
        service = make_service()
        ticket = service.submit("alice", COUNT, categories=8, epsilon=1.0)
        assert not ticket.done
        record = service.process_next()
        assert record.outcome == "executed"
        assert ticket.done and ticket.result() == record.value
        assert record.epsilon_charged == pytest.approx(1.0)
        assert not _judge(service)
        account = service.tenants.account("alice")
        assert account.spent.epsilon == pytest.approx(1.0)
        assert account.reserved.epsilon == 0.0
        assert service.admission.reserved.epsilon == 0.0

    def test_budget_rejection_happens_before_planning(self):
        service = make_service(tenants=[TenantPolicy("alice", 2.0, 1e-6)])
        with pytest.raises(BudgetExhausted):
            service.submit("alice", COUNT, categories=8, epsilon=3.0)
        # Admission refused the query without invoking the planner.
        assert service.statistics.planner_invocations == 0
        assert service.statistics.rejected_budget == 1
        assert service.session.accountant.spent.epsilon == 0.0

    def test_policy_rejection_is_typed(self):
        service = make_service()
        with pytest.raises(AdmissionRejected):
            service.submit("ghost", COUNT, categories=8, epsilon=1.0)
        assert service.statistics.rejected_policy == 1

    def test_repeated_shape_hits_cache_and_still_charges(self):
        service = make_service()
        service.submit("alice", COUNT, categories=8, epsilon=1.0)
        service.submit("bob", COUNT, categories=8, epsilon=1.0)
        first = service.process_next()
        second = service.process_next()
        assert not first.cache_hit and second.cache_hit
        assert service.statistics.planner_invocations == 1
        # The cached plan still charges, under the second unique label.
        assert service.session.accountant.spent.epsilon == pytest.approx(2.0)
        assert not _judge(service)

    def _run_poisoned_hit(self, tamper):
        """Execute one plan, ``tamper`` with the cached copy, then submit the
        same shape: the hit must settle ``failed`` with nothing charged."""
        service = make_service()
        service.submit("alice", COUNT, categories=8, epsilon=1.0)
        assert service.process_next().outcome == "executed"
        (planning,) = service.cache._entries.values()
        tamper(planning)
        spent = service.session.accountant.spent.epsilon
        ticket = service.submit("bob", COUNT, categories=8, epsilon=1.0)
        record = service.process_next()
        assert record.cache_hit and record.outcome == "failed" and ticket.done
        assert record.error.startswith("PlanVerificationError")
        assert service.session.accountant.spent.epsilon == spent
        assert service.admission.reserved.epsilon == 0.0
        assert not _judge(service)
        return record

    def test_cached_plan_with_a_swapped_certificate_fails_closed(self):
        def swap(planning):
            planning.privacy_certificate = dataclasses.replace(
                planning.privacy_certificate, query_name="tampered"
            )

        assert "df-certificate-stale" in self._run_poisoned_hit(swap).error

    def test_cached_plan_with_a_raw_release_fails_closed(self):
        def release_raw(planning):
            planning.logical_plan.post_statements.append(
                ExprStmt(Call("output", [Index(Var("aggr"), IntLit(0))]))
            )

        assert "df-taint-release" in self._run_poisoned_hit(release_raw).error

    def test_a_cached_plan_without_a_certificate_is_certified_at_the_gate(self):
        """The cache stores what it is given; the executor's gate attaches
        the certificate a hit lacks, and the plan runs as it would fresh."""
        service = make_service()
        service.submit("alice", COUNT, categories=8, epsilon=1.0)
        assert service.process_next().outcome == "executed"
        (planning,) = service.cache._entries.values()
        digest = planning.privacy_certificate.digest_bytes()
        planning.privacy_certificate = None
        service.submit("bob", COUNT, categories=8, epsilon=1.0)
        record = service.process_next()
        assert record.cache_hit and record.outcome == "executed"
        assert planning.privacy_certificate.digest_bytes() == digest
        assert service.session.accountant.spent.epsilon == pytest.approx(2.0)
        assert not _judge(service)

    def test_a_hit_gates_once_and_a_miss_twice(self):
        """One call of each name the benchmark traces for ``verify.gate_s``
        on a hit (the executor's gate), two on a miss (the planner's
        post-condition, then the executor's gate)."""
        from bench.trace import TARGETS, Target, Tracer

        service = make_service()
        service.submit("alice", COUNT, categories=8, epsilon=1.0)
        service.submit("bob", COUNT, categories=8, epsilon=1.0)

        def dispatch_counting_gate_calls():
            calls = {}

            def counter(name):
                def observe(recorder, args, result):
                    calls[name] = calls.get(name, 0) + 1

                return observe

            tracer = Tracer([
                Target(None, t.owner, t.attribute, counter(t.attribute))
                for t in TARGETS if t.span == "verify.gate_s"
            ])
            tracer.install()
            try:
                record = service.process_next()
            finally:
                tracer.remove()
            assert tracer.missing == []
            assert record.outcome == "executed"
            return record.cache_hit, calls

        assert dispatch_counting_gate_calls() == (
            False, {"verify_planning_result": 2, "analyze_planning_result": 2}
        )
        assert dispatch_counting_gate_calls() == (
            True, {"verify_planning_result": 1, "analyze_planning_result": 1}
        )

    def test_deadline_expiry_releases_hold_without_charging(self):
        service = make_service()
        ticket = service.submit(
            "alice", COUNT, categories=8, epsilon=1.0, deadline=2
        )
        # Competing traffic advances the clock past the deadline.
        service.submit("bob", COUNT, categories=8, epsilon=1.0)
        service.submit("bob", COUNT, categories=8, epsilon=1.0)
        records = service.drain()
        outcomes = {r.name: r.outcome for r in records}
        assert outcomes[ticket.submission.name] == "expired"
        with pytest.raises(AdmissionRejected):
            ticket.result()
        # Expiry never touches the accountant.
        assert service.session.accountant.spent.epsilon == pytest.approx(2.0)
        assert not _judge(service)
        assert service.admission.reserved.epsilon == 0.0
        assert service.statistics.expired_deadlines == 1

    def test_deterministic_replay(self):
        def replay(seed):
            service = make_service(seed=seed)
            rng = random.Random(97)
            requests = [
                dict(
                    tenant=rng.choice(["alice", "bob"]),
                    source=COUNT,
                    categories=8,
                    epsilon=round(rng.uniform(0.5, 1.5), 2),
                    utility=round(rng.uniform(0.0, 1.0), 2),
                )
                for _ in range(6)
            ]
            service.submit_many(requests)
            return [
                (r.seq, r.name, r.outcome, r.epsilon_charged, repr(r.value))
                for r in service.drain()
            ]

        assert replay(5) == replay(5)

    def test_concurrent_replay_accounting_is_exact(self):
        service = make_service(budget=100.0,
                               tenants=[TenantPolicy("a", 50.0, 1e-6),
                                        TenantPolicy("b", 50.0, 1e-6)])
        requests = [
            dict(tenant="a" if i % 2 else "b", source=COUNT,
                 categories=8, epsilon=1.0)
            for i in range(8)
        ]
        # Eight of the caller's own threads around ``submit``: the service
        # starts none, its admission locks are what keeps this exact.
        outcomes, start = {}, threading.Barrier(len(requests))

        def admit(index):
            start.wait(timeout=10)
            try:
                outcomes[index] = service.submit(**requests[index])
            except Exception as exc:  # surfaced below
                outcomes[index] = exc

        threads = [
            threading.Thread(target=admit, args=(i,)) for i in range(len(requests))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(not isinstance(o, Exception) for o in outcomes.values())
        assert sorted(t.submission.seq for t in outcomes.values()) == list(range(1, 9))
        assert all(r.outcome == "executed" for r in service.drain())
        assert not _judge(service)

    def test_rejected_submissions_charge_nothing(self):
        service = make_service(budget=2.5,
                               tenants=[TenantPolicy("a", 2.5, 1e-6)])
        admitted, refused = 0, 0
        for _ in range(4):
            try:
                service.submit("a", COUNT, categories=8, epsilon=1.0)
                admitted += 1
            except BudgetExhausted:
                refused += 1
        assert (admitted, refused) == (2, 2)
        service.drain()
        assert service.session.accountant.spent.epsilon == pytest.approx(2.0)
        assert not _judge(service)

    def test_statistics_block(self):
        service = make_service()
        service.submit("alice", COUNT, categories=8, epsilon=1.0)
        service.drain()
        stats = service.statistics.as_dict()
        for key in ("submitted", "admitted", "executed", "cache_misses",
                    "epsilon_charged", "dispatch_ticks"):
            assert key in stats
        assert stats["executed"] == 1


class TestFailureFamilies:
    """A typed planner or executor failure is a ``failed`` record; anything
    else propagates, with the hold settled and the ticket resolved first."""

    def test_a_typed_planner_failure_is_a_failed_record(self):
        service = make_service()
        ticket = service.submit("alice", "aggr = sum(db); output(nope(aggr));",
                                categories=8, epsilon=1.0)
        record = service.process_next()
        assert record.outcome == "failed" and ticket.done
        assert service.statistics.failed == 1
        assert service.admission.reserved.epsilon == 0.0
        assert not _judge(service)

    def test_a_planner_failure_still_counts_its_cache_miss(self):
        service = make_service()
        service.submit("alice", COUNT, categories=8, epsilon=1.0)
        service.submit("bob", "aggr = sum(db); output(nope(aggr));",
                       categories=8, epsilon=1.0)
        assert [r.outcome for r in service.drain()] == ["executed", "failed"]
        assert service.cache.statistics.misses == 2
        assert service.statistics.cache_misses == 2
        assert service.statistics.cache_hits == 0
        assert service.statistics.planner_invocations == 2

    @pytest.mark.parametrize(
        "field, named",
        [
            ({"row_encoding": "bogus"}, "unknown row encoding 'bogus'"),
            ({"value_range": (5, 1)}, r"value range \(5, 1\) is empty"),
            ({"categories": 0}, "categories 0 is not a positive integer"),
            ({"epsilon": 0.0}, "ε=0.0 is not positive"),
            ({"sensitivity": 0.0}, "sensitivity 0.0 is not positive"),
        ],
    )
    def test_a_malformed_field_is_refused_at_admission(self, field, named):
        service = make_service()
        with pytest.raises(AdmissionRejected, match=named):
            service.submit("alice", COUNT, **dict(dict(categories=8, epsilon=1.0), **field))
        ticket = service.submit("alice", COUNT, categories=8, epsilon=1.0)
        assert [r.outcome for r in service.drain()] == ["executed"] and ticket.done
        assert service.statistics.rejected_policy == 1
        assert not _judge(service)

    @pytest.mark.parametrize("charged", [False, True], ids=["before-charge", "after-charge"])
    def test_an_untyped_error_propagates_with_nothing_held(self, monkeypatch, charged):
        service = make_service()
        ticket = service.submit("alice", COUNT, categories=8, epsilon=1.0)

        def broken(planning, name, charge_label):
            if charged:
                service.session.accountant.charge(PrivacyCost(1.0, 0.0), charge_label)
            raise RuntimeError("a bug in the runtime")

        monkeypatch.setattr(service.session, "execute_planning", broken)
        with pytest.raises(RuntimeError, match="a bug in the runtime"):
            service.process_next()
        assert ticket.done and ticket.record().outcome == "failed"
        assert service.admission.reserved.epsilon == 0.0
        assert service.tenants.account("alice").reserved.epsilon == 0.0
        assert service.tenants.account("alice").spent.epsilon == (1.0 if charged else 0.0)
        assert not _judge(service)


# ------------------------------------------------------- session satellites


class TestSessionBudgetReport:
    def test_ask_raises_typed_budget_exhausted(self):
        session = make_session(budget=1.5)
        session.ask(COUNT, categories=8, epsilon=1.0, name="q1")
        with pytest.raises(BudgetExhausted):
            session.ask(COUNT, categories=8, epsilon=1.0, name="q2")
        # BudgetExhausted is still a QueryRejected for old callers.
        assert issubclass(BudgetExhausted, QueryRejected)

    def test_budget_report_structure(self):
        session = make_session(budget=10.0)
        session.ask(COUNT, categories=8, epsilon=1.0, name="q1")
        session.ask(COUNT, categories=8, epsilon=2.0, name="q2")
        report = session.budget_report()
        assert report.spent_epsilon == pytest.approx(3.0)
        assert report.remaining_epsilon == pytest.approx(7.0)
        lines = {line.label: line for line in report.by_label}
        assert lines["q1"].epsilon == pytest.approx(1.0)
        assert lines["q2"].epsilon == pytest.approx(2.0)
        as_dict = report.as_dict()
        assert as_dict["spent_epsilon"] == pytest.approx(3.0)
        assert [line["label"] for line in as_dict["by_label"]] == ["q1", "q2"]
