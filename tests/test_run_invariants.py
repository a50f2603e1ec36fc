"""The run-invariant catalog (``verify.invariants.RUN_INVARIANTS``).

Each ``run-*`` rule is one function over a run's observable state. Every
function must pass the honest input and flag one doctored the way the rule
forbids: a label charged twice, a tenant over its envelope, a stale
certificate, a twin one event or one value away, an unresolved fault
record, an untyped error or one that names nobody. The property tests run
under ``tests.conftest.FUZZ`` (long and random under ``make fuzz``).
"""

import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.faults import (
    COORDINATOR_CRASH,
    CRASH,
    PENDING,
    RECOVERED,
    TOLERATED,
    UNDETECTED,
    UNRECOVERABLE,
    EventLog,
    FaultEvent,
    FaultPlan,
    get_scenario,
)
from repro.planner.search import plan_query
from repro.privacy.accountant import PrivacyAccountant, PrivacyCost
from repro.runtime.executor import QueryResult
from repro.runtime.journal import JournalCorrupted
from repro.service import TenantPolicy, TenantRegistry
from repro.verify import invariants
from repro.verify.invariants import (
    RUN_INVARIANTS,
    run_budget_once,
    run_faults_resolved,
    run_release_certified,
    run_tamper_typed,
    run_tenant_envelope,
    run_twin_identical,
)
from tests.conftest import FUZZ, small_env

PURE_CRASH = FaultPlan(
    "crash", events=(FaultEvent(COORDINATOR_CRASH, "input", target="input/aggregated"),)
)
MEMBER_FAULT = FaultPlan("member", events=(FaultEvent(CRASH, "decrypt"),))


def _found(violations):
    return [(v.rule, v.subject, v.message) for v in violations]


def _result(outputs=(3,), events=("keygen", "done")):
    return QueryResult(
        outputs=list(outputs),
        rejected_devices=[],
        audits_failed=0,
        committees_used=4,
        epsilon_charged=1.0,
        events=list(events),
    )


class TestCatalog:
    def test_every_rule_is_one_function(self):
        for inv in RUN_INVARIANTS:
            assert inv.rule.startswith("run-")
            assert callable(getattr(invariants, inv.rule.replace("-", "_")))

    def test_protocol_table_lists_the_catalog(self):
        text = (Path(__file__).parent.parent / "docs" / "PROTOCOL.md").read_text()
        section = text.split("## What a run promises", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(run-[a-z-]+)` \|", section, flags=re.M)
        assert rows == [inv.rule for inv in RUN_INVARIANTS]


class TestSeededViolations:
    def test_a_label_charged_twice(self):
        accountant = PrivacyAccountant(epsilon_budget=10.0)
        accountant.charge(PrivacyCost(1.0), "q")
        assert run_budget_once(accountant, [("q", 1.0)]) == []
        accountant.charge(PrivacyCost(1.0), "q")
        assert _found(run_budget_once(accountant, [("q", 1.0), ("q", 1.0)])) == [
            ("run-budget-once", "q", "charged 2 times")
        ]

    def test_a_charge_off_its_certificate_or_past_the_budget(self):
        accountant = PrivacyAccountant(epsilon_budget=1.0)
        accountant.charge(PrivacyCost(1.0), "q")
        accountant.spent = PrivacyCost(4.0)
        found = _found(run_budget_once(accountant, [("q", 2.0), ("r", 1.0)]))
        assert [subject for _, subject, _ in found] == [
            "r", "q", "accountant", "accountant"
        ]
        assert "exceeds the global budget" in found[-1][2]

    def test_a_tenant_over_its_envelope(self):
        registry = TenantRegistry([TenantPolicy("alice", 2.0), TenantPolicy("bob", 2.0)])
        registry.account("alice").spent = PrivacyCost(1.5)
        assert run_tenant_envelope(registry) == []
        registry.account("alice").reserved = PrivacyCost(1.0)
        found = _found(run_tenant_envelope(registry))
        assert [subject for _, subject, _ in found] == ["alice"]

    def test_a_stale_certificate(self):
        planning = plan_query(
            "aggr = sum(db); output(em(aggr));", small_env(num_participants=16, epsilon=2.0)
        )
        assert run_release_certified(planning) == []
        certificate = planning.privacy_certificate
        planning.privacy_certificate = dataclasses.replace(
            certificate, claimed_epsilon=certificate.claimed_epsilon * 2
        )
        found = _found(run_release_certified(planning))
        assert found and "[df-certificate-stale]" in found[0][2]
        planning.privacy_certificate = certificate
        unbound = SimpleNamespace(authorization=None)
        assert _found(run_release_certified(planning, unbound))[0][1] == "authorization"

    def test_a_twin_one_event_or_one_value_away(self):
        twin = _result()
        assert run_twin_identical(_result(), twin, PURE_CRASH) == []
        one_event = _result(events=("keygen", "done", "resumed"))
        assert _found(run_twin_identical(one_event, twin, PURE_CRASH)) == [
            ("run-twin-identical", "QueryResult", "resumed QueryResult differs from baseline")
        ]
        assert run_twin_identical(one_event, twin, MEMBER_FAULT) == []
        other_value = _result(outputs=(4,))
        for schedule in (PURE_CRASH, MEMBER_FAULT, get_scenario("none")):
            found = run_twin_identical(other_value, twin, schedule)
            assert [v.subject for v in found] == ["outputs"]
        found = run_twin_identical(_result(), twin, PURE_CRASH, (["a", "b"], ["a", "c"]))
        assert [v.subject for v in found] == ["journal"]

    def test_no_comparison_when_inputs_are_mutated(self):
        schedule = get_scenario("garbage-upload")
        assert schedule.mutates_inputs
        assert run_twin_identical(_result(outputs=(4,)), _result(), schedule) == []

    def test_an_unresolved_fault_record(self):
        log = EventLog()
        record = log.record(FaultEvent(CRASH, "decrypt"), "round timeout", "failover")
        record.outcome = RECOVERED
        assert run_faults_resolved(log) == []
        log.record(FaultEvent(CRASH, "program"), "round timeout", PENDING)
        log.record(FaultEvent(CRASH, "keygen"), "round timeout", "failover", PENDING)
        found = run_faults_resolved(log)
        assert [v.subject for v in found] == ["crash @ program", "crash @ keygen"]

    def test_an_untyped_error_or_one_naming_nobody(self):
        typed = JournalCorrupted("journal 'j' record 2 fails the digest chain")
        assert run_tamper_typed(typed, "record 2") == []
        assert "does not name" in _found(run_tamper_typed(typed, "record 5"))[0][2]
        assert "untyped RuntimeError" in _found(
            run_tamper_typed(RuntimeError("record 2"), "record 2")
        )[0][2]
        assert "accepted" in _found(run_tamper_typed(None, "record 2"))[0][2]


LABELS = st.sampled_from(["a", "b", "c", "d"])
EPSILONS = st.sampled_from([0.25, 0.5, 1.0])
OUTCOMES = st.sampled_from([RECOVERED, TOLERATED, UNRECOVERABLE, UNDETECTED, PENDING])


class TestRunInvariantProperties:
    @FUZZ
    @given(st.lists(st.tuples(LABELS, EPSILONS), max_size=8))
    def test_budget_once_flags_exactly_the_repeated_labels(self, charges):
        accountant = PrivacyAccountant(epsilon_budget=100.0)
        for label, epsilon in charges:
            accountant.charge(PrivacyCost(epsilon), label)
        executed = list(dict(charges).items())
        labels = [label for label, _ in charges]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        found = run_budget_once(accountant, executed)
        assert sorted(v.subject for v in found if v.message.endswith(" times")) == repeated
        assert bool(found) == bool(repeated)

    @FUZZ
    @given(st.lists(st.tuples(OUTCOMES, st.sampled_from(["", PENDING, "failover"])), max_size=6))
    def test_faults_resolved_flags_each_unresolved_record(self, records):
        log = EventLog()
        for outcome, recovery in records:
            log.record(FaultEvent(CRASH, "decrypt"), "timeout", recovery, outcome)
        unresolved = [
            (outcome, recovery)
            for outcome, recovery in records
            if outcome not in (RECOVERED, TOLERATED) or recovery in ("", PENDING)
        ]
        assert len(run_faults_resolved(log)) == len(unresolved)

    @FUZZ
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
        st.lists(st.sampled_from(["keygen", "resumed", "done"]), max_size=3),
    )
    def test_twin_identical_compares_by_schedule(self, outputs, twin_outputs, events):
        run, twin = _result(outputs, events), _result(twin_outputs)
        assert bool(run_twin_identical(run, twin, PURE_CRASH)) == (run != twin)
        assert bool(run_twin_identical(run, twin, MEMBER_FAULT)) == (outputs != twin_outputs)
        assert run_twin_identical(run, twin, get_scenario("garbage-upload")) == []
