"""Durable execution journal and crash-recovery resume (runtime/journal.py).

The contract under test is the PR's headline guarantee, in the same
byte-identical methodology as the fault suite:

* killing the coordinator at **any** checkpoint and resuming from the
  journal yields a ``QueryResult`` (value, fault log, events, budget
  charged) equal to the uninterrupted run — full dataclass equality, not
  just the released value;
* the privacy accountant is debited exactly once per label no matter how
  many incarnations replay the keygen phase;
* a truncated or tampered journal is rejected on load with a typed
  error — never silently replayed.
"""

import argparse
import json
import random
import shutil

import pytest

from repro.cli import _chaos_manifest, _executor_from_manifest, main
from repro.faults import (
    COORDINATOR_CRASH,
    CoordinatorCrash,
    EventLog,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    UnrecoverableFault,
    get_scenario,
    list_scenarios,
)
from repro.planner.search import plan_query
from repro.privacy.accountant import BudgetExceeded, PrivacyAccountant, PrivacyCost
from repro.queries.catalog import get
from repro.runtime import FederatedNetwork, QueryExecutor
from repro.runtime.journal import (
    ExecutionJournal,
    JournalCorrupted,
    JournalDivergence,
    JournalError,
    JournalTruncated,
    canonical_json,
    payload_digest,
    run_to_completion,
)

SEED = 5


@pytest.fixture(scope="module")
def planning():
    spec = get("top1")
    env = spec.environment(32, categories=8, epsilon=8.0)
    return plan_query(spec.source, env, name=spec.name)


def _build(planning, plan, journal=None, accountant=None, seed=SEED):
    """The fault-suite deployment recipe, plus an optional journal."""
    net = FederatedNetwork(32, rng=random.Random(seed))
    net.load_categorical_data(8, distribution=[20, 4, 1, 1, 1, 1, 1, 1])
    return QueryExecutor(
        net,
        planning,
        committee_size=4,
        key_prime_bits=96,
        rng=random.Random(seed + 1),
        accountant=accountant,
        faults=FaultInjector(plan, seed=seed),
        journal=journal,
    )


def _with_input_crash(plan):
    """``plan`` plus one coordinator death at the end of the input phase."""
    return FaultPlan(
        plan.name + "-crashed",
        plan.description,
        events=plan.events
        + (FaultEvent(COORDINATOR_CRASH, "input", target="input/aggregated"),),
        expect_unrecoverable=plan.expect_unrecoverable,
        mutates_inputs=plan.mutates_inputs,
    )


# ------------------------------------------------------------ file format


class TestJournalFormat:
    def test_create_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {"recipe": "test", "seed": 5})
        journal.checkpoint({"seq": 0, "label": "a"})
        journal.charge("q", 1.0, 0.0)
        journal.record_result({"outputs_repr": "[1]"})
        loaded = ExecutionJournal.load(path)
        assert loaded.manifest == {"recipe": "test", "seed": 5}
        assert loaded.charges() == {"q": (1.0, 0.0)}
        assert loaded.completed and loaded.result == {"outputs_repr": "[1]"}
        assert loaded.record_count == 4
        assert loaded.tail_digest() == journal.tail_digest()

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2.5]}) == canonical_json(
            dict([("a", [2.5]), ("b", 1)])
        )
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})

    def test_records_are_digest_chained(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        before = journal.tail_digest()
        journal.checkpoint({"seq": 0, "label": "a"})
        assert journal.tail_digest() != before
        lines = (tmp_path / "run.journal").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["kind"] == "open"
        assert all(len(r["digest"]) == 64 for r in records)

    def test_torn_final_write_is_truncation(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        journal.checkpoint({"seq": 0, "label": "a"})
        raw = (tmp_path / "run.journal").read_text()
        (tmp_path / "run.journal").write_text(raw[:-10])
        with pytest.raises(JournalTruncated):
            ExecutionJournal.load(path)

    def test_missing_trailing_newline_is_truncation(self, tmp_path):
        path = str(tmp_path / "run.journal")
        ExecutionJournal.create(path, {})
        raw = (tmp_path / "run.journal").read_text()
        (tmp_path / "run.journal").write_text(raw.rstrip("\n"))
        with pytest.raises(JournalTruncated):
            ExecutionJournal.load(path)

    def test_empty_file_is_truncation(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_text("")
        with pytest.raises(JournalTruncated):
            ExecutionJournal.load(str(path))

    def test_tampered_payload_is_corruption(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        journal.charge("q", 1.0, 0.0)
        raw = (tmp_path / "run.journal").read_text()
        (tmp_path / "run.journal").write_text(raw.replace('"epsilon":1.0', '"epsilon":9.0'))
        with pytest.raises(JournalCorrupted):
            ExecutionJournal.load(path)

    def test_dropped_record_is_corruption(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        journal.checkpoint({"seq": 0, "label": "a"})
        journal.checkpoint({"seq": 1, "label": "b"})
        lines = (tmp_path / "run.journal").read_text().splitlines()
        (tmp_path / "run.journal").write_text("\n".join([lines[0], lines[2]]) + "\n")
        with pytest.raises(JournalCorrupted):
            ExecutionJournal.load(path)

    def test_record_boundary_truncation_is_a_valid_prefix(self, tmp_path):
        # WAL property: chopping whole trailing records leaves an intact,
        # resumable journal (that is exactly what a crash leaves behind).
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {"recipe": "test"})
        journal.checkpoint({"seq": 0, "label": "a"})
        journal.checkpoint({"seq": 1, "label": "b"})
        lines = (tmp_path / "run.journal").read_text().splitlines()
        (tmp_path / "run.journal").write_text("\n".join(lines[:2]) + "\n")
        loaded = ExecutionJournal.load(path)
        assert loaded.record_count == 2
        assert loaded.replaying

    def test_error_types_are_a_hierarchy(self):
        assert issubclass(JournalTruncated, JournalCorrupted)
        assert issubclass(JournalCorrupted, JournalError)
        assert issubclass(JournalDivergence, JournalError)

    def test_replay_verifies_then_appends(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        journal.checkpoint({"seq": 0, "label": "a"})
        loaded = ExecutionJournal.load(path)
        assert loaded.replaying
        assert loaded.checkpoint({"seq": 0, "label": "a"}) is True
        assert not loaded.replaying
        assert loaded.checkpoint({"seq": 1, "label": "b"}) is False
        with pytest.raises(JournalDivergence):
            ExecutionJournal.load(path).checkpoint({"seq": 0, "label": "WRONG"})

    def test_consume_crash_absorbs_one_death_each(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        journal.record_crash(3, "allocate/x", {"kind": "coordinator-crash"})
        loaded = ExecutionJournal.load(path)
        assert loaded.crash_count == 1
        assert loaded.consume_crash(3, "allocate/x") is True
        assert loaded.consume_crash(3, "allocate/x") is False
        assert loaded.consume_crash(4, "allocate/x") is False


# -------------------------------------------------- crash→resume headline


class TestCrashResume:
    @pytest.fixture(scope="class")
    def baseline(self, planning):
        return _build(planning, get_scenario("none")).run()

    def test_crash_at_every_checkpoint_resumes_bit_identically(
        self, planning, baseline, tmp_path
    ):
        # Enumerate the checkpoints from an uninterrupted journaled run,
        # then kill the coordinator at each one in turn.
        base_path = str(tmp_path / "baseline.journal")
        base_result, resumes = run_to_completion(
            lambda j: _build(planning, get_scenario("none"), journal=j), base_path
        )
        assert resumes == 0 and base_result == baseline
        base_journal = ExecutionJournal.load(base_path)
        payloads = base_journal.checkpoint_payloads()
        assert len(payloads) >= 5
        for payload in payloads:
            seq = payload["seq"]
            plan = FaultPlan(
                "crash",
                events=(
                    FaultEvent(COORDINATOR_CRASH, payload["phase"], target=seq),
                ),
            )
            path = str(tmp_path / f"crash{seq}.journal")
            result, resumes = run_to_completion(
                lambda j: _build(planning, plan, journal=j), path
            )
            assert resumes == 1, f"checkpoint {seq}"
            assert result == baseline, f"checkpoint {seq}"
            crashed = ExecutionJournal.load(path)
            assert crashed.checkpoint_digests() == base_journal.checkpoint_digests()
            assert crashed.crash_count == 1 and crashed.completed

    @pytest.mark.parametrize(
        "name",
        [
            "coordinator-crash-keygen",
            "coordinator-crash-input",
            "coordinator-crash-program",
            "coordinator-crash-double",
        ],
    )
    def test_pure_crash_scenarios_match_fault_free_baseline(
        self, planning, baseline, tmp_path, name
    ):
        plan = get_scenario(name)
        result, resumes = run_to_completion(
            lambda j: _build(planning, plan, journal=j),
            str(tmp_path / "run.journal"),
        )
        assert resumes == len(plan.events)
        assert result == baseline
        assert result.statistics.resume_events == len(plan.events)

    def test_every_member_fault_scenario_survives_a_crash_on_top(
        self, planning, tmp_path
    ):
        # Headline sweep: each pre-existing scenario, plus one coordinator
        # death at the end of the input phase, must resume to a result
        # equal to that scenario's own uninterrupted run.
        for plan in list_scenarios():
            if plan.crashes_coordinator:
                continue  # covered above / below
            crashed = _with_input_crash(plan)
            path = str(tmp_path / f"{plan.name}.journal")
            if plan.expect_unrecoverable:
                with pytest.raises(UnrecoverableFault) as uninterrupted:
                    _build(planning, plan).run()
                with pytest.raises(UnrecoverableFault) as resumed:
                    run_to_completion(
                        lambda j: _build(planning, crashed, journal=j), path
                    )
                assert resumed.value.reason == uninterrupted.value.reason
                continue
            uninterrupted = _build(planning, plan).run()
            result, resumes = run_to_completion(
                lambda j: _build(planning, crashed, journal=j), path
            )
            assert resumes == 1, plan.name
            assert result == uninterrupted, plan.name

    def test_crash_amid_churn_matches_member_only_run(self, planning, tmp_path):
        plan = get_scenario("crash-amid-churn")
        member_only = FaultPlan(
            "members",
            events=tuple(
                e for e in plan.events if e.kind != COORDINATOR_CRASH
            ),
        )
        uninterrupted = _build(planning, member_only).run()
        result, resumes = run_to_completion(
            lambda j: _build(planning, plan, journal=j),
            str(tmp_path / "run.journal"),
        )
        assert resumes == 1
        assert result == uninterrupted

    def test_journal_presence_does_not_perturb_results(self, planning, tmp_path):
        # A journaled fault-free run equals the journal-less run exactly.
        plain = _build(planning, get_scenario("keygen-loss")).run()
        journal = ExecutionJournal.create(str(tmp_path / "run.journal"), {})
        journaled = _build(
            planning, get_scenario("keygen-loss"), journal=journal
        ).run()
        assert journaled == plain
        assert journaled.statistics.journal_records > 0
        assert journal.completed

    def test_resume_with_wrong_seed_diverges(self, planning, tmp_path):
        path = str(tmp_path / "run.journal")
        plan = get_scenario("coordinator-crash-input")
        journal = ExecutionJournal.create(path, {})
        with pytest.raises(CoordinatorCrash):
            _build(planning, plan, journal=journal).run()
        with pytest.raises(JournalDivergence):
            _build(
                planning, plan, journal=ExecutionJournal.load(path), seed=SEED + 7
            ).run()

    def test_completed_journal_refuses_to_re_execute(self, planning, tmp_path):
        path = str(tmp_path / "run.journal")
        run_to_completion(
            lambda j: _build(planning, get_scenario("none"), journal=j), path
        )
        with pytest.raises(JournalError, match="refusing to re-execute"):
            _build(
                planning, get_scenario("none"), journal=ExecutionJournal.load(path)
            ).run()

    def test_statistics_count_journal_activity(self, planning, tmp_path):
        path = str(tmp_path / "run.journal")
        result, resumes = run_to_completion(
            lambda j: _build(
                planning, get_scenario("coordinator-crash-program"), journal=j
            ),
            path,
        )
        stats = result.statistics
        assert resumes == 1
        assert stats.checkpoints >= 5
        assert stats.journal_replayed >= 1  # verified against incarnation 1
        assert stats.journal_records >= 1  # appended past the death point
        assert stats.resume_events == 1


# -------------------------------------------------------- budget accounting


class TestChargeOnce:
    def test_charge_once_debits_a_label_exactly_once(self):
        accountant = PrivacyAccountant(epsilon_budget=10.0)
        assert accountant.charge_once(PrivacyCost(4.0), "q") is True
        assert accountant.charge_once(PrivacyCost(4.0), "q") is False
        assert accountant.spent.epsilon == 4.0
        assert len(accountant.history) == 1
        assert accountant.charged("q") and not accountant.charged("other")

    def test_failed_charge_leaves_spent_untouched(self):
        accountant = PrivacyAccountant(epsilon_budget=3.0)
        accountant.charge(PrivacyCost(2.0), "first")
        with pytest.raises(BudgetExceeded):
            accountant.charge(PrivacyCost(2.0), "second")
        with pytest.raises(BudgetExceeded):
            accountant.charge_once(PrivacyCost(2.0), "second")
        assert accountant.spent.epsilon == 2.0
        assert len(accountant.history) == 1

    @pytest.mark.parametrize(
        "scenario", ["coordinator-crash-keygen", "coordinator-crash-input"]
    )
    def test_crash_before_and_after_charge_debits_once(
        self, planning, tmp_path, scenario
    ):
        # keygen: death *before* the charge; input: death *after*. Either
        # way every incarnation gets a fresh accountant rebuilt from the
        # journal ledger, and the final spend is one query's worth.
        accountants = []

        def make(journal):
            accountants.append(
                PrivacyAccountant(epsilon_budget=100.0, delta_budget=1e-6)
            )
            return _build(
                planning,
                get_scenario(scenario),
                journal=journal,
                accountant=accountants[-1],
            )

        result, resumes = run_to_completion(
            make, str(tmp_path / "run.journal")
        )
        assert resumes == 1 and len(accountants) == 2
        final = accountants[-1]
        assert final.spent.epsilon == planning.certificate.epsilon
        assert len(final.history) == 1
        assert result.epsilon_charged == planning.certificate.epsilon

    def test_shared_accountant_across_incarnations_debits_once(
        self, planning, tmp_path
    ):
        # An in-process restart reuses the live accountant; charge_once
        # plus the journal ledger must still debit exactly once.
        accountant = PrivacyAccountant(epsilon_budget=100.0, delta_budget=1e-6)
        run_to_completion(
            lambda j: _build(
                planning,
                get_scenario("coordinator-crash-input"),
                journal=j,
                accountant=accountant,
            ),
            str(tmp_path / "run.journal"),
        )
        assert accountant.spent.epsilon == planning.certificate.epsilon
        assert len(accountant.history) == 1

    def test_journal_charge_record_precedes_the_debit(self, tmp_path):
        # Write-ahead ordering, observable at the journal level: the
        # charge lands in the ledger even if the process dies immediately
        # after, so a resumed incarnation can restore it.
        path = str(tmp_path / "run.journal")
        journal = ExecutionJournal.create(path, {})
        journal.charge("top1", 8.0, 0.0)
        assert ExecutionJournal.load(path).charges() == {"top1": (8.0, 0.0)}


# ------------------------------------------------------------- serialization


class TestEventExport:
    def test_event_log_as_dict_and_canonical_json(self):
        log = EventLog()
        event = FaultEvent(COORDINATOR_CRASH, "input", target="input/aggregated")
        log.record(event, "injected for test", "resumed", outcome="recovered")
        data = log.as_dict()
        assert data["records"][0]["fault"]["kind"] == COORDINATOR_CRASH
        assert data["records"][0]["outcome"] == "recovered"
        parsed = json.loads(log.to_json())
        assert parsed == json.loads(canonical_json(data))

    def test_fault_event_dict_roundtrip(self):
        event = FaultEvent("dropout", "decrypt", target=(5, 6), delay=1.5)
        clone = FaultEvent.from_dict(event.as_dict())
        assert clone == event

    def test_fault_plan_dict_roundtrip(self):
        plan = get_scenario("crash-amid-churn")
        clone = FaultPlan.from_dict(plan.as_dict())
        assert clone.name == plan.name
        assert clone.events == plan.events
        assert clone.crashes_coordinator


# ------------------------------------------------------- network satellites


class TestNetworkSatellites:
    def test_unknown_device_id_raises_keyerror_with_range(self):
        net = FederatedNetwork(8, seed=3)
        with pytest.raises(KeyError, match=r"unknown device id 0; .*1\.\.8"):
            net.device(0)
        with pytest.raises(KeyError, match="unknown device id 9"):
            net.device(9)
        with pytest.raises(KeyError, match="unknown device id -1"):
            net.device(-1)
        assert net.device(8).device_id == 8

    def test_seed_parameter_still_reproducible(self):
        a = FederatedNetwork(8, seed=3)
        b = FederatedNetwork(8, seed=3)
        assert a.device_ids == b.device_ids
        assert a.sortition.block == b.sortition.block


# ----------------------------------------------------------------- CLI


class TestCli:
    def test_run_journal_then_resume_completed(self, tmp_path, capsys):
        path = str(tmp_path / "run.journal")
        assert main(
            ["run", "top1", "--devices", "32", "--journal", path]
        ) == 0
        out = capsys.readouterr().out
        assert "journal:" in out and "record(s)" in out
        assert main(["resume", path]) == 0
        out = capsys.readouterr().out
        assert "already complete" in out
        assert "output(s):" in out

    def test_resume_rejects_corrupt_journal(self, tmp_path, capsys):
        path = tmp_path / "run.journal"
        journal = ExecutionJournal.create(str(path), {"recipe": "run"})
        journal.charge("q", 1.0, 0.0)
        path.write_text(path.read_text()[:-5])
        assert main(["resume", str(path)]) == 1
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_requires_a_manifest(self, tmp_path, capsys):
        path = str(tmp_path / "run.journal")
        ExecutionJournal.create(path, {})
        assert main(["resume", path]) == 1
        assert "no run manifest" in capsys.readouterr().err

    def test_chaos_crash_scenario_via_cli(self, capsys):
        assert main(
            ["chaos", "--scenario", "coordinator-crash-input", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "1/1 scenario(s) ok" in out
        assert "coordinator resume(s)" in out

    def test_chaos_json_output(self, capsys):
        assert main(
            ["chaos", "--scenario", "coordinator-crash-keygen", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["failures"] == 0
        report = data["scenarios"][0]
        assert report["scenario"] == "coordinator-crash-keygen"
        assert report["resumes"] == 1
        assert report["verdict"].startswith("ok")
        assert report["fault_log"] == {
            "records": [],
            "notes": [],
            "retries": 0,
            "waited_seconds": 0.0,
        }


# ------------------------------------------- journals of a removed plane


def _crashing_manifest(plan=None, **extra):
    """A chaos manifest as ``repro chaos`` writes it, dying mid-intake."""
    args = argparse.Namespace(
        devices=32, categories=8, epsilon=4.0, committee_size=4, seed=7,
        shard_size=8, tree_fanout=2,
    )
    manifest = _chaos_manifest(args, plan or get_scenario("coordinator-crash-input"))
    manifest.update(extra)
    return manifest


class TestRemovedPlaneJournals:
    """``repro resume`` fails closed on a journal whose RNG schedule is gone."""

    @pytest.mark.parametrize(
        "doctor, plane",
        [
            (lambda m: m.update(data_plane="vectorized"), "vectorized"),
            (lambda m: m.update(data_plane="legacy"), "legacy"),
            # Written before the sharded plane existed: neither key, ran the
            # then-default flat plane.
            (
                lambda m: [m.pop(k) for k in ("shard_size", "tree_fanout")],
                "vectorized",
            ),
        ],
        ids=["vectorized", "legacy", "absent-keys"],
    )
    def test_resume_refuses_and_leaves_the_journal_alone(
        self, doctor, plane, tmp_path, capsys
    ):
        manifest = _crashing_manifest()
        doctor(manifest)
        path = tmp_path / "old.journal"
        journal = ExecutionJournal.create(str(path), manifest)
        journal.charge("chaos", 4.0, 0.0)
        before = path.read_bytes()
        with pytest.raises(JournalError, match=f"'{plane}' data plane"):
            _executor_from_manifest(manifest, ExecutionJournal.load(str(path)))
        assert main(["resume", str(path)]) == 1
        captured = capsys.readouterr()
        assert "cannot resume" in captured.err and repr(plane) in captured.err
        assert "resuming" not in captured.out
        assert path.read_bytes() == before

    def test_completed_journal_of_a_removed_plane_still_prints(self, tmp_path, capsys):
        path = str(tmp_path / "done.journal")
        journal = ExecutionJournal.create(path, _crashing_manifest(data_plane="legacy"))
        journal.record_result(
            {"outputs_repr": "[3]", "epsilon_charged": 4.0, "events": ["done"]}
        )
        assert main(["resume", path]) == 0
        assert "output(s): [3]" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [{}, {"data_plane": "sharded"}], ids=["this-version", "parent"])
    def test_sharded_manifests_resume(self, extra, tmp_path, capsys):
        manifest = _crashing_manifest(**extra)
        assert ("data_plane" in manifest) == bool(extra)
        path = str(tmp_path / "crashed.journal")
        journal = ExecutionJournal.create(path, manifest)
        with pytest.raises(CoordinatorCrash):
            _executor_from_manifest(manifest, journal).run()
        assert main(["resume", path]) == 0
        out = capsys.readouterr().out
        assert "6 checkpoint(s) replay-verified, 1 crash(es) stepped over" in out
        assert ExecutionJournal.load(path).completed

    def test_a_manifest_naming_the_removed_worker_count_resumes_bit_identically(
        self, tmp_path, capsys
    ):
        # PRs 16-21 wrote ``shard_workers`` into every manifest. Every count
        # released the serial drain's bytes, so the key is ignored on resume.
        base_manifest = _crashing_manifest(get_scenario("none"))
        assert "shard_workers" not in base_manifest
        base_path = str(tmp_path / "uncrashed.journal")
        baseline = _executor_from_manifest(
            base_manifest, ExecutionJournal.create(base_path, base_manifest)
        ).run()
        plan = FaultPlan(
            "crash-at-shard",
            "coordinator dies mid-intake, at the third shard checkpoint",
            events=(FaultEvent(COORDINATOR_CRASH, "input", target="input/shard2"),),
        )
        manifest = _crashing_manifest(plan, shard_workers=2)
        path = str(tmp_path / "pr21.journal")
        with pytest.raises(CoordinatorCrash):
            _executor_from_manifest(
                manifest, ExecutionJournal.create(path, manifest)
            ).run()
        library_path = str(tmp_path / "pr21-library.journal")
        shutil.copyfile(path, library_path)

        assert main(["resume", path]) == 0
        assert "1 crash(es) stepped over" in capsys.readouterr().out
        resumed, uncrashed = ExecutionJournal.load(path), ExecutionJournal.load(base_path)
        assert resumed.manifest["shard_workers"] == 2
        assert resumed.completed and resumed.crash_count == 1
        assert resumed.checkpoint_digests() == uncrashed.checkpoint_digests()
        assert resumed.result == uncrashed.result
        # The same replay through the library hands back the QueryResult.
        journal = ExecutionJournal.load(library_path)
        assert _executor_from_manifest(journal.manifest, journal).run() == baseline
