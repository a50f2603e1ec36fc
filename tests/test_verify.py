"""Tests for the static plan verifier, the plan gate and the source lint.

The mutation tests each corrupt one aspect of a known-good plan and assert
that the matching invariant fires with a diagnostic naming the guilty
op/vignette — the verifier's job is not just "fail" but "say what broke
and where". Each also pins which ERROR rules the dataflow pass fires on
the same mutant and that :func:`repro.verify.gate` refuses it with a node
path: one half of the rule × mutant matrix (ARCHITECTURE §30);
``tests/test_dataflow.py`` holds the other.
"""

import copy
import dataclasses
import random

import pytest

from repro import (
    FederatedNetwork,
    PlanVerificationError,
    Planner,
    QueryEnvironment,
    QueryExecutor,
)
from repro.cli import main
from repro.lang.ast import Assign, Var
from repro.planner.costmodel import SchemeParams, Work, fhe_params_for
from repro.planner.expand import Choice, TREE_FANOUTS
from repro.planner.ir import NoiseOutput, Output
from repro.planner.plan import Location, Vignette
from repro.privacy.accountant import PrivacyCost
from repro.queries.catalog import ALL_QUERIES, get
from repro.verify import (
    INVARIANTS,
    VerificationReport,
    Violation,
    analyze_planning_result,
    dataflow,
    gate,
    lint_paths,
    verify_plan,
    verify_planning_result,
)
from repro.verify.invariants import INVARIANTS_BY_RULE

EM_SOURCE = "aggr = sum(db);\nresult = em(aggr);\noutput(result);"
LAPLACE_SOURCE = (
    "aggr = sum(db);\nresult = laplace(aggr[0], sens / epsilon);\noutput(result);"
)


def small_env() -> QueryEnvironment:
    return QueryEnvironment(num_participants=10**6, row_width=64, epsilon=1.0)


def plan_em():
    return Planner(small_env()).plan_source(EM_SOURCE, "em-query")


def plan_laplace():
    return Planner(small_env()).plan_source(LAPLACE_SOURCE, "laplace-query")


def failing_rules(report: VerificationReport):
    return {v.rule for v in report.violations}


def violation_for(report: VerificationReport, rule: str) -> Violation:
    matches = [v for v in report.violations if v.rule == rule]
    assert matches, (
        f"expected a {rule!r} violation, got: "
        + "; ".join(str(v) for v in report.violations)
    )
    return matches[0]


def error_sites(report: VerificationReport):
    return {(v.rule, v.location) for v in report.errors}


def caught(result, rule: str, dataflow_sites=frozenset()) -> Violation:
    """One matrix row: the plan checker flags ``rule``, the dataflow pass
    fires exactly ``dataflow_sites`` (rule, node path), and the gate refuses
    the plan with a node path on every error."""
    v = violation_for(verify_planning_result(result), rule)
    assert error_sites(analyze_planning_result(result)[0]) == set(dataflow_sites)
    with pytest.raises(PlanVerificationError) as excinfo:
        gate(result)
    assert all(e.location for e in excinfo.value.report.errors)
    return v


class TestCleanPlans:
    def test_em_plan_verifies_clean(self):
        report = verify_planning_result(plan_em())
        assert report.ok
        assert not report.violations
        # Every catalogued invariant ran.
        assert len(report.checked_rules) == len(INVARIANTS)

    def test_all_catalog_queries_verify_clean_at_paper_scale(self):
        from repro.eval.experiments import plan_paper_query

        for spec in ALL_QUERIES:
            result = plan_paper_query(spec)
            report = verify_planning_result(result)
            assert report.ok, f"{spec.name} failed verification:\n{report.format()}"


class TestMutationDetection:
    """Each test injects one defect and asserts the matching rule fires
    with a diagnostic naming the corrupted op/vignette."""

    def test_undefined_variable_in_post_block(self):
        result = plan_em()
        result.logical_plan.post_statements.append(
            Assign("bogus", Var("ghost", line=9), line=9)
        )
        v = caught(result, "ssa-def-before-use")
        assert "'ghost'" in v.message
        assert "line 9" in v.subject

    def test_dropped_noise_op_leaves_unnoised_output(self):
        result = plan_laplace()
        result.logical_plan.ops = [
            op for op in result.logical_plan.ops if not isinstance(op, NoiseOutput)
        ]
        v = caught(
            result, "dp-noise-dominates-output", {("df-budget-interval", "ops")}
        )
        assert "output" in v.subject
        assert "un-noised" in v.message

    def test_output_moved_ahead_of_noise(self):
        # Only the rule's IR half sees this: the choice list is re-keyed to
        # the new op order, so choice-legal passes, and the post-aggregate
        # statements (all dataflow reads) still noise before they release.
        result = plan_laplace()
        ops = result.logical_plan.ops
        noise = next(i for i, op in enumerate(ops) if isinstance(op, NoiseOutput))
        output = next(i for i, op in enumerate(ops) if isinstance(op, Output))
        ops.insert(noise, ops.pop(output))
        by_op = {c.key.split("[")[0]: c for c in result.plan.choice_list}
        result.plan.choice_list[:] = [
            dataclasses.replace(by_op[op.name], key=f"{op.name}[{i}]")
            for i, op in enumerate(ops)
        ]
        v = caught(result, "dp-noise-dominates-output")
        assert failing_rules(verify_planning_result(result)) == {
            "dp-noise-dominates-output"
        }
        assert v.subject == f"output[{noise}]"

    def test_publish_vignette_moved_first(self):
        # Only the rule's vignette half sees this.
        result = plan_laplace()
        vignettes = result.plan.vignettes
        publish = next(i for i, v in enumerate(vignettes) if v.name == "publish")
        vignettes.insert(0, vignettes.pop(publish))
        v = caught(result, "dp-noise-dominates-output")
        assert failing_rules(verify_planning_result(result)) == {
            "dp-noise-dominates-output"
        }
        assert v.subject == "vignette 'publish'"

    @pytest.mark.parametrize(
        "plan, swapped", [(plan_laplace, "em"), (plan_em, "laplace")],
        ids=["laplace-to-em", "em-to-laplace"],
    )
    def test_recorded_mechanism_kind_swapped(self, plan, swapped):
        # The plan checker no longer compares kinds: the dataflow pass's
        # one-for-one comparison of recorded and derived uses catches it.
        result = plan()
        result.certificate.mechanisms = [
            dataclasses.replace(use, mechanism=swapped)
            for use in result.certificate.mechanisms
        ]
        assert verify_planning_result(result).ok
        report, certificate = analyze_planning_result(result)
        assert certificate is None
        assert error_sites(report) == {("df-budget-interval", "post[0]:line 2")}
        with pytest.raises(PlanVerificationError):
            gate(result)

    def test_decrypt_moved_to_aggregator(self):
        result = plan_laplace()
        decrypt = next(v for v in result.plan.vignettes if v.name == "decrypt")
        assert decrypt.work.dist_decryptions > 0
        decrypt.location = Location.AGGREGATOR
        v = caught(result, "enc-decrypt-in-committee")
        assert "'decrypt'" in v.subject
        assert "aggregator" in v.message

    def test_mechanism_vignette_in_the_clear(self):
        result = plan_laplace()
        agg = next(v for v in result.plan.vignettes if v.name == "aggregate")
        agg.crypto = "clear"
        v = caught(result, "enc-no-clear-secrets")
        assert "'aggregate'" in v.subject

    def test_multiplicative_work_under_ahe(self):
        result = plan_laplace()
        assert result.plan.scheme.name == "ahe"
        agg = next(v for v in result.plan.vignettes if v.name == "aggregate")
        agg.work = dataclasses.replace(agg.work, he_ct_mults=4.0)
        v = caught(result, "enc-ahe-depth")
        assert "'aggregate'" in v.subject
        assert "AHE" in v.message

    @pytest.mark.parametrize(
        "scheme, fragment",
        [
            (SchemeParams("ahe", 11, 50), "50-bit modulus cannot even hold"),
            (SchemeParams("fhe", 13, 335), "ring degree 2^13 is insecure"),
            (SchemeParams("fhe", 15, 900), "covers a 900-bit modulus"),
        ],
        ids=["modulus-below-depth0", "ring-below-table", "modulus-past-table"],
    )
    def test_scheme_outside_the_parameter_model(self, scheme, fragment):
        result = plan_laplace()
        result.plan.scheme = scheme
        v = caught(result, "enc-bgv-budget")
        assert v.subject == "scheme"
        assert fragment in v.message

    @pytest.mark.parametrize(
        "modulus_bits, levels", [(135, 2), (182, 2), (183, 3), (335, 5)]
    )
    def test_ciphertext_products_need_three_levels(self, modulus_bits, levels):
        # 135 bits is §6's typical modulus; 182 and 183 bits pin the levels
        # model's boundary; 335 bits, the planner's own depth-6 modulus, is
        # the control.
        result = plan_laplace()
        result.plan.scheme = SchemeParams("fhe", 15, modulus_bits)
        agg = next(v for v in result.plan.vignettes if v.name == "aggregate")
        agg.work = dataclasses.replace(agg.work, he_ct_mults=1.0)
        if levels < 3:
            v = caught(result, "enc-bgv-budget")
            assert v.subject == "vignette 'aggregate'"
            assert f"supports {levels} BGV level(s)" in v.message
        else:
            assert "enc-bgv-budget" not in failing_rules(
                verify_planning_result(result)
            )

    def test_tampered_certificate_epsilon(self):
        result = plan_laplace()
        cost = result.certificate.cost
        result.certificate.cost = PrivacyCost(cost.epsilon * 2, cost.delta)
        v = caught(result, "dp-epsilon-matches")
        assert "certificate" in v.subject
        assert "mechanism" in v.message

    def test_understaffed_committee_breaks_tail_bound(self):
        result = plan_laplace()
        params = result.plan.committee_params
        result.plan.score.committee_params = dataclasses.replace(
            params, committee_size=1
        )
        v = caught(result, "com-tail-bound")
        assert "m=1" in v.message
        assert "binomial tail" in v.message

    def test_committee_count_undercounts_plan(self):
        result = plan_laplace()
        params = result.plan.committee_params
        result.plan.score.committee_params = dataclasses.replace(
            params, num_committees=0
        )
        v = caught(result, "com-count-covers-plan")
        assert "sized for 0 committees" in v.message

    def test_scheme_swap_detected(self):
        result = plan_laplace()
        assert result.plan.scheme.name == "ahe"
        result.plan.scheme = fhe_params_for(64, depth=6)
        v = caught(result, "ty-scheme-consistent")
        assert "fhe" in v.message and "ahe" in v.message

    @pytest.mark.parametrize("bins, ring", [(4, 17), (32, 20)])
    def test_bin_count_swap_detected(self, bins, ring):
        # The §6 half of the rule: at 10^5 secrecy runs its em in FHE over
        # 2^15 categories × 2 bins; another legal bin count re-derives a
        # wider ring than the plan carries.
        spec = get("secrecy")
        result = Planner(spec.environment(10**5)).plan_source(spec.source, spec.name)
        assert result.plan.scheme.ring_log2 == 16
        choices = result.plan.choice_list
        victim = next(i for i, c in enumerate(choices) if c.key.startswith("input"))
        assert choices[victim].label() == "binned_upload[2]"
        choices[victim] = Choice(choices[victim].key, "binned_upload", (bins,))
        v = caught(result, "ty-scheme-consistent")
        assert v.subject == "scheme"
        assert f"re-derive to fhe (ring 2^{ring}," in v.message

    def test_aggregator_he_after_decryption_committee(self):
        result = plan_laplace()
        names = [v.name for v in result.plan.vignettes]
        idx = names.index("decrypt")
        result.plan.vignettes.insert(
            idx + 1,
            Vignette("transform", Location.AGGREGATOR, "ahe", Work()),
        )
        v = caught(result, "enc-no-he-after-share")
        assert "'transform'" in v.subject
        assert "sharings" in v.message

    def test_duplicate_keygen_committee(self):
        result = plan_laplace()
        keygen = next(v for v in result.plan.vignettes if v.name == "keygen")
        result.plan.vignettes.append(copy.deepcopy(keygen))
        v = caught(result, "com-keygen-unique")
        assert "2 keygen vignettes" in v.message

    def test_fanin_beyond_committee_capacity(self):
        result = plan_laplace()
        choices = result.plan.choice_list
        victim = next(i for i, c in enumerate(choices) if c.key.startswith("aggregate"))
        choices[victim] = Choice(
            choices[victim].key, "committee_tree", (max(TREE_FANOUTS) * 2,)
        )
        v = caught(result, "com-fanin-capacity")
        assert str(max(TREE_FANOUTS) * 2) in v.message

    def test_each_mutation_rule_is_catalogued(self):
        # Diagnostics always carry a paper reference via the catalog.
        for rule, inv in INVARIANTS_BY_RULE.items():
            assert inv.paper_ref, rule


class TestWiring:
    def test_planner_verify_flag_runs_clean(self):
        # Planning always passes the gate: there is no flag to turn it off.
        result = Planner(small_env()).plan_source(LAPLACE_SOURCE, "laplace-query")
        assert result.succeeded
        assert result.verification.ok
        assert "df-budget-interval" in result.verification.checked_rules
        with pytest.raises(TypeError, match="verify"):
            Planner(small_env(), verify=False)

    def test_planner_refuses_a_dirty_post_condition(self, monkeypatch):
        analyze = dataflow.analyze_planning_result

        def dirty(planning):
            report, certificate = analyze(planning)
            report.add("df-taint-release", "probe", "seeded", node_path="post[0]")
            return report, None

        monkeypatch.setattr(dataflow, "analyze_planning_result", dirty)
        with pytest.raises(PlanVerificationError) as excinfo:
            plan_laplace()
        assert failing_rules(excinfo.value.report) == {"df-taint-release"}

    def test_executor_gate_rejects_tampered_planning(self):
        result = plan_laplace()
        cost = result.certificate.cost
        result.certificate.cost = PrivacyCost(cost.epsilon * 2, cost.delta)
        network = FederatedNetwork(8, rng=random.Random(0))
        executor = QueryExecutor(network, result, rng=random.Random(0))
        with pytest.raises(PlanVerificationError) as excinfo:
            executor.run()
        assert not excinfo.value.report.ok
        assert "dp-epsilon-matches" in failing_rules(excinfo.value.report)

    @pytest.mark.parametrize(
        "keyword, value",
        [("verify_plan", False), ("max_phase_retries", 0)],
        ids=["verify_plan", "max_phase_retries"],
    )
    def test_executor_gate_and_retry_budget_are_not_options(self, keyword, value):
        # The gate always runs (it fails closed) and the retry budget is
        # MAX_PHASE_RETRIES: neither can be changed from the constructor.
        network = FederatedNetwork(8, rng=random.Random(0))
        with pytest.raises(TypeError, match=keyword):
            QueryExecutor(network, plan_laplace(), rng=random.Random(0), **{keyword: value})

    def test_verify_plan_entry_point_matches_result_fields(self):
        result = plan_laplace()
        direct = verify_plan(
            result.plan, result.logical_plan, result.certificate
        )
        wrapped = verify_planning_result(result)
        assert direct.ok and wrapped.ok
        assert direct.checked_rules == wrapped.checked_rules


class TestCli:
    def test_verify_plan_command_clean(self, capsys):
        code = main(
            ["verify-plan", "cms", "--participants", "1000000", "--categories", "1"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_command_clean_on_src(self, capsys):
        code = main(["lint", "src/repro"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_command_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import math\n")
        code = main(["lint", str(bad)])
        assert code == 1
        assert "no-unused-imports" in capsys.readouterr().out


class TestSourceLint:
    def test_repro_sources_are_clean(self):
        report = lint_paths(["src/repro"])
        assert report.ok, report.format()

    def test_private_state_access_flagged(self, tmp_path):
        bad = tmp_path / "runtime" / "probe.py"
        bad.parent.mkdir()
        bad.write_text("def peek(ct):\n    return ct._plaintext\n")
        report = lint_paths([bad])
        v = violation_for(report, "no-private-state")
        assert "_plaintext" in v.message

    def test_cipher_forgery_flagged(self, tmp_path):
        bad = tmp_path / "forge.py"
        bad.write_text(
            "def forge(paillier):\n"
            "    return paillier.PaillierCiphertext(1, 2)\n"
        )
        v = violation_for(lint_paths([bad]), "no-private-state")
        assert "PaillierCiphertext" in v.message

    def test_crypto_modules_may_touch_cipher_state(self, tmp_path):
        ok = tmp_path / "crypto" / "inside.py"
        ok.parent.mkdir()
        ok.write_text("def peek(ct):\n    return ct._plaintext\n")
        assert lint_paths([ok]).ok

    def test_global_rng_in_privacy_flagged(self, tmp_path):
        bad = tmp_path / "privacy" / "noise.py"
        bad.parent.mkdir()
        bad.write_text("import random\n\ndef draw():\n    return random.random()\n")
        v = violation_for(lint_paths([bad]), "no-unseeded-rng")
        assert "random.random()" in v.message

    def test_unseeded_random_instance_flagged(self, tmp_path):
        bad = tmp_path / "mpc" / "shares.py"
        bad.parent.mkdir()
        bad.write_text("import random\n\ndef make():\n    return random.Random()\n")
        v = violation_for(lint_paths([bad]), "no-unseeded-rng")
        assert "seed" in v.message

    def test_seeded_random_instance_allowed(self, tmp_path):
        ok = tmp_path / "mpc" / "shares.py"
        ok.parent.mkdir()
        ok.write_text("import random\n\ndef make(s):\n    return random.Random(s)\n")
        assert lint_paths([ok]).ok

    def test_float_division_on_secret_flagged(self, tmp_path):
        bad = tmp_path / "mpc" / "maths.py"
        bad.parent.mkdir()
        bad.write_text('def half(x: "Share"):\n    return x / 2\n')
        v = violation_for(lint_paths([bad]), "no-float-on-secret")
        assert "division" in v.message

    def test_floor_division_on_secret_allowed(self, tmp_path):
        ok = tmp_path / "mpc" / "maths.py"
        ok.parent.mkdir()
        ok.write_text('def half(x: "Share"):\n    return x // 2\n')
        assert lint_paths([ok]).ok

    def test_unused_import_flagged_and_suppressible(self, tmp_path):
        bad = tmp_path / "a.py"
        bad.write_text("import math\n")
        assert not lint_paths([bad]).ok
        ok = tmp_path / "b.py"
        ok.write_text("import math  # verify: allow(no-unused-imports)\n")
        assert lint_paths([ok]).ok
