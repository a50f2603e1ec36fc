"""Tests for the privacy dataflow analyzer and its certificates.

The mutation tests are the heart: each seeds one miscalibration that the
PR 1 plan checker *provably* misses (asserted: ``verify_planning_result``
stays clean) and that the dataflow pass must reject with a node-path
diagnostic. The analyzer's value over the syntactic rules is exactly this
set of bugs.
"""

import dataclasses
import math
import re

import pytest

from repro import Planner, QueryEnvironment
from repro.cli import main
from repro.lang.ast import (
    Assign,
    BinOp,
    Call,
    ExprStmt,
    FloatLit,
    Index,
    IntLit,
    Var,
)
from repro.privacy.accountant import PrivacyCost
from repro.lang.parser import parse
from repro.privacy.certify import Sensitivity, certify
from repro.privacy.sampling import amplified_epsilon
from repro.queries.catalog import ALL_QUERIES, PAPER_N
from repro.verify import (
    INVARIANTS,
    PlanVerificationError,
    PrivacyCertificate,
    analyze_planning_result,
    gate,
    lint_paths,
    verify_planning_result,
)
from repro.verify.report import Severity

EM_SOURCE = "aggr = sum(db);\nresult = em(aggr);\noutput(result);"
LAPLACE_SOURCE = (
    "aggr = sum(db);\nresult = laplace(aggr[0], sens / epsilon);\noutput(result);"
)


def small_env(**overrides) -> QueryEnvironment:
    params = dict(num_participants=10**6, row_width=64, epsilon=1.0)
    params.update(overrides)
    return QueryEnvironment(**params)


def plan_em():
    return Planner(small_env()).plan_source(EM_SOURCE, "em-query")


def plan_laplace():
    return Planner(small_env()).plan_source(LAPLACE_SOURCE, "laplace-query")


def errors(report):
    return [v for v in report.violations if v.severity is Severity.ERROR]


def assert_caught_only_by_dataflow(result, rule):
    """The plan checker passes; the dataflow pass flags `rule` with a path,
    and the plan gate refuses the plan."""
    assert verify_planning_result(result).ok, (
        "mutation should be invisible to the syntactic plan checker"
    )
    report, certificate = analyze_planning_result(result)
    assert certificate is None
    hits = [v for v in errors(report) if v.rule == rule]
    assert hits, f"expected {rule}; got {report.format()}"
    assert all(v.location for v in hits), "finding must carry a node path"
    with pytest.raises(PlanVerificationError) as excinfo:
        gate(result)
    assert all(v.location for v in errors(excinfo.value.report))
    return hits


# ---------------------------------------------------------------- clean plans


class TestCleanAnalysis:
    def test_every_catalog_query_analyzes_clean(self):
        for spec in ALL_QUERIES:
            result = Planner(spec.environment()).plan_source(
                spec.source, spec.name
            )
            report, certificate = analyze_planning_result(result)
            assert report.ok, f"{spec.name}: {report.format()}"
            assert certificate is not None
            assert certificate.analysis == "dataflow"
            assert certificate.nodes, spec.name
            # The derived totals must bracket the accountant's claim.
            assert certificate.total_epsilon.lo <= certificate.claimed_epsilon
            assert math.isclose(
                certificate.total_epsilon.hi,
                certificate.claimed_epsilon,
                rel_tol=1e-9,
            )

    def test_planner_attaches_certificate(self):
        result = plan_em()
        assert result.privacy_certificate is not None
        assert result.privacy_certificate.query_name == "em-query"

    def test_digest_deterministic_across_reanalysis(self):
        result = plan_em()
        _, first = analyze_planning_result(result)
        _, second = analyze_planning_result(result)
        assert first.digest() == second.digest()
        assert first.digest() == result.privacy_certificate.digest()

    def test_node_paths_name_statements(self):
        _, cert = analyze_planning_result(plan_laplace())
        assert cert.nodes[0].node_path.startswith("post[")
        assert "line" in cert.nodes[0].node_path

    def test_serialized_plan_embeds_certificate(self):
        from repro.planner.serialize import planning_result_to_dict

        out = planning_result_to_dict(plan_em())
        assert out["privacy_certificate"]["analysis"] == "dataflow"
        assert out["privacy_certificate_digest"] == (
            PrivacyCertificate.from_dict(out["privacy_certificate"]).digest()
        )


class TestCertificateRoundTrip:
    def test_dict_round_trip_preserves_digest(self):
        _, cert = analyze_planning_result(plan_laplace())
        clone = PrivacyCertificate.from_dict(cert.to_dict())
        assert clone == cert
        assert clone.digest() == cert.digest()

    def test_any_field_change_changes_digest(self):
        _, cert = analyze_planning_result(plan_em())
        bumped = dataclasses.replace(cert, claimed_epsilon=cert.claimed_epsilon * 2)
        assert bumped.digest() != cert.digest()

    def test_format_is_readable(self):
        _, cert = analyze_planning_result(plan_em())
        text = cert.format()
        assert "privacy certificate" in text
        assert "total: eps" in text


#: Per catalog query at ``PAPER_N`` (default ε): the gate's
#: ``PrivacyCertificate.digest()`` and ``certify()``'s uses as
#: (mechanism, l1, linf, ε, δ, k, φ), captured on commit 1c12e05, before
#: the certifier and the dataflow analyzer became one interpreter.
_DELTA = 2.0 ** -40
_K_MEDIANS_USE = ("laplace", 1.0, 1.0, 0.005, _DELTA, 1, None)
CATALOG_PINS = {
    "top1": (
        "5ef63af3249fd34ed23ab893bccc35946fdd953ed41dd49eec42ac48514a76e6",
        (("em", 2.0, 1.0, 0.1, _DELTA, 1, None),),
    ),
    "topK": (
        "894cc54bbe97ee8b381f83d24727b2b39e2fcd4c5406358af5011e1d06ddc7bb",
        (("em", 2.0, 1.0, 0.223606797749979, _DELTA, 5, None),),
    ),
    "gap": (
        "28efd8951f507d604c49e2a2a0f97ad53b6fae8b14f67c7ab86790c4cdec6b64",
        (
            ("em", 2.0, 1.0, 0.1, _DELTA, 1, None),
            ("laplace", 3.0, 2.0, 0.15, _DELTA, 1, None),
        ),
    ),
    "auction": (
        "6d77bd21d4fc1ee4de28a00305386f5ad87324c5eb77d3a11c1ba0ad1a605c4a",
        (("em", 32768.0, 32768.0, 0.1, _DELTA, 1, None),),
    ),
    "hypotest": (
        "1bb6f1fc7c2295d77f59e756c89f95cb62f9283662b824d9faecb462ab8ed491",
        (("laplace", 1.0, 1.0, 0.1, _DELTA, 1, None),),
    ),
    "secrecy": (
        "aad61b8347edcc9c0a796d2aacc8939324a8314177fda5febe4471e50d7038cd",
        (("em", 2.0, 1.0, 0.005244768031214582, _DELTA, 1, 0.05),),
    ),
    "median": (
        "4807954c323f8e6d360cc12f93090f69fb92c355e59a7afb0c4b3bb7af416a22",
        (("em", 2.0, 2.0, 0.1, _DELTA, 1, None),),
    ),
    "cms": (
        "91ff58686c88b74be36796435f1a2d639d2bc11e75fe1bca770f3dbf1a11a952",
        (("laplace", 1.0, 1.0, 0.1, _DELTA, 1, None),),
    ),
    "bayes": (
        "c38295bd047ebaa5543bc9235800708235e9c9e085e6b57bf84f46ebbf1e90c8",
        (("laplace", 1.0, 1.0, 0.1, 1.0459189070388675e-10, 1, None),),
    ),
    "k-medians": (
        "b61467f9dde02d064bff602153deae335c4ac3205307ab6c3ed3a62655f3a74e",
        (_K_MEDIANS_USE,) * 20,
    ),
}


def test_catalog_pins_cover_every_query():
    assert [spec.name for spec in ALL_QUERIES] == list(CATALOG_PINS)


@pytest.mark.parametrize("spec", ALL_QUERIES, ids=lambda spec: spec.name)
def test_catalog_certificate_and_uses_match_the_parent_commit(spec):
    env = spec.environment(PAPER_N)
    result = Planner(env).plan_source(spec.source, spec.name)
    uses = tuple(
        (u.mechanism, u.sensitivity.l1, u.sensitivity.linf, u.epsilon,
         u.delta, u.k, u.sample_phi)
        for u in certify(parse(spec.source), env).mechanisms
    )
    assert (result.privacy_certificate.digest(), uses) == CATALOG_PINS[
        spec.name
    ]


# ------------------------------------------------- seeded miscalibrations


class TestSeededMiscalibrations:
    """Each mutation is invisible to PR 1's rules and fatal to dataflow."""

    def test_01_laplace_epsilon_undercharged(self):
        # Halve the recorded ε and the claimed total consistently: the
        # certificate still sums (PR 1's only ε check) but the mechanism
        # is undercharged for the noise the scale actually buys.
        result = plan_laplace()
        use = result.certificate.mechanisms[0]
        result.certificate.mechanisms[0] = dataclasses.replace(
            use, epsilon=use.epsilon / 2
        )
        result.certificate.cost = PrivacyCost(
            use.epsilon / 2, result.certificate.cost.delta
        )
        assert_caught_only_by_dataflow(result, "df-noise-scale")

    def test_02_recorded_sensitivity_shrunk(self):
        # As if a rewrite dropped a clip after certification: the record
        # promises less sensitivity than the dataflow proves flows in.
        result = plan_laplace()
        use = result.certificate.mechanisms[0]
        result.certificate.mechanisms[0] = dataclasses.replace(
            use, sensitivity=Sensitivity(use.sensitivity.l1 / 4, 0.25)
        )
        hits = assert_caught_only_by_dataflow(result, "df-sensitivity-certified")
        assert "does not dominate" in hits[0].message

    def test_03_budget_double_spend(self):
        # Split one recorded use into two at half ε each: the sum — all
        # PR 1 verifies — is unchanged, but the plan releases once while
        # the ledger books two entries (double-spend bookkeeping fraud).
        result = plan_laplace()
        use = result.certificate.mechanisms[0]
        halved = dataclasses.replace(use, epsilon=use.epsilon / 2)
        result.certificate.mechanisms = [halved, halved]
        hits = assert_caught_only_by_dataflow(result, "df-budget-interval")
        assert "double-spend" in hits[0].message

    def test_04_raw_output_appended(self):
        # A post-certification rewrite appends output(aggr[0]): the raw
        # count crosses the release boundary with no mechanism.
        result = plan_laplace()
        result.logical_plan.post_statements.append(
            ExprStmt(Call("output", [Index(Var("aggr"), IntLit(0))]))
        )
        hits = assert_caught_only_by_dataflow(result, "df-taint-release")
        # The aggregate is clipped (ZKP-enforced element bounds) but never
        # noised: still un-releasable.
        assert "CLIPPED" in hits[0].message

    def test_05_sketch_leak(self):
        # Leak through an aggregation: output(sum(aggr)) looks like a
        # derived sketch statistic but carries the full L1 sensitivity.
        result = plan_em()
        result.logical_plan.post_statements.append(
            ExprStmt(Call("output", [Call("sum", [Var("aggr")])]))
        )
        assert_caught_only_by_dataflow(result, "df-taint-release")

    def test_06_released_value_laundering(self):
        # Multiplying a released value by a raw one does not launder the
        # raw taint: the product is un-released.
        result = plan_laplace()
        result.logical_plan.post_statements.extend(
            [
                Assign(
                    "evil",
                    BinOp("*", Var("result"), Index(Var("aggr"), IntLit(0))),
                ),
                ExprStmt(Call("output", [Var("evil")])),
            ]
        )
        assert_caught_only_by_dataflow(result, "df-taint-release")

    def test_07_phantom_sampling_amplification(self):
        # The record claims secrecy-of-the-sample amplification (and the
        # correspondingly smaller ε) but the plan's input op samples
        # nothing: every device uploads.
        result = plan_laplace()
        use = result.certificate.mechanisms[0]
        shrunk = amplified_epsilon(use.epsilon, 0.5)
        result.certificate.mechanisms[0] = dataclasses.replace(
            use, epsilon=shrunk, sample_phi=0.5
        )
        result.certificate.cost = PrivacyCost(
            shrunk, result.certificate.cost.delta
        )
        assert_caught_only_by_dataflow(result, "df-sampling-amplification")

    def test_08_delta_zeroed(self):
        # Dropping the finite-precision δ understates the guarantee.
        result = plan_laplace()
        use = result.certificate.mechanisms[0]
        result.certificate.mechanisms[0] = dataclasses.replace(use, delta=0.0)
        result.certificate.cost = PrivacyCost(
            result.certificate.cost.epsilon, 0.0
        )
        assert_caught_only_by_dataflow(result, "df-budget-interval")

    def test_09_noise_scale_swapped_after_certification(self):
        # Replace the laplace scale expression with a literal the type
        # derivation never saw (a post-certification rewrite shrinking
        # the noise): no proven positive lower bound exists.
        result = plan_laplace()
        for stmt in result.logical_plan.post_statements:
            if isinstance(stmt, Assign) and isinstance(stmt.value, Call):
                if stmt.value.func == "laplace":
                    stmt.value.args[1] = FloatLit(0.001, line=stmt.value.line)
        hits = assert_caught_only_by_dataflow(result, "df-noise-scale")
        assert "lower bound" in hits[0].message

    def test_10_em_arity_tampered(self):
        # Record k=2 (with the matching sqrt(2) ε so the sums still
        # agree) while the plan's SelectMax selects k=1.
        result = plan_em()
        use = result.certificate.mechanisms[0]
        inflated = use.epsilon * math.sqrt(2)
        result.certificate.mechanisms[0] = dataclasses.replace(
            use, k=2, epsilon=inflated
        )
        result.certificate.cost = PrivacyCost(
            inflated, result.certificate.cost.delta
        )
        hits = assert_caught_only_by_dataflow(result, "df-budget-interval")
        assert "k=" in hits[0].message

    def test_11_em_epsilon_undercharged(self):
        result = plan_em()
        use = result.certificate.mechanisms[0]
        result.certificate.mechanisms[0] = dataclasses.replace(
            use, epsilon=use.epsilon / 4
        )
        result.certificate.cost = PrivacyCost(
            use.epsilon / 4, result.certificate.cost.delta
        )
        assert_caught_only_by_dataflow(result, "df-noise-scale")


class TestAnalystAssertedSensitivity:
    def test_loose_env_sensitivity_warns_but_does_not_fail(self):
        # The median pattern: prefix-sum scores whose derived L∞ bound
        # exceeds the analyst-declared Δ that sizes the runtime EM noise.
        # The repo's trust model accepts the analyst's Δ (like a manual
        # certificate), so this is a warning, not an error.
        source = (
            "aggr = sum(db);\n"
            "c = len(aggr);\n"
            "cum = 0;\n"
            "for i = 0 to c - 1 do\n"
            "  cum = cum + aggr[i];\n"
            "  scores[i] = 0 - abs(N + 1 - 2 * cum);\n"
            "endfor\n"
            "r = em(scores);\n"
            "output(r);"
        )
        env = small_env(row_width=8, epsilon=8.0, sensitivity=2.0)
        result = Planner(env).plan_source(source, "median-loose")
        report, certificate = analyze_planning_result(result)
        assert report.ok  # warnings do not fail the analysis
        assert certificate is not None
        warned = [
            v
            for v in report.violations
            if v.severity is Severity.WARNING and v.rule == "df-noise-scale"
        ]
        assert warned and "asserted" in warned[0].message


# ------------------------------------------------------------ executor gate


class TestExecutorGate:
    def _plan(self):
        env = QueryEnvironment(
            num_participants=32, row_width=8, epsilon=4.0, sensitivity=1.0
        )
        return Planner(env).plan_source(EM_SOURCE, "gate-query")

    def test_valid_plan_runs_and_pins_certificate_digest(self):
        import random

        from repro.runtime.executor import QueryExecutor
        from repro.runtime.network import FederatedNetwork

        planning = self._plan()
        network = FederatedNetwork(32, rng=random.Random(11))
        network.load_categorical_data(8)
        executor = QueryExecutor(
            network,
            planning,
            committee_size=4,
            key_prime_bits=96,
            rng=random.Random(12),
        )
        outcome = executor.run()
        assert outcome.value is not None
        assert executor.privacy_certificate is not None
        body = executor.certificate.body
        assert body.privacy_certificate_digest == (
            executor.privacy_certificate.digest_bytes()
        )

    def test_tampered_plan_refused(self):
        import random

        from repro.runtime.executor import QueryExecutor
        from repro.runtime.network import FederatedNetwork

        planning = self._plan()
        planning.logical_plan.post_statements.append(
            ExprStmt(Call("output", [Index(Var("aggr"), IntLit(0))]))
        )
        network = FederatedNetwork(32, rng=random.Random(11))
        network.load_categorical_data(8)
        executor = QueryExecutor(
            network,
            planning,
            committee_size=4,
            key_prime_bits=96,
            rng=random.Random(12),
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            executor.run()
        assert "df-taint-release" in str(excinfo.value)

    def test_stale_certificate_refused(self):
        import random

        from repro.runtime.executor import QueryExecutor
        from repro.runtime.network import FederatedNetwork

        planning = self._plan()
        planning.privacy_certificate = dataclasses.replace(
            planning.privacy_certificate,
            claimed_epsilon=planning.privacy_certificate.claimed_epsilon * 2,
        )
        network = FederatedNetwork(32, rng=random.Random(11))
        network.load_categorical_data(8)
        executor = QueryExecutor(
            network,
            planning,
            committee_size=4,
            key_prime_bits=96,
            rng=random.Random(12),
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            executor.run()
        assert "df-certificate-stale" in str(excinfo.value)


# -------------------------------------------------------------------- CLI


class TestCli:
    SMALL = ["--participants", "100000", "--categories", "64"]

    def test_verify_plan_dataflow_flag(self, capsys):
        # Both analyses always run, so the old opt-in is a usage error.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-plan", "top1", "--dataflow", *self.SMALL])
        assert excinfo.value.code == 2
        assert "--dataflow" in capsys.readouterr().err

    def test_verify_plan_prints_both_analyses(self, capsys):
        assert main(["verify-plan", "top1", *self.SMALL]) == 0
        out = capsys.readouterr().out
        # One merged report: the plan checker's rules plus the dataflow pass's.
        checked = int(re.search(r"0 error\(s\).*\((\d+) rules checked\)", out).group(1))
        assert checked > len(INVARIANTS)
        assert "privacy certificate for 'top1'" in out

    def test_certificate_command_emits_json(self, capsys):
        import json

        assert main(["certificate", "top1", *self.SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        cert = PrivacyCertificate.from_dict(payload)
        assert cert.query_name == "top1"
        assert cert.nodes

    def test_verify_sweep(self, capsys):
        assert main(["verify-sweep"]) == 0
        out = capsys.readouterr().out
        assert "11/11 plan(s) analyze clean" in out
        lines = {line.split()[0]: line for line in out.splitlines() if " ok: " in line}
        assert "compare at 46 bits," in lines["top1"]
        assert "compare at 91 bits (past the runtime's 84: refused)" in lines["auction"]
        assert "no secret comparison" in lines["cms"]


# ------------------------------------------------------------ source lint


def _write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestRngStreamHygiene:
    def test_duplicate_label_across_files_flagged(self, tmp_path):
        _write(
            tmp_path,
            "runtime/a.py",
            "def f(inj):\n    return inj.fresh('noise/em')\n",
        )
        _write(
            tmp_path,
            "mpc/b.py",
            "def g(self):\n    return self._fresh('noise/em')\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        rules = [v.rule for v in report.violations]
        assert rules.count("rng-stream-hygiene") == 2
        assert any("also derived at" in v.message for v in report.violations)

    def test_fstring_templates_collide(self, tmp_path):
        _write(
            tmp_path,
            "runtime/a.py",
            "def f(inj, i):\n    return inj.fresh(f'noise/{i}')\n",
        )
        _write(
            tmp_path,
            "runtime/b.py",
            "def g(inj, j):\n    return inj.fresh(f'noise/{j}')\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert [v.rule for v in report.violations].count("rng-stream-hygiene") == 2

    def test_unique_labels_pass(self, tmp_path):
        _write(
            tmp_path,
            "runtime/a.py",
            "def f(inj):\n"
            "    return inj.fresh('noise/em'), inj.fresh('noise/laplace')\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert not [v for v in report.violations if v.rule == "rng-stream-hygiene"]

    def test_dynamic_labels_skipped(self, tmp_path):
        _write(
            tmp_path,
            "runtime/a.py",
            "def f(inj, label):\n    return inj.fresh(label)\n",
        )
        _write(
            tmp_path,
            "runtime/b.py",
            "def g(inj, label):\n    return inj.fresh(label)\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert not [v for v in report.violations if v.rule == "rng-stream-hygiene"]

    def test_outside_scope_not_collected(self, tmp_path):
        _write(
            tmp_path,
            "analysis/a.py",
            "def f(inj):\n    return inj.fresh('x')\n",
        )
        _write(
            tmp_path,
            "analysis/b.py",
            "def g(inj):\n    return inj.fresh('x')\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert not [v for v in report.violations if v.rule == "rng-stream-hygiene"]


class TestNoNumpyDefaultRng:
    def test_global_stream_call_flagged(self, tmp_path):
        _write(
            tmp_path,
            "runtime/a.py",
            "import numpy as np\n\ndef f():\n    return np.random.normal(0, 1)\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert any(v.rule == "no-numpy-default-rng" for v in report.violations)

    def test_unseeded_default_rng_flagged(self, tmp_path):
        _write(
            tmp_path,
            "mpc/a.py",
            "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert any(v.rule == "no-numpy-default-rng" for v in report.violations)

    def test_seeded_default_rng_allowed(self, tmp_path):
        _write(
            tmp_path,
            "crypto/a.py",
            "import numpy as np\n\ndef f(seed):\n"
            "    return np.random.default_rng(seed)\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert not [
            v for v in report.violations if v.rule == "no-numpy-default-rng"
        ]

    def test_direct_import_flagged(self, tmp_path):
        _write(
            tmp_path,
            "runtime/a.py",
            "from numpy.random import default_rng\n\ndef f():\n"
            "    return default_rng()\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert any(v.rule == "no-numpy-default-rng" for v in report.violations)

    def test_outside_scope_allowed(self, tmp_path):
        _write(
            tmp_path,
            "eval/a.py",
            "import numpy as np\n\ndef f():\n    return np.random.normal(0, 1)\n",
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert not [
            v for v in report.violations if v.rule == "no-numpy-default-rng"
        ]

    def test_repo_tree_is_clean(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        report = lint_paths([src])
        assert not [
            v
            for v in report.violations
            if v.rule in ("rng-stream-hygiene", "no-numpy-default-rng")
        ], report.format()
