"""Static plan verification and privacy-invariant source lint.

Three parts (see docs/ARCHITECTURE.md, "Plan verification"):

* :func:`verify_plan` / :func:`verify_planning_result` statically re-check
  a concrete plan against the invariant catalog in
  :mod:`repro.verify.invariants` — IR well-formedness, encryption-type
  soundness, DP soundness, committee feasibility — without executing any
  cryptography.
* :func:`analyze_planning_result` runs the privacy dataflow analyzer
  (:mod:`repro.verify.dataflow`) — the certifier's abstract interpreter,
  seeded from the plan IR, with interval budget accounting against the
  recorded certificate — and distills clean analyses into a
  machine-checkable :class:`PrivacyCertificate`.
* :func:`lint_paths` runs the repo-specific ``ast`` linter
  (:mod:`repro.verify.source_lint`) over source trees.

:func:`gate` is the one place a plan is checked: the planner, the plan
cache, the executor and the CLI all call it, and it fails closed with a
single exception type, :class:`PlanVerificationError`.
"""

from . import dataflow
from .certificate import NodeCertificate, PrivacyCertificate
from .dataflow import (
    DataflowAnalyzer,
    analyze_logical_plan,
    analyze_planning_result,
)
from .invariants import (
    DATAFLOW_BY_RULE,
    DATAFLOW_INVARIANTS,
    INVARIANTS,
    INVARIANTS_BY_RULE,
    Invariant,
)
from .plan_checker import PlanChecker, verify_plan, verify_planning_result
from .report import (
    PlanVerificationError,
    Severity,
    VerificationReport,
    Violation,
)
from .source_lint import LINT_RULES, LintRule, SourceLinter, lint_paths


def gate(planning) -> PrivacyCertificate:
    """Check a :class:`~repro.planner.search.PlanningResult`, fail closed.

    Runs the plan checker and the dataflow pass into one report, stored
    as ``planning.verification``, and raises :class:`PlanVerificationError`
    on any ERROR. A certificate already attached to ``planning`` must
    have the digest of the fresh one (else ``df-certificate-stale``);
    otherwise the fresh one is attached. Returns the certificate.

    The two analyses are looked up at call time — ``verify_planning_result``
    in this package, ``analyze_planning_result`` on the dataflow module —
    so wrappers installed there from outside see every check.
    """
    report = verify_planning_result(planning)
    dataflow_report, fresh = dataflow.analyze_planning_result(planning)
    report.merge(dataflow_report)
    planning.verification = report
    report.raise_if_failed()
    attached = planning.privacy_certificate
    if attached is None:
        planning.privacy_certificate = fresh
        return fresh
    if attached.digest() != fresh.digest():
        report.add(
            "df-certificate-stale",
            "privacy certificate",
            f"attached certificate digest {attached.digest()[:16]}... "
            f"does not match a fresh re-analysis ({fresh.digest()[:16]}...); "
            "the plan or its certificate was modified after planning",
            node_path="planning.privacy_certificate",
        )
        raise PlanVerificationError(report)
    return attached


__all__ = [
    "DATAFLOW_BY_RULE",
    "DATAFLOW_INVARIANTS",
    "DataflowAnalyzer",
    "INVARIANTS",
    "INVARIANTS_BY_RULE",
    "Invariant",
    "LINT_RULES",
    "LintRule",
    "NodeCertificate",
    "PlanChecker",
    "PlanVerificationError",
    "PrivacyCertificate",
    "Severity",
    "SourceLinter",
    "VerificationReport",
    "Violation",
    "analyze_logical_plan",
    "analyze_planning_result",
    "gate",
    "lint_paths",
    "verify_plan",
    "verify_planning_result",
]
