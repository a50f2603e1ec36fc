"""The privacy dataflow analyzer: semantic verification of planned queries.

The plan checker re-checks *syntactic* invariants (op ordering, scheme
consistency, certificate-internal sums). This module adds the semantic
half: it runs the privacy interpreter
(:class:`repro.privacy.certify.AbstractInterpreter`, the one that
certified the source) over the logical plan — seeded from the IR ops
that build the aggregate, then walking the post-aggregate statement list
the committees execute — and checks what it derives:

(a) a **taint lattice** (RAW / CLIPPED / NOISED / PUBLIC), so any flow
    of an un-noised aggregate past ``output``/``declassify`` is a hard
    error even when the op-level IR looks well-formed;
(b) **sensitivity intervals**, so the scale at each noise node is
    *proven* sufficient for the upstream L1/L∞ sensitivity (the plan
    checker's rules only check a mechanism is present);
(c) **interval-arithmetic budget accounting** per node, reconciled
    against the certificate's totals with outward-rounded sums.

On an untampered plan the derived upper bounds equal what ``certify()``
recorded from the source, so any relative discrepancy beyond 1e-9 is a
rewrite of the plan or of its certificate, not rounding noise.

A clean analysis distills into a
:class:`repro.verify.certificate.PrivacyCertificate` that travels with
the serialized plan; the executor re-analyzes before running and refuses
plans whose attached certificate does not match (fail closed).

The analyzer is *total*: it never raises, it reports. Callers decide
whether a dirty report is fatal (:meth:`VerificationReport.
raise_if_failed`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..lang.ast import DB_NAME
from ..planner.ir import (
    EncryptInput,
    LogicalPlan,
    NoiseOutput,
    SelectMax,
)
from ..privacy.certify import (
    REL_TOL,
    AbstractInterpreter,
    Certificate,
    DerivedUse,
    MechanismUse,
    db_sensitivity,
    dominates,
)
from ..privacy.lattice import AbstractValue, Bounds, widened_add
from .certificate import NodeCertificate, PrivacyCertificate
from .invariants import DATAFLOW_BY_RULE
from .report import Severity, VerificationReport


def _dominates_tiny(recorded: float, derived: float) -> bool:
    """Like :func:`~repro.privacy.certify.dominates` without the absolute
    floor.

    δ charges sit around 2^-40 — far below any absolute tolerance floor —
    so their comparison must be purely relative or a zeroed record would
    still "dominate".
    """
    if math.isinf(derived):
        return math.isinf(recorded)
    return recorded >= derived - REL_TOL * max(abs(recorded), abs(derived))


class DataflowAnalyzer:
    """One analysis run over one (logical plan, certificate)."""

    def __init__(self, logical: LogicalPlan, certificate: Optional[Certificate] = None):
        self.logical = logical
        self.certificate = certificate or logical.certificate
        self.checker = self.certificate.checker
        self.env = logical.env
        self.report = VerificationReport(
            target=f"dataflow for {logical.query_name!r}"
        )
        self.derived: List[DerivedUse] = []

    # ------------------------------------------------------------- plumbing

    def _fail(
        self,
        rule: str,
        subject: str,
        message: str,
        node_path: str = "",
        severity: Optional[Severity] = None,
    ) -> None:
        if severity is None:
            severity = DATAFLOW_BY_RULE[rule].severity
        self.report.add(rule, subject, message, severity, node_path=node_path)

    def _checked(self, rule: str) -> None:
        if rule not in self.report.checked_rules:
            self.report.checked_rules.append(rule)

    # ------------------------------------------------------------------ run

    def analyze(self) -> Tuple[VerificationReport, Optional[PrivacyCertificate]]:
        for rule in (
            "df-taint-release",
            "df-noise-scale",
            "df-sensitivity-certified",
            "df-budget-interval",
            "df-sampling-amplification",
        ):
            self._checked(rule)
        kinds = {use.mechanism for use in self.certificate.mechanisms}
        if kinds == {"manual"}:
            return self._manual_certificate()
        try:
            phi, seed = self._seed_aggregate()
            walk = AbstractInterpreter(self.env, self.checker, seed)
            walk.run(self.logical.post_statements)
            for finding in walk.findings:
                self._fail(
                    finding.rule,
                    finding.subject,
                    finding.message,
                    node_path=finding.node_path,
                    severity=Severity.WARNING if finding.warning else None,
                )
            self.derived = walk.uses
            self._check_ir_consistency(phi)
            self._check_against_certificate()
        except Exception as exc:  # analysis must be total: fail closed
            self._fail(
                "df-analysis-incomplete",
                "analyzer",
                f"abstract interpretation aborted: {type(exc).__name__}: {exc}",
            )
        if not self.report.ok:
            return self.report, None
        return self.report, self._build_certificate()

    # ----------------------------------------------- IR walk / aggregate init

    def _seed_aggregate(self) -> Tuple[Optional[float], Dict[str, AbstractValue]]:
        """Walk the IR ops and return the sampling fraction the IR actually
        implements and the interpreter's seed: the aggregate variable (and
        ``db``) at the row sensitivity, carrying that fraction."""
        phi: Optional[float] = None
        for op in self.logical.ops:
            if isinstance(op, EncryptInput) and op.sample_fraction < 1.0:
                phi = op.sample_fraction
        if not _rel_equal(
            self.logical.sample_fraction, phi if phi is not None else 1.0
        ):
            self._fail(
                "df-budget-interval",
                "ops",
                f"logical plan claims sample fraction "
                f"{self.logical.sample_fraction:g} but the EncryptInput op "
                f"implements {phi if phi is not None else 1.0:g}",
                node_path=self._op_path(EncryptInput),
            )
        aggregate = AbstractValue(True, False, db_sensitivity(self.env), phi)
        seed = {DB_NAME: aggregate}
        if self.logical.aggregate_var:
            seed[self.logical.aggregate_var] = aggregate
        return phi, seed

    def _op_path(self, op_type) -> str:
        for i, op in enumerate(self.logical.ops):
            if isinstance(op, op_type):
                return f"ops[{i}]:{op.name}"
        return "ops"

    def _check_ir_consistency(self, phi: Optional[float]) -> None:
        """The mechanism ops the IR realizes must match the derived uses.

        Loop handling differs (the interpreter unrolls small loops; the
        lowering folds them into one op with a multiplied count), so ops
        and uses are compared at the kind/parameter level, not
        one-to-one.
        """
        derived_kinds = {use.mechanism for use in self.derived}
        ir_kinds = set()
        for op in self.logical.ops:
            if isinstance(op, SelectMax):
                ir_kinds.add("em")
            elif isinstance(op, NoiseOutput):
                ir_kinds.add("laplace")
        if ir_kinds != derived_kinds:
            self._fail(
                "df-budget-interval",
                "ops",
                f"IR realizes mechanisms {sorted(ir_kinds)} but the "
                f"statement dataflow derives {sorted(derived_kinds)}; a "
                "release op has no matching statement or vice versa",
                node_path="ops",
            )
        derived_ks = {use.k for use in self.derived if use.mechanism == "em"}
        for i, op in enumerate(self.logical.ops):
            if isinstance(op, SelectMax) and op.k not in derived_ks:
                self._fail(
                    "df-budget-interval",
                    f"select_max[{i}]",
                    f"SelectMax op selects k={op.k} but no derived em use "
                    f"has that arity (derived k values: {sorted(derived_ks)})",
                    node_path=f"ops[{i}]:select_max",
                )

    # ------------------------------------------------- certificate reconciliation

    def _check_against_certificate(self) -> None:
        recorded: List[MechanismUse] = list(self.certificate.mechanisms)
        if len(recorded) != len(self.derived):
            self._fail(
                "df-budget-interval",
                "certificate",
                f"certificate records {len(recorded)} mechanism use(s) but "
                f"the dataflow derives {len(self.derived)}; a use was "
                "duplicated (budget double-spend) or a release went "
                "unrecorded",
                node_path="certificate.mechanisms",
            )
            return
        for i, (rec, der) in enumerate(zip(recorded, self.derived)):
            subject = f"mechanisms[{i}] ({der.node_path})"
            if rec.mechanism != der.mechanism:
                self._fail(
                    "df-budget-interval",
                    subject,
                    f"recorded use is {rec.mechanism!r} but the dataflow "
                    f"derives {der.mechanism!r} at this release point",
                    node_path=der.node_path,
                )
                continue
            if rec.k != der.k:
                self._fail(
                    "df-budget-interval",
                    subject,
                    f"recorded k={rec.k} != derived k={der.k}",
                    node_path=der.node_path,
                )
            if rec.sample_phi is not None and der.sample_phi is None:
                self._fail(
                    "df-sampling-amplification",
                    subject,
                    f"recorded use claims amplification at φ="
                    f"{rec.sample_phi:g} but the plan's input op does not "
                    "sample; the recorded ε is unjustifiably small",
                    node_path=der.node_path,
                )
            if not dominates(rec.sensitivity.l1, der.sensitivity.l1.hi) or (
                not dominates(rec.sensitivity.linf, der.sensitivity.linf.hi)
            ):
                self._fail(
                    "df-sensitivity-certified",
                    subject,
                    f"recorded sensitivity (l1={rec.sensitivity.l1:g}, "
                    f"linf={rec.sensitivity.linf:g}) does not dominate the "
                    f"derived interval (l1={der.sensitivity.l1}, "
                    f"linf={der.sensitivity.linf}); noise sized from the "
                    "record would be insufficient",
                    node_path=der.node_path,
                )
            if not dominates(rec.epsilon, der.epsilon.hi):
                self._fail(
                    "df-noise-scale",
                    subject,
                    f"recorded ε={rec.epsilon:g} is below the proven "
                    f"requirement {der.epsilon.hi:g} (sensitivity "
                    f"{der.sensitivity.l1}/scale "
                    f"{der.scale if der.scale else 'n/a'}, x"
                    f"{der.multiplicity}); the mechanism is undercharged "
                    "for the noise it actually adds",
                    node_path=der.node_path,
                )
            if not _dominates_tiny(rec.delta, der.delta.hi):
                self._fail(
                    "df-budget-interval",
                    subject,
                    f"recorded δ={rec.delta:.3e} is below the derived "
                    f"finite-precision allowance {der.delta.hi:.3e}",
                    node_path=der.node_path,
                )
        # Totals: the claimed cost must dominate the outward-rounded
        # interval sum of the derived per-node charges.
        total_eps, total_delta = self._derived_totals()
        cost = self.certificate.cost
        if not dominates(cost.epsilon, total_eps.lo):
            self._fail(
                "df-budget-interval",
                "certificate",
                f"claimed total ε={cost.epsilon:g} lies below the proven "
                f"interval sum {total_eps} of the per-node charges",
                node_path="certificate.cost",
            )
        if not _dominates_tiny(cost.delta, total_delta.lo):
            self._fail(
                "df-budget-interval",
                "certificate",
                f"claimed total δ={cost.delta:.3e} lies below the proven "
                f"interval sum {total_delta}",
                node_path="certificate.cost",
            )

    def _derived_totals(self) -> Tuple[Bounds, Bounds]:
        total_eps = Bounds.zero()
        total_delta = Bounds.zero()
        for use in self.derived:
            total_eps = widened_add(total_eps, use.epsilon)
            total_delta = widened_add(total_delta, use.delta)
        return total_eps, total_delta

    # --------------------------------------------------------------- manual

    def _manual_certificate(self) -> Tuple[VerificationReport, PrivacyCertificate]:
        self._checked("df-manual-certificate")
        self._fail(
            "df-manual-certificate",
            "certificate",
            "analyst-supplied certificate: taint and budget re-derivation "
            "skipped; the privacy claim rests on the supplied proof",
        )
        nodes = tuple(
            NodeCertificate(
                node_path=f"manual[{i}]",
                mechanism="manual",
                label="RAW",
                sensitivity_l1=Bounds.exact(use.sensitivity.l1),
                sensitivity_linf=Bounds.exact(use.sensitivity.linf),
                noise_scale=None,
                epsilon=Bounds.exact(use.epsilon),
                delta=Bounds.exact(use.delta),
                k=use.k,
                sample_phi=use.sample_phi,
            )
            for i, use in enumerate(self.certificate.mechanisms)
        )
        cert = PrivacyCertificate(
            query_name=self.logical.query_name,
            nodes=nodes,
            total_epsilon=Bounds.exact(self.certificate.cost.epsilon),
            total_delta=Bounds.exact(self.certificate.cost.delta),
            claimed_epsilon=self.certificate.cost.epsilon,
            claimed_delta=self.certificate.cost.delta,
            analysis="manual",
            checked_rules=tuple(self.report.checked_rules),
        )
        return self.report, cert

    # ---------------------------------------------------------- certificate

    def _build_certificate(self) -> PrivacyCertificate:
        total_eps, total_delta = self._derived_totals()
        nodes = tuple(
            NodeCertificate(
                node_path=use.node_path,
                mechanism=use.mechanism,
                label=use.label,
                sensitivity_l1=use.sensitivity.l1,
                sensitivity_linf=use.sensitivity.linf,
                noise_scale=use.scale,
                epsilon=use.epsilon,
                delta=use.delta,
                k=use.k,
                sample_phi=use.sample_phi,
                multiplicity=use.multiplicity,
            )
            for use in self.derived
        )
        return PrivacyCertificate(
            query_name=self.logical.query_name,
            nodes=nodes,
            total_epsilon=total_eps,
            total_delta=total_delta,
            claimed_epsilon=self.certificate.cost.epsilon,
            claimed_delta=self.certificate.cost.delta,
            analysis="dataflow",
            checked_rules=tuple(self.report.checked_rules),
        )


def _rel_equal(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def analyze_logical_plan(
    logical: LogicalPlan, certificate: Optional[Certificate] = None
) -> Tuple[VerificationReport, Optional[PrivacyCertificate]]:
    """Run the dataflow analysis over one lowered plan."""
    return DataflowAnalyzer(logical, certificate).analyze()


def analyze_planning_result(
    result,
) -> Tuple[VerificationReport, Optional[PrivacyCertificate]]:
    """Analyze a :class:`~repro.planner.search.PlanningResult`.

    Returns the report and, when the analysis is clean, the distilled
    :class:`PrivacyCertificate` (None otherwise). Never raises.
    """
    return analyze_logical_plan(result.logical_plan, result.certificate)
