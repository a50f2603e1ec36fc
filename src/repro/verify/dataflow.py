"""The privacy dataflow analyzer: semantic verification of planned queries.

PR 1's plan checker re-checks *syntactic* invariants (op ordering, scheme
consistency, certificate-internal sums). This module adds the semantic
half: an abstract interpreter that walks the logical plan — the IR ops
that seed the aggregate, then the post-aggregate statement list the
committees execute — propagating the :mod:`repro.verify.lattice` domain:

(a) a **taint lattice** (RAW / CLIPPED / NOISED / RELEASED), so any flow
    of an un-noised aggregate past ``output``/``declassify`` is a hard
    error even when the op-level IR looks well-formed;
(b) **sensitivity and clip-bound intervals**, so the scale at each noise
    node is *proven* sufficient for the upstream L1/L∞ sensitivity (the
    PR 1 rules only check a mechanism is present);
(c) **interval-arithmetic budget accounting** per node, reconciled
    against the certificate's totals with outward-rounded sums.

The transfer functions deliberately mirror
:class:`repro.privacy.certify.Certifier` operation-for-operation: the
upper endpoints of every derived interval are computed with the same
float expressions in the same order, so on an untampered plan the
derived bounds are bit-identical to what the certifier recorded, and any
relative discrepancy beyond 1e-9 is a genuine miscalibration, not
rounding noise.

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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.types import UNROLL_LIMIT
from ..lang.ast import (
    Assign,
    BinOp,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    Index,
    IndexAssign,
    IntLit,
    Stmt,
    UnOp,
    Var,
    DB_NAME,
    walk_statements,
)
from ..planner.ir import (
    EncryptInput,
    LogicalPlan,
    NoiseOutput,
    SelectMax,
)
from ..privacy.certify import Certificate, FINITE_PRECISION_DELTA, MechanismUse
from ..privacy.sampling import amplified_epsilon
from .certificate import NodeCertificate, PrivacyCertificate
from .invariants import DATAFLOW_BY_RULE
from .lattice import (
    AbstractValue,
    Bounds,
    SensitivityBounds,
    widened_add,
)
from .report import Severity, VerificationReport

#: Relative tolerance for comparing derived and recorded (ε, δ, Δ): the
#: mirrored transfer functions reproduce the certifier bit-for-bit, so
#: this only absorbs serialization round-trips, never real discrepancies.
_REL_TOL = 1e-9


def _dominates(recorded: float, derived: float) -> bool:
    """recorded >= derived, within relative tolerance."""
    if math.isinf(derived):
        return math.isinf(recorded)
    return recorded >= derived - _REL_TOL * max(abs(recorded), abs(derived), 1.0)


def _dominates_tiny(recorded: float, derived: float) -> bool:
    """Like :func:`_dominates` without the absolute floor.

    δ charges sit around 2^-40 — far below any absolute tolerance floor —
    so their comparison must be purely relative or a zeroed record would
    still "dominate".
    """
    if math.isinf(derived):
        return math.isinf(recorded)
    return recorded >= derived - _REL_TOL * max(abs(recorded), abs(derived))


@dataclass(frozen=True)
class DerivedUse:
    """One mechanism application found by the abstract interpreter."""

    mechanism: str
    line: int
    node_path: str
    sensitivity: SensitivityBounds
    scale: Optional[Bounds]  # proven laplace scale interval; None for em
    epsilon: Bounds
    delta: Bounds
    k: int = 1
    sample_phi: Optional[float] = None
    multiplicity: int = 1
    label: str = "CLIPPED"  # taint label of the value entering the mechanism


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
        self.values: Dict[str, AbstractValue] = {}
        self.derived: List[DerivedUse] = []
        self._multiplier = 1
        self._path = "post"
        self._path_counts: Dict[str, int] = {}

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

    def _node_path(self, line: int) -> str:
        base = f"{self._path}:line {line}"
        n = self._path_counts.get(base, 0)
        self._path_counts[base] = n + 1
        return base if n == 0 else f"{base}#{n}"

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
            phi = self._seed_aggregate()
            self._interpret_block(self.logical.post_statements, top_level=True)
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

    def _db_sensitivity(self) -> SensitivityBounds:
        """Mirror of Certifier._db_sensitivity, as point bounds: the row
        promises are ZKP-enforced, so lower and upper bound coincide."""
        elem = self.env.db_element.interval
        width = elem.width
        c = self.env.row_width
        if self.env.row_encoding == "one_hot":
            return SensitivityBounds.exact(min(2.0, float(c)), 1.0)
        l1 = width * c
        if self.env.row_l1 is not None:
            l1 = min(l1, 2.0 * self.env.row_l1)
        return SensitivityBounds.exact(l1, width)

    def _seed_aggregate(self) -> Optional[float]:
        """Walk the IR ops, seed the aggregate variable's abstract value,
        and return the sampling fraction the IR actually implements."""
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
        elem = self.env.db_element.interval
        aggregate = AbstractValue(
            sensitive=True,
            released=False,
            sensitivity=self._db_sensitivity(),
            clip=Bounds(min(elem.lo, elem.hi), max(elem.lo, elem.hi)),
            sample_phi=phi,
        )
        if self.logical.aggregate_var:
            self.values[self.logical.aggregate_var] = aggregate
        self.values[DB_NAME] = replace(aggregate, clip=None)
        return phi

    def _op_path(self, op_type) -> str:
        for i, op in enumerate(self.logical.ops):
            if isinstance(op, op_type):
                return f"ops[{i}]:{op.name}"
        return "ops"

    def _check_ir_consistency(self, phi: Optional[float]) -> None:
        """The mechanism ops the IR realizes must match the derived uses.

        Loop handling differs (the certifier and this pass unroll small
        loops; the lowering folds them into one op with a multiplied
        count), so ops and uses are compared at the kind/parameter level,
        not one-to-one.
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

    # --------------------------------------------------- statement interpreter

    def _interpret_block(self, statements: List[Stmt], top_level: bool = False) -> None:
        for i, stmt in enumerate(statements):
            if top_level:
                self._path = f"post[{i}]"
            self._interpret_statement(stmt)

    def _interpret_statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.values[stmt.var] = self._eval(stmt.value)
        elif isinstance(stmt, IndexAssign):
            incoming = self._eval(stmt.value).join(self._eval(stmt.index))
            existing = self.values.get(stmt.var, AbstractValue.public())
            self.values[stmt.var] = existing.join(incoming)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, For):
            self._interpret_for(stmt)
        elif isinstance(stmt, If):
            self._interpret_if(stmt)
        else:
            self._fail(
                "df-analysis-incomplete",
                f"line {getattr(stmt, 'line', 0)}",
                f"unmodeled statement form {type(stmt).__name__}",
                node_path=self._path,
            )

    def _interpret_for(self, stmt: For) -> None:
        self._eval(stmt.start)
        self._eval(stmt.end)
        self.values[stmt.var] = AbstractValue.public()
        trips = self.checker.trip_count(stmt)
        if trips <= UNROLL_LIMIT:
            for _ in range(trips):
                self._interpret_block(stmt.body)
            return
        self._multiplier *= trips
        try:
            self._interpret_block(stmt.body)
        finally:
            self._multiplier //= trips

    def _interpret_if(self, stmt: If) -> None:
        cond = self._eval(stmt.cond)
        before = dict(self.values)
        self._interpret_block(stmt.then_body)
        after_then = self.values
        self.values = dict(before)
        self._interpret_block(stmt.else_body)
        after_else = self.values
        merged: Dict[str, AbstractValue] = {}
        for name in set(after_then) | set(after_else):
            a = after_then.get(name, before.get(name, AbstractValue.public()))
            b = after_else.get(name, before.get(name, AbstractValue.public()))
            merged[name] = a.join(b)
        if cond.sensitive and not cond.released:
            written = {
                s.var
                for s in walk_statements(stmt.then_body + stmt.else_body)
                if isinstance(s, (Assign, IndexAssign))
            }
            for name in written:
                merged[name] = AbstractValue(
                    True, False, SensitivityBounds.unbounded()
                )
        self.values = merged

    # -------------------------------------------------------------- expressions

    def _eval(self, expr: Expr) -> AbstractValue:
        if isinstance(expr, (IntLit, FloatLit, BoolLit)):
            return AbstractValue.public()
        if isinstance(expr, Var):
            return self.values.get(expr.name, AbstractValue.public())
        if isinstance(expr, Index):
            base = self._eval(expr.base)
            index = self._eval(expr.index)
            if base.sensitive:
                elem = SensitivityBounds(
                    base.sensitivity.linf, base.sensitivity.linf
                )
                base = base.with_sensitivity(elem)
            return base.join(index)
        if isinstance(expr, UnOp):
            return self._eval(expr.operand)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, Call):
            return self._eval_call(expr)
        self._fail(
            "df-analysis-incomplete",
            f"line {getattr(expr, 'line', 0)}",
            f"unmodeled expression form {type(expr).__name__}",
            node_path=self._path,
        )
        return AbstractValue(True, False, SensitivityBounds.unbounded())

    def _magnitude_bounds(self, expr: Expr) -> Tuple[float, float]:
        """(min |x|, max |x|) over the checker's value interval for expr.

        The upper endpoint is exactly Certifier._public_magnitude; an
        expression the type checker never saw (inserted post-certification)
        has unknown magnitude, which the interval arithmetic turns into an
        unbounded derived sensitivity — exactly the fail-closed behavior a
        tampered plan deserves.
        """
        vt = self.checker.expr_types.get(id(expr))
        if vt is None:
            return 0.0, math.inf
        hi = vt.interval.magnitude
        lo = 0.0 if vt.interval.contains(0.0) else min(
            abs(vt.interval.lo), abs(vt.interval.hi)
        )
        return lo, hi

    def _eval_binop(self, expr: BinOp) -> AbstractValue:
        left = self._eval(expr.left).effective()
        right = self._eval(expr.right).effective()
        if not left.sensitive and not right.sensitive:
            return self._eval(expr.left).join(self._eval(expr.right))
        op = expr.op
        if op in ("+", "-"):
            sens = left.sensitivity + right.sensitivity
            return replace(
                left.join(right), sensitive=True, released=False, sensitivity=sens
            )
        if op == "*":
            if left.sensitive and right.sensitive:
                sens = SensitivityBounds.unbounded()
            elif left.sensitive:
                lo_k, hi_k = self._magnitude_bounds(expr.right)
                sens = left.sensitivity.scaled(lo_k, hi_k)
            else:
                lo_k, hi_k = self._magnitude_bounds(expr.left)
                sens = right.sensitivity.scaled(lo_k, hi_k)
            return replace(
                left.join(right), sensitive=True, released=False, sensitivity=sens
            )
        if op == "/":
            if right.sensitive:
                sens = SensitivityBounds.unbounded()
            else:
                lo_mag, hi_mag = self._magnitude_bounds(expr.right)
                factor_hi = math.inf if hi_mag == 0 else 1.0  # conservative
                vt = self.checker.expr_types.get(id(expr.right))
                if vt is not None and not vt.interval.contains(0.0):
                    low = min(abs(vt.interval.lo), abs(vt.interval.hi))
                    factor_hi = 1.0 / low
                factor_lo = 0.0 if not math.isfinite(hi_mag) else (
                    1.0 / hi_mag if hi_mag > 0 else 0.0
                )
                sens = left.sensitivity.scaled(factor_lo, factor_hi)
            return replace(
                left.join(right), sensitive=True, released=False, sensitivity=sens
            )
        # Comparisons / logical ops on secrets: unbounded in the DP sense.
        joined = left.join(right)
        return replace(
            joined,
            sensitive=True,
            released=False,
            sensitivity=SensitivityBounds.unbounded(),
        )

    # ---------------------------------------------------------------- builtins

    def _eval_call(self, expr: Call) -> AbstractValue:
        func = expr.func
        if func == "laplace":
            return self._use_laplace(expr)
        if func == "em":
            return self._use_em(expr)
        if func in ("declassify", "output"):
            arg = self._eval(expr.args[0]) if expr.args else AbstractValue.public()
            if arg.sensitive and not arg.released:
                self._fail(
                    "df-taint-release",
                    f"line {expr.line}",
                    f"{func}() receives a {arg.label.name} value "
                    f"(sensitivity {arg.sensitivity}); only NOISED or "
                    "PUBLIC values may cross a release boundary",
                    node_path=self._node_path(expr.line),
                )
            return AbstractValue.public() if func == "declassify" else arg
        if func == "sampleUniform":
            base = self._eval(expr.args[0])
            phi_type = self.checker.expr_types.get(id(expr.args[1]))
            phi = phi_type.interval.hi if phi_type is not None else 1.0
            return replace(base, sample_phi=phi)
        if func == "sum":
            arg = self._eval(expr.args[0])
            if arg.sensitive:
                sens = SensitivityBounds(arg.sensitivity.l1, arg.sensitivity.l1)
                vt = self.checker.expr_types.get(id(expr.args[0]))
                if vt is not None and len(vt.shape) == 2:
                    sens = arg.sensitivity
                return arg.with_sensitivity(sens)
            return arg
        if func in ("max", "argmax"):
            arg = self._eval(expr.args[0])
            if arg.sensitive:
                return arg.with_sensitivity(
                    SensitivityBounds(arg.sensitivity.linf, arg.sensitivity.linf)
                )
            return arg
        if func == "clip":
            arg = self._eval(expr.args[0])
            if arg.sensitive:
                lo = self.checker.expr_types.get(id(expr.args[1]))
                hi = self.checker.expr_types.get(id(expr.args[2]))
                if lo is not None and hi is not None:
                    width = max(hi.interval.hi - lo.interval.lo, 0.0)
                    sens = SensitivityBounds(
                        Bounds(
                            min(arg.sensitivity.l1.lo, width),
                            min(arg.sensitivity.l1.hi, width),
                        ),
                        Bounds(
                            min(arg.sensitivity.linf.lo, width),
                            min(arg.sensitivity.linf.hi, width),
                        ),
                    )
                    window = Bounds(lo.interval.lo, hi.interval.hi)
                    return replace(arg, sensitivity=sens, clip=window)
            return arg
        if func == "len":
            for arg in expr.args:
                self._eval(arg)
            return AbstractValue.public()
        value = AbstractValue.public()
        for arg in expr.args:
            value = value.join(self._eval(arg))
        if value.sensitive and func in ("exp", "log", "sqrt", "random"):
            value = replace(
                value, sensitivity=SensitivityBounds.unbounded(), released=False
            )
        return value  # abs is 1-Lipschitz: sensitivity carries over unchanged

    # -------------------------------------------------------------- mechanisms

    def _amplified(self, per_use: float, phi: Optional[float]) -> float:
        if phi is None or phi >= 1.0 or per_use <= 0 or math.isinf(per_use):
            return per_use
        return amplified_epsilon(per_use, phi)

    def _use_laplace(self, expr: Call) -> AbstractValue:
        value = self._eval(expr.args[0])
        if len(expr.args) > 1:
            self._eval(expr.args[1])
        if not value.sensitive:
            return value  # noising public data is a no-op privacy-wise
        path = self._node_path(expr.line)
        scale_type = (
            self.checker.expr_types.get(id(expr.args[1]))
            if len(expr.args) > 1
            else None
        )
        scale: Optional[Bounds] = None
        if scale_type is None or scale_type.interval.lo <= 0:
            self._fail(
                "df-noise-scale",
                f"line {expr.line}",
                "laplace scale has no proven positive lower bound (the "
                "scale expression was never seen by the certified type "
                "derivation); the noise cannot be proven sufficient",
                node_path=path,
            )
        else:
            scale = Bounds(scale_type.interval.lo, scale_type.interval.hi)
        if not math.isfinite(value.sensitivity.l1.hi):
            self._fail(
                "df-noise-scale",
                f"line {expr.line}",
                f"a value with unbounded L1 sensitivity reaches laplace() "
                f"({value.label.name}); no finite scale suffices — clip() "
                "was dropped or a post-certification rewrite inflated the "
                "sensitivity",
                node_path=path,
            )
        if scale is not None:
            # Mirror of Certifier._mechanism_laplace, upper endpoint exact.
            per_hi = value.sensitivity.l1.hi / scale.lo
            eps_hi = self._amplified(per_hi, value.sample_phi) * self._multiplier
            per_lo = (
                value.sensitivity.l1.lo / scale.hi if scale.hi > 0 else 0.0
            )
            eps_lo = self._amplified(per_lo, value.sample_phi) * self._multiplier
            epsilon = Bounds(min(eps_lo, eps_hi), eps_hi)
        else:
            epsilon = Bounds.unbounded()
        delta = Bounds.exact(FINITE_PRECISION_DELTA * self._multiplier)
        self.derived.append(
            DerivedUse(
                "laplace",
                expr.line,
                path,
                value.sensitivity,
                scale,
                epsilon,
                delta,
                sample_phi=value.sample_phi,
                multiplicity=self._multiplier,
                label=value.label.name,
            )
        )
        return AbstractValue(
            sensitive=True, released=True, sensitivity=value.sensitivity
        )

    def _use_em(self, expr: Call) -> AbstractValue:
        scores = self._eval(expr.args[0])
        k = 1
        if len(expr.args) == 2:
            kt = self.checker.expr_types.get(id(expr.args[1]))
            k = int(kt.interval.hi) if kt is not None else 1
            self._eval(expr.args[1])
        if not scores.sensitive:
            return scores
        path = self._node_path(expr.line)
        if not math.isfinite(scores.sensitivity.linf.hi):
            self._fail(
                "df-noise-scale",
                f"line {expr.line}",
                f"scores with unbounded L∞ sensitivity reach em() "
                f"({scores.label.name}); the exponential mechanism's noise "
                "cannot be proven sufficient",
                node_path=path,
            )
        elif not _dominates(self.env.sensitivity, scores.sensitivity.linf.hi):
            # The runtime sizes the EM noise as 2·Δ/ε with Δ taken from the
            # environment. When Δ sits below the derived L∞ bound the scale
            # cannot be *proven* sufficient — but the derived bound is an
            # over-approximation (e.g. unrolled prefix sums), and the repo's
            # trust model lets the analyst assert a tighter Δ, exactly as
            # with a manual certificate. Surfaced as a warning to audit;
            # tampered certificates stay hard errors via the recorded-use
            # comparisons below.
            self._fail(
                "df-noise-scale",
                f"line {expr.line}",
                f"the environment sensitivity Δ={self.env.sensitivity:g} "
                f"that sizes the runtime EM noise is below the derived L∞ "
                f"bound {scores.sensitivity.linf.hi:g}; the calibration "
                "rests on the analyst's asserted Δ, not on this analysis",
                node_path=path,
                severity=Severity.WARNING,
            )
        # Mirror of Certifier._mechanism_em.
        per_use = self.env.epsilon * (math.sqrt(k) if k > 1 else 1.0)
        eps = self._amplified(per_use, scores.sample_phi) * self._multiplier
        self.derived.append(
            DerivedUse(
                "em",
                expr.line,
                path,
                scores.sensitivity,
                None,
                Bounds.exact(eps),
                Bounds.exact(FINITE_PRECISION_DELTA * self._multiplier),
                k=k,
                sample_phi=scores.sample_phi,
                multiplicity=self._multiplier,
                label=scores.label.name,
            )
        )
        return AbstractValue(
            sensitive=True, released=True, sensitivity=scores.sensitivity
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
            if not _dominates(rec.sensitivity.l1, der.sensitivity.l1.hi) or (
                not _dominates(rec.sensitivity.linf, der.sensitivity.linf.hi)
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
            if not _dominates(rec.epsilon, der.epsilon.hi):
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
        if not _dominates(cost.epsilon, total_eps.lo):
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
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1.0)


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
