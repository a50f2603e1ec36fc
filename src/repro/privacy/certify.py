"""Differential-privacy certification (§4.2): one abstract interpreter.

Before planning, Arboretum attempts to certify that the submitted query is
differentially private and to determine a sensitivity bound, adopting the
approach of Fuzzi: conservative taint tracking from ``db`` (covering both
explicit and implicit flows) plus sensitivity arithmetic, with the DP
mechanisms (``laplace``, ``em``) acting as the only sanctioned release
points. ``output`` of a value that is still tainted and has not passed
through a mechanism is rejected.

:class:`AbstractInterpreter` is the only walk of the query language that
tracks privacy. It runs on the type walk's statement driver
(:class:`repro.analysis.types.StatementWalk`) and keeps only its domain:
the :mod:`repro.privacy.lattice` values (taint label, sensitivity
intervals, sampling fraction), the implicit-flow taint after an ``if``,
and its widened-loop rule, one pass of the body with every mechanism
charge multiplied by the trip count. It walks from a *seed*:

* :func:`certify` seeds ``db`` with the row sensitivity and walks the
  source program; it raises :class:`CertificationError` on the first
  ERROR finding, or when the program has no ``output``;
* the plan gate (:mod:`repro.verify.dataflow`) seeds the aggregate from
  the plan's IR and walks the post-aggregate statements the committees
  execute, turning each finding into a report entry.

The interpreter never raises on a privacy violation: it records a
:class:`Finding` under the plan gate's rule id and walks on, so one run
reports every violation. Its intervals' upper endpoints are what the
certificate records.

The certificate records the total (ε, δ) cost of the query — which the
key-generation committee later checks against the privacy budget (§5.2) —
and the sensitivity bound of each mechanism application, which the planner
needs to size the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..lang.ast import (
    Assign,
    BinOp,
    BoolLit,
    Call,
    Expr,
    FloatLit,
    For,
    If,
    Index,
    IndexAssign,
    IntLit,
    Program,
    Stmt,
    UnOp,
    Var,
    DB_NAME,
    walk_statements,
)
from ..analysis.types import QueryEnvironment, StatementWalk, TypeChecker, infer_types
from .accountant import PrivacyCost
from .lattice import AbstractValue, Bounds, SensitivityBounds
from .sampling import amplified_epsilon

#: Finite-precision allowance: cutting noise tails to the representable
#: range adds a small delta per mechanism invocation (§6).
FINITE_PRECISION_DELTA = 2.0 ** -40

#: Relative tolerance for comparing derived and recorded (ε, δ, Δ): one
#: interpreter derives both sides, so this only absorbs serialization
#: round-trips, never real discrepancies.
REL_TOL = 1e-9


def dominates(recorded: float, derived: float) -> bool:
    """recorded >= derived, within relative tolerance."""
    if math.isinf(derived):
        return math.isinf(recorded)
    return recorded >= derived - REL_TOL * max(abs(recorded), abs(derived), 1.0)


class CertificationError(Exception):
    """Raised when a query cannot be certified as differentially private."""


@dataclass(frozen=True)
class Sensitivity:
    """How much one participant's row can move a value (L1 and L∞)."""

    l1: float
    linf: float


@dataclass(frozen=True)
class MechanismUse:
    """One mechanism application found during certification."""

    mechanism: str  # "laplace" or "em"
    line: int
    sensitivity: Sensitivity
    epsilon: float
    delta: float
    k: int = 1
    sample_phi: Optional[float] = None


@dataclass
class Certificate:
    """The result of successful certification."""

    cost: PrivacyCost
    mechanisms: List[MechanismUse]
    checker: TypeChecker

    @property
    def epsilon(self) -> float:
        return self.cost.epsilon

    @property
    def delta(self) -> float:
        return self.cost.delta


@dataclass(frozen=True)
class Finding:
    """A violation the interpreter found, under the plan gate's rule id
    (``df-taint-release``, ``df-noise-scale``, ``df-analysis-incomplete``).
    A warning fails neither certification nor the gate."""

    rule: str
    subject: str
    message: str
    node_path: str
    warning: bool = False


@dataclass(frozen=True)
class DerivedUse:
    """One mechanism application found by the interpreter."""

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


def db_sensitivity(env: QueryEnvironment) -> SensitivityBounds:
    """How far one participant's row can move the aggregate of ``db``, as
    point bounds: the row promises are ZKP-enforced."""
    width = env.db_element.interval.width
    c = env.row_width
    if env.row_encoding == "one_hot":
        # One-hot rows (enforced by the input ZKPs) can change the
        # aggregate by at most 2 in L1 and 1 in L∞.
        return SensitivityBounds.exact(min(2.0, float(c)), 1.0)
    l1 = width * c
    if env.row_l1 is not None:
        # A ZKP-enforced L1 promise (e.g. sketch rows set exactly k
        # cells of value 1): a changed row moves the aggregate by at
        # most 2x the bound in L1 (old row removed, new row added).
        l1 = min(l1, 2.0 * env.row_l1)
    return SensitivityBounds.exact(l1, width)


class AbstractInterpreter(StatementWalk):
    """The privacy walk of a statement list from a seed environment.

    It runs on :class:`~repro.analysis.types.StatementWalk`, which owns the
    control rules; this class owns the domain. ``bindings`` maps each
    variable to its :class:`AbstractValue`; the walk appends a
    :class:`DerivedUse` per mechanism application to ``uses`` and a
    :class:`Finding` per violation to ``findings``, and counts the
    ``output`` calls it evaluates. Top-level statement ``i`` is named
    ``post[i]`` in node paths.
    """

    def __init__(
        self,
        env: QueryEnvironment,
        checker: TypeChecker,
        seed: Dict[str, AbstractValue],
    ):
        self.env = env
        self.checker = checker
        self.bindings: Dict[str, AbstractValue] = dict(seed)
        self.uses: List[DerivedUse] = []
        self.findings: List[Finding] = []
        self.outputs = 0
        self._multiplier = 1  # loop multiplicity for widened loops
        self._path = "post"
        self._path_counts: Dict[str, int] = {}

    def run(self, statements: List[Stmt]) -> "AbstractInterpreter":
        for i, stmt in enumerate(statements):
            self._path = f"post[{i}]"
            self.walk_statement(stmt)
        return self

    def _find(
        self, rule: str, line: int, message: str, node_path: str, warning: bool = False
    ) -> None:
        self.findings.append(Finding(rule, f"line {line}", message, node_path, warning))

    def _node_path(self, line: int) -> str:
        base = f"{self._path}:line {line}"
        n = self._path_counts.get(base, 0)
        self._path_counts[base] = n + 1
        return base if n == 0 else f"{base}#{n}"

    # ------------------------------------------------------------ statements

    def unknown_statement(self, stmt: Stmt) -> None:
        self._find(
            "df-analysis-incomplete",
            getattr(stmt, "line", 0),
            f"unmodeled statement form {type(stmt).__name__}",
            self._path,
        )

    def index_assign(self, stmt: IndexAssign) -> None:
        incoming = self.infer(stmt.value).join(self.infer(stmt.index))
        existing = self.bindings.get(stmt.var, AbstractValue.public())
        self.bindings[stmt.var] = existing.join(incoming)

    def leave_if(self, stmt: If, cond: AbstractValue) -> None:
        if cond.sensitive and not cond.released:
            # Implicit flow: branching on a secret taints everything either
            # branch writes, with unbounded sensitivity (Fuzzi's conservative
            # rule).
            for s in walk_statements(stmt.then_body + stmt.else_body):
                if isinstance(s, (Assign, IndexAssign)):
                    self.bindings[s.var] = AbstractValue(
                        True, False, SensitivityBounds.unbounded()
                    )

    def enter_loop(self, stmt: For) -> int:
        self.infer(stmt.start)
        self.infer(stmt.end)
        self.bindings[stmt.var] = AbstractValue.public()
        return self.checker.trip_count(stmt)

    def widen(self, stmt: For, trips: int) -> None:
        # Widened loop: one abstract pass, mechanism charges scaled by the
        # trip count (a mechanism inside a 10^6-iteration loop costs 10^6 ε).
        # One pass misses what a later statement of the body makes secret
        # or more sensitive for an earlier one (ROADMAP item 19;
        # tests/test_certify.py::TestWidenedLoops pins it).
        self._multiplier *= trips
        try:
            self.walk_block(stmt.body)
        finally:
            self._multiplier //= trips

    # ----------------------------------------------------------- expressions

    def infer(self, expr: Expr) -> AbstractValue:
        if isinstance(expr, (IntLit, FloatLit, BoolLit)):
            return AbstractValue.public()
        if isinstance(expr, Var):
            return self.bindings.get(expr.name, AbstractValue.public())
        if isinstance(expr, Index):
            base = self.infer(expr.base)
            index = self.infer(expr.index)
            if base.sensitive:
                linf = base.sensitivity.linf
                base = base.with_sensitivity(SensitivityBounds(linf, linf))
            return base.join(index)
        if isinstance(expr, UnOp):
            return self.infer(expr.operand)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, Call):
            return self._call(expr)
        self._find(
            "df-analysis-incomplete",
            getattr(expr, "line", 0),
            f"unmodeled expression form {type(expr).__name__}",
            self._path,
        )
        return AbstractValue(True, False, SensitivityBounds.unbounded())

    def _magnitude(self, expr: Expr) -> Tuple[float, float]:
        """(min |x|, max |x|) over the type checker's interval for expr.

        An expression the type checker never saw (one inserted into a plan
        after certification) has unknown magnitude, which the interval
        arithmetic turns into an unbounded sensitivity: it fails closed.
        """
        vt = self.checker.expr_types.get(id(expr))
        if vt is None:
            return 0.0, math.inf
        hi = vt.interval.magnitude
        lo = 0.0 if vt.interval.contains(0.0) else min(
            abs(vt.interval.lo), abs(vt.interval.hi)
        )
        return lo, hi

    def _binop(self, expr: BinOp) -> AbstractValue:
        left = self.infer(expr.left).effective()
        right = self.infer(expr.right).effective()
        if not left.sensitive and not right.sensitive:
            return self.infer(expr.left).join(self.infer(expr.right))
        op = expr.op
        if op in ("+", "-"):
            sens = left.sensitivity + right.sensitivity
        elif op == "*":
            if left.sensitive and right.sensitive:
                sens = SensitivityBounds.unbounded()
            elif left.sensitive:
                sens = left.sensitivity.scaled(*self._magnitude(expr.right))
            else:
                sens = right.sensitivity.scaled(*self._magnitude(expr.left))
        elif op == "/":
            if right.sensitive:
                sens = SensitivityBounds.unbounded()
            else:
                lo_mag, hi_mag = self._magnitude(expr.right)
                factor_hi = math.inf if hi_mag == 0 else 1.0  # conservative
                if lo_mag > 0:
                    factor_hi = 1.0 / lo_mag
                factor_lo = 1.0 / hi_mag if 0 < hi_mag < math.inf else 0.0
                sens = left.sensitivity.scaled(factor_lo, factor_hi)
        else:
            # Comparisons and logical operators on secrets: 1-bit output, but
            # sensitivity in the DP sense is unbounded (a single row can flip it).
            sens = SensitivityBounds.unbounded()
        return replace(left.join(right), sensitive=True, released=False, sensitivity=sens)

    # -------------------------------------------------------------- builtins

    def _call(self, expr: Call) -> AbstractValue:
        func = expr.func
        if func == "laplace":
            return self._laplace(expr)
        if func == "em":
            return self._em(expr)
        if func in ("declassify", "output"):
            arg = self.infer(expr.args[0]) if expr.args else AbstractValue.public()
            if arg.sensitive and not arg.released:
                self._find(
                    "df-taint-release",
                    expr.line,
                    f"{func}() receives a {arg.label.name} value "
                    f"(sensitivity {arg.sensitivity}); only NOISED or "
                    "PUBLIC values may cross a release boundary",
                    self._node_path(expr.line),
                )
            if func == "declassify":
                return AbstractValue.public()
            self.outputs += 1
            return arg
        if func == "sampleUniform":
            base = self.infer(expr.args[0])
            phi_type = self.checker.expr_types.get(id(expr.args[1]))
            phi = phi_type.interval.hi if phi_type is not None else 1.0
            return replace(base, sample_phi=phi)
        if func == "sum":
            arg = self.infer(expr.args[0])
            if arg.sensitive:
                # Summing a vector: the change is bounded by the L1 bound.
                sens = SensitivityBounds(arg.sensitivity.l1, arg.sensitivity.l1)
                vt = self.checker.expr_types.get(id(expr.args[0]))
                if vt is not None and len(vt.shape) == 2:
                    sens = arg.sensitivity  # per-element bound carries over
                return arg.with_sensitivity(sens)
            return arg
        if func in ("max", "argmax"):
            arg = self.infer(expr.args[0])
            if arg.sensitive:
                linf = arg.sensitivity.linf
                return arg.with_sensitivity(SensitivityBounds(linf, linf))
            return arg
        if func == "clip":
            arg = self.infer(expr.args[0])
            if arg.sensitive:
                lo = self.checker.expr_types.get(id(expr.args[1]))
                hi = self.checker.expr_types.get(id(expr.args[2]))
                if lo is not None and hi is not None:
                    width = max(hi.interval.hi - lo.interval.lo, 0.0)
                    l1, linf = arg.sensitivity.l1, arg.sensitivity.linf
                    return arg.with_sensitivity(
                        SensitivityBounds(
                            Bounds(min(l1.lo, width), min(l1.hi, width)),
                            Bounds(min(linf.lo, width), min(linf.hi, width)),
                        )
                    )
            return arg
        if func == "len":
            # Array lengths are public metadata (shapes are static).
            for arg in expr.args:
                self.infer(arg)
            return AbstractValue.public()
        # Pointwise numeric builtins: nonlinear, so sensitivity is lost but
        # taint propagates; |x| is 1-Lipschitz, so abs keeps it.
        value = AbstractValue.public()
        for arg in expr.args:
            value = value.join(self.infer(arg))
        if value.sensitive and func in ("exp", "log", "sqrt", "random"):
            value = replace(value, sensitivity=SensitivityBounds.unbounded(), released=False)
        return value

    # ------------------------------------------------------------ mechanisms

    def _amplified(self, per_use: float, phi: Optional[float]) -> float:
        if phi is None or phi >= 1.0 or per_use <= 0 or math.isinf(per_use):
            return per_use
        return amplified_epsilon(per_use, phi)

    def _laplace(self, expr: Call) -> AbstractValue:
        value = self.infer(expr.args[0])
        if len(expr.args) > 1:
            self.infer(expr.args[1])
        if not value.sensitive:
            return value  # noising public data is a no-op privacy-wise
        path = self._node_path(expr.line)
        scale_type = (
            self.checker.expr_types.get(id(expr.args[1])) if len(expr.args) > 1 else None
        )
        scale: Optional[Bounds] = None
        if scale_type is None or scale_type.interval.lo <= 0:
            self._find(
                "df-noise-scale",
                expr.line,
                "laplace scale has no proven positive lower bound (it is "
                "not positive, or the type derivation never saw the scale "
                "expression); the noise cannot be proven sufficient",
                path,
            )
        else:
            scale = Bounds(scale_type.interval.lo, scale_type.interval.hi)
        if not math.isfinite(value.sensitivity.l1.hi):
            self._find(
                "df-noise-scale",
                expr.line,
                f"a value with unbounded L1 sensitivity reaches laplace() "
                f"({value.label.name}); no finite scale suffices — clip() "
                "it first, or a rewrite after certification inflated the "
                "sensitivity",
                path,
            )
        if scale is not None:
            per_hi = value.sensitivity.l1.hi / scale.lo
            eps_hi = self._amplified(per_hi, value.sample_phi) * self._multiplier
            per_lo = value.sensitivity.l1.lo / scale.hi if scale.hi > 0 else 0.0
            eps_lo = self._amplified(per_lo, value.sample_phi) * self._multiplier
            epsilon = Bounds(min(eps_lo, eps_hi), eps_hi)
        else:
            epsilon = Bounds.unbounded()
        self.uses.append(
            DerivedUse(
                "laplace",
                expr.line,
                path,
                value.sensitivity,
                scale,
                epsilon,
                Bounds.exact(FINITE_PRECISION_DELTA * self._multiplier),
                sample_phi=value.sample_phi,
                multiplicity=self._multiplier,
                label=value.label.name,
            )
        )
        return AbstractValue(sensitive=True, released=True, sensitivity=value.sensitivity)

    def _em(self, expr: Call) -> AbstractValue:
        scores = self.infer(expr.args[0])
        k = 1
        if len(expr.args) == 2:
            kt = self.checker.expr_types.get(id(expr.args[1]))
            k = int(kt.interval.hi) if kt is not None else 1
            self.infer(expr.args[1])
        if not scores.sensitive:
            return scores
        path = self._node_path(expr.line)
        if not math.isfinite(scores.sensitivity.linf.hi):
            self._find(
                "df-noise-scale",
                expr.line,
                f"scores with unbounded L∞ sensitivity reach em() "
                f"({scores.label.name}); the exponential mechanism's noise "
                "cannot be proven sufficient — clip() them first",
                path,
            )
        elif not dominates(self.env.sensitivity, scores.sensitivity.linf.hi):
            # The runtime sizes the EM noise as 2·Δ/ε with Δ taken from the
            # environment. When Δ sits below the derived L∞ bound the scale
            # cannot be *proven* sufficient — but the derived bound is an
            # over-approximation (e.g. unrolled prefix sums), and the repo's
            # trust model lets the analyst assert a tighter Δ, exactly as
            # with a manual certificate. Surfaced as a warning to audit;
            # tampered certificates stay hard errors in the gate's
            # comparison against the recorded uses.
            self._find(
                "df-noise-scale",
                expr.line,
                f"the environment sensitivity Δ={self.env.sensitivity:g} "
                f"that sizes the runtime EM noise is below the derived L∞ "
                f"bound {scores.sensitivity.linf.hi:g}; the calibration "
                "rests on the analyst's asserted Δ, not on this analysis",
                path,
                warning=True,
            )
        # One-shot top-k costs sqrt(k)*eps [29]; a single draw costs eps.
        per_use = self.env.epsilon * (math.sqrt(k) if k > 1 else 1.0)
        eps = self._amplified(per_use, scores.sample_phi) * self._multiplier
        self.uses.append(
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
        return AbstractValue(sensitive=True, released=True, sensitivity=scores.sensitivity)


def certify(program: Program, env: QueryEnvironment) -> Certificate:
    """Type-check and certify a program; raises on privacy violations."""
    checker = infer_types(program, env)
    seed = {DB_NAME: AbstractValue(True, False, db_sensitivity(env))}
    walk = AbstractInterpreter(env, checker, seed).run(program.statements)
    for finding in walk.findings:
        if not finding.warning:
            raise CertificationError(f"{finding.subject}: {finding.message}")
    if walk.outputs == 0:
        raise CertificationError("query produces no output")
    uses = [
        MechanismUse(
            use.mechanism,
            use.line,
            Sensitivity(use.sensitivity.l1.hi, use.sensitivity.linf.hi),
            use.epsilon.hi,
            use.delta.hi,
            k=use.k,
            sample_phi=use.sample_phi,
        )
        for use in walk.uses
    ]
    total = PrivacyCost(0.0, 0.0)
    for use in uses:
        total = total + PrivacyCost(use.epsilon, use.delta)
    return Certificate(total, uses, checker)


def manual_certificate(
    program: Program,
    env: QueryEnvironment,
    epsilon: float,
    delta: float = 0.0,
    sensitivity: Optional[Sensitivity] = None,
) -> Certificate:
    """A CertiPriv-style analyst-supplied certificate (§4.2).

    When automatic certification fails — e.g. for a proof pattern Fuzzi's
    conservative rules cannot follow — the analyst may supply their own
    privacy proof and assert its (ε, δ) cost and sensitivity bound. The
    program is still *type-checked* (the planner needs ranges either way),
    but the taint analysis is skipped; responsibility for the privacy claim
    rests with the supplied proof, exactly as with CertiPriv [10].
    """
    if epsilon <= 0:
        raise ValueError("a certificate must claim a positive epsilon")
    if delta < 0:
        raise ValueError("delta cannot be negative")
    checker = infer_types(program, env)
    sens = sensitivity or Sensitivity(env.sensitivity, env.sensitivity)
    use = MechanismUse(
        mechanism="manual",
        line=0,
        sensitivity=sens,
        epsilon=epsilon,
        delta=delta,
    )
    return Certificate(PrivacyCost(epsilon, delta), [use], checker)
