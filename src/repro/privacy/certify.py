"""Differential-privacy certification (§4.2).

Before planning, Arboretum attempts to certify that the submitted query is
differentially private and to determine a sensitivity bound, adopting the
approach of Fuzzi: conservative taint tracking from ``db`` (covering both
explicit and implicit flows) plus sensitivity arithmetic, with the DP
mechanisms (``laplace``, ``em``) acting as the only sanctioned release
points. ``output`` of a value that is still tainted and has not passed
through a mechanism is rejected.

The certificate records the total (ε, δ) cost of the query — which the
key-generation committee later checks against the privacy budget (§5.2) —
and the sensitivity bound of each mechanism application, which the planner
needs to size the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

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
    Program,
    Stmt,
    UnOp,
    Var,
    DB_NAME,
    walk_statements,
)
from ..analysis.types import UNROLL_LIMIT, QueryEnvironment, TypeChecker, infer_types
from .accountant import PrivacyCost
from .sampling import amplified_epsilon

#: Finite-precision allowance: cutting noise tails to the representable
#: range adds a small delta per mechanism invocation (§6).
FINITE_PRECISION_DELTA = 2.0 ** -40


class CertificationError(Exception):
    """Raised when a query cannot be certified as differentially private."""


@dataclass(frozen=True)
class Sensitivity:
    """How much one participant's row can move a value (L1 and L∞)."""

    l1: float
    linf: float

    @classmethod
    def unbounded(cls) -> "Sensitivity":
        return cls(math.inf, math.inf)

    def is_finite(self) -> bool:
        return math.isfinite(self.l1) and math.isfinite(self.linf)

    def scaled(self, k: float) -> "Sensitivity":
        k = abs(k)
        return Sensitivity(self.l1 * k, self.linf * k)

    def __add__(self, other: "Sensitivity") -> "Sensitivity":
        return Sensitivity(self.l1 + other.l1, self.linf + other.linf)

    def join(self, other: "Sensitivity") -> "Sensitivity":
        return Sensitivity(max(self.l1, other.l1), max(self.linf, other.linf))


@dataclass(frozen=True)
class Taint:
    """Privacy label of a value.

    ``sensitive`` marks derivation from db; a sensitive value carries the
    sensitivity bound and, if it flowed through ``sampleUniform``, the
    sampling fraction phi (for amplification at the mechanism).
    ``released`` marks mechanism outputs, which are safe to declassify.
    """

    sensitive: bool = False
    released: bool = False
    sensitivity: Sensitivity = field(default_factory=lambda: Sensitivity(0.0, 0.0))
    sample_phi: Optional[float] = None

    @classmethod
    def public(cls) -> "Taint":
        return cls()

    def join(self, other: "Taint") -> "Taint":
        phi = None
        if self.sample_phi is not None or other.sample_phi is not None:
            phi = max(self.sample_phi or 0.0, other.sample_phi or 0.0) or None
        sensitive = self.sensitive or other.sensitive
        # A joined value is released iff every *sensitive* constituent has
        # been released; public constituents do not revoke release.
        released = sensitive and all(
            t.released for t in (self, other) if t.sensitive
        )
        return Taint(
            sensitive=sensitive,
            released=released,
            sensitivity=self.sensitivity.join(other.sensitivity),
            sample_phi=phi,
        )


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


class Certifier:
    """Abstract interpreter computing taints and the total privacy cost."""

    def __init__(self, env: QueryEnvironment, checker: TypeChecker):
        self.env = env
        self.checker = checker
        self.taints: Dict[str, Taint] = {DB_NAME: Taint(True, False, self._db_sensitivity())}
        self.mechanisms: List[MechanismUse] = []
        self._multiplier = 1  # loop multiplicity for widened loops
        self._outputs = 0

    def _db_sensitivity(self) -> Sensitivity:
        elem = self.env.db_element.interval
        width = elem.width
        c = self.env.row_width
        if self.env.row_encoding == "one_hot":
            # One-hot rows (enforced by the input ZKPs) can change the
            # aggregate by at most 2 in L1 and 1 in L∞.
            return Sensitivity(min(2.0, float(c)), 1.0)
        l1 = width * c
        if self.env.row_l1 is not None:
            # A ZKP-enforced L1 promise (e.g. sketch rows set exactly k
            # cells of value 1): a changed row moves the aggregate by at
            # most 2x the bound in L1 (old row removed, new row added).
            l1 = min(l1, 2.0 * self.env.row_l1)
        return Sensitivity(l1, width)

    # -------------------------------------------------------------- program

    def certify(self, program: Program) -> Certificate:
        self._check_block(program.statements)
        if self._outputs == 0:
            raise CertificationError("query produces no output")
        total = PrivacyCost(0.0, 0.0)
        for use in self.mechanisms:
            total = total + PrivacyCost(use.epsilon, use.delta)
        return Certificate(total, list(self.mechanisms), self.checker)

    def _check_block(self, statements: List[Stmt]) -> None:
        for stmt in statements:
            self._check_statement(stmt)

    def _check_statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.taints[stmt.var] = self._taint(stmt.value)
        elif isinstance(stmt, IndexAssign):
            incoming = self._taint(stmt.value).join(self._taint(stmt.index))
            existing = self.taints.get(stmt.var, Taint.public())
            self.taints[stmt.var] = existing.join(incoming)
        elif isinstance(stmt, ExprStmt):
            self._taint(stmt.expr)
        elif isinstance(stmt, For):
            self._check_for(stmt)
        elif isinstance(stmt, If):
            self._check_if(stmt)
        else:
            raise CertificationError(f"unknown statement {type(stmt).__name__}")

    def _check_for(self, stmt: For) -> None:
        self._taint(stmt.start)
        self._taint(stmt.end)
        self.taints[stmt.var] = Taint.public()
        trips = self.checker.trip_count(stmt)
        if trips <= UNROLL_LIMIT:
            for _ in range(trips):
                self._check_block(stmt.body)
            return
        # Widened loop: one abstract pass, mechanism charges scaled by the
        # trip count (a mechanism inside a 10^6-iteration loop costs 10^6 ε).
        self._multiplier *= trips
        try:
            self._check_block(stmt.body)
        finally:
            self._multiplier //= trips

    def _check_if(self, stmt: If) -> None:
        cond = self._taint(stmt.cond)
        before = dict(self.taints)
        self._check_block(stmt.then_body)
        after_then = self.taints
        self.taints = dict(before)
        self._check_block(stmt.else_body)
        after_else = self.taints
        merged: Dict[str, Taint] = {}
        for name in set(after_then) | set(after_else):
            a = after_then.get(name, before.get(name, Taint.public()))
            b = after_else.get(name, before.get(name, Taint.public()))
            merged[name] = a.join(b)
        if cond.sensitive and not cond.released:
            # Implicit flow: branching on a secret taints everything either
            # branch writes, with unbounded sensitivity (Fuzzi's conservative
            # rule).
            written = {
                s.var
                for s in walk_statements(stmt.then_body + stmt.else_body)
                if isinstance(s, (Assign, IndexAssign))
            }
            for name in written:
                merged[name] = Taint(True, False, Sensitivity.unbounded())
        self.taints = merged

    # ----------------------------------------------------------- expressions

    def _effective(self, taint: Taint) -> Taint:
        """Released values behave like public data in further computation:
        arbitrary postprocessing of a DP output stays DP."""
        if taint.released:
            return Taint.public()
        return taint

    def _taint(self, expr: Expr) -> Taint:
        if isinstance(expr, (IntLit, FloatLit, BoolLit)):
            return Taint.public()
        if isinstance(expr, Var):
            return self.taints.get(expr.name, Taint.public())
        if isinstance(expr, Index):
            base = self._taint(expr.base)
            index = self._taint(expr.index)
            if base.sensitive:
                elem = Sensitivity(base.sensitivity.linf, base.sensitivity.linf)
                base = replace(base, sensitivity=elem)
            return base.join(index)
        if isinstance(expr, UnOp):
            return self._taint(expr.operand)
        if isinstance(expr, BinOp):
            return self._taint_binop(expr)
        if isinstance(expr, Call):
            return self._taint_call(expr)
        raise CertificationError(f"unknown expression {type(expr).__name__}")

    def _public_magnitude(self, expr: Expr) -> float:
        vt = self.checker.expr_types.get(id(expr))
        if vt is None:
            return math.inf
        return vt.interval.magnitude

    def _taint_binop(self, expr: BinOp) -> Taint:
        left = self._effective(self._taint(expr.left))
        right = self._effective(self._taint(expr.right))
        if not left.sensitive and not right.sensitive:
            return self._taint(expr.left).join(self._taint(expr.right))
        op = expr.op
        if op in ("+", "-"):
            sens = left.sensitivity + right.sensitivity
            return replace(left.join(right), sensitive=True, released=False, sensitivity=sens)
        if op == "*":
            if left.sensitive and right.sensitive:
                sens = Sensitivity.unbounded()
            elif left.sensitive:
                sens = left.sensitivity.scaled(self._public_magnitude(expr.right))
            else:
                sens = right.sensitivity.scaled(self._public_magnitude(expr.left))
            return replace(left.join(right), sensitive=True, released=False, sensitivity=sens)
        if op == "/":
            if right.sensitive:
                sens = Sensitivity.unbounded()
            else:
                magnitude = self._public_magnitude(expr.right)
                factor = math.inf if magnitude == 0 else 1.0  # conservative
                vt = self.checker.expr_types.get(id(expr.right))
                if vt is not None and not vt.interval.contains(0.0):
                    low = min(abs(vt.interval.lo), abs(vt.interval.hi))
                    factor = 1.0 / low
                sens = left.sensitivity.scaled(factor)
            return replace(left.join(right), sensitive=True, released=False, sensitivity=sens)
        # Comparisons and logical operators on secrets: 1-bit output, but
        # sensitivity in the DP sense is unbounded (a single row can flip it).
        joined = left.join(right)
        return replace(joined, sensitive=True, released=False, sensitivity=Sensitivity.unbounded())

    # -------------------------------------------------------------- builtins

    def _taint_call(self, expr: Call) -> Taint:
        func = expr.func
        if func == "laplace":
            return self._mechanism_laplace(expr)
        if func == "em":
            return self._mechanism_em(expr)
        if func == "declassify":
            arg = self._taint(expr.args[0])
            if arg.sensitive and not arg.released:
                raise CertificationError(
                    f"line {expr.line}: declassify of a value that has not "
                    f"passed through a DP mechanism"
                )
            return Taint.public()
        if func == "output":
            arg = self._taint(expr.args[0])
            if arg.sensitive and not arg.released:
                raise CertificationError(
                    f"line {expr.line}: output would leak raw participant "
                    f"data; apply laplace() or em() first"
                )
            self._outputs += 1
            return arg
        if func == "sampleUniform":
            base = self._taint(expr.args[0])
            phi_type = self.checker.expr_types.get(id(expr.args[1]))
            phi = phi_type.interval.hi if phi_type is not None else 1.0
            return replace(base, sample_phi=phi)
        if func == "sum":
            arg = self._taint(expr.args[0])
            if arg.sensitive:
                # Summing a vector: the change is bounded by the L1 bound.
                sens = Sensitivity(arg.sensitivity.l1, arg.sensitivity.l1)
                vt = self.checker.expr_types.get(id(expr.args[0]))
                if vt is not None and len(vt.shape) == 2:
                    sens = arg.sensitivity  # per-element bound carries over
                return replace(arg, sensitivity=sens)
            return arg
        if func in ("max", "argmax"):
            arg = self._taint(expr.args[0])
            if arg.sensitive:
                sens = Sensitivity(arg.sensitivity.linf, arg.sensitivity.linf)
                return replace(arg, sensitivity=sens)
            return arg
        if func == "clip":
            arg = self._taint(expr.args[0])
            if arg.sensitive:
                lo = self.checker.expr_types.get(id(expr.args[1]))
                hi = self.checker.expr_types.get(id(expr.args[2]))
                if lo is not None and hi is not None:
                    width = hi.interval.hi - lo.interval.lo
                    sens = Sensitivity(
                        min(arg.sensitivity.l1, max(width, 0.0)),
                        min(arg.sensitivity.linf, max(width, 0.0)),
                    )
                    return replace(arg, sensitivity=sens)
            return arg
        if func == "len":
            # Array lengths are public metadata (shapes are static).
            for arg in expr.args:
                self._taint(arg)
            return Taint.public()
        # Pointwise numeric builtins: nonlinear, so sensitivity is lost but
        # taint propagates.
        taint = Taint.public()
        for arg in expr.args:
            taint = taint.join(self._taint(arg))
        if taint.sensitive and func in ("exp", "log", "sqrt", "random"):
            taint = replace(taint, sensitivity=Sensitivity.unbounded(), released=False)
        if func == "abs" and taint.sensitive:
            pass  # |x| is 1-Lipschitz: sensitivity carries over unchanged
        return taint

    def _mechanism_epsilon(self, base_epsilon: float, phi: Optional[float]) -> float:
        if phi is None or phi >= 1.0:
            return base_epsilon
        return amplified_epsilon(base_epsilon, phi)

    def _mechanism_laplace(self, expr: Call) -> Taint:
        if len(expr.args) != 2:
            raise CertificationError(f"line {expr.line}: laplace expects (value, scale)")
        value = self._taint(expr.args[0])
        self._taint(expr.args[1])
        if not value.sensitive:
            return value  # noising public data is a no-op privacy-wise
        if not math.isfinite(value.sensitivity.l1):
            raise CertificationError(
                f"line {expr.line}: laplace applied to a value with unbounded "
                f"sensitivity; clip() it first"
            )
        scale_type = self.checker.expr_types.get(id(expr.args[1]))
        if scale_type is None or scale_type.interval.lo <= 0:
            raise CertificationError(f"line {expr.line}: laplace scale must be positive")
        per_use = value.sensitivity.l1 / scale_type.interval.lo
        epsilon = self._mechanism_epsilon(per_use, value.sample_phi) * self._multiplier
        self.mechanisms.append(
            MechanismUse(
                "laplace",
                expr.line,
                value.sensitivity,
                epsilon,
                FINITE_PRECISION_DELTA * self._multiplier,
                sample_phi=value.sample_phi,
            )
        )
        return Taint(sensitive=True, released=True, sensitivity=value.sensitivity)

    def _mechanism_em(self, expr: Call) -> Taint:
        if len(expr.args) not in (1, 2):
            raise CertificationError(f"line {expr.line}: em expects (scores[, k])")
        scores = self._taint(expr.args[0])
        if scores.sensitive and not math.isfinite(scores.sensitivity.linf):
            raise CertificationError(
                f"line {expr.line}: em applied to scores with unbounded "
                f"sensitivity; clip() them first"
            )
        k = 1
        if len(expr.args) == 2:
            kt = self.checker.expr_types.get(id(expr.args[1]))
            if kt is None or kt.interval.lo != kt.interval.hi:
                raise CertificationError(f"line {expr.line}: em's k must be a constant")
            k = int(kt.interval.hi)
            self._taint(expr.args[1])
        if not scores.sensitive:
            return scores
        # One-shot top-k costs sqrt(k)*eps [29]; a single draw costs eps.
        per_use = self.env.epsilon * (math.sqrt(k) if k > 1 else 1.0)
        epsilon = self._mechanism_epsilon(per_use, scores.sample_phi) * self._multiplier
        self.mechanisms.append(
            MechanismUse(
                "em",
                expr.line,
                scores.sensitivity,
                epsilon,
                FINITE_PRECISION_DELTA * self._multiplier,
                k=k,
                sample_phi=scores.sample_phi,
            )
        )
        return Taint(sensitive=True, released=True, sensitivity=scores.sensitivity)


def certify(program: Program, env: QueryEnvironment) -> Certificate:
    """Type-check and certify a program; raises on privacy violations."""
    checker = infer_types(program, env)
    return Certifier(env, checker).certify(program)


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
