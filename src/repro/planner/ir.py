"""Logical operator IR and AST lowering (§4.3).

The planner does not search over raw statements; it first lowers the
certified program into a pipeline of *logical operators* — encrypt-input,
aggregate, vector transform, noise, select-max (the em), output — each of
which can be instantiated in several concrete ways (§4.3: a sum can be a
flat aggregator loop or a tree of some fanout; the em can use explicit
exponentiation in FHE or Gumbel noise in MPC; a transform can run
homomorphically on the aggregator or in committee MPC). The statements
between recognized operators are folded into VectorTransform/Postprocess
ops whose operation counts (linear vs. nonlinear) decide which
instantiations are legal and what they cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.types import QueryEnvironment, TypeChecker
from ..lang.ast import (
    Assign,
    BinOp,
    Call,
    Expr,
    ExprStmt,
    For,
    If,
    IndexAssign,
    Program,
    Stmt,
    UnOp,
    Var,
    DB_NAME,
    walk_expr,
)
from ..privacy.certify import Certificate


class LoweringError(Exception):
    """Raised when a program does not fit the supported operator pipeline."""


# --------------------------------------------------------------- logical ops


@dataclass
class LogicalOp:
    """Base class; ``name`` identifies the op in plans and diagnostics."""

    name: str = field(init=False, default="op")


@dataclass
class EncryptInput(LogicalOp):
    """Participants encrypt and upload their (one-hot or bounded) rows.

    ``sample_fraction`` < 1 asks for the oblivious bin-sampling layout of
    §6; the input choice picks its bin count (``expand.scheme_inputs``).
    """

    categories: int
    statement_kind: str = "one_hot"  # or "range"
    sample_fraction: float = 1.0

    def __post_init__(self):
        self.name = "input"


@dataclass
class Aggregate(LogicalOp):
    """Sum the N encrypted uploads into one aggregate vector (length C)."""

    categories: int
    num_participants: int

    def __post_init__(self):
        self.name = "aggregate"


@dataclass
class VectorTransform(LogicalOp):
    """A block of per-element arithmetic over the (encrypted) aggregate.

    ``linear_ops`` counts additions/subtractions/scalings, which AHE can
    absorb; ``nonlinear_ops`` counts comparisons, abs, multiplications of
    two secrets, exponentials — anything that forces FHE or MPC.
    """

    length: int
    linear_ops: int = 0
    nonlinear_ops: int = 0

    def __post_init__(self):
        self.name = "transform"

    @property
    def total_ops(self) -> int:
        return self.linear_ops + self.nonlinear_ops


@dataclass
class SelectMax(LogicalOp):
    """The exponential mechanism: select the best of C categories, k times.

    ``with_gap`` additionally releases the noisy winner-runner-up gap [28];
    ``release_value`` additionally releases the noisy maximum itself (used
    by the unbounded-auction query).
    """

    categories: int
    k: int = 1
    with_gap: bool = False
    release_value: bool = False

    def __post_init__(self):
        self.name = "select_max"


@dataclass
class NoiseOutput(LogicalOp):
    """Laplace-noise one or more aggregate values and release them."""

    count: int  # number of released scalars

    def __post_init__(self):
        self.name = "noise_output"


@dataclass
class Postprocess(LogicalOp):
    """Cleartext postprocessing of already-released values (aggregator)."""

    scalar_ops: int

    def __post_init__(self):
        self.name = "postprocess"


@dataclass
class Output(LogicalOp):
    """Publish the final result to the analyst."""

    values: int = 1

    def __post_init__(self):
        self.name = "output"


@dataclass
class LogicalPlan:
    """The lowered pipeline plus everything scoring and execution need.

    ``aggregate_var`` names the variable holding ``sum(db)`` and
    ``post_statements`` are the top-level statements after that assignment;
    the runtime's committee interpreter executes them over secret-shared
    values (the vignette structure governs *where*, these govern *what*).
    """

    query_name: str
    ops: List[LogicalOp]
    env: QueryEnvironment
    certificate: Certificate
    aggregate_var: Optional[str] = None
    post_statements: List[Stmt] = field(default_factory=list)
    sample_fraction: float = 1.0

    @property
    def categories(self) -> int:
        return self.env.row_width


# ------------------------------------------------------------------ lowering


def _expr_uses(expr: Expr, names: set) -> bool:
    return any(isinstance(e, Var) and e.name in names for e in walk_expr(expr))


def _calls_in_expr(expr: Expr) -> List[Call]:
    return [e for e in walk_expr(expr) if isinstance(e, Call)]


_NONLINEAR_FUNCS = {"exp", "log", "sqrt", "abs", "random"}
_COMPARISON_OPS = {"<", "<=", ">", ">=", "==", "!=", "&&", "||"}


def _count_ops(expr: Expr, sensitive: set) -> Tuple[int, int]:
    """(linear, nonlinear) op counts of one expression over sensitive data."""
    linear = 0
    nonlinear = 0
    for e in walk_expr(expr):
        if isinstance(e, BinOp):
            touches_secret = _expr_uses(e.left, sensitive) or _expr_uses(e.right, sensitive)
            if not touches_secret:
                continue
            if e.op in _COMPARISON_OPS:
                nonlinear += 1
            elif e.op == "*":
                if _expr_uses(e.left, sensitive) and _expr_uses(e.right, sensitive):
                    nonlinear += 1
                else:
                    linear += 1
            elif e.op == "/":
                nonlinear += 1
            else:
                linear += 1
        elif isinstance(e, UnOp):
            if _expr_uses(e.operand, sensitive):
                if e.op == "!":
                    nonlinear += 1
                else:
                    linear += 1
        elif isinstance(e, Call) and e.func in _NONLINEAR_FUNCS:
            if any(_expr_uses(a, sensitive) for a in e.args):
                nonlinear += 1
    return linear, nonlinear


class _Lowerer:
    """Walks the statement list and emits the logical operator pipeline."""

    def __init__(self, program: Program, env: QueryEnvironment, cert: Certificate, name: str):
        self.program = program
        self.env = env
        self.cert = cert
        self.name = name
        self.checker: TypeChecker = cert.checker
        self.ops: List[LogicalOp] = []
        #: Variables currently holding sensitive (pre-mechanism) data.
        self.sensitive = {DB_NAME}
        #: Variables holding released (post-mechanism) data.
        self.released = set()
        self.sample_fraction = 1.0
        self.sampled_names = set()
        self._pending_transform: Optional[VectorTransform] = None
        self._outputs = 0

    # ------------------------------------------------------------- plumbing

    def _vector_length(self, expr: Expr) -> int:
        vt = self.checker.expr_types.get(id(expr))
        if vt is not None and vt.shape:
            return vt.shape[0]
        return self.env.row_width

    def _flush_transform(self) -> None:
        if self._pending_transform and self._pending_transform.total_ops > 0:
            self.ops.append(self._pending_transform)
        self._pending_transform = None

    def _add_transform_ops(self, linear: int, nonlinear: int, length: int) -> None:
        if self._pending_transform is None:
            self._pending_transform = VectorTransform(length)
        t = self._pending_transform
        t.linear_ops += linear
        t.nonlinear_ops += nonlinear
        t.length = max(t.length, length)

    # ------------------------------------------------------------ statements

    def lower(self) -> LogicalPlan:
        self._lower_block(self.program.statements, multiplier=1)
        self._flush_transform()
        if self._outputs:
            self.ops.append(Output(self._outputs))
        self._validate()
        aggregate_var, post = self._split_at_aggregate()
        return LogicalPlan(
            self.name,
            self.ops,
            self.env,
            self.cert,
            aggregate_var=aggregate_var,
            post_statements=post,
            sample_fraction=self.sample_fraction,
        )

    def _split_at_aggregate(self) -> Tuple[Optional[str], List[Stmt]]:
        """Find the top-level ``x = sum(db-ish)`` and the statements after it."""
        for i, stmt in enumerate(self.program.statements):
            if isinstance(stmt, Assign):
                for call in _calls_in_expr(stmt.value):
                    if call.func == "sum" and self._is_db_sum(call):
                        return stmt.var, list(self.program.statements[i + 1 :])
        return None, []

    def _lower_block(self, statements: List[Stmt], multiplier: int) -> None:
        for stmt in statements:
            self._lower_statement(stmt, multiplier)

    def _lower_statement(self, stmt: Stmt, multiplier: int) -> None:
        if isinstance(stmt, For):
            trips = self.checker.trip_count(stmt)
            self._lower_block(stmt.body, multiplier * max(trips, 1))
            return
        if isinstance(stmt, If):
            linear, nonlinear = _count_ops(stmt.cond, self.sensitive)
            if linear or nonlinear:
                self._add_transform_ops(
                    (linear + 1) * multiplier, nonlinear * multiplier, 1
                )
            self._lower_block(stmt.then_body, multiplier)
            self._lower_block(stmt.else_body, multiplier)
            return
        for expr in self._statement_exprs(stmt):
            self._lower_expr_stmt(stmt, expr, multiplier)

    def _statement_exprs(self, stmt: Stmt) -> List[Expr]:
        if isinstance(stmt, Assign):
            return [stmt.value]
        if isinstance(stmt, IndexAssign):
            return [stmt.value]
        if isinstance(stmt, ExprStmt):
            return [stmt.expr]
        return []

    def _target_of(self, stmt: Stmt) -> Optional[str]:
        if isinstance(stmt, (Assign, IndexAssign)):
            return stmt.var
        return None

    def _lower_expr_stmt(self, stmt: Stmt, expr: Expr, multiplier: int) -> None:
        target = self._target_of(stmt)
        calls = _calls_in_expr(expr)
        handled = False
        for call in calls:
            if call.func == "sampleUniform":
                phi_type = self.checker.expr_types.get(id(call.args[1]))
                self.sample_fraction = phi_type.interval.hi if phi_type else 1.0
                if target:
                    self.sampled_names.add(target)
                    self.sensitive.add(target)
                handled = True
            elif call.func == "sum" and self._is_db_sum(call):
                self._flush_transform()
                self.ops.append(
                    EncryptInput(
                        categories=self.env.row_width,
                        statement_kind=self.env.row_encoding
                        if self.env.row_encoding == "one_hot"
                        else "range",
                        sample_fraction=self.sample_fraction,
                    )
                )
                self.ops.append(
                    Aggregate(self.env.row_width, self.env.num_participants)
                )
                if target:
                    self.sensitive.add(target)
                handled = True
            elif call.func == "em":
                self._flush_transform()
                k = 1
                if len(call.args) == 2:
                    kt = self.checker.expr_types.get(id(call.args[1]))
                    k = int(kt.interval.hi) if kt else 1
                length = self._vector_length(call.args[0])
                self.ops.append(SelectMax(length, k=max(k, 1)))
                if target:
                    self.released.add(target)
                    self.sensitive.discard(target)
                handled = True
            elif call.func == "laplace":
                self._flush_transform()
                vt = self.checker.expr_types.get(id(call.args[0]))
                count = vt.shape[0] if (vt and vt.shape) else 1
                self.ops.append(NoiseOutput(count * multiplier))
                if target:
                    self.released.add(target)
                    self.sensitive.discard(target)
                handled = True
            elif call.func == "output":
                self._outputs += 1
                handled = True
        if handled:
            return
        # Plain arithmetic statement: transform if it touches secrets,
        # postprocess otherwise.
        linear, nonlinear = _count_ops(expr, self.sensitive)
        if linear or nonlinear or self._reads_sensitive(expr):
            length = self._vector_length(expr)
            self._add_transform_ops(
                max(linear, 1) * multiplier, nonlinear * multiplier, length
            )
            if target:
                self.sensitive.add(target)
        else:
            if target and self._reads_released(expr):
                self.released.add(target)

    def _reads_sensitive(self, expr: Expr) -> bool:
        return _expr_uses(expr, self.sensitive)

    def _reads_released(self, expr: Expr) -> bool:
        return _expr_uses(expr, self.released)

    def _is_db_sum(self, call: Call) -> bool:
        return bool(call.args) and _expr_uses(call.args[0], {DB_NAME} | self.sampled_names)

    # ------------------------------------------------------------ validation

    def _validate(self) -> None:
        if not any(isinstance(op, EncryptInput) for op in self.ops):
            raise LoweringError(
                "query never aggregates the input database; nothing to plan"
            )
        if not any(isinstance(op, Output) for op in self.ops):
            raise LoweringError("query produces no output")
        if not any(isinstance(op, (SelectMax, NoiseOutput)) for op in self.ops):
            raise LoweringError("query releases nothing through a DP mechanism")
        # The oblivious bin-sampling layout is attached to the input op.
        if self.sample_fraction < 1.0:
            for op in self.ops:
                if isinstance(op, EncryptInput):
                    op.sample_fraction = self.sample_fraction


def lower(program: Program, env: QueryEnvironment, certificate: Certificate, name: str = "query") -> LogicalPlan:
    """Lower a certified program to the logical operator pipeline."""
    return _Lowerer(program, env, certificate, name).lower()
