"""Basic-type and value-range inference (§4.4).

After operator instantiation, Arboretum assigns each variable and
expression a basic type (``int``, ``fix``, or ``bool``) and a conservative
value range. The ranges drive cryptosystem parameter choices (plaintext
modulus, fixpoint widths); the basic types decide which operations a
cryptosystem must support.

:class:`StatementWalk` is the one statement driver of the front end: it
owns dispatch, the ``if`` join and loop unrolling, and both this type walk
and the privacy walk (:mod:`repro.privacy.certify`) run on it. The rule on
which the two differ is the widened loop. Here loops longer than
``UNROLL_LIMIT`` are analyzed with linear widening: the body is abstractly
interpreted once to measure how each interval grows per iteration, the
growth is extrapolated across the trip count, and the body is re-checked
from the widened state. Accumulators (``s = s + x``) are handled exactly;
faster-than-linear growth (``s = s * s``) is rejected with a hint to
``clip``, matching the paper's escape hatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
)
from .ranges import BOOLEAN, Interval, UNIT, point

#: How many noise scales we keep of the (unbounded) Laplace/Gumbel tails.
#: Finite-range data types cut the tails, adding a small delta to the
#: guarantee (§6); 64 scales puts that delta below 2^-64.
NOISE_TAIL_SCALES = 64.0

#: Loops at most this long are unrolled abstractly instead of widened.
UNROLL_LIMIT = 64

_BASIC_ORDER = {"bool": 0, "int": 1, "fix": 2}


class AnalysisError(Exception):
    """Raised when a program cannot be typed (e.g. unbounded ranges)."""


@dataclass(frozen=True)
class ValueType:
    """The static type of a value: basic type, range, and array shape.

    ``shape`` is ``()`` for scalars, ``(k,)`` for vectors, ``(n, k)`` for
    the input matrix ``db``. ``interval`` bounds the (element) values.
    """

    basic: str
    interval: Interval
    shape: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.basic not in _BASIC_ORDER:
            raise ValueError(f"unknown basic type {self.basic!r}")

    @property
    def is_scalar(self) -> bool:
        return self.shape == ()

    @property
    def length(self) -> int:
        if not self.shape:
            raise AnalysisError("scalar values have no length")
        return self.shape[0]

    def element(self) -> "ValueType":
        """The type of one element of an array value."""
        if not self.shape:
            raise AnalysisError("cannot index a scalar")
        return ValueType(self.basic, self.interval, self.shape[1:])

    def join(self, other: "ValueType") -> "ValueType":
        """Least upper bound, used to merge branches of an ``if``.

        Vectors of different lengths join to the longer length — arrays are
        built incrementally by indexed stores, so branches may have seen
        different prefixes of the same array.
        """
        shape = self.shape
        if self.shape != other.shape:
            if len(self.shape) == 1 and len(other.shape) == 1:
                shape = (max(self.shape[0], other.shape[0]),)
            else:
                raise AnalysisError(
                    f"cannot join values of shapes {self.shape} and {other.shape}"
                )
        basic = promote(self.basic, other.basic)
        return ValueType(basic, self.interval.union(other.interval), shape)


def promote(a: str, b: str) -> str:
    """Numeric promotion: bool < int < fix."""
    return a if _BASIC_ORDER[a] >= _BASIC_ORDER[b] else b


#: The row encodings a :class:`QueryEnvironment` accepts.
ROW_ENCODINGS = ("one_hot", "bounded")


@dataclass
class QueryEnvironment:
    """Everything inference needs to know about the deployment and query.

    ``num_participants`` and ``row_width`` fix db's shape; ``db_element``
    types its entries (one-hot categorical data is int in [0,1]).
    ``epsilon``/``sensitivity`` are exposed to programs as the predefined
    scalars ``epsilon`` and ``sens`` (the operator instantiations in Fig 4
    reference both).
    """

    num_participants: int
    row_width: int
    db_element: ValueType = None
    epsilon: float = 0.1
    delta: float = 1e-9
    sensitivity: float = 1.0
    #: "one_hot" rows are 0/1 vectors summing to 1 (enforced by the input
    #: ZKPs); "bounded" rows only promise per-element ranges.
    row_encoding: str = "one_hot"
    #: Optional L1 bound on a bounded row (also ZKP-enforceable): e.g. a
    #: count-mean-sketch row sets exactly ``depth`` cells, so its L1 is
    #: ``depth`` even though the row has thousands of cells.
    row_l1: Optional[float] = None
    constants: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.db_element is None:
            self.db_element = ValueType("int", UNIT)
        if not self.db_element.is_scalar:
            raise ValueError("db_element must describe one scalar entry")
        if self.row_encoding not in ROW_ENCODINGS:
            raise ValueError(f"unknown row encoding {self.row_encoding!r}")

    def db_type(self) -> ValueType:
        return ValueType(
            self.db_element.basic,
            self.db_element.interval,
            (self.num_participants, self.row_width),
        )

    def initial_bindings(self) -> Dict[str, ValueType]:
        bindings = {
            DB_NAME: self.db_type(),
            "epsilon": ValueType("fix", point(self.epsilon)),
            "sens": ValueType("fix", point(self.sensitivity)),
            "N": ValueType("int", point(self.num_participants)),
        }
        for name, value in self.constants.items():
            basic = "int" if float(value).is_integer() else "fix"
            bindings[name] = ValueType(basic, point(value))
        return bindings


class StatementWalk:
    """One abstract walk of a statement list; a subclass supplies the domain.

    The walk owns the control rules, so the type walk and the privacy walk
    (:class:`repro.privacy.certify.AbstractInterpreter`) cannot drift apart
    on them: statement dispatch; the ``if`` rule, which walks both arms
    from one copy of ``bindings`` and joins them (a name only one arm
    defines keeps that arm's value); and the loop rule, under which
    ``enter_loop`` returns the trip count, loops of at most
    ``UNROLL_LIMIT`` trips are unrolled and longer ones go to ``widen``.
    A subclass supplies ``infer``, ``index_assign``, ``enter_loop``,
    ``widen`` and ``unknown_statement``, and may hook ``enter_if`` (before
    the arms) and ``leave_if`` (after the join).
    """

    bindings: Dict[str, object]

    def walk_block(self, statements: List[Stmt]) -> None:
        for stmt in statements:
            self.walk_statement(stmt)

    def walk_statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.bindings[stmt.var] = self.infer(stmt.value)
        elif isinstance(stmt, IndexAssign):
            self.index_assign(stmt)
        elif isinstance(stmt, ExprStmt):
            self.infer(stmt.expr)
        elif isinstance(stmt, For):
            trips = self.enter_loop(stmt)
            if trips > UNROLL_LIMIT:
                self.widen(stmt, trips)
            else:
                for _ in range(trips):
                    self.walk_block(stmt.body)
        elif isinstance(stmt, If):
            cond = self.infer(stmt.cond)
            self.enter_if(stmt, cond)
            before = dict(self.bindings)
            self.walk_block(stmt.then_body)
            after_then, self.bindings = self.bindings, before
            self.walk_block(stmt.else_body)
            for name, value in after_then.items():
                other = self.bindings.get(name)
                self.bindings[name] = value if other is None else value.join(other)
            self.leave_if(stmt, cond)
        else:
            self.unknown_statement(stmt)

    def enter_if(self, stmt: If, cond) -> None:
        pass

    def leave_if(self, stmt: If, cond) -> None:
        pass


class TypeChecker(StatementWalk):
    """Abstract interpreter computing per-variable and per-expression types."""

    def __init__(self, env: QueryEnvironment):
        self.env = env
        self.bindings: Dict[str, ValueType] = env.initial_bindings()
        #: Types of every expression node, keyed by id(node); the planner
        #: reads these when assigning cryptosystems.
        self.expr_types: Dict[int, ValueType] = {}
        #: A loop body is checked once per unrolled iteration (and per
        #: widening round) and ``expr_types`` keeps the last pass; for the
        #: nodes whose interval differed between passes, this holds the
        #: union of them all. ``interval_hull`` reads the two together.
        self.expr_hulls: Dict[int, Interval] = {}
        self.output_types: List[ValueType] = []

    # ------------------------------------------------------------ statements

    def unknown_statement(self, stmt: Stmt) -> None:
        raise AnalysisError(f"unknown statement {type(stmt).__name__}")

    def index_assign(self, stmt: IndexAssign) -> None:
        index_type = self.infer(stmt.index)
        if not index_type.is_scalar:
            raise AnalysisError(f"line {stmt.line}: array index must be scalar")
        if not index_type.interval.is_finite():
            raise AnalysisError(f"line {stmt.line}: array index range is unbounded")
        value_type = self.infer(stmt.value)
        if not value_type.is_scalar:
            raise AnalysisError(f"line {stmt.line}: can only store scalars into arrays")
        length = int(index_type.interval.hi) + 1
        existing = self.bindings.get(stmt.var)
        if existing is not None and existing.shape:
            length = max(length, existing.length)
            merged = ValueType(
                promote(existing.basic, value_type.basic),
                existing.interval.union(value_type.interval),
                (length,),
            )
        else:
            merged = ValueType(value_type.basic, value_type.interval, (length,))
        self.bindings[stmt.var] = merged

    def enter_if(self, stmt: If, cond: ValueType) -> None:
        if cond.basic != "bool":
            raise AnalysisError(f"line {stmt.line}: if-condition must be boolean")

    def enter_loop(self, stmt: For) -> int:
        start = self.infer(stmt.start)
        end = self.infer(stmt.end)
        for bound, what in ((start, "start"), (end, "end")):
            if not bound.is_scalar or not bound.interval.is_finite():
                raise AnalysisError(
                    f"line {stmt.line}: loop {what} bound must be a finite scalar"
                )
        lo = int(math.floor(start.interval.lo))
        hi = int(math.ceil(end.interval.hi))
        self.bindings[stmt.var] = ValueType("int", Interval(lo, max(lo, hi)))
        return max(0, hi - lo + 1)

    def widen(self, stmt: For, trip_count: int) -> None:
        """Linear widening for long loops; see the module docstring.

        Widening runs to a fixpoint over a few rounds, because variables
        defined *inside* the loop (or derived from other widened variables)
        only stabilize once their inputs have been widened. If the state
        still escapes after the round budget, the growth is genuinely
        faster than linear and the analyst must ``clip``.
        """
        for _round in range(4):
            before = dict(self.bindings)
            self.walk_block(stmt.body)
            widened: Dict[str, ValueType] = {}
            stable = True
            for name, after in self.bindings.items():
                prior = before.get(name)
                if prior is None or prior.shape != after.shape:
                    widened[name] = after
                    stable = False
                    continue
                grow_hi = max(0.0, after.interval.hi - prior.interval.hi)
                grow_lo = max(0.0, prior.interval.lo - after.interval.lo)
                if grow_hi > 1e-9 or grow_lo > 1e-9:
                    stable = False
                widened[name] = ValueType(
                    promote(prior.basic, after.basic),
                    Interval(
                        prior.interval.lo - grow_lo * trip_count,
                        prior.interval.hi + grow_hi * trip_count,
                    ),
                    after.shape,
                )
            self.bindings = widened
            if stable:
                return
            # Verify the widened state is a post-fixpoint: one more body
            # pass must stay within a per-iteration slack proportional to
            # the widened width.
            state = dict(self.bindings)
            self.walk_block(stmt.body)
            escaped = None
            for name, after in self.bindings.items():
                prior = state.get(name)
                if prior is None or prior.shape != after.shape:
                    continue
                per_iter_slack = max(
                    after.interval.hi - prior.interval.hi,
                    prior.interval.lo - after.interval.lo,
                    0.0,
                )
                allowed = (prior.interval.width + 1.0) / max(trip_count, 1)
                if per_iter_slack > allowed * 4 + 1e-9:
                    escaped = name
            self.bindings = state
            if escaped is None:
                return
        raise AnalysisError(
            f"line {stmt.line}: variable {escaped!r} grows faster than "
            f"linearly across {trip_count} iterations; add clip() to bound "
            f"its range"
        )

    # ----------------------------------------------------------- expressions

    def infer(self, expr: Expr) -> ValueType:
        result = self._infer(expr)
        key = id(expr)
        prior = self.expr_types.get(key)
        self.expr_types[key] = result
        if prior is not None and prior.interval != result.interval:
            hull = self.expr_hulls.get(key, prior.interval)
            self.expr_hulls[key] = hull.union(result.interval)
        return result

    def trip_count(self, stmt: For) -> int:
        """A checked loop's trip count from its typed bounds (1 if untyped)."""
        start = self.expr_types.get(id(stmt.start))
        end = self.expr_types.get(id(stmt.end))
        if start is None or end is None:
            return 1
        return max(0, int(math.ceil(end.interval.hi)) - int(math.floor(start.interval.lo)) + 1)

    def interval_hull(self, expr: Expr) -> Optional[Interval]:
        """Every value ``expr`` took over all passes (None if never typed)."""
        hull = self.expr_hulls.get(id(expr))
        if hull is not None:
            return hull
        vt = self.expr_types.get(id(expr))
        return vt.interval if vt is not None else None

    def _infer(self, expr: Expr) -> ValueType:
        if isinstance(expr, IntLit):
            return ValueType("int", point(expr.value))
        if isinstance(expr, FloatLit):
            return ValueType("fix", point(expr.value))
        if isinstance(expr, BoolLit):
            return ValueType("bool", point(1.0 if expr.value else 0.0))
        if isinstance(expr, Var):
            if expr.name not in self.bindings:
                raise AnalysisError(f"line {expr.line}: undefined variable {expr.name!r}")
            return self.bindings[expr.name]
        if isinstance(expr, Index):
            base = self.infer(expr.base)
            index = self.infer(expr.index)
            if not index.is_scalar:
                raise AnalysisError(f"line {expr.line}: array index must be scalar")
            return base.element()
        if isinstance(expr, UnOp):
            return self._infer_unop(expr)
        if isinstance(expr, BinOp):
            return self._infer_binop(expr)
        if isinstance(expr, Call):
            return self._infer_call(expr)
        raise AnalysisError(f"unknown expression {type(expr).__name__}")

    def _infer_unop(self, expr: UnOp) -> ValueType:
        operand = self.infer(expr.operand)
        if expr.op == "!":
            if operand.basic != "bool":
                raise AnalysisError(f"line {expr.line}: ! needs a boolean operand")
            return ValueType("bool", BOOLEAN, operand.shape)
        if expr.op == "-":
            return ValueType(
                promote(operand.basic, "int"), -operand.interval, operand.shape
            )
        raise AnalysisError(f"unknown unary operator {expr.op!r}")

    def _infer_binop(self, expr: BinOp) -> ValueType:
        left = self.infer(expr.left)
        right = self.infer(expr.right)
        shape = self._broadcast_shape(left, right, expr.line)
        op = expr.op
        if op in ("&&", "||"):
            if left.basic != "bool" or right.basic != "bool":
                raise AnalysisError(f"line {expr.line}: {op} needs boolean operands")
            return ValueType("bool", BOOLEAN, shape)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return ValueType("bool", BOOLEAN, shape)
        basic = promote(promote(left.basic, right.basic), "int")
        if op == "+":
            interval = left.interval + right.interval
        elif op == "-":
            interval = left.interval - right.interval
        elif op == "*":
            interval = left.interval * right.interval
        elif op == "/":
            interval = left.interval / right.interval
            basic = "fix"
            if not interval.is_finite():
                raise AnalysisError(
                    f"line {expr.line}: division range is unbounded "
                    f"(divisor may be zero); clip() the divisor"
                )
        else:
            raise AnalysisError(f"unknown binary operator {op!r}")
        return ValueType(basic, interval, shape)

    def _broadcast_shape(self, left: ValueType, right: ValueType, line: int) -> Tuple[int, ...]:
        if left.shape == right.shape:
            return left.shape
        if left.is_scalar:
            return right.shape
        if right.is_scalar:
            return left.shape
        raise AnalysisError(
            f"line {line}: shape mismatch {left.shape} vs {right.shape}"
        )

    # -------------------------------------------------------------- builtins

    def _infer_call(self, expr: Call) -> ValueType:
        args = [self.infer(a) for a in expr.args]
        handler = getattr(self, f"_builtin_{expr.func}", None)
        if handler is None:
            raise AnalysisError(f"line {expr.line}: unknown function {expr.func!r}")
        return handler(expr, args)

    def _require_args(self, expr: Call, args: List[ValueType], count: int) -> None:
        if len(args) != count:
            raise AnalysisError(
                f"line {expr.line}: {expr.func} expects {count} argument(s), got {len(args)}"
            )

    def _builtin_sum(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        arg = args[0]
        if len(arg.shape) == 2:
            n = arg.shape[0]
            return ValueType(
                promote(arg.basic, "int"), arg.interval.scale(n), (arg.shape[1],)
            )
        if len(arg.shape) == 1:
            return ValueType(
                promote(arg.basic, "int"), arg.interval.scale(arg.length), ()
            )
        raise AnalysisError(f"line {expr.line}: sum needs an array argument")

    def _builtin_max(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        arg = args[0]
        if len(arg.shape) != 1:
            raise AnalysisError(f"line {expr.line}: max needs a vector argument")
        return ValueType(arg.basic, arg.interval, ())

    def _builtin_argmax(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        arg = args[0]
        if len(arg.shape) != 1:
            raise AnalysisError(f"line {expr.line}: argmax needs a vector argument")
        return ValueType("int", Interval(0, arg.length - 1), ())

    def _builtin_em(self, expr: Call, args: List[ValueType]) -> ValueType:
        if len(args) not in (1, 2):
            raise AnalysisError(f"line {expr.line}: em expects 1 or 2 arguments")
        arg = args[0]
        if len(arg.shape) != 1:
            raise AnalysisError(f"line {expr.line}: em needs a vector of scores")
        index = Interval(0, arg.length - 1)
        if len(args) == 2:
            k_type = args[1]
            if k_type.interval.lo != k_type.interval.hi:
                raise AnalysisError(f"line {expr.line}: em's k must be a constant")
            k = int(k_type.interval.hi)
            if k > 1:
                return ValueType("int", index, (k,))
        return ValueType("int", index, ())

    def _builtin_laplace(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 2)
        value, scale = args
        tail = scale.interval.hi * NOISE_TAIL_SCALES
        return ValueType(
            "fix",
            Interval(value.interval.lo - tail, value.interval.hi + tail),
            value.shape,
        )

    def _builtin_gumbel(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        tail = args[0].interval.hi * NOISE_TAIL_SCALES
        return ValueType("fix", Interval(-tail, tail), ())

    def _builtin_sampleUniform(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 2)
        arg = args[0]
        if len(arg.shape) != 2:
            raise AnalysisError(
                f"line {expr.line}: sampleUniform selects rows of the input matrix"
            )
        phi = args[1]
        if not 0.0 < phi.interval.hi <= 1.0:
            raise AnalysisError(
                f"line {expr.line}: sampling probability must be in (0, 1]"
            )
        return arg

    def _builtin_clip(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 3)
        value, lo, hi = args
        return ValueType(
            value.basic, value.interval.clip(lo.interval.lo, hi.interval.hi), value.shape
        )

    def _builtin_exp(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        return ValueType("fix", args[0].interval.exp(), args[0].shape)

    def _builtin_log(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        interval = args[0].interval.log()
        if not interval.is_finite():
            raise AnalysisError(f"line {expr.line}: log range is unbounded; clip the argument")
        return ValueType("fix", interval, args[0].shape)

    def _builtin_sqrt(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        return ValueType("fix", args[0].interval.sqrt(), args[0].shape)

    def _builtin_abs(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        return ValueType(args[0].basic, args[0].interval.abs(), args[0].shape)

    def _builtin_len(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        if not args[0].shape:
            raise AnalysisError(f"line {expr.line}: len needs an array argument")
        return ValueType("int", point(args[0].shape[0]), ())

    def _builtin_random(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        bound = args[0]
        return ValueType(
            promote(bound.basic, "int"), Interval(0.0, max(bound.interval.hi, 0.0)), ()
        )

    def _builtin_output(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        self.output_types.append(args[0])
        return args[0]

    def _builtin_declassify(self, expr: Call, args: List[ValueType]) -> ValueType:
        self._require_args(expr, args, 1)
        return args[0]


def infer_types(program: Program, env: QueryEnvironment) -> TypeChecker:
    """Run inference over a whole program and return the checker with results."""
    checker = TypeChecker(env)
    checker.walk_block(program.statements)
    return checker
