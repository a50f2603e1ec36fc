"""Cleartext reference interpreter for the query language.

Runs a query exactly as written, on a plain in-memory database — the
"single machine that has access to the entire data set" fiction of §4.1.
This is the semantic reference that the federated executor must match:
for any query, running it here (centralized, with the same DP mechanisms)
and running it through planning + distributed execution must produce
identically *distributed* outputs; tests compare them on queries whose
answer is deterministic given the data (large score gaps, high ε).

It is a test oracle: nothing in ``src/`` imports it and no option selects it.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Union

from repro.lang.ast import (
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
from repro.lang.parser import parse
from repro.privacy.mechanisms import (
    exponential_mechanism_gumbel,
    gumbel_sample,
    laplace_sample,
    top_k_oneshot,
)

Number = Union[int, float, bool]


class ReferenceError_(Exception):
    """Raised for programs the reference interpreter cannot run."""


class ReferenceInterpreter:
    """Direct evaluator over a cleartext database.

    ``db`` is a list of rows (one per participant); ``epsilon`` and
    ``sensitivity`` bind the predefined ``epsilon``/``sens`` variables the
    mechanisms reference.
    """

    def __init__(
        self,
        db: Sequence[Sequence[Number]],
        epsilon: float = 1.0,
        sensitivity: float = 1.0,
        rng: Optional[random.Random] = None,
        constants: Optional[Dict[str, Number]] = None,
        sample_fraction_override: Optional[float] = None,
    ):
        self.rng = rng or random.Random()
        self.epsilon = epsilon
        self.sensitivity = sensitivity
        self.bindings: Dict[str, object] = {
            DB_NAME: [list(row) for row in db],
            "epsilon": epsilon,
            "sens": sensitivity,
            "N": len(db),
        }
        if constants:
            self.bindings.update(constants)
        self.outputs: List[object] = []
        self._sample_override = sample_fraction_override

    # ------------------------------------------------------------- execution

    def run(self, program: Program) -> List[object]:
        self._exec_block(program.statements)
        return self.outputs

    def run_source(self, source: str) -> List[object]:
        return self.run(parse(source))

    def _exec_block(self, statements: List[Stmt]) -> None:
        for stmt in statements:
            self._exec(stmt)

    def _exec(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.bindings[stmt.var] = self._eval(stmt.value)
        elif isinstance(stmt, IndexAssign):
            index = int(self._eval(stmt.index))
            target = self.bindings.setdefault(stmt.var, [])
            if not isinstance(target, list):
                raise ReferenceError_(f"{stmt.var!r} is not an array")
            while len(target) <= index:
                target.append(0)
            target[index] = self._eval(stmt.value)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, For):
            start = int(self._eval(stmt.start))
            end = int(self._eval(stmt.end))
            for i in range(start, end + 1):
                self.bindings[stmt.var] = i
                self._exec_block(stmt.body)
        elif isinstance(stmt, If):
            branch = stmt.then_body if self._eval(stmt.cond) else stmt.else_body
            self._exec_block(branch)
        else:
            raise ReferenceError_(f"unknown statement {type(stmt).__name__}")

    # ------------------------------------------------------------ evaluation

    def _eval(self, expr: Expr):
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in self.bindings:
                raise ReferenceError_(f"undefined variable {expr.name!r}")
            return self.bindings[expr.name]
        if isinstance(expr, Index):
            base = self._eval(expr.base)
            return base[int(self._eval(expr.index))]
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand)
            return (not value) if expr.op == "!" else -value
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, Call):
            return self._call(expr)
        raise ReferenceError_(f"unknown expression {type(expr).__name__}")

    def _binop(self, expr: BinOp):
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        op = expr.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "&&":
            return bool(left) and bool(right)
        if op == "||":
            return bool(left) or bool(right)
        raise ReferenceError_(f"unknown operator {op!r}")

    # -------------------------------------------------------------- builtins

    def _call(self, expr: Call):
        args = [self._eval(a) for a in expr.args]
        func = expr.func
        if func == "sum":
            values = args[0]
            if values and isinstance(values[0], list):
                width = len(values[0])
                return [sum(row[j] for row in values) for j in range(width)]
            return sum(values)
        if func == "max":
            return max(args[0]) if len(args) == 1 and isinstance(args[0], list) else max(args)
        if func == "argmax":
            values = args[0]
            return max(range(len(values)), key=values.__getitem__)
        if func == "em":
            scores = [float(s) for s in args[0]]
            if len(args) == 2:
                k = int(args[1])
                if k > 1:
                    return top_k_oneshot(
                        scores, k, self.sensitivity, self.epsilon, self.rng
                    )
            return exponential_mechanism_gumbel(
                scores, self.sensitivity, self.epsilon, self.rng
            )
        if func == "laplace":
            scale = float(args[1])
            if isinstance(args[0], list):
                return [v + laplace_sample(scale, self.rng) for v in args[0]]
            return args[0] + laplace_sample(scale, self.rng)
        if func == "gumbel":
            return gumbel_sample(float(args[0]), self.rng)
        if func == "sampleUniform":
            rows = args[0]
            phi = self._sample_override if self._sample_override is not None else float(args[1])
            return [row for row in rows if self.rng.random() < phi]
        if func == "clip":
            return min(max(args[0], args[1]), args[2])
        if func == "exp":
            return math.exp(args[0])
        if func == "log":
            return math.log(args[0])
        if func == "sqrt":
            return math.sqrt(args[0])
        if func == "abs":
            return abs(args[0])
        if func == "len":
            return len(args[0])
        if func == "random":
            return self.rng.uniform(0.0, float(args[0]))
        if func == "output":
            self.outputs.append(args[0])
            return args[0]
        if func == "declassify":
            return args[0]
        raise ReferenceError_(f"unknown function {func!r}")


def one_hot_database(categories: Sequence[int], width: int) -> List[List[int]]:
    """Build the db matrix from per-participant category indices."""
    rows = []
    for c in categories:
        row = [0] * width
        row[int(c) % width] = 1
        rows.append(row)
    return rows


def run_reference(
    source: str,
    db: Sequence[Sequence[Number]],
    epsilon: float = 1.0,
    sensitivity: float = 1.0,
    rng: Optional[random.Random] = None,
    constants: Optional[Dict[str, Number]] = None,
) -> List[object]:
    """One-call convenience wrapper."""
    interp = ReferenceInterpreter(
        db, epsilon=epsilon, sensitivity=sensitivity, rng=rng, constants=constants
    )
    return interp.run_source(source)
