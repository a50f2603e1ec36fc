"""The comparison width a plan needs, from its certified value ranges.

A committee's ``less_than`` is correct only when the compared values differ
by less than 2^k (``MPCEngine.less_than``), and it costs k − 1 triples and
k rounds. So the width is sized to the plan, not to a constant: k is the
smallest width with |a − b| < 2^k at every comparison the committees run
over secrets, read off the intervals the type checker certified — each
node's hull over every abstract pass (``TypeChecker.interval_hull``), since a
loop's iterations are separate passes and a value may narrow as the loop
runs. The sites are exactly the secure
interpreter's and the executor's comparisons:

* ``<``, ``<=``, ``>``, ``>=``, ``==``, ``!=`` and ``abs`` on a secret;
* ``clip`` of a secret (two comparisons: against lo, then against hi);
* ``max``/``argmax`` over a secret vector (element against element);
* every ``em`` — the argmax tournament compares fixpoint scores plus
  Gumbel noise, so its span is
  ``(score span + Gumbel span) · 2^16 + 1``, the Gumbel span being the
  sampler's exact support at the scale ``_run_em`` draws at (no tail
  probability: nothing is cut, nothing is charged).

The width is derived, never stored: plan, certificate and journal bytes
do not carry it. Whether this runtime's field can mask it is the
executor's question (``QueryExecutor.run`` refuses past
``mpc.engine.max_bit_width``), not the planner's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..analysis.ranges import Interval, bits_needed, point
from ..lang.ast import (
    Assign,
    BinOp,
    Call,
    Expr,
    Index,
    IndexAssign,
    UnOp,
    Var,
    expressions_of,
    format_expr,
    walk_expr,
    walk_statements,
)
from ..mpc.protocols import FIXPOINT_SCALE
from ..privacy.mechanisms import em_gumbel_scale, gumbel_support

_COMPARISONS = {"<", "<=", ">", ">=", "==", "!="}
#: Calls whose result is public whatever they read (releases and lengths).
_PUBLIC_CALLS = {"em", "laplace", "declassify", "len"}


@dataclass(frozen=True)
class ComparisonSite:
    """One secret comparison the committees run: where, and at what span."""

    line: int
    expr: str
    #: Largest |a − b| the comparison can see.
    span: float

    @property
    def bits(self) -> int:
        """Smallest k with span < 2^k."""
        return bits_needed(point(self.span))

    def describe(self) -> str:
        return f"line {self.line}: {self.expr}"


def _may_be_secret(expr: Expr, secret: Set[str]) -> bool:
    if isinstance(expr, Var):
        return expr.name in secret
    if isinstance(expr, Index):
        return _may_be_secret(expr.base, secret)
    if isinstance(expr, BinOp):
        return _may_be_secret(expr.left, secret) or _may_be_secret(expr.right, secret)
    if isinstance(expr, UnOp):
        return _may_be_secret(expr.operand, secret)
    if isinstance(expr, Call) and expr.func not in _PUBLIC_CALLS:
        return any(_may_be_secret(arg, secret) for arg in expr.args)
    return False


def _secret_variables(logical) -> Set[str]:
    """Variables that may hold shares: the aggregate and whatever is
    computed from it short of a release, to a fixpoint over the program."""
    secret = {logical.aggregate_var or "aggr"}
    stores = [
        stmt
        for stmt in walk_statements(logical.post_statements)
        if isinstance(stmt, (Assign, IndexAssign))
    ]
    grew = True
    while grew:
        grew = False
        for stmt in stores:
            if stmt.var not in secret and _may_be_secret(stmt.value, secret):
                secret.add(stmt.var)
                grew = True
    return secret


def comparison_sites(logical) -> List[ComparisonSite]:
    """Every secret comparison site of ``logical``'s committee program."""
    checker = logical.certificate.checker
    env = logical.env
    secret = _secret_variables(logical)

    def interval(expr: Expr) -> Interval:
        hull = checker.interval_hull(expr)
        if hull is None or not hull.is_finite():
            # A node the checker never typed (or could not bound) has no
            # certified width: refuse rather than guess one.
            raise ValueError(
                f"line {expr.line}: {format_expr(expr)} has no certified "
                "finite range to size its comparison"
            )
        return hull

    sites: List[ComparisonSite] = []

    def site(expr: Expr, span: float) -> None:
        sites.append(ComparisonSite(expr.line, format_expr(expr), span))

    gumbel_lo, gumbel_hi = gumbel_support(em_gumbel_scale(env.sensitivity, env.epsilon))
    for stmt in walk_statements(logical.post_statements):
        for top in expressions_of(stmt):
            for expr in walk_expr(top):
                if isinstance(expr, BinOp) and expr.op in _COMPARISONS:
                    if _may_be_secret(expr, secret):
                        site(expr, (interval(expr.left) - interval(expr.right)).magnitude)
                elif isinstance(expr, Call) and expr.func == "em":
                    scores = interval(expr.args[0]).width
                    site(expr, (scores + gumbel_hi - gumbel_lo) * FIXPOINT_SCALE + 1)
                elif isinstance(expr, Call) and expr.args and _may_be_secret(
                    expr.args[0], secret
                ):
                    if expr.func == "abs":
                        site(expr, interval(expr.args[0]).magnitude)
                    elif expr.func in ("max", "argmax"):
                        site(expr, interval(expr.args[0]).width)
                    elif expr.func == "clip":
                        value, lo, hi = (interval(arg) for arg in expr.args)
                        raised = value.union(lo)  # the value after the lo select
                        site(expr, max((value - lo).magnitude, (hi - raised).magnitude))
    return sites


def widest_site(logical) -> Optional[ComparisonSite]:
    """The site that sets the width, or None for a comparison-free plan."""
    return max(comparison_sites(logical), key=lambda s: s.bits, default=None)


def comparison_width(logical) -> int:
    """The bits every secret comparison of ``logical`` needs (1 if none)."""
    widest = widest_site(logical)
    return widest.bits if widest is not None else 1

