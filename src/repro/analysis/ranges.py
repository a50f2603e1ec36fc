"""Conservative interval arithmetic for value-range inference (§4.4).

Arboretum assigns every variable and expression a value range; the bounds
are used to pick cryptosystem parameters (e.g. the BGV plaintext modulus
must exceed the largest value a sum can take — summing binary values across
a billion users needs ~2^30). Bounds are deliberately conservative — the
lower/upper bounds of ``a*b`` are simply the extremes of the endpoint
products — and the analyst can use ``clip`` to tighten them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] of representable values."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # ------------------------------------------------------------ predicates

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def magnitude(self) -> float:
        """Largest absolute value the interval contains."""
        return max(abs(self.lo), abs(self.hi))

    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.contains(0.0):
            # Division by an interval spanning zero is unbounded; the
            # analyst must clip the divisor.
            return Interval(-math.inf, math.inf)
        quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        return Interval(min(quotients), max(quotients))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def scale(self, k: float) -> "Interval":
        if k >= 0:
            return Interval(self.lo * k, self.hi * k)
        return Interval(self.hi * k, self.lo * k)

    # ------------------------------------------------------- set operations

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def clip(self, lo: float, hi: float) -> "Interval":
        """Range of clip(x, lo, hi): the interval intersected + clamped."""
        return Interval(min(max(self.lo, lo), hi), max(min(self.hi, hi), lo))

    # -------------------------------------------------------------- builtins

    def exp(self) -> "Interval":
        return Interval(math.exp(self.lo) if self.lo > -700 else 0.0, math.exp(min(self.hi, 700)))

    def log(self) -> "Interval":
        if self.lo <= 0:
            return Interval(-math.inf, math.log(self.hi) if self.hi > 0 else math.inf)
        return Interval(math.log(self.lo), math.log(self.hi))

    def sqrt(self) -> "Interval":
        lo = math.sqrt(max(self.lo, 0.0))
        hi = math.sqrt(max(self.hi, 0.0))
        return Interval(lo, hi)

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, self.magnitude)


ZERO = Interval(0.0, 0.0)
UNIT = Interval(0.0, 1.0)
BOOLEAN = Interval(0.0, 1.0)
UNBOUNDED = Interval(-math.inf, math.inf)


def point(x: float) -> Interval:
    """The degenerate interval containing exactly x."""
    return Interval(x, x)


def bits_needed(interval: Interval) -> int:
    """Bits required to represent every integer value in the interval.

    Used to size the plaintext modulus (unsigned intervals) or, with one
    extra sign bit, the MPC value width (signed intervals).
    """
    if not interval.is_finite():
        raise ValueError("cannot size a modulus for an unbounded interval")
    magnitude = int(math.ceil(interval.magnitude))
    bits = max(1, magnitude.bit_length())
    if interval.lo < 0:
        bits += 1
    return bits
