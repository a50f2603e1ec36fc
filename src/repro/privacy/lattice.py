"""The abstract domain of the privacy interpreter (:mod:`repro.privacy.certify`).

Three lattices, combined into one :class:`AbstractValue` per variable:

* :class:`TaintLabel` — where a value sits on the release ladder
  ``PUBLIC ⊑ NOISED ⊑ CLIPPED ⊑ RAW``. Values at or below ``NOISED`` may
  legally cross a release boundary (``output`` / ``declassify``);
  anything above is participant data that has not passed through a DP
  mechanism.
* :class:`Bounds` — a closed interval ``[lo, hi]`` used both for
  sensitivity bounds (how much one row can move a value, in L1/L∞) and
  for privacy-budget accounting. Budget sums use
  :func:`widened_add`, which rounds the endpoints *outward* by one ulp
  per addition, so the accumulated interval provably contains the exact
  real-number sum regardless of float rounding.
* :class:`SensitivityBounds` — the (L1, L∞) pair of :class:`Bounds`. The
  ``hi`` endpoints are the worst case ``certify()`` records; the ``lo``
  endpoints differ from them only where a public factor's magnitude is
  itself an interval (a scale or divisor the type checker bounds but
  does not pin).

The lattice is deliberately small: every join is a few comparisons, so
interpreting a program costs microseconds and the planner can afford to
re-run it as a post-condition on every search result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional


class TaintLabel(enum.Enum):
    """Release-ladder label; higher rank = more dangerous to release."""

    PUBLIC = 0  # no dependence on participant data
    NOISED = 1  # mechanism output: may be released
    CLIPPED = 2  # raw data with a finite, proven sensitivity bound
    RAW = 3  # raw data with unbounded (or unproven) sensitivity


@dataclass(frozen=True)
class Bounds:
    """A closed interval ``[lo, hi]`` with lo <= hi (inf allowed)."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"invalid bounds [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x: float) -> "Bounds":
        return cls(x, x)

    @classmethod
    def zero(cls) -> "Bounds":
        return _ZERO_BOUNDS

    @classmethod
    def unbounded(cls) -> "Bounds":
        return _UNBOUNDED_BOUNDS

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other: "Bounds") -> "Bounds":
        return Bounds(self.lo + other.lo, self.hi + other.hi)

    def join(self, other: "Bounds") -> "Bounds":
        """Least upper bound for worst-case quantities: both endpoints max."""
        return Bounds(max(self.lo, other.lo), max(self.hi, other.hi))

    def scaled(self, lo_k: float, hi_k: float) -> "Bounds":
        """Scale by a magnitude interval [lo_k, hi_k] with 0 <= lo_k <= hi_k."""
        hi = self.hi * hi_k
        if math.isnan(hi):  # 0 * inf
            hi = 0.0 if self.hi == 0.0 else math.inf
        lo = self.lo * lo_k
        if math.isnan(lo):
            lo = 0.0
        return Bounds(lo, hi)

    def __str__(self) -> str:
        if self.is_point:
            return f"{self.hi:g}"
        return f"[{self.lo:g}, {self.hi:g}]"


# The interpreter constructs these constants in every transfer function;
# Bounds is frozen, so the instances are safely shared.
_ZERO_BOUNDS = Bounds(0.0, 0.0)
_UNBOUNDED_BOUNDS = Bounds(0.0, math.inf)


def widened_add(a: Bounds, b: Bounds) -> Bounds:
    """Interval sum with endpoints rounded outward by one ulp.

    Used by the budget accountant reconciliation: after n additions the
    returned interval contains the exact real sum of any per-term values
    inside the operand intervals, whatever IEEE-754 rounding did.
    """
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    if math.isfinite(lo):
        lo = math.nextafter(lo, -math.inf)
    if math.isfinite(hi):
        hi = math.nextafter(hi, math.inf)
    return Bounds(lo, hi)


@dataclass(frozen=True)
class SensitivityBounds:
    """Interval bounds on the (L1, L∞) sensitivity of one value."""

    l1: Bounds
    linf: Bounds

    @classmethod
    def exact(cls, l1: float, linf: float) -> "SensitivityBounds":
        return cls(Bounds.exact(l1), Bounds.exact(linf))

    @classmethod
    def zero(cls) -> "SensitivityBounds":
        return _ZERO_SENS

    @classmethod
    def unbounded(cls) -> "SensitivityBounds":
        return _UNBOUNDED_SENS

    @property
    def is_finite(self) -> bool:
        return self.l1.is_finite and self.linf.is_finite

    def __add__(self, other: "SensitivityBounds") -> "SensitivityBounds":
        return SensitivityBounds(self.l1 + other.l1, self.linf + other.linf)

    def join(self, other: "SensitivityBounds") -> "SensitivityBounds":
        return SensitivityBounds(self.l1.join(other.l1), self.linf.join(other.linf))

    def scaled(self, lo_k: float, hi_k: float) -> "SensitivityBounds":
        return SensitivityBounds(
            self.l1.scaled(lo_k, hi_k), self.linf.scaled(lo_k, hi_k)
        )

    def __str__(self) -> str:
        return f"(l1={self.l1}, linf={self.linf})"


_ZERO_SENS = SensitivityBounds(_ZERO_BOUNDS, _ZERO_BOUNDS)
_UNBOUNDED_SENS = SensitivityBounds(_UNBOUNDED_BOUNDS, _UNBOUNDED_BOUNDS)


@dataclass(frozen=True)
class AbstractValue:
    """The interpreter's knowledge about one value.

    ``sensitive`` marks derivation from ``db``; ``released`` marks
    mechanism outputs, which are safe to declassify (the label is derived
    from both). ``sensitivity`` carries the interval bounds and
    ``sample_phi`` the sampling fraction if the value flowed through
    ``sampleUniform`` (for amplification at the mechanism).
    """

    sensitive: bool = False
    released: bool = False
    sensitivity: SensitivityBounds = field(default_factory=SensitivityBounds.zero)
    sample_phi: Optional[float] = None

    @classmethod
    def public(cls) -> "AbstractValue":
        return _PUBLIC

    @property
    def label(self) -> TaintLabel:
        if not self.sensitive:
            return TaintLabel.PUBLIC
        if self.released:
            return TaintLabel.NOISED
        if self.sensitivity.is_finite:
            return TaintLabel.CLIPPED
        return TaintLabel.RAW

    def join(self, other: "AbstractValue") -> "AbstractValue":
        # A joined value is released iff every *sensitive* constituent has
        # been released; public constituents do not revoke release.
        phi = None
        if self.sample_phi is not None or other.sample_phi is not None:
            phi = max(self.sample_phi or 0.0, other.sample_phi or 0.0) or None
        sensitive = self.sensitive or other.sensitive
        released = sensitive and all(
            v.released for v in (self, other) if v.sensitive
        )
        return AbstractValue(
            sensitive=sensitive,
            released=released,
            sensitivity=self.sensitivity.join(other.sensitivity),
            sample_phi=phi,
        )

    def with_sensitivity(self, sens: SensitivityBounds) -> "AbstractValue":
        return replace(self, sensitivity=sens)

    def effective(self) -> "AbstractValue":
        """Released values behave as public in further computation."""
        if self.released:
            return AbstractValue.public()
        return self


_PUBLIC = AbstractValue()
