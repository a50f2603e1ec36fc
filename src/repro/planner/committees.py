"""Committee sizing (§5.1).

Committees are chosen by sortition, so each member is Byzantine
independently with probability f (the global fraction of malicious
devices). A plan with c committees needs an honest majority in *all* c
committees with high probability, even after a fraction g of each
committee's members goes offline (malicious members can all conspire to
stay online). The minimum committee size m is the smallest number with

    1 - (Σ_{i=0..⌊(1-g)·m/2⌋} C(m,i) f^i (1-f)^{m-i})^c  ≤  p1,

where p1 is the per-round privacy-failure budget. If the system runs R
rounds with overall failure budget p, then p1 solves p = 1 - (1-p1)^R.

Because the number of committees varies between query plans, the planner
recomputes m for every candidate before scoring it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

#: Defaults from the paper's evaluation (§7.1).
DEFAULT_MALICIOUS_FRACTION = 0.03
DEFAULT_CHURN_TOLERANCE = 0.15
DEFAULT_FAILURE_PROBABILITY = 1e-8
DEFAULT_ROUNDS = 1000


def per_round_failure_budget(p_total: float, rounds: int) -> float:
    """Solve p_total = 1 - (1 - p1)^rounds for p1."""
    if not 0.0 < p_total < 1.0:
        raise ValueError("total failure probability must be in (0, 1)")
    if rounds < 1:
        raise ValueError("need at least one round")
    return 1.0 - (1.0 - p_total) ** (1.0 / rounds)


def _binomial_upper_tail(m: int, f: float, max_bad: int) -> float:
    """P[Binomial(m, f) > max_bad], summed in log space for stability.

    Working with the (tiny) upper tail directly keeps full relative
    precision — the lower tail is ~1 and its complement would drown in
    floating-point rounding around 1e-13.
    """
    if max_bad >= m:
        return 0.0
    if max_bad < 0:
        return 1.0
    log_f = math.log(f)
    log_1mf = math.log1p(-f)
    log_terms = []
    for i in range(max_bad + 1, m + 1):
        log_c = math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
        log_terms.append(log_c + i * log_f + (m - i) * log_1mf)
    top = max(log_terms)
    return math.exp(top) * sum(math.exp(t - top) for t in log_terms)


def committee_failure_probability(
    m: int,
    num_committees: int,
    malicious_fraction: float = DEFAULT_MALICIOUS_FRACTION,
    churn_tolerance: float = DEFAULT_CHURN_TOLERANCE,
) -> float:
    """P[some committee loses its honest majority] for committee size m.

    A committee of m members stays safe if, among the (1-g)·m members who
    remain online in the worst case, a majority is honest — i.e. the number
    of malicious members is at most ⌊(1-g)·m/2⌋.
    """
    if m < 1:
        return 1.0
    max_bad = int(math.floor((1.0 - churn_tolerance) * m / 2.0))
    p_bad_single = _binomial_upper_tail(m, malicious_fraction, max_bad)
    if p_bad_single >= 1.0:
        return 1.0
    # 1 - (1 - p)^c, computed via expm1/log1p to keep precision for tiny p.
    return -math.expm1(num_committees * math.log1p(-p_bad_single))


#: Monotonicity hints for the m-search: per sizing configuration, a map from
#: a previously computed m to the [min, max] committee counts that produced
#: it. m is nondecreasing in the committee count (more committees -> more
#: chances to lose an honest majority), so a count below the query's bounds
#: m from below and a count above bounds it from above; when the two bounds
#: meet, the linear scan is skipped entirely.
_SIZE_HINTS: dict = {}


@lru_cache(maxsize=16384)
def minimum_committee_size(
    num_committees: int,
    malicious_fraction: float = DEFAULT_MALICIOUS_FRACTION,
    churn_tolerance: float = DEFAULT_CHURN_TOLERANCE,
    per_round_budget: float = None,
    total_failure_probability: float = DEFAULT_FAILURE_PROBABILITY,
    rounds: int = DEFAULT_ROUNDS,
) -> int:
    """Smallest m keeping all committees honest-majority w.h.p. (§5.1)."""
    if num_committees < 1:
        raise ValueError("need at least one committee")
    p1 = (
        per_round_budget
        if per_round_budget is not None
        else per_round_failure_budget(total_failure_probability, rounds)
    )
    config = (malicious_fraction, churn_tolerance, p1)
    hints = _SIZE_HINTS.setdefault(config, {})
    lo, hi = 3, None
    for known_m, (count_lo, count_hi) in hints.items():
        if count_lo <= num_committees and known_m > lo:
            lo = known_m
        if count_hi >= num_committees and (hi is None or known_m < hi):
            hi = known_m
    if hi is not None and lo >= hi:
        # Bracketed exactly between previously computed counts.
        m = lo
    else:
        m = lo
        while committee_failure_probability(
            m, num_committees, malicious_fraction, churn_tolerance
        ) > p1:
            m += 1
            if m > 10000:
                raise RuntimeError("committee size search diverged")
    entry = hints.setdefault(m, [num_committees, num_committees])
    entry[0] = min(entry[0], num_committees)
    entry[1] = max(entry[1], num_committees)
    return m


@dataclass(frozen=True)
class CommitteeParameters:
    """Committee geometry for one plan: the sizing inputs and the result."""

    num_committees: int
    committee_size: int
    malicious_fraction: float
    churn_tolerance: float
    per_round_budget: float

    @classmethod
    def for_plan(cls, count: float) -> "CommitteeParameters":
        """Sizing for a plan that uses ``count`` committees, at least one.

        Frozen + deterministic, so instances are shared via the lru cache
        (the planner calls this once per search node), keyed by the int.
        """
        return _parameters_cached(max(int(count), 1))

    @property
    def devices_selected(self) -> int:
        return self.num_committees * self.committee_size

    def selection_fraction(self, num_participants: int) -> float:
        return min(1.0, self.devices_selected / num_participants)

    @property
    def honest_quorum(self) -> int:
        """Online members guaranteed to include an honest majority."""
        return int(math.ceil((1.0 - self.churn_tolerance) * self.committee_size))


@lru_cache(maxsize=16384)
def _parameters_cached(num_committees: int) -> CommitteeParameters:
    p1 = per_round_failure_budget(DEFAULT_FAILURE_PROBABILITY, DEFAULT_ROUNDS)
    m = minimum_committee_size(
        num_committees, DEFAULT_MALICIOUS_FRACTION, DEFAULT_CHURN_TOLERANCE, p1
    )
    return CommitteeParameters(
        num_committees, m, DEFAULT_MALICIOUS_FRACTION, DEFAULT_CHURN_TOLERANCE, p1
    )
