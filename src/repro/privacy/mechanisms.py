"""Differential-privacy mechanisms (§2.1).

Implements the mechanisms Arboretum's high-level operators expand into:

* the Laplace mechanism for numerical queries;
* the exponential mechanism for categorical queries, in both of the
  instantiations of Fig 4 — the textbook exponentiation form (normalized to
  a finite range, as the paper does for finite-precision arithmetic) and
  the Gumbel-noise argmax form — plus the base-2 variant of Ilvento that
  the MPC programs use (§6);
* top-k selection à la Durfee–Rogers: either k independent Gumbel draws for
  (k·ε)-DP or one-shot noise with the k highest scores for (√k·ε)-DP;
* report-noisy-max with gap (the "free gap" information of Ding et al.).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

#: Normalization width for the exponentiation-based EM (Fig 4 left): scores
#: are shifted so the top score maps to exp(L); smaller scores than top-L
#: are dropped. 16 bits of representable exponent range.
EM_EXPONENT_RANGE = 11


def laplace_sample(scale: float, rng: random.Random) -> float:
    """One Laplace(0, scale) sample via inverse CDF."""
    if scale <= 0:
        raise ValueError("Laplace scale must be positive")
    u = rng.random()
    while u <= 0.0:  # u = 0 would take log(0)
        u = rng.random()
    u -= 0.5
    return -scale * math.copysign(math.log(1.0 - 2.0 * abs(u)), u)


def laplace_mechanism(value: float, sensitivity: float, epsilon: float, rng: random.Random) -> float:
    """value + Lap(sensitivity/epsilon): (epsilon, 0)-DP for s-sensitive f."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    return value + laplace_sample(sensitivity / epsilon, rng)


def gumbel_sample(scale: float, rng: random.Random) -> float:
    """One Gumbel(0, scale) sample via inverse CDF."""
    if scale <= 0:
        raise ValueError("Gumbel scale must be positive")
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -scale * math.log(-math.log(u))


def em_gumbel_scale(sensitivity: float, epsilon: float) -> float:
    """The Gumbel scale 2Δ/ε at which argmax-of-noised-scores is the
    exponential mechanism (the Gumbel-max trick, Fig 4 right)."""
    return 2.0 * sensitivity / epsilon


def gumbel_support(scale: float) -> Tuple[float, float]:
    """The exact (lo, hi) range of :func:`gumbel_sample` at ``scale``.

    ``random()`` returns multiples of 2^-53 below 1 and the sampler redraws
    0, so u lies in [2^-53, 1 − 2^-53]: every sample is in
    [−3.604·scale, 36.737·scale], computed here by the sampler's own
    expression at those two points. A bound, not a tail: nothing is cut.
    """
    return (
        -scale * math.log(-math.log(2.0**-53)),
        -scale * math.log(-math.log(1.0 - 2.0**-53)),
    )


def exponential_mechanism_expo(
    scores: Sequence[float],
    sensitivity: float,
    epsilon: float,
    rng: random.Random,
    base: float = math.e,
) -> int:
    """Textbook exponential mechanism via explicit exponentiation (Fig 4 left).

    Returns index i with probability proportional to base^(ε·s_i/(2Δ)).
    As in the paper's instantiation, scores are normalized to the finite
    range [1, base^L] with L = EM_EXPONENT_RANGE and smaller scores dropped,
    which turns the guarantee into (ε, δ)-DP for a negligible δ. Setting
    ``base=2`` gives the Ilvento base-2 variant used in MPC (§6).
    """
    if not scores:
        raise ValueError("exponential mechanism needs at least one score")
    if epsilon <= 0 or sensitivity <= 0:
        raise ValueError("epsilon and sensitivity must be positive")
    rate = epsilon / (2.0 * sensitivity)  # weight_i ∝ e^(rate * s_i)
    # Normalize so the top score maps to base^L; anything whose weight would
    # fall below 1 (i.e. more than L base-units behind the top) is dropped.
    exponent_cap = EM_EXPONENT_RANGE * math.log(base)
    top = max(scores)
    cutoff = top - exponent_cap / rate
    weights: List[float] = []
    for s in scores:
        if s >= cutoff:
            weights.append(math.exp(rate * (s - cutoff)))
        else:
            weights.append(0.0)
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(scores) - 1


def exponential_mechanism_gumbel(
    scores: Sequence[float],
    sensitivity: float,
    epsilon: float,
    rng: random.Random,
) -> int:
    """Exponential mechanism via Gumbel noise + argmax (Fig 4 right).

    argmax_i (s_i + Gumbel(2Δ/ε)) is distributed identically to the
    exponential mechanism — the Gumbel-max trick.
    """
    if not scores:
        raise ValueError("exponential mechanism needs at least one score")
    if epsilon <= 0 or sensitivity <= 0:
        raise ValueError("epsilon and sensitivity must be positive")
    scale = em_gumbel_scale(sensitivity, epsilon)
    noised = [s + gumbel_sample(scale, rng) for s in scores]
    return max(range(len(noised)), key=noised.__getitem__)


def top_k_pay_what_you_get(
    scores: Sequence[float],
    k: int,
    sensitivity: float,
    epsilon: float,
    rng: random.Random,
) -> List[int]:
    """Top-k via k independent Gumbel draws: (k·ε, 0)-DP (§2.1)."""
    if not 1 <= k <= len(scores):
        raise ValueError("k must be between 1 and the number of candidates")
    remaining = list(range(len(scores)))
    chosen: List[int] = []
    for _ in range(k):
        sub_scores = [scores[i] for i in remaining]
        winner = exponential_mechanism_gumbel(sub_scores, sensitivity, epsilon, rng)
        chosen.append(remaining.pop(winner))
    return chosen


def top_k_oneshot(
    scores: Sequence[float],
    k: int,
    sensitivity: float,
    epsilon: float,
    rng: random.Random,
) -> List[int]:
    """Top-k by noising once and releasing the k best: (√k·ε, 0)-DP [29]."""
    if not 1 <= k <= len(scores):
        raise ValueError("k must be between 1 and the number of candidates")
    scale = em_gumbel_scale(sensitivity, epsilon)
    noised = [(s + gumbel_sample(scale, rng), i) for i, s in enumerate(scores)]
    noised.sort(reverse=True)
    return [i for _, i in noised[:k]]


def noisy_max_with_gap(
    scores: Sequence[float],
    sensitivity: float,
    epsilon: float,
    rng: random.Random,
) -> Tuple[int, float]:
    """Report-noisy-max plus the noisy gap to the runner-up [28].

    The gap between the highest and second-highest noised scores is a free
    byproduct: releasing it alongside the argmax costs no extra privacy.
    """
    if len(scores) < 2:
        raise ValueError("gap mechanism needs at least two candidates")
    scale = em_gumbel_scale(sensitivity, epsilon)
    noised = [s + gumbel_sample(scale, rng) for s in scores]
    order = sorted(range(len(noised)), key=noised.__getitem__, reverse=True)
    winner, runner_up = order[0], order[1]
    return winner, max(0.0, noised[winner] - noised[runner_up])


def quantile_rank(total: int, quantile: float) -> int:
    """The 1-based rank a quantile corresponds to (median: quantile=0.5)."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be strictly between 0 and 1")
    return max(1, min(total, int(math.ceil(total * quantile))))


def dp_median_from_histogram(
    histogram: Sequence[int],
    sensitivity: float,
    epsilon: float,
    rng: random.Random,
    quantile: float = 0.5,
) -> int:
    """DP median/quantile over a histogram via the exponential mechanism.

    Uses the standard rank-distance quality score: q(bin) = -(distance of
    the bin's cumulative range from the target rank), which is 1-sensitive
    in the database [14]. Returns the selected bin index.
    """
    total = sum(histogram)
    if total <= 0:
        raise ValueError("histogram is empty")
    rank = quantile_rank(total, quantile)
    scores: List[float] = []
    below = 0
    for count in histogram:
        # Ranks covered by this bin: (below, below + count].
        if below < rank <= below + count:
            distance = 0
        elif rank <= below:
            distance = below - rank + 1
        else:
            distance = rank - (below + count)
        scores.append(-float(distance))
        below += count
    return exponential_mechanism_gumbel(scores, sensitivity, epsilon, rng)
