"""Higher-level committee protocols built on the MPC engine.

These are the sub-protocols Arboretum's committee vignettes actually run:
joint noise generation (Laplace via the exact gamma-difference
decomposition, Gumbel via the dealer abstraction), noisy argmax for the
Gumbel instantiation of the exponential mechanism (Fig 4, right), and the
prefix-sum rank search used by the median query.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..privacy.mechanisms import gumbel_sample
from .engine import MPCEngine, SecretValue

#: Fixpoint scaling: 16 fractional bits, as in the paper's MP-SPDZ
#: configuration (§6).
FIXPOINT_FRACTION_BITS = 16
FIXPOINT_SCALE = 1 << FIXPOINT_FRACTION_BITS


def to_fixpoint(x: float) -> int:
    """Encode a real number as a fixpoint integer (round to nearest)."""
    return int(round(x * FIXPOINT_SCALE))


def from_fixpoint(v: int) -> float:
    return v / FIXPOINT_SCALE


def laplace_contributions(scale: float, num_contributors: int, rng: random.Random) -> List[float]:
    """Per-party noise contributions whose sum is exactly Laplace(scale).

    Uses the infinite divisibility of the Laplace distribution:
    Lap(b) = Σ_{i=1..n} (G_i - H_i) with G_i, H_i ~ Gamma(1/n, b) i.i.d.
    [Dwork et al., "Our Data, Ourselves"]. Any single honest contributor
    keeps the total unpredictable to the rest of the committee.
    """
    if num_contributors < 1:
        raise ValueError("need at least one contributor")
    shape = 1.0 / num_contributors
    return [
        rng.gammavariate(shape, scale) - rng.gammavariate(shape, scale)
        for _ in range(num_contributors)
    ]


def shared_laplace_noise(
    engine: MPCEngine,
    scale: float,
    rng: random.Random,
    contributors: int,
) -> SecretValue:
    """Jointly generate shared Laplace(scale) noise, in fixpoint encoding.

    Every committee member inputs a gamma-difference contribution; the sum
    of the shares is a sharing of a genuine Laplace sample that no party
    has seen in the clear. ``contributors`` is the *planned* committee size:
    under churn a committee may run with fewer live members, and the
    recovery runtime regenerates the missing contributions so the noise
    distribution (and, for a fixed seed, the sample itself) is independent
    of how many members actually survived.
    """
    contributions = laplace_contributions(scale, contributors, rng)
    shares = [engine.input_value(to_fixpoint(c)) for c in contributions]
    return engine.sum_values(shares)


def shared_gumbel_noise(engine: MPCEngine, scale: float, rng: random.Random) -> SecretValue:
    """Shared Gumbel(scale) noise in fixpoint encoding.

    Gumbel is not conveniently infinitely divisible, so the sample comes
    from the engine's joint noise sub-protocol (dealer abstraction, see
    ``mpc.beaver.OfflineDealer.noise_share``); the cost model charges for
    the real MPC sampling circuit.
    """
    return engine.noise(to_fixpoint(gumbel_sample(scale, rng)))


def noisy_argmax(
    engine: MPCEngine,
    scores: Sequence[SecretValue],
    noise_scale: float,
    rng: random.Random,
) -> int:
    """Gumbel-noise exponential mechanism: argmax_i (s_i + Gumbel(scale)).

    ``scores`` must already be in fixpoint encoding. The returned index is
    opened (declassified), which is exactly what the mechanism releases.
    """
    noised = [
        engine.add(s, shared_gumbel_noise(engine, noise_scale, rng)) for s in scores
    ]
    index = engine.argmax(noised)
    return engine.open(index)


def noisy_max(
    engine: MPCEngine,
    scores: Sequence[SecretValue],
    noise_scale: float,
    rng: random.Random,
) -> Tuple[int, int]:
    """Return (argmax index, noised max value) — used by the gap query."""
    noised = [
        engine.add(s, shared_gumbel_noise(engine, noise_scale, rng)) for s in scores
    ]
    best_value = engine.maximum(noised)
    index = engine.argmax(noised)
    return engine.open(index), engine.open(best_value)


def prefix_sums(engine: MPCEngine, values: Sequence[SecretValue]) -> List[SecretValue]:
    """Running sums of a shared vector (local, no communication)."""
    out: List[SecretValue] = []
    acc = engine.constant(0)
    for v in values:
        acc = engine.add(acc, v)
        out.append(acc)
    return out


def rank_search(
    engine: MPCEngine,
    histogram: Sequence[SecretValue],
    rank: int,
) -> SecretValue:
    """Index of the histogram bin where the cumulative count reaches ``rank``.

    Because prefix sums are non-decreasing, the bin index equals the number
    of prefixes strictly below the rank: Σ_i [cum_i < rank]. This is the
    core of the median/quantile query (rank = ⌈N/2⌉ for the median), using
    one comparison per bin and no oblivious selects.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    cums = prefix_sums(engine, histogram)
    threshold = engine.constant(rank)
    index = engine.constant(0)
    for cum in cums:
        below = engine.less_than(cum, threshold)
        index = engine.add(index, below)
    return index
