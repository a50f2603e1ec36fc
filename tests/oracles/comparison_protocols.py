"""Engine-level comparison protocols the runtime does not run.

Noisy argmax/max over one engine and the prefix-sum rank search are the
textbook forms of the exponential mechanism and the median's rank query.
The runtime runs neither: its argmax is a tournament of committees
(``QueryExecutor._argmax_tree``) and its median is a catalog program. They
live here, beside the tests that exercise them, because a comparison in
``src/`` must be a site ``runtime.width.comparison_width`` sizes, and no
plan covers these. Callers pick the engine's ``bit_width`` for their own
values.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.mpc.engine import MPCEngine, SecretValue
from repro.mpc.protocols import shared_gumbel_noise


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
