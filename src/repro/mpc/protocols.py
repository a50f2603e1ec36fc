"""Higher-level committee protocols built on the MPC engine.

These are the noise sub-protocols Arboretum's committee vignettes run:
Laplace via the exact gamma-difference decomposition and Gumbel via the
dealer abstraction, both in 16-bit fixpoint. The comparisons that consume
the noise (the argmax tournament, ``clip``, ``max``) run in the executor
and the secure interpreter, at the plan's width (``runtime.width``).
"""

from __future__ import annotations

import random
from typing import List

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
