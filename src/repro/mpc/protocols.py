"""Higher-level committee protocols built on the MPC engine.

These are the noise sub-protocols Arboretum's committee vignettes run:
Laplace and Gumbel, each one sample the committee generates jointly inside
its MPC (dealer abstraction), in 16-bit fixpoint. The comparisons that consume
the noise (the argmax tournament, ``clip``, ``max``) run in the executor
and the secure interpreter, at the plan's width (``runtime.width``).
"""

from __future__ import annotations

import random

from ..privacy.mechanisms import gumbel_sample, laplace_sample
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


def shared_laplace_noise(engine: MPCEngine, scale: float, rng: random.Random) -> SecretValue:
    """Shared Laplace(scale) noise in fixpoint encoding.

    The sample comes from the engine's joint noise sub-protocol (dealer
    abstraction, see ``mpc.beaver.OfflineDealer.noise_share``), so no member
    holds any part of it in the clear; the cost model charges for the real
    MPC sampling circuit.
    """
    return engine.noise(to_fixpoint(laplace_sample(scale, rng)))


def shared_gumbel_noise(engine: MPCEngine, scale: float, rng: random.Random) -> SecretValue:
    """Shared Gumbel(scale) noise in fixpoint encoding, drawn as
    :func:`shared_laplace_noise` draws its sample."""
    return engine.noise(to_fixpoint(gumbel_sample(scale, rng)))
