"""Honest-majority committee MPC: engine, offline dealer, and protocols."""

from .engine import CheatingDetected, CostCounters, MPCEngine, SecretValue
from .protocols import (
    FIXPOINT_SCALE,
    from_fixpoint,
    shared_gumbel_noise,
    shared_laplace_noise,
    to_fixpoint,
)

__all__ = [
    "MPCEngine",
    "SecretValue",
    "CostCounters",
    "CheatingDetected",
    "FIXPOINT_SCALE",
    "to_fixpoint",
    "from_fixpoint",
    "shared_laplace_noise",
    "shared_gumbel_noise",
]
