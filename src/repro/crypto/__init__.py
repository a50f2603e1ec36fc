"""Cryptographic substrate: fields, secret sharing, AHE, Merkle trees,
sortition, verifiable secret redistribution, and input ZKPs.

See DESIGN.md for the substitution table mapping each module to the
primitive the paper's C++ prototype used.
"""

from .backend import active_backend_name, get_backend, use_backend
from .field import DEFAULT_FIELD, PrimeField
from .merkle import MerkleTree, verify_inclusion
from .shamir import Share, reconstruct_secret, share_secret

__all__ = [
    "DEFAULT_FIELD",
    "PrimeField",
    "MerkleTree",
    "verify_inclusion",
    "Share",
    "share_secret",
    "reconstruct_secret",
    "active_backend_name",
    "get_backend",
    "use_backend",
]
