"""Merkle hash trees.

Arboretum uses Merkle trees in two places: the sortition state includes a
tree of registered devices (§5.1), and the aggregator must commit to the
results of its individual steps so participants can audit random leaves
(§5.3). Both need membership proofs, so this module provides a standard
binary Merkle tree with inclusion proofs and verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class InclusionProof:
    """Audit path from a leaf to the root.

    ``siblings`` lists (hash, is_right) pairs from the leaf level upward;
    ``is_right`` says whether the sibling sits to the right of the running
    hash.
    """

    leaf_index: int
    siblings: Tuple[Tuple[bytes, bool], ...]


class MerkleTree:
    """Binary Merkle tree with domain-separated leaf/node hashing.

    Odd nodes are promoted (Bitcoin-style duplication would allow forged
    proofs, so the last node is carried up unhashed instead).
    """

    def __init__(self, leaves: Sequence[bytes]):
        if not leaves:
            raise ValueError("a Merkle tree needs at least one leaf")
        self._leaf_data = tuple(leaves)
        self._levels: List[List[bytes]] = [[_hash_leaf(l) for l in leaves]]
        while len(self._levels[-1]) > 1:
            prev = self._levels[-1]
            nxt = []
            for i in range(0, len(prev) - 1, 2):
                nxt.append(_hash_node(prev[i], prev[i + 1]))
            if len(prev) % 2 == 1:
                nxt.append(prev[-1])
            self._levels.append(nxt)

    def __len__(self) -> int:
        return len(self._leaf_data)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def leaves(self) -> Tuple[bytes, ...]:
        """The committed leaf data, in order (immutable, like the tree)."""
        return self._leaf_data

    def leaf(self, index: int) -> bytes:
        return self._leaf_data[index]

    def prove(self, index: int) -> InclusionProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaf_data):
            raise IndexError(f"leaf index {index} out of range")
        siblings = []
        pos = index
        for level in self._levels[:-1]:
            if pos % 2 == 0:
                if pos + 1 < len(level):
                    siblings.append((level[pos + 1], True))
                # Odd node promoted: no sibling at this level.
            else:
                siblings.append((level[pos - 1], False))
            pos //= 2
        return InclusionProof(index, tuple(siblings))


def verify_inclusion(root: bytes, leaf_data: bytes, proof: InclusionProof) -> bool:
    """Check that ``leaf_data`` is committed under ``root`` via ``proof``."""
    acc = _hash_leaf(leaf_data)
    for sibling, is_right in proof.siblings:
        if is_right:
            acc = _hash_node(acc, sibling)
        else:
            acc = _hash_node(sibling, acc)
    return acc == root
