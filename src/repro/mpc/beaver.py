"""Beaver multiplication triples and edaBits for the committee MPCs.

Honest-majority Shamir MPC (the SPDZ-wise protocol the paper uses via
MP-SPDZ) splits work into an input-independent *offline* phase that
produces correlated randomness — multiplication triples (a, b, ab) and
edaBits (a shared value together with sharings of its bits) — and a fast
*online* phase that consumes them. In a deployment, the committee generates
this randomness among itself; in this reproduction a dealer object plays
the offline phase and the engine meters its cost, which is exactly how the
paper's cost model accounts for it ("the first comparison is more expensive
than subsequent ones because it requires the generation of multiplication
triples", §6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..crypto.field import PrimeField
from ..crypto.shamir import sharing_kernel


@dataclass(frozen=True)
class BeaverTriple:
    """Shares of a random (a, b, c) with c = a*b.

    Dealer-made sharings are plain y-value lists in ``party_ids`` order:
    the online phase only ever does per-party arithmetic on them.
    """

    a: List[int]
    b: List[int]
    c: List[int]


@dataclass(frozen=True)
class EdaBit:
    """Shares of a random m-bit value r together with shares of its bits.

    Used for comparisons: a secret is masked by r, opened, and the public
    masked value is compared against r's shared bits.
    """

    value: List[int]
    bits: List[List[int]]  # bits[0] = least significant

    @property
    def bit_length(self) -> int:
        return len(self.bits)


class OfflineDealer:
    """Produces the correlated randomness the online phase consumes.

    Counters on this object let the engine report how much offline work a
    computation required, which feeds the planner's cost model. The party
    set is validated here, once: nothing downstream re-checks it.
    """

    def __init__(self, field: PrimeField, party_ids: Sequence[int], threshold: int, rng: random.Random):
        if len(party_ids) < 2 * threshold + 1:
            raise ValueError(
                "honest-majority multiplication needs n >= 2t+1 parties"
            )
        self.field = field
        self.party_ids = list(party_ids)
        self.threshold = threshold
        self._rng = rng
        self._kernel = sharing_kernel(threshold, tuple(party_ids), field)
        self.triples_dealt = 0
        self.edabits_dealt = 0
        self.random_shares_dealt = 0

    def share(self, value: int) -> List[int]:
        """A fresh degree-t sharing of ``value``: y-values in party order."""
        return self._kernel(value, self._rng)

    def triple(self) -> BeaverTriple:
        """Draws a, b, then the coefficients of the a-, b- and c-sharings:
        the order a replay or a resumed journal expects."""
        p, rng, share = self.field.modulus, self._rng, self.share
        a = rng.randrange(p)
        b = rng.randrange(p)
        self.triples_dealt += 1
        return BeaverTriple(share(a), share(b), share(a * b % p))

    def edabit(self, bit_length: int) -> EdaBit:
        bits = [self._rng.randrange(2) for _ in range(bit_length)]
        value = sum(bit << i for i, bit in enumerate(bits))
        self.edabits_dealt += 1
        return EdaBit(self.share(value), [self.share(b) for b in bits])

    def noise_share(self, sample: int) -> List[int]:
        """Share an externally drawn (signed) noise sample.

        Stands in for the committee's joint noise-generation sub-protocol;
        the sample never exists in the clear at any single party. The cost
        model charges for the real protocol.
        """
        self.random_shares_dealt += 1
        return self.share(self.field.encode_signed(sample))
