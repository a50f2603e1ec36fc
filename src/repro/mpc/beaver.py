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
from typing import List, Sequence, Tuple

from ..crypto.field import PrimeField
from ..crypto.shamir import sharing_kernel

#: Dealer-made sharings are plain y-value lists in ``party_ids`` order: the
#: online phase only ever does per-party arithmetic on them, and never in
#: place — an engine's handle may alias a list the dealer returned.
#:
#: Shares of a random (a, b, c) with c = a*b.
BeaverTriple = Tuple[List[int], List[int], List[int]]
#: Shares of a random m-bit value r and of its low bits, least significant
#: first — only the bits the comparison circuit reads: a secret is masked by
#: r, opened, and the public low bits are compared against r's shared ones.
EdaBit = Tuple[List[int], List[List[int]]]


class OfflineDealer:
    """Produces the correlated randomness the online phase consumes.

    The engine meters what it consumes, which feeds the planner's cost
    model. The party set is validated here, once: nothing downstream
    re-checks it.
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

    def share(self, value: int) -> List[int]:
        """A fresh degree-t sharing of ``value``: y-values in party order."""
        return self._kernel(value, self._rng)

    def triple(self) -> BeaverTriple:
        """Draws a, b, then the coefficients of the a-, b- and c-sharings:
        the order a replay or a resumed journal expects."""
        p, rng, kernel = self.field.modulus, self._rng, self._kernel
        a = rng.randrange(p)
        b = rng.randrange(p)
        return kernel(a, rng), kernel(b, rng), kernel(a * b % p, rng)

    def edabit(self, bit_length: int, shared_bits: int) -> EdaBit:
        """Draws the value with one ``getrandbits(bit_length)``, then shares
        the value, then each of its low ``shared_bits`` bits, LSB first."""
        rng, kernel = self._rng, self._kernel
        value = rng.getrandbits(bit_length)
        return kernel(value, rng), [kernel(value >> i & 1, rng) for i in range(shared_bits)]

    def noise_share(self, sample: int) -> List[int]:
        """Share an externally drawn (signed) noise sample.

        Stands in for the committee's joint noise-generation sub-protocol;
        the sample never exists in the clear at any single party. The cost
        model charges for the real protocol.
        """
        return self.share(self.field.encode_signed(sample))
