"""Element-at-a-time VSR on the builtin ``pow``, kept as the differential oracle.

This is ``redistribute_vector`` as it stood before the hand-off went onto
the fixed-base table: one full VSR round per vector element — every dealer
of the quorum draws its own coefficients, commits with a generic modexp
per coefficient and Horners through ``field`` method calls; every recipient
then checks each dealer's sub-share with two more generic modexps and
fetches the Lagrange weights again. ``tests/test_vsr_equivalence.py`` runs
the same hand-off through this module and through
:func:`repro.crypto.vsr.redistribute_vector` and requires identical new
shares and an identical ``rng.getstate()``, and the same ``VSRError`` when a
published value is tampered with.

Nothing in ``src/`` imports this module and no option selects it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.field import PrimeField
from repro.crypto.shamir import lagrange_coefficients_at_zero
from repro.crypto.vsr import VSRError, _group_for_field

#: One dealer's publication for one element: [dealer x, commitments, sub-shares].
Message = List


def deal(
    share_y: int,
    threshold: int,
    new_party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> Tuple[List[int], List[int]]:
    """One dealer, one element: ``(commitments g^{a_k}, sub-share per recipient)``."""
    q, g = _group_for_field(field)
    coeffs = [field.reduce(share_y)]
    coeffs.extend(field.random_element(rng) for _ in range(threshold))
    commitments = [pow(g, c, q) for c in coeffs]
    subs = []
    for pid in new_party_ids:
        acc = 0
        for c in reversed(coeffs):
            acc = field.add(field.mul(acc, pid), c)
        subs.append(acc)
    return commitments, subs


def verify(x: int, y: int, commitments: Sequence[int], field: PrimeField) -> bool:
    """g^y == prod_k C_k^{x^k}, every factor a generic modexp."""
    q, g = _group_for_field(field)
    expected, exponent = 1, 1
    for c in commitments:
        expected = expected * pow(c, exponent, q) % q
        exponent = field.mul(exponent, x)
    return pow(g, y, q) == expected


def redistribute_vector(
    old_shares: Dict[int, Sequence[int]],
    old_threshold: int,
    new_threshold: int,
    new_party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
    tamper: Optional[Callable[[int, List[Message]], None]] = None,
) -> Dict[int, List[int]]:
    """One VSR round per element; ``tamper(element, messages)`` may corrupt
    what the dealers published before the recipients look at it."""
    if not old_shares:
        raise VSRError("no old shares supplied")
    length = len(next(iter(old_shares.values())))
    if any(len(v) != length for v in old_shares.values()):
        raise VSRError("old share vectors have inconsistent lengths")
    if len(old_shares) < old_threshold + 1:
        raise VSRError("not enough old shares for an honest quorum")
    dealers = list(old_shares)[: old_threshold + 1]
    out: Dict[int, List[int]] = {pid: [] for pid in new_party_ids}
    for i in range(length):
        messages: List[Message] = [
            [x, *deal(old_shares[x][i], new_threshold, new_party_ids, field, rng)]
            for x in dealers
        ]
        if tamper is not None:
            tamper(i, messages)
        for j, pid in enumerate(new_party_ids):
            for dealer, commitments, subs in messages:
                if len(commitments) != new_threshold + 1:
                    raise VSRError(
                        f"dealer {dealer} committed to a polynomial of the wrong degree"
                    )
                if not verify(pid, subs[j], commitments, field):
                    raise VSRError(f"sub-share from dealer {dealer} failed verification")
            weights = lagrange_coefficients_at_zero(dealers, field)
            y = 0
            for (_, _, subs), w in zip(messages, weights):
                y = field.add(y, field.mul(w, subs[j]))
            out[pid].append(y)
    return out
