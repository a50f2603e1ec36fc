"""Verifiable Secret Redistribution (VSR).

Between committee vignettes, Arboretum transfers secrets (the private key,
or intermediate MPC state) from one committee to the next by re-sharing
(§5.2, §5.4). Plain re-sharing would let a malicious old-committee member
corrupt the secret undetectably, so each member publishes Feldman
commitments to its sub-share polynomial; new-committee members verify their
sub-shares against the commitments before combining. This mirrors the
Extended VSR protocol [35] that the paper obtained from the Mycelium
authors.

The protocol is two functions over rows: :func:`deal_committed` is the
dealers' half and :func:`combine_vector` the recipients' half;
:func:`redistribute_vector` composes them for every hand-off.
:func:`check_provenance` is Extended VSR's extra check over the same rows —
that each dealer re-shared its share of a *committed* original sharing.

The discrete-log group here is Z_q* for a safe-ish prime q chosen per field;
commitments are g^coeff mod q. Security rests on the hardness of discrete
log in that group, exactly as in Feldman's scheme.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .backend import get_backend
from .field import PrimeField, next_prime
from .shamir import lagrange_coefficients_at_zero


def _powers(x: int, count: int, p: int) -> List[int]:
    """``[x^0, x^1, ..., x^(count-1)]`` mod p."""
    out, power = [], 1
    for _ in range(count):
        out.append(power)
        power = power * x % p
    return out


def _committed_value(commitments: Sequence[int], exponents: Sequence[int], q: int) -> int:
    """prod_k C_k^{e_k} mod q — g^{poly(x)} when e_k = x^k."""
    backend = get_backend()
    acc = 1
    for c, e in zip(commitments, exponents):
        acc = acc * backend.powmod(c, e, q) % q
    return acc


@lru_cache(maxsize=16)
def _group_for_modulus(p: int) -> Tuple[int, int]:
    """Cached commitment-group search keyed by the field modulus."""
    k = 2
    while True:
        q = k * p + 1
        if next_prime(q) == q:
            break
        k += 1
    backend = get_backend()
    h = 3
    g = backend.powmod(h, (q - 1) // p, q)
    while g == 1:
        h += 1
        g = backend.powmod(h, (q - 1) // p, q)
    return q, g


def _group_for_field(field: PrimeField) -> Tuple[int, int]:
    """Pick a commitment group of order divisible by the field modulus.

    We use q = smallest prime with q ≡ 1 (mod p) so that elements of order p
    exist, then take g = h^((q-1)/p) for a fixed h. This keeps commitments
    consistent: g^a depends only on a mod p.
    """
    return _group_for_modulus(field.modulus)


class VSRError(Exception):
    """Raised when sub-share verification fails or reconstruction is impossible."""


def deal_committed(
    constants: Sequence[int],
    threshold: int,
    party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> Tuple[List[List[int]], List[List[int]]]:
    """Deal one committed degree-``threshold`` polynomial per constant term.

    Draws ``threshold`` coefficients per polynomial in the order of
    ``constants`` and commits to all of them in one fixed-base batch. Returns,
    per polynomial, its commitments g^{a_k} and its values at ``party_ids``.
    """
    p = field.modulus
    q, g = _group_for_field(field)
    polys = [
        [constant % p, *(rng.randrange(p) for _ in range(threshold))] for constant in constants
    ]
    flat = get_backend().powmod_base_vector(g, [c for coeffs in polys for c in coeffs], q)
    width = threshold + 1
    commitments = [flat[i : i + width] for i in range(0, len(flat), width)]
    evaluations = []
    for coeffs in polys:
        coeffs.reverse()  # Horner, highest degree first
        row = []
        for x in party_ids:
            acc = 0
            for c in coeffs:
                acc = (acc * x + c) % p
            row.append(acc)
        evaluations.append(row)
    return commitments, evaluations


def check_provenance(
    dealers: Sequence[int],
    commitments: Sequence[Sequence[int]],
    original: Sequence[Sequence[int]],
    field: PrimeField,
) -> None:
    """Extended VSR: each dealer re-shared its share of the original sharing.

    ``original`` is the commitment rows of the sharing the dealers hold
    shares of, one per element (``deal_committed(secrets, ...)[0]``);
    ``commitments`` is laid out as in :func:`combine_vector`. Row ``r``'s
    constant-term commitment must equal prod_k C_k^{x^k} of
    ``original[r // len(dealers)]`` at the dealer's x, i.e. g^{f(x)} — a
    dealer re-sharing any other value is caught even though its sub-shares
    are mutually consistent, which is all :func:`combine_vector` checks.
    Raises VSRError naming the dealer.
    """
    if not dealers or len(commitments) != len(dealers) * len(original):
        raise VSRError("commitment rows do not fit the dealers and the original rows")
    p = field.modulus
    q, _ = _group_for_field(field)
    for r, row in enumerate(commitments):
        dealer = dealers[r % len(dealers)]
        root = original[r // len(dealers)]
        if not row or row[0] != _committed_value(root, _powers(dealer, len(root), p), q):
            raise VSRError(f"dealer {dealer} re-shared a value other than its committed share")


@lru_cache(maxsize=64)
def _row_kernel(
    p: int, recipients: Tuple[int, ...], threshold: int
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """The field half of the row check, memoised per ``(p, recipients, t)``.

    Returns ``(solve, extend)`` over the first ``t + 1`` recipients' points:
    ``solve[k]`` is row k of the inverse Vandermonde matrix, so
    ``a_k = sum(solve[k][j] * y_j)``, and ``extend[i]`` holds the Lagrange
    weights at the ``i``-th further recipient, so the row's polynomial takes
    the value ``sum(extend[i][j] * y_j)`` there. The denominators are
    inverted through the backend's ``batch_invmod``; nothing here touches
    the Lagrange-weight cache the openings share.
    """
    xs = recipients[: threshold + 1]
    numerators, denominators = [], []
    for j, xj in enumerate(xs):
        poly, den = [1], 1  # prod_{m != j} (x - x_m), lowest degree first
        for m, xm in enumerate(xs):
            if m != j:
                poly = [(lower - xm * c) % p for lower, c in zip([0, *poly], [*poly, 0])]
                den = den * (xj - xm) % p
        numerators.append(poly)
        denominators.append(den)
    inverses = get_backend().batch_invmod(denominators, p)
    # basis[j] is l_j(x) = numerators[j] / denominators[j], lowest degree first.
    basis = [[c * inv % p for c in poly] for poly, inv in zip(numerators, inverses)]
    solve = tuple(zip(*basis))
    extend = []
    for x in recipients[threshold + 1 :]:
        powers = _powers(x, len(xs), p)
        extend.append(tuple(sum(map(operator.mul, l_j, powers)) % p for l_j in basis))
    return solve, tuple(extend)


def combine_vector(
    dealers: Sequence[int],
    new_party_ids: Sequence[int],
    new_threshold: int,
    commitments: Sequence[Sequence[int]],
    sub_shares: Sequence[Sequence[int]],
    field: PrimeField,
) -> Dict[int, List[int]]:
    """The recipients' half of :func:`redistribute_vector`.

    Row ``r`` of ``commitments``/``sub_shares`` (:func:`deal_committed`
    rows) is what dealer ``dealers[r % len(dealers)]`` published for element
    ``r // len(dealers)``. Each row is checked once: its ``t + 1``
    coefficients are interpolated from the first ``t + 1`` sub-shares
    (:func:`_row_kernel`), every further sub-share must be the polynomial's
    value at its recipient (field arithmetic, no modexp), and g^{a_k} — one
    fixed-base batch over every row's coefficients — must equal the row's
    commitments. The first failing row raises VSRError naming its dealer;
    the verified sub-shares are combined with the dealers' Lagrange weights.

    For commitments in the order-p subgroup this accepts exactly when every
    per-recipient Feldman equality g^y = prod_k C_k^{x^k} holds; a row
    outside it (C_k times an element of small order) is refused even where
    those equalities hold. Rows that do not fit the dealers and recipients
    (a withheld row would otherwise be combined unverified), and fewer than
    ``t + 1`` distinct recipients, are refused before any modexp.
    """
    if not dealers:
        raise VSRError("no dealers to combine")
    width = new_threshold + 1
    if len(new_party_ids) < width or len(set(new_party_ids)) != len(new_party_ids):
        raise VSRError(
            f"{len(new_party_ids)} recipient ids cannot check a degree-{new_threshold} "
            f"row: it takes {width} distinct ones"
        )
    if len(commitments) != len(sub_shares) or len(sub_shares) % len(dealers):
        raise VSRError(
            f"{len(commitments)} commitment rows and {len(sub_shares)} sub-share "
            f"rows do not fit {len(dealers)} dealers"
        )
    for r, ys in enumerate(sub_shares):
        if len(ys) != len(new_party_ids):
            raise VSRError(
                f"dealer {dealers[r % len(dealers)]} sent {len(ys)} sub-shares "
                f"to {len(new_party_ids)} recipients"
            )
    p = field.modulus
    solve, extend = _row_kernel(p, tuple(new_party_ids), new_threshold)
    failed = len(sub_shares)  # the first failing row, if any
    coefficients: List[int] = []
    for r, (commitment, ys) in enumerate(zip(commitments, sub_shares)):
        base = ys[:width]
        if len(commitment) != width or any(
            (sum(map(operator.mul, weights, base)) - y) % p
            for weights, y in zip(extend, ys[width:])
        ):
            failed = r
            break
        coefficients.extend(sum(map(operator.mul, row, base)) % p for row in solve)
    q, g = _group_for_field(field)
    powers = get_backend().powmod_base_vector(g, coefficients, q)
    for r in range(failed):
        if list(commitments[r]) != powers[r * width : (r + 1) * width]:
            failed = r
            break
    if failed < len(sub_shares):
        dealer = dealers[failed % len(dealers)]
        if len(commitments[failed]) != width:
            raise VSRError(f"dealer {dealer} committed to a polynomial of the wrong degree")
        raise VSRError(f"sub-share from dealer {dealer} failed verification")
    weights = lagrange_coefficients_at_zero(dealers, field)
    out: Dict[int, List[int]] = {pid: [] for pid in new_party_ids}
    for i in range(0, len(sub_shares), len(dealers)):
        for pid, column in zip(new_party_ids, zip(*sub_shares[i : i + len(dealers)])):
            out[pid].append(sum(map(operator.mul, weights, column)) % p)
    return out


def redistribute_vector(
    old_shares: Dict[int, Sequence[int]],
    old_threshold: int,
    new_threshold: int,
    new_party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> Dict[int, List[int]]:
    """Redistribute a vector of secrets (e.g. the limbs of a key) in one round.

    ``old_shares[x]`` is the share vector (y-values) of the old member at
    x-coordinate ``x``; the first ``old_threshold + 1`` members deal, and
    the result maps each new member to its y-values. Same shares, checks
    and ``rng`` draws — element, then dealer, then coefficient; the order
    is part of every pinned digest — as one VSR round per element
    (``tests/oracles/vsr_reference.py`` is that loop).
    """
    if not old_shares:
        raise VSRError("no old shares supplied")
    length = len(next(iter(old_shares.values())))
    if any(len(v) != length for v in old_shares.values()):
        raise VSRError("old share vectors have inconsistent lengths")
    if len(old_shares) < old_threshold + 1:
        raise VSRError("not enough old shares for an honest quorum")
    dealers = list(old_shares)[: old_threshold + 1]
    constants = [old_shares[x][i] for i in range(length) for x in dealers]
    commitments, sub_shares = deal_committed(
        constants, new_threshold, new_party_ids, field, rng
    )
    return combine_vector(
        dealers, new_party_ids, new_threshold, commitments, sub_shares, field
    )
