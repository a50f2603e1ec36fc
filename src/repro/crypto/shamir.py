"""Shamir secret sharing over a prime field.

This is the substrate for Arboretum's honest-majority committee MPCs (§6,
"SPDZ-wise Shamir") and for Verifiable Secret Redistribution between
committees (§5.2, §5.4). Shares are (x, y) points on a random polynomial of
degree t whose constant term is the secret; any t+1 shares reconstruct, any
t reveal nothing.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from .backend import get_backend
from .field import PrimeField


@dataclass(frozen=True)
class Share:
    """One party's share: the evaluation of the sharing polynomial at ``x``."""

    x: int
    y: int


def _validate_sharing(threshold: int, party_ids: Sequence[int]) -> None:
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if len(set(party_ids)) != len(party_ids):
        raise ValueError("party ids must be distinct")
    if any(pid == 0 for pid in party_ids):
        raise ValueError("party id 0 is reserved for the secret itself")
    if len(party_ids) < threshold + 1:
        raise ValueError(
            f"{len(party_ids)} parties cannot reconstruct a degree-{threshold} sharing"
        )


def share_secret(
    secret: int,
    threshold: int,
    party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> List[Share]:
    """Split ``secret`` into shares for ``party_ids``.

    ``threshold`` is the polynomial degree t: any t+1 shares reconstruct the
    secret, any t or fewer are information-theoretically independent of it.
    Party ids must be distinct and nonzero (x=0 would leak the secret).
    """
    ys = sharing_kernel(threshold, tuple(party_ids), field)(secret, rng)
    return [Share(pid, y) for pid, y in zip(party_ids, ys)]


@functools.lru_cache(maxsize=1024)
def sharing_kernel(
    threshold: int, party_ids: Tuple[int, ...], field: PrimeField
) -> Callable[[int, random.Random], List[int]]:
    """Validate a party set once; return ``ys(secret, rng)`` for it.

    ``ys`` draws the t random coefficients (lowest degree first) and
    returns the sharing polynomial's values in ``party_ids`` order. It
    works coefficient-major — draw coefficient k, add its multiple of the
    parties' x^k column, reduce once at the end — over a table memoised per
    party set, so validation and the powers are paid once however many
    values are shared to it.
    """
    _validate_sharing(threshold, party_ids)
    p = field.modulus
    parties = len(party_ids)
    columns = []  # columns[k-1][j] = party_ids[j]^k mod p, k = 1..t
    powers = [1] * parties
    for _ in range(threshold):
        powers = [power * x % p for power, x in zip(powers, party_ids)]
        columns.append(powers)

    def ys(secret: int, rng: random.Random) -> List[int]:
        acc = [secret] * parties
        for column in columns:
            coeff = rng.randrange(p)
            acc = [y + coeff * power for y, power in zip(acc, column)]
        return [y % p for y in acc]

    return ys


@functools.lru_cache(maxsize=1024)
def lagrange_weights(modulus: int, xs: Tuple[int, ...], at: int = 0) -> Tuple[int, ...]:
    """Lagrange basis weights l_i(at) over the points ``xs``, mod ``modulus``.

    The weights depend only on the point set, so they are computed once
    per ``(modulus, xs, at)`` and shared by every opening, reconstruction
    and VSR combine over that committee. The numerator/denominator
    products are accumulated per point and the denominators inverted
    through the backend's ``batch_invmod`` (one inversion per point; the
    memoisation above is what keeps that off every hot path).
    """
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    nums: List[int] = []
    dens: List[int] = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * (at - xj) % modulus
            den = den * (xi - xj) % modulus
        nums.append(num)
        dens.append(den)
    inverses = get_backend().batch_invmod(dens, modulus)
    return tuple(num * inv % modulus for num, inv in zip(nums, inverses))


def lagrange_coefficients_at_zero(xs: Sequence[int], field: PrimeField) -> List[int]:
    """Lagrange basis weights l_i(0) for interpolation at x=0."""
    return list(lagrange_weights(field.modulus, tuple(xs)))


def reconstruct_secret(shares: Iterable[Share], field: PrimeField) -> int:
    """Interpolate the sharing polynomial at 0 to recover the secret.

    The caller must supply at least t+1 shares of a degree-t sharing; with
    fewer the result is an unrelated field element (Shamir gives no
    integrity by itself — VSR adds that on top).
    """
    shares = list(shares)
    if not shares:
        raise ValueError("cannot reconstruct from zero shares")
    xs = [s.x for s in shares]
    weights = lagrange_coefficients_at_zero(xs, field)
    acc = 0
    for share, w in zip(shares, weights):
        acc = field.add(acc, field.mul(w, share.y))
    return acc


def add_shares(a: Share, b: Share, field: PrimeField) -> Share:
    """Shares are additively homomorphic: pointwise sum shares the sum."""
    if a.x != b.x:
        raise ValueError("cannot add shares held by different parties")
    return Share(a.x, field.add(a.y, b.y))


def scale_share(a: Share, k: int, field: PrimeField) -> Share:
    """Multiply a shared value by a public constant."""
    return Share(a.x, field.mul(a.y, k))
