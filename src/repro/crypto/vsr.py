"""Verifiable Secret Redistribution (VSR).

Between committee vignettes, Arboretum transfers secrets (the private key,
or intermediate MPC state) from one committee to the next by re-sharing
(§5.2, §5.4). Plain re-sharing would let a malicious old-committee member
corrupt the secret undetectably, so each member publishes Feldman
commitments to its sub-share polynomial; new-committee members verify their
sub-shares against the commitments before combining. This mirrors the
Extended VSR protocol [35] that the paper obtained from the Mycelium
authors.

The discrete-log group here is Z_q* for a safe-ish prime q chosen per field;
commitments are g^coeff mod q. Security rests on the hardness of discrete
log in that group, exactly as in Feldman's scheme.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .backend import get_backend
from .field import PrimeField, next_prime
from .shamir import Share, lagrange_coefficients_at_zero


@dataclass(frozen=True)
class FeldmanCommitment:
    """Commitments g^{a_k} mod q to a sub-share polynomial's coefficients."""

    group_modulus: int
    generator: int
    coefficient_commitments: Tuple[int, ...]

    def expected_commitment(self, x: int, field: PrimeField) -> int:
        """Compute prod_k C_k^{x^k} = g^{poly(x)} for verification."""
        exponents = _powers(x, len(self.coefficient_commitments), field.modulus)
        return _committed_value(self.coefficient_commitments, exponents, self.group_modulus)


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


@dataclass(frozen=True)
class SubShare:
    """A share of a share: old member ``source`` re-shares to new member ``x``."""

    source: int
    x: int
    y: int


@dataclass(frozen=True)
class RedistributionMessage:
    """Everything one old-committee member publishes during VSR."""

    source: int
    sub_shares: Tuple[SubShare, ...]
    commitment: FeldmanCommitment


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


def _on_committed_polynomial(
    x: int, y: int, commitment: FeldmanCommitment, field: PrimeField
) -> bool:
    """Check g^y against prod_k C_k^{x^k} in the *field's* commitment group.

    The group is the verifier's, never the dealer's: in a group of the
    dealer's choosing (say generator 1) every sub-share verifies, so a
    commitment naming any other group is refused outright.
    """
    q, g = _group_for_field(field)
    if (commitment.group_modulus, commitment.generator) != (q, g):
        raise VSRError("commitment is not in this field's commitment group")
    (lhs,) = get_backend().powmod_base_vector(g, [y], q)
    return lhs == commitment.expected_commitment(x, field)


def redistribute_share(
    old_share: Share,
    threshold: int,
    new_party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> RedistributionMessage:
    """Re-share one old-committee member's share to the new committee.

    Returns the sub-shares destined for each new member plus the Feldman
    commitment that lets them verify the sub-shares were dealt consistently.
    """
    q, g = _group_for_field(field)
    (commitments,), (ys,) = deal_committed([old_share.y], threshold, new_party_ids, field, rng)
    return RedistributionMessage(
        old_share.x,
        tuple(SubShare(old_share.x, pid, y) for pid, y in zip(new_party_ids, ys)),
        FeldmanCommitment(q, g, tuple(commitments)),
    )


def verify_sub_share(sub: SubShare, commitment: FeldmanCommitment, field: PrimeField) -> bool:
    """Check g^{sub.y} against the published polynomial commitments."""
    return _on_committed_polynomial(sub.x, sub.y, commitment, field)


def combine_sub_shares(
    new_party_id: int,
    messages: Sequence[RedistributionMessage],
    field: PrimeField,
    new_threshold: int,
) -> Share:
    """Build a new-committee member's share of the original secret.

    Verifies every sub-share against its dealer's commitment (raising
    VSRError on any mismatch, and on a commitment that is not to a
    degree-``new_threshold`` polynomial: a higher degree verifies too, but
    different recipient quorums would then reconstruct different secrets),
    then combines them with the Lagrange weights of the dealers' old
    x-coordinates, so the result is a point on a fresh polynomial sharing
    the *same* secret.
    """
    if not messages:
        raise VSRError("no redistribution messages to combine")
    my_subs = []
    for msg in messages:
        if len(msg.commitment.coefficient_commitments) != new_threshold + 1:
            raise VSRError(
                f"dealer {msg.source} committed to a polynomial of the wrong degree"
            )
        matching = [s for s in msg.sub_shares if s.x == new_party_id]
        if not matching:
            raise VSRError(f"dealer {msg.source} sent no sub-share to party {new_party_id}")
        sub = matching[0]
        if not verify_sub_share(sub, msg.commitment, field):
            raise VSRError(f"sub-share from dealer {msg.source} failed verification")
        my_subs.append(sub)
    xs = [s.source for s in my_subs]
    weights = lagrange_coefficients_at_zero(xs, field)
    y = 0
    for sub, w in zip(my_subs, weights):
        y = field.add(y, field.mul(w, sub.y))
    return Share(new_party_id, y)


def redistribute_secret(
    old_shares: Sequence[Share],
    old_threshold: int,
    new_threshold: int,
    new_party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> List[Share]:
    """Full VSR round: old committee's shares -> new committee's shares.

    Exactly ``old_threshold + 1`` old shares are used (the honest quorum);
    each is verifiably re-shared at degree ``new_threshold`` for the new
    committee.
    """
    if len(old_shares) < old_threshold + 1:
        raise VSRError("not enough old shares for an honest quorum")
    quorum = list(old_shares)[: old_threshold + 1]
    messages = [
        redistribute_share(s, new_threshold, new_party_ids, field, rng) for s in quorum
    ]
    return [
        combine_sub_shares(pid, messages, field, new_threshold) for pid in new_party_ids
    ]


@dataclass(frozen=True)
class ProvenancedSharing:
    """A sharing together with Feldman commitments to its polynomial.

    Extended VSR [35] does not only verify that each dealer re-shared
    *some* value consistently — it also verifies that the value re-shared
    is the dealer's *actual share of the original secret*. That requires
    the original sharing to come with commitments: g^{a_k} for the
    original polynomial's coefficients, from which anyone can compute the
    expected commitment g^{f(i)} for dealer i's share and compare it with
    the constant-term commitment of i's sub-share polynomial.
    """

    shares: Tuple[Share, ...]
    commitment: FeldmanCommitment


def share_secret_with_provenance(
    secret: int,
    threshold: int,
    party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> ProvenancedSharing:
    """Deal a sharing plus the Feldman commitments Extended VSR verifies."""
    q, g = _group_for_field(field)
    (commitments,), (ys,) = deal_committed([secret], threshold, party_ids, field, rng)
    return ProvenancedSharing(
        tuple(Share(pid, y) for pid, y in zip(party_ids, ys)),
        FeldmanCommitment(q, g, tuple(commitments)),
    )


def verify_share_provenance(
    share: Share, original: FeldmanCommitment, field: PrimeField
) -> bool:
    """Check that ``share`` lies on the originally committed polynomial."""
    return _on_committed_polynomial(share.x, share.y, original, field)


def redistribute_with_provenance(
    sharing: ProvenancedSharing,
    old_threshold: int,
    new_threshold: int,
    new_party_ids: Sequence[int],
    field: PrimeField,
    rng: random.Random,
) -> List[Share]:
    """Extended VSR: re-share while proving each dealer's input share.

    Every dealer's redistribution message must (a) be internally
    consistent (plain VSR) and (b) have a constant-term commitment equal
    to the original polynomial's commitment at the dealer's point — a
    dealer re-sharing a *different* value than its real share is caught
    even though its sub-shares are mutually consistent.
    """
    shares = list(sharing.shares)
    if len(shares) < old_threshold + 1:
        raise VSRError("not enough old shares for an honest quorum")
    for share in shares:
        if not verify_share_provenance(share, sharing.commitment, field):
            raise VSRError(
                f"dealer {share.x}'s input share does not match the original "
                f"commitment (Extended VSR provenance check)"
            )
    messages = []
    for share in shares[: old_threshold + 1]:
        message = redistribute_share(share, new_threshold, new_party_ids, field, rng)
        expected = sharing.commitment.expected_commitment(share.x, field)
        if message.commitment.coefficient_commitments[0] != expected:
            raise VSRError(
                f"dealer {share.x} re-shared a value inconsistent with its "
                f"committed share"
            )
        messages.append(message)
    return [
        combine_sub_shares(pid, messages, field, new_threshold) for pid in new_party_ids
    ]


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
    ``r // len(dealers)``. Every ``(element, dealer, recipient)`` sub-share
    is checked on its own — g^y, from one fixed-base batch, against
    prod_k C_k^{x^k} — and a mismatch raises VSRError naming the dealer;
    the verified sub-shares are combined with the dealers' Lagrange weights.
    """
    p = field.modulus
    q, g = _group_for_field(field)
    width = new_threshold + 1
    powers = [_powers(x, width, p) for x in new_party_ids]
    lhs = iter(
        get_backend().powmod_base_vector(g, [y for ys in sub_shares for y in ys], q)
    )
    for r, commitment in enumerate(commitments):
        dealer = dealers[r % len(dealers)]
        if len(commitment) != width:
            raise VSRError(f"dealer {dealer} committed to a polynomial of the wrong degree")
        for exponents in powers:
            if next(lhs) != _committed_value(commitment, exponents, q):
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
    """Redistribute a vector of secrets (e.g. BGV key shares) in one round.

    ``old_shares[x]`` is the share vector (y-values) of the old member at
    x-coordinate ``x``; the first ``old_threshold + 1`` members deal, and
    the result maps each new member to its y-values. Same shares, checks
    and ``rng`` draws — element, then dealer, then coefficient; the order
    is part of every pinned digest — as one :func:`redistribute_secret`
    per element (``tests/oracles/vsr_reference.py`` is that loop).
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
