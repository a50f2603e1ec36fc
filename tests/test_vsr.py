"""Tests for Verifiable Secret Redistribution."""

import random

import pytest

from repro.crypto.field import MERSENNE_61, PrimeField
from repro.crypto.shamir import Share, reconstruct_secret, share_secret
from repro.crypto.vsr import (
    FeldmanCommitment,
    RedistributionMessage,
    SubShare,
    VSRError,
    combine_sub_shares,
    combine_vector,
    deal_committed,
    redistribute_secret,
    redistribute_share,
    redistribute_vector,
    verify_share_provenance,
    verify_sub_share,
)

FIELD = PrimeField(MERSENNE_61)


class TestRedistribution:
    def test_same_secret_after_redistribution(self, rng):
        old = share_secret(1234, 2, [1, 2, 3, 4, 5], FIELD, rng)
        new = redistribute_secret(old, 2, 2, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(new[:3], FIELD) == 1234

    def test_new_committee_can_differ_in_size(self, rng):
        old = share_secret(99, 1, [1, 2, 3], FIELD, rng)
        new = redistribute_secret(old, 1, 3, [1, 2, 3, 4, 5, 6, 7], FIELD, rng)
        assert reconstruct_secret(new[:4], FIELD) == 99

    def test_new_shares_are_fresh(self, rng):
        """Old and new shares cannot be combined: the polynomials differ."""
        old = share_secret(5, 1, [1, 2, 3], FIELD, rng)
        new = redistribute_secret(old, 1, 1, [1, 2, 3], FIELD, rng)
        mixed = [old[0], new[1]]
        assert reconstruct_secret(mixed, FIELD) != 5  # w.h.p.

    def test_not_enough_old_shares(self, rng):
        old = share_secret(5, 2, [1, 2, 3, 4, 5], FIELD, rng)
        with pytest.raises(VSRError):
            redistribute_secret(old[:2], 2, 1, [1, 2, 3], FIELD, rng)


class TestVerification:
    def test_sub_shares_verify(self, rng):
        share = Share(3, 777)
        msg = redistribute_share(share, 1, [1, 2, 3], FIELD, rng)
        for sub in msg.sub_shares:
            assert verify_sub_share(sub, msg.commitment, FIELD)

    def test_tampered_sub_share_detected(self, rng):
        share = Share(3, 777)
        msg = redistribute_share(share, 1, [1, 2, 3], FIELD, rng)
        bad = SubShare(msg.sub_shares[0].source, msg.sub_shares[0].x, msg.sub_shares[0].y + 1)
        assert not verify_sub_share(bad, msg.commitment, FIELD)

    def test_combine_rejects_tampering(self, rng):
        old = share_secret(42, 1, [1, 2, 3], FIELD, rng)
        msgs = [redistribute_share(s, 1, [1, 2, 3], FIELD, rng) for s in old[:2]]
        # Corrupt dealer 1's sub-share for party 2.
        from dataclasses import replace

        tampered_subs = tuple(
            SubShare(s.source, s.x, s.y + 1) if s.x == 2 else s
            for s in msgs[0].sub_shares
        )
        msgs[0] = replace(msgs[0], sub_shares=tampered_subs)
        with pytest.raises(VSRError):
            combine_sub_shares(2, msgs, FIELD, 1)

    def test_combine_requires_messages(self):
        with pytest.raises(VSRError):
            combine_sub_shares(1, [], FIELD, 1)

    def test_missing_recipient_detected(self, rng):
        share = Share(1, 10)
        msg = redistribute_share(share, 1, [1, 2], FIELD, rng)
        with pytest.raises(VSRError):
            combine_sub_shares(9, [msg, msg], FIELD, 1)


class TestVectorRedistribution:
    def test_vector_roundtrip(self, rng):
        values = [10, 20, 30]
        party_ids = [1, 2, 3, 4, 5]
        old_vectors = {pid: [] for pid in party_ids}
        for v in values:
            for s in share_secret(v, 2, party_ids, FIELD, rng):
                old_vectors[s.x].append(s.y)
        new = redistribute_vector(old_vectors, 2, 1, [1, 2, 3], FIELD, rng)
        for i, expected in enumerate(values):
            shares = [Share(p, new[p][i]) for p in (1, 2)]
            assert reconstruct_secret(shares, FIELD) == expected

    def test_inconsistent_lengths_rejected(self, rng):
        with pytest.raises(VSRError):
            redistribute_vector({1: [1], 2: []}, 0, 0, [1, 2], FIELD, rng)

    def test_empty_rejected(self, rng):
        with pytest.raises(VSRError):
            redistribute_vector({}, 0, 0, [1], FIELD, rng)

    def test_too_few_dealers_rejected(self, rng):
        with pytest.raises(VSRError, match="quorum"):
            redistribute_vector({1: [5], 2: [6]}, 2, 1, [1, 2, 3], FIELD, rng)


class TestFailClosedVerifier:
    """A dealer chooses neither the group nor the degree it is checked in."""

    def test_dealer_chosen_group_rejected(self, rng):
        """Generator 1 makes every check 1 == 1: before the verifier took
        the group from the field, random sub-shares from such a dealer
        combined into garbage without any error. A commitment carries no
        group any more, so the generator-1 forgery is just commitments
        (1, 1) — and the value check in the field's group refuses it."""
        old = share_secret(1234, 1, [1, 2, 3], FIELD, rng)
        honest = redistribute_share(old[0], 1, [1, 2, 3], FIELD, rng)
        forged = RedistributionMessage(
            old[1].x,
            tuple(SubShare(old[1].x, pid, rng.randrange(FIELD.modulus)) for pid in (1, 2, 3)),
            FeldmanCommitment((1, 1)),
        )
        for sub in forged.sub_shares:
            assert not verify_sub_share(sub, forged.commitment, FIELD)
        with pytest.raises(VSRError, match=f"dealer {old[1].x} failed verification"):
            combine_sub_shares(1, [honest, forged], FIELD, 1)
        assert not verify_share_provenance(old[1], forged.commitment, FIELD)
        with pytest.raises(TypeError):
            FeldmanCommitment(7, 1, (1, 1))

    def test_over_degree_dealer_rejected(self, rng):
        """Three coefficient commitments at new threshold 1 verify for every
        recipient, yet recipient quorums {1,2} and {2,3} would reconstruct
        different secrets."""
        old = share_secret(1234, 1, [1, 2, 3], FIELD, rng)
        honest = redistribute_share(old[0], 1, [1, 2, 3], FIELD, rng)
        over = redistribute_share(old[1], 2, [1, 2, 3], FIELD, rng)
        assert all(verify_sub_share(s, over.commitment, FIELD) for s in over.sub_shares)
        with pytest.raises(VSRError, match=f"dealer {old[1].x} .* wrong degree"):
            combine_sub_shares(1, [honest, over], FIELD, 1)
        commitments, subs = deal_committed([old[0].y, old[1].y], 2, [1, 2, 3], FIELD, rng)
        with pytest.raises(VSRError, match="wrong degree"):
            combine_vector([1, 2], [1, 2, 3], 1, commitments, subs, FIELD)


class TestChainedRedistribution:
    def test_multi_hop_chain(self, rng):
        """Key shares hop across several committees (the §5.2 VSR tree)."""
        secret = 31337
        shares = share_secret(secret, 2, [1, 2, 3, 4, 5], FIELD, rng)
        for _hop in range(4):
            shares = redistribute_secret(shares, 2, 2, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(shares[:3], FIELD) == secret


class TestExtendedVSRProvenance:
    def test_provenanced_sharing_roundtrip(self, rng):
        from repro.crypto.vsr import (
            redistribute_with_provenance,
            share_secret_with_provenance,
            verify_share_provenance,
        )

        sharing = share_secret_with_provenance(4242, 2, [1, 2, 3, 4, 5], FIELD, rng)
        for share in sharing.shares:
            assert verify_share_provenance(share, sharing.commitment, FIELD)
        new = redistribute_with_provenance(sharing, 2, 2, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(new[:3], FIELD) == 4242

    def test_dealer_with_substituted_share_caught(self, rng):
        """A dealer whose input share is not the committed one is detected
        even though its sub-shares would be mutually consistent — the
        'Extended' part of Extended VSR."""
        from dataclasses import replace as _replace

        from repro.crypto.vsr import (
            redistribute_with_provenance,
            share_secret_with_provenance,
        )

        sharing = share_secret_with_provenance(99, 1, [1, 2, 3], FIELD, rng)
        forged_shares = (Share(1, sharing.shares[0].y + 7),) + sharing.shares[1:]
        forged = _replace(sharing, shares=forged_shares)
        with pytest.raises(VSRError, match="provenance"):
            redistribute_with_provenance(forged, 1, 1, [1, 2, 3], FIELD, rng)

    def test_plain_vsr_would_miss_the_substitution(self, rng):
        """Contrast: plain VSR happily redistributes the forged share —
        provenance is what Extended VSR adds."""
        from repro.crypto.vsr import share_secret_with_provenance

        sharing = share_secret_with_provenance(99, 1, [1, 2, 3], FIELD, rng)
        forged = [Share(1, sharing.shares[0].y + 7)] + list(sharing.shares[1:])
        new = redistribute_secret(forged, 1, 1, [1, 2, 3], FIELD, rng)
        assert reconstruct_secret(new[:2], FIELD) != 99  # silently wrong
