"""Tests for Verifiable Secret Redistribution."""

import pytest

from repro.crypto import vsr
from repro.crypto.field import DEFAULT_FIELD, MERSENNE_61, PrimeField
from repro.crypto.shamir import Share, reconstruct_secret, share_secret
from repro.crypto.vsr import (
    VSRError,
    check_provenance,
    combine_vector,
    deal_committed,
    redistribute_vector,
)

FIELD = PrimeField(MERSENNE_61)


def _vector(shares):
    """One-element share vectors, keyed by x, in the order ``redistribute_vector`` takes."""
    return {s.x: [s.y] for s in shares}


def _points(new, pids):
    """The recipients' element-0 shares as Shamir points."""
    return [Share(pid, new[pid][0]) for pid in pids]


def _refused_before_any_modexp(monkeypatch, *args, match):
    """``combine_vector(*args)`` raises VSRError without touching the bigint backend."""
    calls = []
    backend = vsr.get_backend()
    monkeypatch.setattr(vsr, "get_backend", lambda: calls.append(1) or backend)
    with pytest.raises(VSRError, match=match):
        combine_vector(*args)
    assert calls == []


class TestRedistribution:
    def test_same_secret_after_redistribution(self, rng):
        old = share_secret(1234, 2, [1, 2, 3, 4, 5], FIELD, rng)
        new = redistribute_vector(_vector(old), 2, 2, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(_points(new, [1, 2, 3]), FIELD) == 1234

    def test_new_committee_can_differ_in_size(self, rng):
        old = share_secret(99, 1, [1, 2, 3], FIELD, rng)
        new = redistribute_vector(_vector(old), 1, 3, [1, 2, 3, 4, 5, 6, 7], FIELD, rng)
        assert reconstruct_secret(_points(new, [1, 2, 3, 4]), FIELD) == 99

    def test_new_shares_are_fresh(self, rng):
        """Old and new shares cannot be combined: the polynomials differ."""
        old = share_secret(5, 1, [1, 2, 3], FIELD, rng)
        new = redistribute_vector(_vector(old), 1, 1, [1, 2, 3], FIELD, rng)
        mixed = [old[0], *_points(new, [2])]
        assert reconstruct_secret(mixed, FIELD) != 5  # w.h.p.

    def test_not_enough_old_shares(self, rng):
        old = share_secret(5, 2, [1, 2, 3, 4, 5], FIELD, rng)
        with pytest.raises(VSRError):
            redistribute_vector(_vector(old[:2]), 2, 1, [1, 2, 3], FIELD, rng)


class TestVerification:
    def test_sub_shares_verify(self, rng):
        """One dealer at x=3 has Lagrange weight 1: its verified sub-shares
        come back unchanged."""
        commitments, subs = deal_committed([777], 1, [1, 2, 3], FIELD, rng)
        new = combine_vector([3], [1, 2, 3], 1, commitments, subs, FIELD)
        assert new == {pid: [y] for pid, y in zip([1, 2, 3], subs[0])}

    def test_tampered_sub_share_detected(self, rng):
        commitments, subs = deal_committed([777], 1, [1, 2, 3], FIELD, rng)
        subs[0][0] += 1
        with pytest.raises(VSRError, match="dealer 3 failed verification"):
            combine_vector([3], [1, 2, 3], 1, commitments, subs, FIELD)

    def test_combine_rejects_tampering(self, rng):
        old = share_secret(42, 1, [1, 2, 3], FIELD, rng)
        commitments, subs = deal_committed([s.y for s in old[:2]], 1, [1, 2, 3], FIELD, rng)
        subs[0][1] += 1  # dealer 1's sub-share for party 2
        with pytest.raises(VSRError, match="dealer 1 failed verification"):
            combine_vector([1, 2], [1, 2, 3], 1, commitments, subs, FIELD)

    def test_combine_requires_messages(self, monkeypatch):
        """No dealers: refused, not ``range()`` with step 0."""
        _refused_before_any_modexp(monkeypatch, [], [1], 1, [], [], FIELD, match="no dealers")

    def test_missing_recipient_detected(self, monkeypatch, rng):
        """A dealer row one sub-share short: refused naming the dealer, not a
        bare StopIteration from the verifier running out of sub-shares."""
        commitments, subs = deal_committed([10, 11], 1, [1, 2, 3], FIELD, rng)
        subs[1].pop()
        _refused_before_any_modexp(
            monkeypatch, [1, 2], [1, 2, 3], 1, commitments, subs, FIELD,
            match="dealer 2 sent 2 sub-shares to 3 recipients",
        )

    def test_withheld_commitment_rows_refused(self, monkeypatch, rng):
        """Element 1's commitment rows withheld and dealer 2's element-1
        sub-shares bumped: without the row count the tampered sub-shares
        were combined unverified and the call returned."""
        commitments, subs = deal_committed([5, 6, 7, 8, 9, 10], 1, [1, 2, 3], FIELD, rng)
        subs[4] = [y + 1 for y in subs[4]]
        _refused_before_any_modexp(
            monkeypatch, [1, 2, 3], [1, 2, 3], 1, commitments[:3], subs, FIELD,
            match="3 commitment rows and 6 sub-share rows",
        )

    def test_rows_not_a_multiple_of_the_dealers_refused(self, monkeypatch, rng):
        commitments, subs = deal_committed([5, 6, 7], 1, [1, 2, 3], FIELD, rng)
        _refused_before_any_modexp(
            monkeypatch, [1, 2], [1, 2, 3], 1, commitments, subs, FIELD,
            match="do not fit 2 dealers",
        )


class TestRowCheck:
    """One check per dealer row: interpolate, extend, compare g^{a_k} with C_k."""

    def test_torsion_twisted_row_refused(self, rng):
        """q = 114p + 1 for the runtime's field, so −1 is in Z_q*. Negating
        C₁ and C₂ at t = 2 leaves every per-recipient equality
        g^y = C₀·C₁^x·C₂^{x²} standing, since x + x² is always even; the row
        is still no polynomial's commitment, and the row check refuses it."""
        field, ids = DEFAULT_FIELD, [1, 2, 3, 4, 5]
        q, g = vsr._group_for_field(field)
        assert q == 114 * field.modulus + 1
        commitments, subs = deal_committed([11, 12, 13], 2, ids, field, rng)
        commitments[1][1:] = [q - c for c in commitments[1][1:]]
        for x, y in zip(ids, subs[1]):
            exponents = vsr._powers(x, 3, field.modulus)
            assert pow(g, y, q) == vsr._committed_value(commitments[1], exponents, q)
        with pytest.raises(VSRError, match="sub-share from dealer 2 failed verification"):
            combine_vector([1, 2, 3], ids, 2, commitments, subs, field)

    def test_sub_share_off_the_polynomial_refused(self, rng):
        """The last recipient's sub-share is no input to the interpolation:
        only the consistency check sees it move."""
        commitments, subs = deal_committed([21, 22], 1, [1, 2, 3, 4], FIELD, rng)
        subs[1][3] = (subs[1][3] + 1) % FIELD.modulus
        with pytest.raises(VSRError, match="dealer 2 failed verification"):
            combine_vector([1, 2], [1, 2, 3, 4], 1, commitments, subs, FIELD)

    def test_fewer_recipients_than_the_degree_needs_refused(self, monkeypatch, rng):
        commitments, subs = deal_committed([5, 6], 2, [1, 2], FIELD, rng)
        _refused_before_any_modexp(
            monkeypatch, [1, 2], [1, 2], 2, commitments, subs, FIELD,
            match="2 recipient ids cannot check a degree-2 row: it takes 3 distinct ones",
        )

    def test_repeated_recipient_ids_refused(self, monkeypatch, rng):
        commitments, subs = deal_committed([5], 1, [1, 2, 2], FIELD, rng)
        _refused_before_any_modexp(
            monkeypatch, [1], [1, 2, 2], 1, commitments, subs, FIELD,
            match="3 recipient ids cannot check a degree-1 row",
        )

    def test_row_kernel_is_memoised_per_recipient_set(self, rng):
        """Its own memo: the Lagrange-weight cache the openings share is not
        touched by it."""
        vsr._row_kernel.cache_clear()
        old = _vector(share_secret(7, 1, [1, 2, 3], FIELD, rng))
        for _ in range(3):
            redistribute_vector(old, 1, 1, [4, 5, 6, 7], FIELD, rng)
        redistribute_vector(old, 1, 2, [4, 5, 6, 7], FIELD, rng)
        info = vsr._row_kernel.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        solve, extend = vsr._row_kernel(FIELD.modulus, (4, 5, 6, 7), 1)
        p = FIELD.modulus
        # a(x) = 3 + 2x through (4, 11), (5, 13): coefficients, then a(6), a(7).
        assert [sum(w * y for w, y in zip(row, (11, 13))) % p for row in solve] == [3, 2]
        assert [sum(w * y for w, y in zip(row, (11, 13))) % p for row in extend] == [15, 17]


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
        combined into garbage without any error. A commitment row carries no
        group, so the generator-1 forgery is just the row (1, 1) — and the
        value check in the field's group refuses it, as does provenance."""
        original, (ys,) = deal_committed([1234], 1, [1, 2, 3], FIELD, rng)
        (honest,), (honest_subs,) = deal_committed([ys[0]], 1, [1, 2, 3], FIELD, rng)
        forged = (1, 1)
        forged_subs = [rng.randrange(FIELD.modulus) for _ in range(3)]
        with pytest.raises(VSRError, match="dealer 2 failed verification"):
            combine_vector(
                [1, 2], [1, 2, 3], 1, [honest, forged], [honest_subs, forged_subs], FIELD
            )
        with pytest.raises(VSRError, match="dealer 2 re-shared"):
            check_provenance([1, 2], [honest, forged], original, FIELD)

    def test_over_degree_dealer_rejected(self, rng):
        """Three coefficient commitments at new threshold 1 verify for every
        recipient, yet recipient quorums {1,2} and {2,3} would reconstruct
        different secrets."""
        old = share_secret(1234, 1, [1, 2, 3], FIELD, rng)
        (honest,), (honest_subs,) = deal_committed([old[0].y], 1, [1, 2, 3], FIELD, rng)
        (over,), (over_subs,) = deal_committed([old[1].y], 2, [1, 2, 3], FIELD, rng)
        combine_vector([old[1].x], [1, 2, 3], 2, [over], [over_subs], FIELD)  # verifies
        with pytest.raises(VSRError, match=f"dealer {old[1].x} .* wrong degree"):
            combine_vector(
                [old[0].x, old[1].x], [1, 2, 3], 1, [honest, over], [honest_subs, over_subs], FIELD
            )
        commitments, subs = deal_committed([old[0].y, old[1].y], 2, [1, 2, 3], FIELD, rng)
        with pytest.raises(VSRError, match="wrong degree"):
            combine_vector([1, 2], [1, 2, 3], 1, commitments, subs, FIELD)


class TestChainedRedistribution:
    def test_multi_hop_chain(self, rng):
        """Key shares hop across several committees (the §5.2 VSR tree)."""
        secret = 31337
        shares = _vector(share_secret(secret, 2, [1, 2, 3, 4, 5], FIELD, rng))
        for _hop in range(4):
            shares = redistribute_vector(shares, 2, 2, [1, 2, 3, 4, 5], FIELD, rng)
        assert reconstruct_secret(_points(shares, [1, 2, 3]), FIELD) == secret


class TestExtendedVSRProvenance:
    def test_provenanced_sharing_roundtrip(self, rng):
        ids = [1, 2, 3, 4, 5]
        original, (ys,) = deal_committed([4242], 2, ids, FIELD, rng)
        dealers = ids[:3]
        commitments, subs = deal_committed(ys[:3], 2, ids, FIELD, rng)
        check_provenance(dealers, commitments, original, FIELD)
        new = combine_vector(dealers, ids, 2, commitments, subs, FIELD)
        assert reconstruct_secret(_points(new, [1, 2, 3]), FIELD) == 4242

    def test_dealer_with_substituted_share_caught(self, rng):
        """A dealer whose input share is not the committed one is detected
        even though its sub-shares are mutually consistent — the
        'Extended' part of Extended VSR."""
        original, (ys,) = deal_committed([99], 1, [1, 2, 3], FIELD, rng)
        commitments, _ = deal_committed([ys[0] + 7, ys[1]], 1, [1, 2, 3], FIELD, rng)
        with pytest.raises(VSRError, match="dealer 1 re-shared"):
            check_provenance([1, 2], commitments, original, FIELD)

    def test_plain_vsr_would_miss_the_substitution(self, rng):
        """Contrast: plain VSR happily combines the forged share —
        provenance is what Extended VSR adds."""
        _, (ys,) = deal_committed([99], 1, [1, 2, 3], FIELD, rng)
        commitments, subs = deal_committed([ys[0] + 7, ys[1]], 1, [1, 2, 3], FIELD, rng)
        new = combine_vector([1, 2], [1, 2, 3], 1, commitments, subs, FIELD)
        assert reconstruct_secret(_points(new, [1, 2]), FIELD) != 99  # silently wrong

    def test_provenance_checks_every_element_row(self, rng):
        """Rows are (element, dealer) as in ``combine_vector``: each is held
        to its own element's original row."""
        original, shares = deal_committed([5, 6], 1, [1, 2, 3], FIELD, rng)
        constants = [shares[i][x - 1] for i in range(2) for x in (1, 2)]
        commitments, _ = deal_committed(constants, 1, [1, 2, 3], FIELD, rng)
        check_provenance([1, 2], commitments, original, FIELD)
        constants[3] += 1  # dealer 2's element-1 share
        commitments, _ = deal_committed(constants, 1, [1, 2, 3], FIELD, rng)
        with pytest.raises(VSRError, match="dealer 2 re-shared"):
            check_provenance([1, 2], commitments, original, FIELD)

    def test_provenance_refuses_rows_that_do_not_fit(self, rng):
        original, (ys,) = deal_committed([5], 1, [1, 2, 3], FIELD, rng)
        commitments, _ = deal_committed(ys[:2], 1, [1, 2, 3], FIELD, rng)
        for dealers, rows in (([], []), ([1, 2], commitments[:1]), ([1], commitments)):
            with pytest.raises(VSRError, match="do not fit"):
                check_provenance(dealers, rows, original, FIELD)
