"""Tests for the Paillier AHE implementation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import paillier

# A single session keypair: keygen is the slow part, the tests share it.
_RNG = random.Random(42)
KEY = paillier.keygen(bits=128, rng=_RNG)
PK = KEY.public


class TestRoundtrip:
    def test_encrypt_decrypt(self, rng):
        for m in (0, 1, 42, 10**9, PK.n - 1):
            ct = paillier.encrypt(PK, m, rng)
            assert paillier.decrypt(KEY, ct) == m % PK.n

    def test_encryption_is_randomized(self, rng):
        a = paillier.encrypt(PK, 5, rng)
        b = paillier.encrypt(PK, 5, rng)
        assert a.value != b.value
        assert paillier.decrypt(KEY, a) == paillier.decrypt(KEY, b) == 5

    def test_negative_plaintext_wraps(self, rng):
        ct = paillier.encrypt(PK, -3, rng)
        assert paillier.decrypt(KEY, ct) == PK.n - 3

    def test_wrong_key_rejected(self, rng):
        other = paillier.keygen(bits=128, rng=random.Random(7))
        ct = paillier.encrypt(PK, 1, rng)
        with pytest.raises(ValueError):
            paillier.decrypt(other, ct)

    def test_keygen_without_a_generator_is_refused(self):
        """No ambient fallback: a key no seed reproduces is never made."""
        with pytest.raises(TypeError):
            paillier.keygen(128)

    def test_encrypt_without_a_generator_is_refused(self):
        """Encryption randomness, too, comes only from a caller's stream."""
        with pytest.raises(TypeError):
            paillier.encrypt(PK, 1)


class TestHomomorphism:
    def test_addition(self, rng):
        a = paillier.encrypt(PK, 20, rng)
        b = paillier.encrypt(PK, 22, rng)
        assert paillier.decrypt(KEY, paillier.add_ciphertexts(a, b)) == 42

    def test_addition_mod_n(self, rng):
        a = paillier.encrypt(PK, PK.n - 1, rng)
        b = paillier.encrypt(PK, 2, rng)
        assert paillier.decrypt(KEY, paillier.add_ciphertexts(a, b)) == 1

    def test_add_plain(self, rng):
        ct = paillier.encrypt(PK, 40, rng)
        assert paillier.decrypt(KEY, paillier.add_plain(PK, ct, 2)) == 42

    def test_mul_plain(self, rng):
        ct = paillier.encrypt(PK, 6, rng)
        assert paillier.decrypt(KEY, paillier.mul_plain(ct, 7)) == 42

    def test_sum_ciphertexts(self, rng):
        cts = [paillier.encrypt(PK, v, rng) for v in (1, 2, 3, 4, 5)]
        assert paillier.decrypt(KEY, paillier.sum_ciphertexts(cts)) == 15

    def test_sum_empty_raises(self):
        with pytest.raises(ValueError):
            paillier.sum_ciphertexts([])

    def test_mixed_keys_rejected(self, rng):
        other = paillier.keygen(bits=128, rng=random.Random(9))
        a = paillier.encrypt(PK, 1, rng)
        b = paillier.encrypt(other.public, 1, rng)
        with pytest.raises(ValueError):
            paillier.add_ciphertexts(a, b)
        with pytest.raises(ValueError, match="different keys"):
            paillier.sum_ciphertexts([a, a, b])


class TestKeyCachesItsSquare:
    def test_square_is_computed_once_and_is_not_part_of_the_key(self):
        used, fresh = paillier.PaillierPublicKey(PK.n), paillier.PaillierPublicKey(PK.n)
        assert used.n_squared == PK.n * PK.n
        assert used.n_squared is used.n_squared  # the cached int, not a new product
        # Equality, hashing and repr see ``n`` only, cache filled or not.
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == f"PaillierPublicKey(n={PK.n})"
        assert {used: 1}[fresh] == 1
        with pytest.raises(AttributeError):
            used.n = 5  # still frozen

    def test_ciphertext_only_operations_agree_with_the_key(self, rng):
        a, b = paillier.encrypt(PK, 3, rng), paillier.encrypt(PK, 4, rng)
        n2 = PK.n * PK.n
        assert paillier.add_ciphertexts(a, b).value == a.value * b.value % n2
        assert paillier.mul_plain(a, 5).value == pow(a.value, 5, n2)
        assert paillier.tampered(a).value == (a.value + 1) % n2
        folded = paillier.add_ciphertexts(paillier.add_ciphertexts(a, b), a)
        assert paillier.sum_ciphertexts([a, b, a]) == folded
        assert paillier.sum_ciphertexts([a]) == a
        assert paillier.sum_columns(PK.n, [[a.value, b.value], [b.value, a.value]]) == [
            paillier.add_ciphertexts(a, b), paillier.add_ciphertexts(b, a)
        ]

    def test_raw_encryption_matches_the_per_ciphertext_function(self, rng):
        pads = [paillier.encrypt(PK, 0, rng).value for _ in range(6)]  # g^0 · r^n
        rows = {0: [5, 0, PK.n + 2], 7: [1, -1, 9]}
        got = paillier.encrypt_rows_with_pads(PK, rows, [7, 0], pads)
        want = [
            [paillier.encrypt_with_pad(PK, m, pad).value for m, pad in zip(rows[code], pads[i:])]
            for code, i in ((7, 0), (0, 3))
        ]
        assert got == want
        assert paillier.ciphertexts_under(PK.n, got[0]) == [
            paillier.PaillierCiphertext(v, PK.n) for v in got[0]
        ]


class TestAggregationScenario:
    def test_one_hot_histogram(self, rng):
        """The Arboretum input path: sum encrypted one-hot vectors."""
        categories = 4
        data = [0, 1, 1, 3, 1, 2, 1, 0]
        totals = None
        for value in data:
            row = [paillier.encrypt(PK, 1 if i == value else 0, rng) for i in range(categories)]
            if totals is None:
                totals = row
            else:
                totals = [paillier.add_ciphertexts(a, b) for a, b in zip(totals, row)]
        counts = [paillier.decrypt(KEY, ct) for ct in totals]
        assert counts == [2, 4, 1, 1]


@given(
    a=st.integers(min_value=0, max_value=2**40),
    b=st.integers(min_value=0, max_value=2**40),
    k=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_homomorphic_identity_property(a, b, k):
    rng = random.Random(a ^ b ^ k)
    ca = paillier.encrypt(PK, a, rng)
    cb = paillier.encrypt(PK, b, rng)
    combined = paillier.add_ciphertexts(paillier.mul_plain(ca, k), cb)
    assert paillier.decrypt(KEY, combined) == (a * k + b) % PK.n
