"""Tests for the BGV FHE model."""

import random

import numpy as np
import pytest

from repro.crypto import bgv


def make_key(plaintext_modulus=1 << 30, ring_log2=15, modulus_bits=135, seed=3):
    params = bgv.BGVParams(plaintext_modulus, ring_log2, modulus_bits)
    return bgv.keygen(params, random.Random(seed))


class TestParams:
    def test_paper_typical_parameters(self):
        """§6: plaintext modulus 2^30, 135-bit ciphertext modulus, degree 2^15."""
        params = bgv.BGVParams()
        assert params.plaintext_modulus == 1 << 30
        assert params.slots == 2**15
        assert params.ciphertext_bytes == 2 * 2**15 * 17  # ~1.1 MB
        assert 1.0e6 < params.ciphertext_bytes < 1.2e6

    def test_security_table_enforced(self):
        with pytest.raises(ValueError):
            bgv.BGVParams(ring_degree_log2=12, ciphertext_modulus_bits=135)

    def test_min_ring_degree_monotone(self):
        degrees = [bgv.min_ring_degree_log2(b) for b in (27, 54, 109, 218, 438)]
        assert degrees == sorted(degrees)

    def test_for_depth_scales_modulus(self):
        base = bgv.BGVParams()
        deeper = base.for_depth(5)
        assert deeper.ciphertext_modulus_bits > base.for_depth(1).ciphertext_modulus_bits

    def test_max_levels_positive_for_defaults(self):
        assert bgv.BGVParams().max_levels >= 2


class TestEncryption:
    def test_roundtrip(self):
        sk = make_key()
        ct = bgv.encrypt(sk.public, [1, 2, 3])
        assert bgv.decrypt(sk, ct, count=3) == [1, 2, 3]

    def test_zero_padding(self):
        sk = make_key()
        ct = bgv.encrypt(sk.public, [7])
        values = bgv.decrypt(sk, ct)
        assert values[0] == 7
        assert all(v == 0 for v in values[1:])

    def test_too_many_values_rejected(self):
        sk = make_key(ring_log2=12, modulus_bits=109)
        with pytest.raises(ValueError):
            bgv.encrypt(sk.public, [0] * (2**12 + 1))

    def test_wrong_key_rejected(self):
        sk1 = make_key(seed=1)
        sk2 = make_key(seed=2)
        ct = bgv.encrypt(sk1.public, [1])
        with pytest.raises(ValueError):
            bgv.decrypt(sk2, ct)


class TestHomomorphicOps:
    def test_add_sub(self):
        sk = make_key()
        a = bgv.encrypt(sk.public, [10, 20])
        b = bgv.encrypt(sk.public, [1, 2])
        assert bgv.decrypt(sk, bgv.add(a, b), 2) == [11, 22]
        assert bgv.decrypt(sk, bgv.sub(a, b), 2) == [9, 18]

    def test_multiply_consumes_level(self):
        sk = make_key()
        a = bgv.encrypt(sk.public, [3])
        b = bgv.encrypt(sk.public, [4])
        product = bgv.multiply(a, b)
        assert product.level == 1
        assert bgv.decrypt(sk, product, 1) == [12]

    def test_noise_budget_exhaustion(self):
        sk = make_key(plaintext_modulus=1 << 30, modulus_bits=135)
        depth = sk.params.max_levels
        ct = bgv.encrypt(sk.public, [1])
        for _ in range(depth + 1):
            ct = bgv.multiply(ct, ct)
        with pytest.raises(bgv.NoiseBudgetExceeded):
            bgv.decrypt(sk, ct)

    def test_additions_do_not_consume_levels(self):
        sk = make_key()
        ct = bgv.encrypt(sk.public, [1])
        for _ in range(100):
            ct = bgv.add(ct, ct)
        assert ct.level == 0
        assert bgv.decrypt(sk, ct, 1) == [2**100 % sk.params.plaintext_modulus]

    def test_plaintext_ops(self):
        sk = make_key()
        ct = bgv.encrypt(sk.public, [5, 6])
        assert bgv.decrypt(sk, bgv.add_plain(ct, [1, 1]), 2) == [6, 7]
        assert bgv.decrypt(sk, bgv.multiply_plain(ct, [2, 3]), 2) == [10, 18]

    def test_rotation(self):
        sk = make_key()
        ct = bgv.encrypt(sk.public, [1, 2, 3, 4])
        rotated = bgv.rotate(ct, 1)
        assert bgv.decrypt(sk, rotated, 3) == [2, 3, 4]

    def test_total_sum_slots(self):
        sk = make_key()
        ct = bgv.encrypt(sk.public, [1, 2, 3, 4, 5])
        summed = bgv.total_sum_slots(ct, 8)
        assert bgv.decrypt(sk, summed, 1) == [15]

    def test_mixed_keys_rejected(self):
        sk1, sk2 = make_key(seed=5), make_key(seed=6)
        a = bgv.encrypt(sk1.public, [1])
        b = bgv.encrypt(sk2.public, [1])
        with pytest.raises(ValueError):
            bgv.add(a, b)

    def test_sum_ciphertexts(self):
        sk = make_key()
        cts = [bgv.encrypt(sk.public, [i]) for i in range(5)]
        assert bgv.decrypt(sk, bgv.sum_ciphertexts(cts), 1) == [10]


class TestAggregationScenario:
    def test_billion_scale_plaintext_modulus(self):
        """Summing binary one-hot inputs from 10^9 users fits 2^30 slots."""
        sk = make_key()
        ct = bgv.encrypt(sk.public, [1])
        # Simulate huge sums with plaintext multiplication.
        big = bgv.multiply_plain(ct, [10**9])
        assert bgv.decrypt(sk, big, 1) == [10**9]


class TestKernelEdgeCases:
    """Edge cases the numpy kernels must preserve from the seed semantics."""

    def test_negative_rotate_offsets(self):
        sk = make_key(ring_log2=12, modulus_bits=109)
        n = sk.params.slots
        values = list(range(16))
        ct = bgv.encrypt(sk.public, values)
        # rotate(-k) is a right-rotation: slot i moves to slot i+k; with
        # zero padding the first k slots come from the (zero) tail.
        rotated = bgv.decrypt(sk, bgv.rotate(ct, -3))
        assert rotated[:3] == [0, 0, 0]
        assert rotated[3:19] == values
        # A full turn (and multiples) is the identity, either direction.
        assert bgv.decrypt(sk, bgv.rotate(ct, n)) == bgv.decrypt(sk, ct)
        assert bgv.decrypt(sk, bgv.rotate(ct, -n)) == bgv.decrypt(sk, ct)

    @pytest.mark.parametrize("width", [1, 3, 5, 6, 7])
    def test_total_sum_slots_non_power_of_two_widths(self, width):
        sk = make_key(ring_log2=12, modulus_bits=109)
        values = [1, 2, 3, 4, 5, 6, 7][:width]
        ct = bgv.encrypt(sk.public, values)
        assert bgv.decrypt(sk, bgv.total_sum_slots(ct, width), 1) == [sum(values)]

    def test_total_sum_slots_rejects_dirty_tail(self):
        """Slots beyond ``width`` must be zero or the fold silently corrupts."""
        sk = make_key(ring_log2=12, modulus_bits=109)
        ct = bgv.encrypt(sk.public, [1, 2, 3, 4, 9])
        with pytest.raises(ValueError, match="beyond width"):
            bgv.total_sum_slots(ct, 4)
        # A rotation that drags values into the tail is caught too.
        full = bgv.encrypt(sk.public, [1] * sk.params.slots)
        with pytest.raises(ValueError, match="beyond width"):
            bgv.total_sum_slots(full, 8)
        with pytest.raises(ValueError):
            bgv.total_sum_slots(ct, 0)

    def test_object_dtype_fallback_large_modulus(self):
        """Plaintext moduli past the int64 bound fall back to exact big ints."""
        t = (1 << 61) - 1  # (t-1)^2 overflows int64: object dtype required
        sk = make_key(plaintext_modulus=t, ring_log2=13, modulus_bits=218)
        assert sk.params.slot_dtype is object
        big = t - 2
        a = bgv.encrypt(sk.public, [big, 5])
        b = bgv.encrypt(sk.public, [3, big])
        assert bgv.decrypt(sk, bgv.add(a, b), 2) == [(big + 3) % t, (5 + big) % t]
        assert bgv.decrypt(sk, bgv.multiply(a, b), 2) == [
            (big * 3) % t,
            (5 * big) % t,
        ]
        assert bgv.decrypt(sk, bgv.sum_ciphertexts([a, a, a]), 1) == [(3 * big) % t]
        assert bgv.decrypt(sk, bgv.total_sum_slots(a, 2), 1) == [(big + 5) % t]

    def test_fast_path_boundary(self):
        """The int64 fast path is taken exactly while (t-1)^2 fits a word."""
        fits = 1 << 31
        assert bgv.BGVParams(
            plaintext_modulus=fits, ciphertext_modulus_bits=135
        ).slot_dtype is not object
        too_big = 1 << 33
        assert bgv.BGVParams(
            plaintext_modulus=too_big, ciphertext_modulus_bits=135
        ).slot_dtype is object

    def test_noise_budget_propagates_through_vectorized_ops(self):
        sk = make_key()
        depth = sk.params.max_levels
        ct = bgv.encrypt(sk.public, [2])
        for _ in range(depth + 1):
            ct = bgv.multiply_plain(ct, [1])
        # Exhausted budget survives adds, rotations, and stacked sums...
        for derived in (
            bgv.add(ct, bgv.encrypt(sk.public, [0])),
            bgv.rotate(ct, 1),
            bgv.sum_ciphertexts([ct, bgv.encrypt(sk.public, [0])]),
        ):
            with pytest.raises(bgv.NoiseBudgetExceeded):
                bgv.decrypt(sk, derived)
        # ...and the max-level rule matches the seed: the fresh ciphertext
        # does not dilute the exhausted one's level.
        assert bgv.sum_ciphertexts([ct, bgv.encrypt(sk.public, [0])]).level == ct.level

    def test_encrypt_reduces_oversized_inputs(self):
        sk = make_key()
        t = sk.params.plaintext_modulus
        ct = bgv.encrypt(sk.public, [t + 5, 2**80, -1])
        assert bgv.decrypt(sk, ct, 3) == [5, 2**80 % t, t - 1]

    def test_sum_ciphertexts_chunked_reduction_exact(self, monkeypatch):
        """The anti-overflow chunked reduction splits sums without error.

        The real chunk bound only trips past ~2^31 summands, so the test
        shrinks the word-size constant (after key setup, so the int64 slot
        layout is already chosen) to force several chunks over 40 rows.
        """
        sk = make_key(ring_log2=12, modulus_bits=109)
        t = sk.params.plaintext_modulus
        big = t - 1
        count = 40
        cts = [bgv.encrypt(sk.public, [big, big]) for _ in range(count)]
        monkeypatch.setattr(bgv, "_INT64_MAX", 8 * t)  # chunk size ~7 rows
        assert bgv.decrypt(sk, bgv.sum_ciphertexts(cts), 2) == [
            (big * count) % t,
            (big * count) % t,
        ]

    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_sum_slots_matches_python_sum(self, dtype):
        rng = random.Random(6)
        t = (1 << 30) + 3 if dtype == "int64" else (1 << 80) + 13
        rows = [[rng.randrange(t) for _ in range(16)] for _ in range(97)]
        want = [sum(column) % t for column in zip(*rows)]
        stack = np.array(rows, dtype=np.int64 if dtype == "int64" else object)
        got = bgv._sum_slots(stack, t)
        assert got.dtype == stack.dtype
        assert list(got) == want
        # The same rows as ciphertexts, through the public entry point.
        sk = make_key(plaintext_modulus=t, ring_log2=12, modulus_bits=109)
        assert sk.params.slot_dtype == stack.dtype
        total = bgv.sum_ciphertexts([bgv.encrypt(sk.public, row) for row in rows])
        assert bgv.decrypt(sk, total, 16) == want

    def test_sum_slots_chunking_never_overflows_int64(self):
        # Slot values right at t-1 with a t large enough that an unchunked
        # 9-row column sum would overflow a signed 64-bit partial sum
        # (9 * (2^61 - 1) > 2^63): the chunk bound (3 rows here) must kick
        # in and keep every partial within the machine word.
        t = 1 << 61
        stack = np.full((9, 4), t - 1, dtype=np.int64)
        assert list(bgv._sum_slots(stack, t)) == [(9 * (t - 1)) % t] * 4
