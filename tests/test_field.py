"""Tests for prime-field arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend, paillier
from repro.crypto.field import (
    DEFAULT_FIELD,
    MERSENNE_61,
    MERSENNE_127,
    PrimeField,
    is_probable_prime,
    next_prime,
    random_prime,
)

from .oracles import primality_reference

#: Below this Miller–Rabin runs on fixed small-prime witnesses; the lazily
#: drawn random witnesses only exist above it.
DETERMINISTIC_BOUND = 3317044064679887385961981


def chernick_carmichaels(count, start):
    """(6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael
    number; from ``start`` up the products are past the deterministic bound."""
    found, k = [], start
    while len(found) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(primality_reference.is_probable_prime(f) for f in factors):
            found.append(factors[0] * factors[1] * factors[2])
        k += 1
    return found


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 91, 561, 7917):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that naive tests miss.
        for c in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_probable_prime(c)

    def test_mersenne_constants_are_prime(self):
        assert is_probable_prime(MERSENNE_61)
        assert is_probable_prime(MERSENNE_127)

    def test_next_prime(self):
        assert next_prime(2) == 2
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(90) == 97

    def test_random_prime_has_requested_bits(self):
        rng = random.Random(1)
        for bits in (16, 32, 64):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_random_prime_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_prime(1, random.Random(0))

    def test_verdicts_match_the_eager_oracle(self):
        """Primes, Carmichael numbers, composites whose smallest factor is
        just past trial division, and raw candidates, all above the bound
        where the witnesses are random."""
        rng = random.Random(0x5EED)
        primes = [random_prime(bits, rng) for bits in (96, 128, 128, 160, 256)]
        sweep = list(primes)
        sweep += chernick_carmichaels(4, start=10**8)
        sweep += [small * p for small in (53, 59, 61, 9973) for p in primes[:3]]
        sweep += [p * q for p, q in zip(primes, primes[1:])]
        sweep += [rng.getrandbits(128) | (1 << 127) | 1 for _ in range(200)]
        assert all(n > DETERMINISTIC_BOUND for n in sweep)
        verdicts = [is_probable_prime(n) for n in sweep]
        assert verdicts == [primality_reference.is_probable_prime(n) for n in sweep]
        assert verdicts[: len(primes)] == [True] * len(primes)
        assert not any(verdicts[len(primes) : len(primes) + 4 + 12 + 4])

    def test_witnesses_are_the_eager_ones_drawn_only_as_needed(self, monkeypatch):
        active = backend.get_backend()
        powmod, bases = active.powmod, []
        monkeypatch.setattr(
            active, "powmod", lambda a, d, n: bases.append(a) or powmod(a, d, n)
        )
        prime = random_prime(128, random.Random(7))
        bases.clear()
        assert is_probable_prime(prime)
        assert bases == primality_reference.eager_witnesses(prime)  # all 32 rounds
        composite = prime * random_prime(128, random.Random(8))
        bases.clear()
        assert not is_probable_prime(composite)
        assert bases == primality_reference.eager_witnesses(composite)[:1]
        bases.clear()
        assert is_probable_prime(prime, rounds=5)
        assert bases == primality_reference.eager_witnesses(prime, rounds=5)

    def test_keygen_primes_and_caller_stream_unchanged(self):
        """The test's own generator is private to it, so a caller's stream
        ends where the eager loop left it."""
        lazy, eager = random.Random(99), random.Random(99)
        for _ in range(3):
            while True:  # random_prime over the eager oracle
                candidate = eager.getrandbits(128) | (1 << 127) | 1
                if primality_reference.is_probable_prime(candidate):
                    break
            assert random_prime(128, lazy) == candidate
        assert lazy.getstate() == eager.getstate()


#: Every Carmichael number below 10^6 (OEIS A002997).
CARMICHAELS = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633,
    62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545,
    294409, 314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461, 530881,
    552721, 656601, 658801, 670033, 748657, 825265, 838201, 852841, 997633,
]  # fmt: skip


class TestSieve:
    """One gcd against the primorial of the primes below 2^10 stands in for
    the oracle's 15-prime trial loop; verdicts, and so keygen's primes, stay."""

    def test_every_small_number(self):
        assert [n for n in range(-3, 10**5) if is_probable_prime(n)] == [
            n for n in range(-3, 10**5) if primality_reference.is_probable_prime(n)
        ]

    def test_carmichael_numbers_below_a_million(self):
        assert len(CARMICHAELS) == 43
        assert not any(is_probable_prime(c) for c in CARMICHAELS)

    def test_products_of_two_primes_around_the_sieve_bound(self):
        """Both factors inside the sieve, one each side, and both just past
        it — the last kind reaches Miller–Rabin."""
        primes = [p for p in range(900, 1200) if primality_reference.is_probable_prime(p)]
        assert primes[0] < 1 << 10 < primes[-1]
        assert not any(is_probable_prime(p * q) for p in primes for q in primes)

    def test_random_odds_match_the_oracle(self):
        rng = random.Random(0x51E7E)
        odds = [rng.getrandbits(rng.randint(64, 256)) | 1 for _ in range(2000)]
        verdicts = [is_probable_prime(n) for n in odds]
        assert verdicts == [primality_reference.is_probable_prime(n) for n in odds]
        assert any(verdicts)

    def test_keygen_moduli_are_the_ones_before_the_sieve(self):
        pinned = {
            1: 0xA4E136A4F5198B9A3D5004A24FE05F06769C841AEDBF8A47E3C7C9BC4D17DF35,
            2: 0x6E5FAC7866852A579B5271021B301958C5C4D267CEE9D2AD9024A7694A446BFD,
            3: 0x911AAE2888A97A910A7B173150EB1946B51041CD62868AB7F4B21F577CAD1CAF,
            2023: 0x4C407B5108D6BED85CCA1007022E2E6D705B3B1E7F45F068FAFA298097339E83,
            4242: 0x85C2DCA01F0741622A92C52C6B83DACC327400CA71878D134C85A2F9F0CC59D7,
        }
        for seed, modulus in pinned.items():
            assert paillier.keygen(128, random.Random(seed)).public.n == modulus


class TestFieldOps:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_add_sub_roundtrip(self):
        f = PrimeField(97)
        assert f.add(50, 60) == 13
        assert f.sub(f.add(50, 60), 60) == 50

    def test_inverse(self):
        f = PrimeField(MERSENNE_61)
        for x in (1, 2, 12345, MERSENNE_61 - 1):
            assert f.mul(x, f.inv(x)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(97).inv(0)

    def test_div(self):
        f = PrimeField(97)
        assert f.mul(f.div(10, 7), 7) == 10

    def test_signed_encoding_roundtrip(self):
        f = DEFAULT_FIELD
        for x in (0, 1, -1, 12345, -98765, 2**60, -(2**60)):
            assert f.decode_signed(f.encode_signed(x)) == x

    def test_signed_encoding_overflow(self):
        f = PrimeField(97)
        with pytest.raises(OverflowError):
            f.encode_signed(49)

    def test_random_element_in_range(self):
        f = PrimeField(97)
        rng = random.Random(5)
        for _ in range(100):
            assert 0 <= f.random_element(rng) < 97
        for _ in range(100):
            assert 1 <= f.random_nonzero(rng) < 97


@given(
    a=st.integers(min_value=-(2**60), max_value=2**60),
    b=st.integers(min_value=-(2**60), max_value=2**60),
)
@settings(max_examples=100)
def test_signed_arithmetic_matches_integers(a, b):
    """Field arithmetic on signed encodings agrees with plain integers."""
    f = DEFAULT_FIELD
    ea, eb = f.encode_signed(a), f.encode_signed(b)
    assert f.decode_signed(f.add(ea, eb)) == a + b
    assert f.decode_signed(f.sub(ea, eb)) == a - b
    assert f.decode_signed(f.neg(ea)) == -a


@given(x=st.integers(min_value=1, max_value=MERSENNE_61 - 1))
@settings(max_examples=50)
def test_inverse_property(x):
    f = PrimeField(MERSENNE_61)
    assert f.mul(x, f.inv(x)) == 1
