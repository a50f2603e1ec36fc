"""Prime-field arithmetic used by the secret-sharing and MPC layers.

Arboretum's MPC committees (§6) run SPDZ-wise Shamir over a finite field
whose prime modulus is configurable — for the key-generation and decryption
MPCs it is set to the BGV ciphertext modulus. This module provides the field
abstraction, modular inverses, and deterministic prime generation for the
moduli the rest of the crypto stack needs. Primality is Baillie–PSW above
the range where 13 Miller–Rabin bases are proven (FIPS 186-4 Appendix C.3);
docs/PROTOCOL.md §2 says why no key moved when it replaced 32 random rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .backend import get_backend

# A 127-bit Mersenne prime: large enough for 40-bit statistical security with
# 46-bit fixpoint values (§6: 30 integer bits + 16 fraction bits), and fast
# because reduction is cheap for Python big ints.
MERSENNE_127 = (1 << 127) - 1

# A 61-bit Mersenne prime, used for tests and small committees.
MERSENNE_61 = (1 << 61) - 1

#: Every prime below 2^10 and their product: one gcd against the primorial
#: is trial division by all 172 of them.
_SIEVE_PRIMES = frozenset(
    p for p in range(2, 1 << 10) if all(p % q for q in range(2, math.isqrt(p) + 1))
)
_PRIMORIAL = math.prod(_SIEVE_PRIMES)
_DETERMINISTIC_WITNESSES = sorted(_SIEVE_PRIMES)[:13]  # 2 .. 41
#: Below this the 13 witnesses 2 .. 41 make Miller–Rabin exact
#: (Sorenson–Webster 2015).
_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Primality behind a small-prime sieve: proven below 3.3e24, BPSW above.

    Below the bound, Miller–Rabin on the bases 2 .. 41 is deterministic.
    Above it, Baillie–PSW: one strong base-2 round, then one strong Lucas
    test. No composite is known to pass both, and none exists below 2^64.
    """
    if n < 1 << 10:
        return n in _SIEVE_PRIMES
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    if n < _DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in _DETERMINISTIC_WITNESSES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """One strong Miller–Rabin round of odd ``n`` to base ``a``."""
    r = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    x = get_backend().powmod(a, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd ``n`` > 1 (FIPS 186-4 C.3.3, made strong).

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4. With n + 1 = d * 2^s and d
    odd, n passes if U_d = 0 or V_(d * 2^r) = 0 for some r < s (mod n). The
    ladder is C.3.3's: with P = 1 it needs no power of Q, only products.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D exists for a square
    D = 5
    while _jacobi(D, n) != -1:
        D = 2 - D if D < 0 else -D - 2
    half = (n + 1) // 2  # the inverse of 2 mod n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u = v = 1  # U_1, V_1
    for bit in bin((n + 1) >> s)[3:]:
        u, v = u * v % n, (v * v + D * u * u) * half % n  # index doubles
        if bit == "1":
            u, v = (u + v) * half % n, (D * u + v) * half % n  # index + 1
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        u, v = u * v % n, (v * v + D * u * u) * half % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def next_prime(n: int) -> int:
    """Return the smallest prime >= n."""
    if n <= 2:
        return 2
    candidate = n | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def random_prime(bits: int, rng: random.Random) -> int:
    """Return a random prime with exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError("a prime needs at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class PrimeField:
    """The field Z_p for a prime modulus p.

    All MPC and secret-sharing arithmetic in this repo goes through a
    PrimeField so that the modulus is explicit and shared values from
    different fields can never be mixed silently.
    """

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("field modulus must be >= 2")

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    def reduce(self, x: int) -> int:
        """Reduce an integer into [0, p)."""
        return x % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in a field")
        return get_backend().powmod(a, self.modulus - 2, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return get_backend().powmod(a % self.modulus, e, self.modulus)

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.modulus)

    def random_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.modulus)

    # Signed encoding: values in [-(p-1)/2, (p-1)/2] map to field elements.
    # MPC fixpoint arithmetic (§6) relies on this to carry negative noise.

    def encode_signed(self, x: int) -> int:
        half = self.modulus // 2
        if not -half <= x <= half:
            raise OverflowError(f"{x} does not fit the signed range of Z_{self.modulus}")
        return x % self.modulus

    def decode_signed(self, a: int) -> int:
        a %= self.modulus
        if a > self.modulus // 2:
            return a - self.modulus
        return a


#: Default field for committee MPCs (tests and the runtime both use it).
DEFAULT_FIELD = PrimeField(MERSENNE_127)
