"""Prime-field arithmetic used by the secret-sharing and MPC layers.

Arboretum's MPC committees (§6) run SPDZ-wise Shamir over a finite field
whose prime modulus is configurable — for the key-generation and decryption
MPCs it is set to the BGV ciphertext modulus. This module provides the field
abstraction, modular inverses, and deterministic prime generation for the
moduli the rest of the crypto stack needs.
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


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller–Rabin primality test behind a small-prime sieve.

    Deterministic witnesses are used for n < 3.3e24; above that, ``rounds``
    random witnesses from a fixed-seed generator (so the result is
    reproducible), each drawn only when the one before it has passed — a
    composite that survives the sieve almost always falls to the first.
    """
    if n < 1 << 10:
        return n in _SIEVE_PRIMES
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 3317044064679887385961981:
        witnesses = _DETERMINISTIC_WITNESSES
    else:
        rng = random.Random(0xA5B0)
        witnesses = (rng.randrange(2, n - 1) for _ in range(rounds))
    backend = get_backend()
    for a in witnesses:
        x = backend.powmod(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
