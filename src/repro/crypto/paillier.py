"""Paillier additively homomorphic encryption.

Arboretum uses AHE whenever an encrypted value only ever flows through
additions (§4.5) — most importantly for the aggregator-side sum over the
participants' encrypted one-hot inputs (Fig 5). This is a complete, real
Paillier implementation over Python big ints: keygen, encryption,
decryption, ciphertext addition (⊞), and plaintext-scalar multiplication.

Key sizes default to 512-bit primes (1024-bit modulus), which keeps unit
tests fast; production deployments would use 2048-bit+ moduli. Performance
numbers never come from this module — they come from the calibrated cost
model (``planner.costmodel``), matching the paper's methodology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import List, Optional, Sequence

from .backend import get_backend
from .field import random_prime


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key: n = p*q and the generator g = n + 1."""

    n: int

    @cached_property
    def n_squared(self) -> int:
        """The ciphertext modulus, multiplied out once per key object (not a
        field: equality, hashing and ``repr`` see only ``n``)."""
        return self.n * self.n

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def plaintext_modulus(self) -> int:
        return self.n


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private key: lambda = lcm(p-1, q-1) and mu = lambda^{-1} mod n."""

    public: PaillierPublicKey
    lam: int
    mu: int


@dataclass(frozen=True)
class PaillierCiphertext:
    """A Paillier ciphertext c in Z*_{n^2}, tagged with its key's modulus.

    Tagging prevents silently combining ciphertexts under different keys —
    an easy bug when several committees each generate keypairs.
    """

    value: int
    n: int


@lru_cache(maxsize=64)
def _key_of(n: int) -> PaillierPublicKey:
    """The key a ciphertext's modulus tag names, for operations handed
    ciphertexts only: they read ``n²`` off it instead of squaring per call."""
    return PaillierPublicKey(n)


def keygen(bits: int = 512, rng: Optional[random.Random] = None) -> PaillierPrivateKey:
    """Generate a Paillier keypair with two ``bits``-bit primes."""
    rng = rng or random.Random()
    while True:
        p = random_prime(bits, rng)
        q = random_prime(bits, rng)
        if p != q and gcd(p * q, (p - 1) * (q - 1)) == 1:
            break
    n = p * q
    lam = (p - 1) * (q - 1) // gcd(p - 1, q - 1)
    public = PaillierPublicKey(n)
    # For g = n+1, L(g^lam mod n^2) = lam mod n, so mu = lam^{-1} mod n.
    mu = get_backend().invmod(lam % n, n)
    return PaillierPrivateKey(public, lam, mu)


def draw_obfuscator(pk: PaillierPublicKey, rng: random.Random) -> int:
    """Draw the encryption randomness r uniformly from Z*_n.

    Exposed separately from :func:`encrypt` so callers that batch several
    plaintexts into one ciphertext (slot packing) can keep consuming the
    *same* RNG draw schedule as one-encryption-per-plaintext callers —
    seeded replays depend on the draw order, not on how many encryptions
    actually happen.
    """
    while True:
        r = rng.randrange(1, pk.n)
        if gcd(r, pk.n) == 1:
            return r


def encrypt_with_pad(
    pk: PaillierPublicKey, m: int, pad: int
) -> PaillierCiphertext:
    """Encrypt plaintext m under a precomputed randomizer pad ``r^n mod n^2``.

    The heavy ``pow(r, n, n^2)`` is the caller's to amortize: a pad is any
    n-th residue, and a product of pads is again a pad, which is what the
    sharded runtime's subset-product obfuscator pool exploits.
    """
    return PaillierCiphertext(_g_power(pk, m) * pad % pk.n_squared, pk.n)


def _g_power(pk: PaillierPublicKey, m: int) -> int:
    """``g^m mod n²`` for ``g = n + 1``: ``(n+1)^m = 1 + m*n (mod n²)``."""
    return (1 + (m % pk.n) * pk.n) % pk.n_squared


def encrypt_rows_with_pads(
    pk: PaillierPublicKey,
    rows: Sequence[Sequence[int]],
    codes: Sequence[int],
    pads: Sequence[int],
) -> List[List[int]]:
    """Raw ciphertext values of many plaintext vectors drawn from few rows.

    Upload ``k`` encrypts ``rows[codes[k]]`` under the next ``len(row)``
    pads — each the ``value`` :func:`encrypt_with_pad` gives — with the
    ``g^m`` factors worked out once per distinct row.
    """
    n2 = pk.n_squared
    factors = {code: [_g_power(pk, m) for m in rows[code]] for code in set(codes)}
    taken = iter(pads)
    return [[f * next(taken) % n2 for f in factors[code]] for code in codes]


def ciphertext_bytes(values: Sequence[int]) -> bytes:
    """Raw ciphertext values in the canonical hashed layout: the minimal
    big-endian encoding of each, in slot order."""
    return b"".join([v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in values])


def ciphertexts_under(n: int, values: Sequence[int]) -> List[PaillierCiphertext]:
    """Raw values of a batch held under modulus ``n``, as ciphertext objects."""
    return [PaillierCiphertext(value, n) for value in values]


def sum_columns(n: int, vectors: Sequence[Sequence[int]]) -> List[PaillierCiphertext]:
    """Slot-wise ⊞ of raw ciphertext vectors under modulus ``n``: per slot
    the value :func:`sum_ciphertexts` gives, and only the sums become objects."""
    if not vectors:
        raise ValueError("cannot sum zero ciphertexts")
    n2 = _key_of(n).n_squared
    return ciphertexts_under(n, [_product(column, n2) for column in zip(*vectors)])


def _product(values: Sequence[int], modulus: int) -> int:
    """Left fold of a non-empty sequence under multiplication mod ``modulus``."""
    rest = iter(values)
    total = next(rest)
    for value in rest:
        total = total * value % modulus
    return total


def encrypt_with_obfuscator(
    pk: PaillierPublicKey, m: int, r: int
) -> PaillierCiphertext:
    """Encrypt plaintext m (taken mod n) under explicit randomness r."""
    return encrypt_with_pad(pk, m, get_backend().powmod(r, pk.n, pk.n_squared))


def precompute_pads(pk: PaillierPublicKey, obfuscators: Sequence[int]) -> list:
    """Batch the pad modexps ``r_i^n mod n²`` through the crypto backend.

    The hottest Paillier kernel by far: one fixed exponent (``n``), many
    random bases — exactly the shape the accelerated backend batches.
    """
    return get_backend().powmod_vector(obfuscators, pk.n, pk.n_squared)


def encrypt(
    pk: PaillierPublicKey, m: int, rng: Optional[random.Random] = None
) -> PaillierCiphertext:
    """Encrypt plaintext m (taken mod n) with fresh randomness."""
    rng = rng or random.Random()
    return encrypt_with_obfuscator(pk, m, draw_obfuscator(pk, rng))


def decrypt(sk: PaillierPrivateKey, ct: PaillierCiphertext) -> int:
    """Decrypt a ciphertext back to a plaintext in [0, n)."""
    n = sk.public.n
    if ct.n != n:
        raise ValueError("ciphertext was produced under a different key")
    u = get_backend().powmod(ct.value, sk.lam, sk.public.n_squared)
    l_of_u = (u - 1) // n
    return (l_of_u * sk.mu) % n


def add_ciphertexts(a: PaillierCiphertext, b: PaillierCiphertext) -> PaillierCiphertext:
    """Homomorphic addition: Dec(a ⊞ b) = Dec(a) + Dec(b) mod n."""
    if a.n != b.n:
        raise ValueError("cannot add ciphertexts under different keys")
    return PaillierCiphertext((a.value * b.value) % _key_of(a.n).n_squared, a.n)


def add_plain(pk: PaillierPublicKey, ct: PaillierCiphertext, m: int) -> PaillierCiphertext:
    """Homomorphically add a public plaintext constant to a ciphertext."""
    if ct.n != pk.n:
        raise ValueError("ciphertext was produced under a different key")
    n2 = pk.n_squared
    return PaillierCiphertext((ct.value * (1 + (m % pk.n) * pk.n)) % n2, ct.n)


def mul_plain(ct: PaillierCiphertext, k: int) -> PaillierCiphertext:
    """Homomorphically multiply by a public plaintext scalar."""
    n2 = _key_of(ct.n).n_squared
    return PaillierCiphertext(get_backend().powmod(ct.value, k % ct.n, n2), ct.n)


def sum_ciphertexts(cts: Sequence[PaillierCiphertext]) -> PaillierCiphertext:
    """Sum a non-empty ciphertext sequence: one fold of the raw values.

    ⊞ is multiplication mod n², associative and commutative, so the fold
    yields the ciphertext any pairing of :func:`add_ciphertexts` would,
    with one key check, one n² and one result object for the whole sum.
    """
    if not cts:
        raise ValueError("cannot sum zero ciphertexts")
    n = cts[0].n
    if any(ct.n != n for ct in cts):
        raise ValueError("cannot add ciphertexts under different keys")
    return PaillierCiphertext(_product([ct.value for ct in cts], _key_of(n).n_squared), n)


def tampered(ct: PaillierCiphertext) -> PaillierCiphertext:
    """A Byzantine-corrupted copy of ``ct`` (for adversarial test paths).

    Keeping ciphertext forgery here means no code outside crypto/ ever
    constructs cipher state directly (the ``no-private-state`` lint rule).
    """
    return PaillierCiphertext((ct.value + 1) % _key_of(ct.n).n_squared, ct.n)
