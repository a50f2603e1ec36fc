"""A functional model of the BGV leveled FHE scheme.

Arboretum's prototype uses BGV (§6) with SIMD slot packing: a typical query
uses plaintext modulus ~2^30, a 135-bit ciphertext-modulus prime, and
polynomial degree 2^15 (= 32,768 slots per ciphertext). The planner cares
about BGV's *interface and cost structure* — slots, plaintext modulus,
multiplicative depth, per-operation cost — not about lattice arithmetic, so
this module is a faithful behavioural model rather than an RNS
implementation (see DESIGN.md's substitution table):

* ciphertexts carry their slot vector internally, but the only sanctioned
  way to read it is ``decrypt`` with the matching private key;
* every homomorphic operation consumes noise budget the way BGV does
  (additions cost almost nothing, multiplications consume a level), and a
  ciphertext whose budget is exhausted *fails to decrypt*, just like the
  real scheme;
* parameter selection follows the homomorphic-encryption security standard
  tables the paper cites [6]: bigger ciphertext moduli require bigger ring
  degrees for the same security level.

Slot vectors are backed by numpy arrays so the homomorphic operations run
as array kernels instead of interpreted per-slot loops. Two layouts exist:

* an ``int64`` fast path, taken whenever every intermediate a kernel can
  produce fits a machine word — a single slot product is bounded by
  ``(t-1)^2``, so the fast path requires ``(t-1)^2 <= 2^63 - 1``
  (i.e. ``t <= ~3.04e9``; the paper-typical ``t = 2^30`` qualifies), and
  ``sum_ciphertexts`` additionally chunks its stacked reduction so partial
  sums stay below ``2^63``;
* an ``object``-dtype fallback for larger plaintext moduli, which keeps
  exact Python big-int arithmetic elementwise.

Both layouts produce the slot values a per-element Python loop would
(``tests/test_bgv.py`` checks the stacked sum against a Python sum on both,
the int64 chunking at its overflow edge included), so digests, seeded
replays, and the planner's cost accounting do not depend on the layout.
None of this is bigint modexp, so none of it goes through
:mod:`repro.crypto.backend`.

All performance numbers come from the calibrated cost model, matching the
paper's own extrapolation methodology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

# Security-standard table (ciphertext-modulus bits -> minimum log2(ring
# degree) for >=128-bit security), coarsened from the HE standard [6].
_SECURITY_TABLE = [
    (27, 10),
    (54, 11),
    (109, 12),
    (218, 13),
    (438, 14),
    (881, 15),
]

_INT64_MAX = (1 << 63) - 1


def min_ring_degree_log2(ciphertext_modulus_bits: int) -> int:
    """Smallest log2(N) that keeps >=128-bit security for a modulus size."""
    for max_bits, log_degree in _SECURITY_TABLE:
        if ciphertext_modulus_bits <= max_bits:
            return log_degree
    raise ValueError(
        f"no standard parameter set covers a {ciphertext_modulus_bits}-bit modulus"
    )


def _fast_path(plaintext_modulus: int) -> bool:
    """True when one slot product (t-1)^2 fits a signed 64-bit word.

    Measured bound: ``isqrt(2^63 - 1) = 3_037_000_499``, so the int64
    layout is exact iff ``t - 1 <= 3_037_000_499`` (t <= 3_037_000_500);
    at ``t = 3_037_000_501`` the worst-case slot product
    ``(t-1)^2 = 2^63 + 2_116_348_418_279_907_396`` overflows and the
    object-dtype fallback takes over. The paper-typical ``t = 2^30``
    sits comfortably inside the fast path.
    """
    return (plaintext_modulus - 1) * (plaintext_modulus - 1) <= _INT64_MAX


@dataclass(frozen=True)
class BGVParams:
    """BGV parameter set.

    ``plaintext_modulus`` bounds slot values; ``ring_degree_log2`` fixes the
    number of SIMD slots; ``ciphertext_modulus_bits`` determines both the
    ciphertext size and the available noise budget (levels).
    """

    plaintext_modulus: int = 1 << 30
    ring_degree_log2: int = 15
    ciphertext_modulus_bits: int = 135

    def __post_init__(self):
        if self.plaintext_modulus < 2:
            raise ValueError("plaintext modulus must be >= 2")
        required = min_ring_degree_log2(self.ciphertext_modulus_bits)
        if self.ring_degree_log2 < required:
            raise ValueError(
                f"ring degree 2^{self.ring_degree_log2} is insecure for a "
                f"{self.ciphertext_modulus_bits}-bit modulus; need >= 2^{required}"
            )

    @property
    def slots(self) -> int:
        return 1 << self.ring_degree_log2

    @property
    def slot_dtype(self):
        """numpy dtype backing slot vectors under these parameters."""
        return np.int64 if _fast_path(self.plaintext_modulus) else object

    @property
    def max_levels(self) -> int:
        """Multiplicative depth this modulus supports.

        Each multiplication consumes roughly log2(plaintext_modulus) + ~20
        bits of modulus; what is left after accounting for the base noise is
        the level budget.
        """
        per_level = self.plaintext_modulus.bit_length() + 20
        budget = self.ciphertext_modulus_bits - 30  # base noise floor
        return max(0, budget // per_level)

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized ciphertext size: 2 ring elements of N coefficients."""
        return 2 * self.slots * ((self.ciphertext_modulus_bits + 7) // 8)

    @property
    def public_key_bytes(self) -> int:
        return self.ciphertext_bytes

    def for_depth(self, depth: int, plaintext_modulus: Optional[int] = None) -> "BGVParams":
        """Return the smallest standard parameter set supporting ``depth``.

        The planner calls this after range inference (§4.4) to pick the
        plaintext modulus and a ciphertext modulus big enough for the
        multiplicative depth the instantiated operators need.
        """
        t = plaintext_modulus or self.plaintext_modulus
        per_level = t.bit_length() + 20
        needed_bits = 30 + per_level * max(depth, 0) + 5
        needed_bits = max(needed_bits, 60)
        return BGVParams(
            plaintext_modulus=t,
            ring_degree_log2=min_ring_degree_log2(needed_bits),
            ciphertext_modulus_bits=needed_bits,
        )


@dataclass(frozen=True)
class BGVPublicKey:
    params: BGVParams
    key_id: int


@dataclass(frozen=True)
class BGVPrivateKey:
    public: BGVPublicKey

    @property
    def params(self) -> BGVParams:
        return self.public.params


@dataclass
class BGVCiphertext:
    """A ciphertext holding one value per SIMD slot.

    ``slots`` is a numpy array (int64 fast path or object-dtype fallback,
    see module docstring); sequences handed in by ``encrypt`` are coerced.
    ``level`` counts consumed multiplicative levels; once it exceeds
    ``params.max_levels`` the ciphertext is undecryptable (noise overflow),
    mirroring real BGV behaviour.
    """

    slots: np.ndarray = field(repr=False)
    key_id: int
    params: BGVParams
    level: int = 0

    def __post_init__(self):
        if len(self.slots) != self.params.slots:
            raise ValueError("slot vector length must equal the ring degree")
        if not isinstance(self.slots, np.ndarray):
            self.slots = _as_slot_array(self.slots, self.params)


class NoiseBudgetExceeded(Exception):
    """Raised when an operation chain exceeds the parameter set's depth."""


def keygen(params: BGVParams, rng: Optional[random.Random] = None) -> BGVPrivateKey:
    """Generate a keypair for the given parameter set."""
    rng = rng or random.Random()
    return BGVPrivateKey(BGVPublicKey(params, rng.getrandbits(63)))


def _as_slot_array(values: Sequence[int], params: BGVParams) -> np.ndarray:
    """Coerce already-reduced slot values into the canonical array layout."""
    dtype = params.slot_dtype
    if isinstance(values, np.ndarray) and values.dtype == np.dtype(dtype):
        return values
    return np.array([int(v) for v in values], dtype=dtype)


def _pad(values: Sequence[int], params: BGVParams) -> np.ndarray:
    """Reduce mod t and zero-pad to the ring degree, as an array."""
    t = params.plaintext_modulus
    if len(values) > params.slots:
        raise ValueError(
            f"{len(values)} values do not fit in {params.slots} slots"
        )
    dtype = params.slot_dtype
    padded = np.zeros(params.slots, dtype=dtype)
    if dtype is not object:
        try:
            arr = np.asarray(values, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            # Inputs wider than a machine word: reduce in Python first.
            arr = np.asarray([v % t for v in values], dtype=np.int64)
        padded[: len(arr)] = arr % t
    else:
        for i, v in enumerate(values):
            padded[i] = int(v) % t
    return padded


def encrypt(pk: BGVPublicKey, values: Sequence[int]) -> BGVCiphertext:
    """Pack ``values`` into SIMD slots (zero-padded) and encrypt."""
    return BGVCiphertext(_pad(values, pk.params), pk.key_id, pk.params)


def decrypt(sk: BGVPrivateKey, ct: BGVCiphertext, count: int = None) -> List[int]:
    """Decrypt the first ``count`` slots (all slots by default).

    Fails if the key does not match or the noise budget is exhausted.
    Returned values are plain Python ints regardless of the slot layout.
    """
    if ct.key_id != sk.public.key_id:
        raise ValueError("ciphertext was produced under a different key")
    if ct.level > ct.params.max_levels:
        raise NoiseBudgetExceeded(
            f"level {ct.level} exceeds budget {ct.params.max_levels}"
        )
    values = ct.slots.tolist()
    return values if count is None else values[:count]


def _check_compatible(a: BGVCiphertext, b: BGVCiphertext) -> None:
    if a.key_id != b.key_id:
        raise ValueError("ciphertexts under different keys cannot be combined")


def add(a: BGVCiphertext, b: BGVCiphertext) -> BGVCiphertext:
    """Slot-wise homomorphic addition; noise grows negligibly."""
    _check_compatible(a, b)
    t = a.params.plaintext_modulus
    slots = (a.slots + b.slots) % t
    return BGVCiphertext(slots, a.key_id, a.params, max(a.level, b.level))


def sub(a: BGVCiphertext, b: BGVCiphertext) -> BGVCiphertext:
    _check_compatible(a, b)
    t = a.params.plaintext_modulus
    slots = (a.slots - b.slots) % t
    return BGVCiphertext(slots, a.key_id, a.params, max(a.level, b.level))


def multiply(a: BGVCiphertext, b: BGVCiphertext) -> BGVCiphertext:
    """Slot-wise homomorphic multiplication; consumes one level."""
    _check_compatible(a, b)
    t = a.params.plaintext_modulus
    slots = (a.slots * b.slots) % t
    return BGVCiphertext(slots, a.key_id, a.params, max(a.level, b.level) + 1)


def add_plain(ct: BGVCiphertext, values: Sequence[int]) -> BGVCiphertext:
    t = ct.params.plaintext_modulus
    padded = _pad(values, ct.params)
    slots = (ct.slots + padded) % t
    return BGVCiphertext(slots, ct.key_id, ct.params, ct.level)


def multiply_plain(ct: BGVCiphertext, values: Sequence[int]) -> BGVCiphertext:
    """Plaintext multiplication; cheaper noise-wise than ct-ct multiply."""
    t = ct.params.plaintext_modulus
    padded = _pad(values, ct.params)
    slots = (ct.slots * padded) % t
    return BGVCiphertext(slots, ct.key_id, ct.params, ct.level + 1)


def rotate(ct: BGVCiphertext, k: int) -> BGVCiphertext:
    """Cyclically rotate slots left by k (a Galois automorphism in BGV).

    Negative ``k`` rotates right, matching Python slice semantics of the
    historical tuple implementation (``k %= n`` first).
    """
    n = ct.params.slots
    k %= n
    slots = np.roll(ct.slots, -k)
    return BGVCiphertext(slots, ct.key_id, ct.params, ct.level)


def _sum_slots(stack: np.ndarray, t: int) -> np.ndarray:
    """Column sums of a (rows, slots) stack, reduced mod t.

    On the int64 layout the reduction is chunked so no partial sum
    exceeds 2^63 (each slot value is < t, so ``chunk`` rows plus the
    running accumulator stay within a signed machine word).
    """
    if stack.dtype == object:
        return np.sum(stack, axis=0) % t
    chunk = max(1, (_INT64_MAX - t) // max(t - 1, 1))
    total = np.zeros(stack.shape[1], dtype=np.int64)
    for start in range(0, stack.shape[0], chunk):
        total = (total + np.sum(stack[start : start + chunk], axis=0)) % t
    return total


def sum_ciphertexts(cts: Sequence[BGVCiphertext]) -> BGVCiphertext:
    """Sum a non-empty ciphertext sequence with one stacked reduction.

    Equivalent to folding :func:`add` left-to-right (field addition is
    associative and every partial result is reduced mod t), but performed
    as one stacked column reduction (:func:`_sum_slots`).
    """
    if not cts:
        raise ValueError("cannot sum zero ciphertexts")
    first = cts[0]
    for ct in cts[1:]:
        _check_compatible(first, ct)
    t = first.params.plaintext_modulus
    level = max(ct.level for ct in cts)
    stack = np.stack([ct.slots for ct in cts])
    total = _sum_slots(stack, t)
    return BGVCiphertext(total, first.key_id, first.params, level)


def total_sum_slots(ct: BGVCiphertext, width: int) -> BGVCiphertext:
    """Sum the first ``width`` slots into slot 0 via rotate-and-add.

    This is the standard log-depth SIMD reduction; it uses rotations only,
    so it consumes no multiplicative levels.

    Precondition: every slot at index >= ``width`` must be zero (the
    zero-padding :func:`encrypt` establishes). The rotate-and-add ladder
    folds *every* slot toward slot 0, so stale non-zero slots beyond
    ``width`` — e.g. left behind by earlier rotations or by a previous
    ``total_sum_slots`` — would silently corrupt the total. Violations
    raise ``ValueError`` instead of folding garbage.
    """
    if width < 1:
        raise ValueError("total_sum_slots needs a positive width")
    if width < ct.params.slots and bool(np.any(ct.slots[width:])):
        raise ValueError(
            f"slots beyond width {width} are not all zero; rotate-and-add "
            "would fold stale slot values into the total (re-encrypt or "
            "mask the tail first)"
        )
    acc = ct
    shift = 1
    while shift < width:
        acc = add(acc, rotate(acc, shift))
        shift *= 2
    return acc
