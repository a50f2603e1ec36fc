"""Scalar ``random.Random`` draws, replayed in bulk.

Each function here returns what a loop of one ``random.Random`` method would
have returned and leaves ``rng.getstate()`` exactly where that loop would
leave it. They rest on how CPython's Mersenne Twister hands out 32-bit
words: ``getrandbits(32 * k)`` is ``k`` consecutive words with the first one
generated least significant, ``getrandbits(k)`` for ``k <= 32`` is the top
``k`` bits of one word, and ``random()`` is ``((a >> 5) * 2**26 + (b >> 6))
/ 2**53`` of the next two words ``a``, ``b``.
"""

from __future__ import annotations

import random

import numpy as np


def words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of the stream, in generation order."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4"
    )


def doubles(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``random()`` of each word pair: the 53-bit float CPython builds from
    them, exact in float64."""
    high = (first >> 5).astype(np.uint64) << np.uint64(26)
    return (high | (second >> 6)).astype(np.float64) * 2.0**-53


def random_many(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]``, drawn in bulk."""
    pairs = words(rng, 2 * count)
    return doubles(pairs[0::2], pairs[1::2])


def randrange_many(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]``, drawn in bulk.

    ``randrange(n)`` takes the top ``n.bit_length()`` bits of one word and
    redraws while that is ``>= n``, so every value costs at least one word:
    each round asks for exactly as many words as values are still missing,
    keeps those ``< n`` in order, and repeats for the rejected. The stream
    is never overdrawn, so there is nothing to rewind.
    """
    if not 0 < n < 2**32:
        raise ValueError("randrange_many needs 0 < n < 2**32 (one word a draw)")
    bits = n.bit_length()
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        drawn = words(rng, count - filled) >> (32 - bits)
        kept = drawn[drawn < n]
        out[filled : filled + len(kept)] = kept
        filled += len(kept)
    return out
