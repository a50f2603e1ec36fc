"""Miller–Rabin as it stood before witnesses were drawn lazily.

All ``rounds`` witnesses are drawn from the fixed-seed generator before the
first is tested. ``tests/test_field.py`` requires the same verdict from
:func:`repro.crypto.field.is_probable_prime`, which draws the same witnesses
in the same order but stops drawing at the first that convicts.

Nothing in ``src/`` imports this module and no option selects it.
"""

import random

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def eager_witnesses(n: int, rounds: int = 32):
    """The witnesses the eager loop tests ``n`` against, in order."""
    if n < 3317044064679887385961981:
        return _SMALL_PRIMES[:13]
    rng = random.Random(0xA5B0)
    return [rng.randrange(2, n - 1) for _ in range(rounds)]


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in eager_witnesses(n, rounds):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True
