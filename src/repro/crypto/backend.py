"""The modexp seam: the one place bigint modular arithmetic is written.

What is hot in this runtime is *bigint* crypto: Paillier ``r^n mod n²`` pad
generation, ``c^λ mod n²`` decryption, Feldman/VSR commitment
exponentiations. This module is the five kernels those paths go through —
``powmod``, ``powmod_vector``, ``powmod_base_vector``, ``invmod``,
``batch_invmod`` — and nothing else: key schedules, protocol logic,
digests, RNG draw schedules, BGV's numpy slot arithmetic and Paillier lane
packing all stay in their own modules, so a backend can only change *how
fast* a kernel runs, never *what* it computes (docs/ARCHITECTURE.md §17,
§27).

Two implementations ship:

* :class:`PureBackend` — builtin ``pow`` on Python ints, byte-for-byte the
  seed semantics. It is always available, the default when gmpy2 is not
  importable, and the *differential oracle*:
  ``tests/test_backend_equivalence.py`` asserts the other backend produces
  bit-identical ciphertexts, shares, commitments and query digests.
  Its one stateful kernel is the fixed-base batch
  (``powmod_base_vector``): a byte-comb table per declared base, exact
  for every exponent (docs/ARCHITECTURE.md §20).
* :class:`AcceleratedBackend` — gmpy2 ``powmod``/``mpz`` for the two
  kernels that carry the hot modexps (``powmod``, ``powmod_vector``); it
  inherits the other three. Without gmpy2 it *is* the pure backend under
  another name, so forcing ``REPRO_CRYPTO_BACKEND=accel`` is always safe.

Selection happens lazily on first use: the ``REPRO_CRYPTO_BACKEND``
environment variable (``pure`` or ``accel``) wins; otherwise ``accel``
is chosen iff gmpy2 imported, else ``pure``. ``repro backends`` prints
the availability/selection table; the active name is surfaced in
``RuntimeStatistics`` and the ``repro run --stats`` / ``repro serve``
output so every benchmark row is attributable to a backend.

Every 3-argument ``pow`` in ``crypto/``, ``mpc/``, and ``runtime/`` must
live here — source-lint rule R7 (``no-raw-modexp``) rejects bigint
modexp written outside this module, so new code cannot silently bypass
the dispatch layer (and with it, the differential-testing oracle).
"""

from __future__ import annotations

import functools
import importlib.util
import os
from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover
    _gmpy2 = None

#: Environment variable forcing backend selection (``pure`` or ``accel``).
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"


def gmpy2_available() -> bool:
    return _gmpy2 is not None


def numba_available() -> bool:
    """Whether numba is installed — asked without importing it.

    Nothing here uses numba; ``bench/run.py`` records this as a provenance
    key, and the function leaves with that key (ROADMAP, benchmark-only).
    """
    return importlib.util.find_spec("numba") is not None


def _comb_rows(base: int, mod: int) -> Tuple[Tuple[int, ...], ...]:
    """Byte comb of a fixed base: ``rows[i][d] = base**(d * 256**i) mod mod``.

    One 256-entry row per byte of the modulus, so every exponent below
    ``256**len(rows)`` is a product of one entry per byte. Built with
    plain mulmods (255 per row) — about a millisecond for a 134-bit group.
    """
    rows = []
    step = base % mod
    for _ in range((mod.bit_length() + 7) // 8):
        row = [1 % mod]
        for _ in range(255):
            row.append(row[-1] * step % mod)
        rows.append(tuple(row))
        step = row[-1] * step % mod
    return tuple(rows)


class PureBackend:
    """The seed kernels on Python big ints. The differential oracle."""

    name = "pure"

    #: Human-readable description of what makes this backend tick.
    detail = "builtin pow on Python ints (always available)"

    def __init__(self):
        # Fixed-base tables, a few at a time and never shared across a
        # ``use_backend`` switch. Rows are a pure function of the key, so a
        # racing first build is merely redundant: ``src/`` starts no threads,
        # and a library caller's own threads need no lock here.
        self._comb = functools.lru_cache(maxsize=4)(_comb_rows)

    @staticmethod
    def available() -> bool:
        return True

    @staticmethod
    def unavailable_reason() -> Optional[str]:
        return None

    def powmod(self, base: int, exp: int, mod: int) -> int:
        """``base**exp mod mod`` — the single-shot bigint modexp."""
        return pow(base, exp, mod)

    def powmod_vector(self, bases: Sequence[int], exp: int, mod: int) -> List[int]:
        """Fixed-exponent batch: ``[b**exp mod mod for b in bases]``.

        The Paillier pad shape — one exponent ``n``, many random bases.
        """
        return [pow(base, exp, mod) for base in bases]

    def powmod_base_vector(self, base: int, exps: Sequence[int], mod: int) -> List[int]:
        """Fixed-base batch: ``[base**e mod mod for e in exps]``.

        The Feldman-commitment shape — one generator, many exponents.
        Calling this declares ``base`` long-lived: its byte comb
        (:func:`_comb_rows`) is built on first use and kept on this backend
        instance, and each result is the exact product of one entry per
        non-zero exponent byte — at most ``len(rows)`` mulmods. An exponent
        the table cannot index (wider than the modulus, or negative) takes
        the generic modexp.
        """
        rows = self._comb(base, mod)
        width, one = len(rows), 1 % mod
        out = []
        for exp in exps:
            try:
                digits = exp.to_bytes(width, "little")
            except OverflowError:
                out.append(pow(base, exp, mod))
                continue
            acc = one
            for row, digit in zip(rows, digits):
                if digit:
                    acc = acc * row[digit] % mod
            out.append(acc)
        return out

    def invmod(self, a: int, mod: int) -> int:
        """Modular inverse of ``a``; raises ValueError when none exists."""
        return pow(a, -1, mod)

    def batch_invmod(self, values: Sequence[int], mod: int) -> List[int]:
        """Inverses of many units mod a *prime*, one :meth:`invmod` each.

        Its one caller is :func:`repro.crypto.shamir.lagrange_weights`,
        memoised per committee, so a batch is a handful of elements a few
        times per process (docs/ARCHITECTURE.md §27).
        """
        return [self.invmod(v % mod, mod) for v in values]


class AcceleratedBackend(PureBackend):
    """gmpy2 modexp for the two hot kernels, bit-identical to the pure oracle.

    Overrides ``powmod`` and ``powmod_vector`` — the single-shot and
    fixed-exponent shapes that carry Paillier pads, decryption and VSR
    checks — and inherits the fixed-base comb and both inversions. The
    override is a *representation* change (mpz arithmetic over the same
    exact integer math), so outputs convert back to the oracle's plain
    ints without loss; without gmpy2 both kernels are the inherited ones.
    """

    name = "accel"

    @property
    def detail(self) -> str:  # type: ignore[override]
        if gmpy2_available():
            return "gmpy2 powmod/mpz for powmod and powmod_vector"
        return "no gmpy2: every kernel is the pure one"

    @staticmethod
    def available() -> bool:
        """Worth auto-selecting only when gmpy2 imports."""
        return gmpy2_available()

    @staticmethod
    def unavailable_reason() -> Optional[str]:
        return None if gmpy2_available() else "gmpy2 is not importable"

    def powmod(self, base: int, exp: int, mod: int) -> int:
        if _gmpy2 is None:
            return super().powmod(base, exp, mod)
        return int(_gmpy2.powmod(base, exp, mod))

    def powmod_vector(self, bases: Sequence[int], exp: int, mod: int) -> List[int]:
        if _gmpy2 is None:
            return super().powmod_vector(bases, exp, mod)
        mpz_exp, mpz_mod = _gmpy2.mpz(exp), _gmpy2.mpz(mod)
        return [int(_gmpy2.powmod(_gmpy2.mpz(b), mpz_exp, mpz_mod)) for b in bases]


_BACKEND_CLASSES = {"pure": PureBackend, "accel": AcceleratedBackend}

_active: Optional[PureBackend] = None
_selection_reason: str = "not yet selected"


def _select() -> PureBackend:
    global _selection_reason
    forced = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if forced:
        if forced not in _BACKEND_CLASSES:
            raise ValueError(
                f"{BACKEND_ENV_VAR}={forced!r} is not a known backend; "
                f"expected one of {sorted(_BACKEND_CLASSES)}"
            )
        _selection_reason = f"forced by {BACKEND_ENV_VAR}={forced}"
        return _BACKEND_CLASSES[forced]()
    if AcceleratedBackend.available():
        _selection_reason = "auto: gmpy2 importable"
        return AcceleratedBackend()
    _selection_reason = "auto: gmpy2 unavailable, pure fallback"
    return PureBackend()


def get_backend() -> PureBackend:
    """The active backend (selected lazily on first use)."""
    global _active
    if _active is None:
        _active = _select()
    return _active


def active_backend_name() -> str:
    return get_backend().name


def selection_reason() -> str:
    get_backend()
    return _selection_reason


def set_backend(name: Optional[str]) -> PureBackend:
    """Force the active backend (``None`` re-runs auto-selection).

    Used by the differential suite and the per-backend benchmark series;
    production code selects via the environment variable only.
    """
    global _active, _selection_reason
    if name is None:
        _active = None
        return get_backend()
    if name not in _BACKEND_CLASSES:
        raise ValueError(f"unknown backend {name!r}; expected {sorted(_BACKEND_CLASSES)}")
    _active = _BACKEND_CLASSES[name]()
    _selection_reason = f"forced programmatically ({name})"
    return _active


class use_backend:
    """Context manager pinning the active backend (tests/benchmarks)."""

    def __init__(self, name: str):
        self.name = name
        self._saved = None
        self._saved_reason = None

    def __enter__(self) -> PureBackend:
        global _active, _selection_reason
        self._saved = _active
        self._saved_reason = _selection_reason
        return set_backend(self.name)

    def __exit__(self, *exc) -> None:
        global _active, _selection_reason
        _active = self._saved
        _selection_reason = self._saved_reason


def describe_backends() -> List[Dict[str, object]]:
    """Availability/selection table backing ``repro backends``."""
    active = get_backend()
    rows = []
    for name, cls in sorted(_BACKEND_CLASSES.items()):
        instance = cls() if name != active.name else active
        rows.append(
            {
                "backend": name,
                "available": cls.available(),
                "unavailable_reason": cls.unavailable_reason(),
                "detail": instance.detail,
                "selected": name == active.name,
                "selection_reason": _selection_reason if name == active.name else None,
            }
        )
    return rows
