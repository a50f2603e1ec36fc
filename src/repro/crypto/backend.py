"""Pluggable accelerated crypto backend with a pure-python oracle.

The sharded runtime made the numpy int64 slot kernels the floor of the
data plane; what remains hot at 10^6+ simulated devices is *bigint*
crypto: Paillier ``r^n mod n²`` pad generation, ``c^λ mod n²`` decryption,
Feldman/VSR commitment exponentiations, Vandermonde share batching, and
the exact (object-dtype) BGV slot path. This module defines the narrow
kernel interface those hot paths go through — and nothing else: key
schedules, protocol logic, digests, and RNG draw schedules all stay in
their own modules, so a backend can only change *how fast* a kernel runs,
never *what* it computes.

Two implementations ship:

* :class:`PureBackend` — the historical pure-python/numpy kernels,
  byte-for-byte the seed semantics. It is always available, always the
  default when nothing faster is importable, and it is the *differential
  oracle*: ``tests/test_backend_equivalence.py`` asserts every other
  backend produces bit-identical ciphertexts, shares, commitments, and
  query digests.
  Its one stateful kernel is the fixed-base batch
  (``powmod_base_vector``): a byte-comb table per declared base, exact
  for every exponent (docs/ARCHITECTURE.md §20).
* :class:`AcceleratedBackend` — gmpy2 ``powmod``/``mpz`` for bigint
  batches and (optionally) numba-jitted loops for int64 slot reductions,
  each gated independently so a partial install still helps. Where no
  compiled library is present the backend falls back to *algorithmic*
  accelerations that remain exact — Montgomery batch inversion (one
  modexp for k inverses) — and otherwise delegates to the pure kernels,
  so forcing ``REPRO_CRYPTO_BACKEND=accel`` is always safe.

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
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover
    _gmpy2 = None

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

#: Environment variable forcing backend selection (``pure`` or ``accel``).
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"

_INT64_MAX = (1 << 63) - 1


def gmpy2_available() -> bool:
    return _gmpy2 is not None


def numba_available() -> bool:
    return _numba is not None


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
    """The seed kernels: Python big ints + numpy. The differential oracle."""

    name = "pure"

    #: Human-readable description of what makes this backend tick.
    detail = "builtin pow / numpy object arrays (always available)"

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

    # ------------------------------------------------------ bigint modexp

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
        """Inverses of many units mod a *prime* — one modexp each here."""
        return [self.invmod(v % mod, mod) for v in values]

    # ------------------------------------------------------- slot kernels

    def slot_add(self, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        return (a + b) % t

    def slot_sub(self, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        return (a - b) % t

    def slot_mul(self, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        return (a * b) % t

    def sum_slots(self, stack: np.ndarray, t: int) -> np.ndarray:
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

    # -------------------------------------------------- Vandermonde batch

    def matmul_mod(self, a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
        """Exact ``(a @ b) % mod`` over object-dtype bigint matrices."""
        return (a @ b) % mod

    def matvec_mod(self, a: np.ndarray, v: np.ndarray, mod: int) -> np.ndarray:
        """Exact ``(a @ v) % mod`` for an object-dtype matrix × vector."""
        return (a @ v) % mod

    # ------------------------------------------------------- lane packing

    def pack_lanes(self, values: Sequence[int], slot_bits: int) -> int:
        """OR ``values[i] << (i*slot_bits)`` into one packed plaintext."""
        packed = 0
        for lane, v in enumerate(values):
            packed |= int(v) << (lane * slot_bits)
        return packed

    def unpack_lanes(self, packed: int, slot_bits: int, lanes: int) -> List[int]:
        """Split a packed plaintext back into ``lanes`` lane values."""
        mask = (1 << slot_bits) - 1
        return [(packed >> (lane * slot_bits)) & mask for lane in range(lanes)]


class AcceleratedBackend(PureBackend):
    """gmpy2/numba-accelerated kernels, bit-identical to the pure oracle.

    Inherits the oracle and overrides kernel-by-kernel, each gated on the
    library that accelerates it, so a machine with gmpy2 but no numba (or
    vice versa) still gets every win that applies. Everything here is a
    *representation* change — mpz arithmetic, jitted loops, batch
    inversion — over the same exact integer math, so outputs are
    convertible back to the oracle's plain ints without loss.
    """

    name = "accel"

    def __init__(self):
        super().__init__()
        self.uses_gmpy2 = gmpy2_available()
        self.uses_numba = numba_available()
        self._jit_sum_slots = _build_numba_sum_slots() if self.uses_numba else None

    @property
    def detail(self) -> str:  # type: ignore[override]
        parts = []
        parts.append("gmpy2 powmod/mpz" if self.uses_gmpy2 else "no gmpy2")
        parts.append("numba slot loops" if self.uses_numba else "no numba")
        parts.append("batch inversion")
        return ", ".join(parts)

    @staticmethod
    def available() -> bool:
        """Worth auto-selecting only when a compiled library is present."""
        return gmpy2_available() or numba_available()

    @staticmethod
    def unavailable_reason() -> Optional[str]:
        if AcceleratedBackend.available():
            return None
        return "neither gmpy2 nor numba is importable"

    # ------------------------------------------------------ bigint modexp

    def powmod(self, base: int, exp: int, mod: int) -> int:
        if self.uses_gmpy2:
            return int(_gmpy2.powmod(base, exp, mod))
        return super().powmod(base, exp, mod)

    def powmod_vector(self, bases: Sequence[int], exp: int, mod: int) -> List[int]:
        if self.uses_gmpy2:
            mpz_exp, mpz_mod = _gmpy2.mpz(exp), _gmpy2.mpz(mod)
            return [int(_gmpy2.powmod(_gmpy2.mpz(b), mpz_exp, mpz_mod)) for b in bases]
        return super().powmod_vector(bases, exp, mod)

    def invmod(self, a: int, mod: int) -> int:
        if self.uses_gmpy2:
            try:
                return int(_gmpy2.invert(a, mod))
            except ZeroDivisionError as exc:
                # Match builtin pow's typed failure for non-invertible a.
                raise ValueError("base is not invertible for the given modulus") from exc
        return super().invmod(a, mod)

    def batch_invmod(self, values: Sequence[int], mod: int) -> List[int]:
        """Montgomery's trick: k inverses for one modexp + 3(k-1) muls.

        Exact modular arithmetic, so the result is the same integer the
        per-element modexp produces — an algorithmic acceleration that
        needs no compiled library at all (gmpy2 shrinks the constant).
        """
        reduced = [v % mod for v in values]
        if not reduced:
            return []
        if any(v == 0 for v in reduced):
            # 0 has no inverse; defer to the per-element path's error.
            return super().batch_invmod(values, mod)
        prefix = [reduced[0]]
        for v in reduced[1:]:
            prefix.append(prefix[-1] * v % mod)
        inv_all = self.invmod(prefix[-1], mod)
        out = [0] * len(reduced)
        for i in range(len(reduced) - 1, 0, -1):
            out[i] = inv_all * prefix[i - 1] % mod
            inv_all = inv_all * reduced[i] % mod
        out[0] = inv_all
        return out

    # ------------------------------------------------------- slot kernels

    def _mpz_elementwise(self, a: np.ndarray, b: np.ndarray, t, op) -> np.ndarray:
        out = np.empty(len(a), dtype=object)
        for i in range(len(a)):
            out[i] = int(op(a[i], b[i]) % t)
        return out

    def slot_add(self, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        if a.dtype == object and self.uses_gmpy2:
            return self._mpz_elementwise(a, b, _gmpy2.mpz(t), lambda x, y: x + y)
        return super().slot_add(a, b, t)

    def slot_sub(self, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        if a.dtype == object and self.uses_gmpy2:
            return self._mpz_elementwise(a, b, _gmpy2.mpz(t), lambda x, y: x - y)
        return super().slot_sub(a, b, t)

    def slot_mul(self, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        if a.dtype == object and self.uses_gmpy2:
            return self._mpz_elementwise(a, b, _gmpy2.mpz(t), lambda x, y: x * y)
        return super().slot_mul(a, b, t)

    def sum_slots(self, stack: np.ndarray, t: int) -> np.ndarray:
        if stack.dtype != object and self._jit_sum_slots is not None:
            chunk = max(1, (_INT64_MAX - t) // max(t - 1, 1))
            return self._jit_sum_slots(
                np.ascontiguousarray(stack), np.int64(t), np.int64(chunk)
            )
        return super().sum_slots(stack, t)

    # -------------------------------------------------- Vandermonde batch

    def matmul_mod(self, a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
        if not self.uses_gmpy2:
            return super().matmul_mod(a, b, mod)
        mpz = _gmpy2.mpz
        mpz_mod = mpz(mod)
        rows = [[mpz(x) for x in row] for row in a]
        cols = [[mpz(x) for x in col] for col in np.asarray(b).T]
        out = np.empty((len(rows), len(cols)), dtype=object)
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                acc = mpz(0)
                for x, y in zip(row, col):
                    acc += x * y
                out[i, j] = int(acc % mpz_mod)
        return out

    def matvec_mod(self, a: np.ndarray, v: np.ndarray, mod: int) -> np.ndarray:
        if not self.uses_gmpy2:
            return super().matvec_mod(a, v, mod)
        mpz = _gmpy2.mpz
        mpz_mod = mpz(mod)
        vec = [mpz(x) for x in v]
        out = np.empty(len(a), dtype=object)
        for i, row in enumerate(a):
            acc = mpz(0)
            for x, y in zip(row, vec):
                acc += mpz(x) * y
            out[i] = int(acc % mpz_mod)
        return out


def _build_numba_sum_slots():  # pragma: no cover - needs numba installed
    """JIT the chunked int64 column-sum reduction (fused loop, no temps)."""

    @_numba.njit(cache=True)
    def jit_sum_slots(stack, t, chunk):
        rows, slots = stack.shape
        total = np.zeros(slots, dtype=np.int64)
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            for j in range(slots):
                acc = total[j]
                for i in range(start, stop):
                    acc += stack[i, j]
                total[j] = acc % t
        return total

    return jit_sum_slots


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
        _selection_reason = "auto: gmpy2/numba importable"
        return AcceleratedBackend()
    _selection_reason = "auto: accelerated libraries unavailable, pure fallback"
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
