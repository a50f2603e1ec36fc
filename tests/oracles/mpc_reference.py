"""The naive MPC online phase, kept as the differential oracle.

This is the engine as it stood before the opening matrix was cached,
Beaver products were batched and values became y-vectors: a value is a
``Dict[int, Share]`` with one frozen ``Share`` object per party
(:class:`ReferenceValue`, the oracle's own handle), every opening rebuilds
its Lagrange weights and re-interpolates the quorum polynomial at each
non-quorum party with fresh field inversions, every sharing re-validates the
party set and Horners through ``field`` method calls, every product is
its own round, and a comparison builds d mod 2^k one handle at a time.
``tests/test_mpc_online.py`` runs the same program through this class and
through :class:`repro.mpc.engine.MPCEngine` and requires identical y-values,
opened values, RNG state and counters (``rounds`` apart, which the oracle
counts one per product).

Nothing in ``src/`` imports this module and no option selects it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.field import DEFAULT_FIELD, PrimeField
from repro.crypto.shamir import Share, _validate_sharing
from repro.mpc.engine import STATISTICAL_SECURITY_BITS, CheatingDetected, CostCounters

Sharing = Dict[int, Share]


@dataclass
class ReferenceValue:
    """The oracle's handle to a shared value: one ``Share`` per party id."""

    shares: Sharing

    def ys(self, party_ids: Sequence[int]) -> List[int]:
        """The y-values in ``party_ids`` order — what the engine's handle holds."""
        return [self.shares[pid].y for pid in party_ids]


def share_secret(
    secret: int, threshold: int, party_ids: Sequence[int], field: PrimeField, rng: random.Random
) -> List[Share]:
    """Per-call validation, then Horner evaluation at every party id."""
    _validate_sharing(threshold, party_ids)
    coeffs = [field.reduce(secret)]
    coeffs.extend(field.random_element(rng) for _ in range(threshold))
    shares = []
    for pid in party_ids:
        acc = 0
        for c in reversed(coeffs):
            acc = field.add(field.mul(acc, pid), c)
        shares.append(Share(pid, acc))
    return shares


class ReferenceDealer:
    """Dealer over the per-call ``share_secret`` above, one triple at a time."""

    def __init__(self, field: PrimeField, party_ids: Sequence[int], threshold: int, rng: random.Random):
        self.field = field
        self.party_ids = list(party_ids)
        self.threshold = threshold
        self._rng = rng

    def share(self, value: int) -> Sharing:
        shares = share_secret(value, self.threshold, self.party_ids, self.field, self._rng)
        return {s.x: s for s in shares}

    def triple(self) -> Tuple[Sharing, Sharing, Sharing]:
        a = self.field.random_element(self._rng)
        b = self.field.random_element(self._rng)
        return self.share(a), self.share(b), self.share(self.field.mul(a, b))

    def edabit(self, bit_length: int, shared_bits: int) -> Tuple[Sharing, List[Sharing]]:
        value = self._rng.getrandbits(bit_length)
        bits = [(value >> i) & 1 for i in range(shared_bits)]
        return self.share(value), [self.share(b) for b in bits]


class ReferenceEngine:
    """Scalar, uncached counterpart of ``MPCEngine`` (same public verbs)."""

    def __init__(
        self,
        num_parties: int,
        field: PrimeField = DEFAULT_FIELD,
        threshold: Optional[int] = None,
        rng: Optional[random.Random] = None,
        bit_width: int = 47,
    ):
        self.field = field
        self.party_ids = list(range(1, num_parties + 1))
        self.threshold = threshold if threshold is not None else (num_parties - 1) // 2
        self.bit_width = bit_width
        self.rng = rng
        self.dealer = ReferenceDealer(field, self.party_ids, self.threshold, rng)
        self.counters = CostCounters()
        self.round_hook: Optional[Callable[[], None]] = None

    @property
    def num_parties(self) -> int:
        return len(self.party_ids)

    def _wrap(self, shares: Sharing) -> ReferenceValue:
        return ReferenceValue(shares)

    def _share_bytes(self) -> int:
        return (self.field.bits + 7) // 8

    # ------------------------------------------------------------------ io

    def input_value(self, value: int) -> ReferenceValue:
        encoded = self.field.encode_signed(value)
        shares = share_secret(encoded, self.threshold, self.party_ids, self.field, self.rng)
        self.counters.inputs += 1
        self.counters.bytes_sent += self._share_bytes() * (self.num_parties - 1)
        return self._wrap({s.x: s for s in shares})

    def constant(self, value: int) -> ReferenceValue:
        encoded = self.field.encode_signed(value)
        return self._wrap({pid: Share(pid, encoded) for pid in self.party_ids})

    def _pointwise(self, op, a: ReferenceValue, b: ReferenceValue) -> ReferenceValue:
        return self._wrap(
            {pid: Share(pid, op(a.shares[pid].y, b.shares[pid].y)) for pid in self.party_ids}
        )

    def add(self, a: ReferenceValue, b: ReferenceValue) -> ReferenceValue:
        return self._pointwise(self.field.add, a, b)

    def sub(self, a: ReferenceValue, b: ReferenceValue) -> ReferenceValue:
        return self._pointwise(self.field.sub, a, b)

    def add_public(self, a: ReferenceValue, k: int) -> ReferenceValue:
        return self.add(a, self.constant(k))

    def scale(self, a: ReferenceValue, element: int) -> ReferenceValue:
        """Every share times a public field element (not a signed value)."""
        return self._wrap(
            {pid: Share(pid, self.field.mul(a.shares[pid].y, element)) for pid in self.party_ids}
        )

    # ------------------------------------------------------------- opening

    def _interpolate_at(self, shares: Sequence[Share], x: int) -> int:
        acc = 0
        for i, si in enumerate(shares):
            num, den = 1, 1
            for j, sj in enumerate(shares):
                if i == j:
                    continue
                num = self.field.mul(num, self.field.sub(x, sj.x))
                den = self.field.mul(den, self.field.sub(si.x, sj.x))
            acc = self.field.add(acc, self.field.mul(si.y, self.field.div(num, den)))
        return acc

    def _open_raw(self, shares: Sharing) -> int:
        if self.round_hook is not None:
            self.round_hook()
        ordered = [shares[pid] for pid in self.party_ids]
        quorum = ordered[: self.threshold + 1]
        secret = self._interpolate_at(quorum, 0)
        for other in ordered[self.threshold + 1 :]:
            if self._interpolate_at(quorum, other.x) != other.y:
                raise CheatingDetected(f"party {other.x} submitted an inconsistent share")
        self.counters.openings += 1
        self.counters.rounds += 1
        self.counters.bytes_sent += 2 * (self.num_parties - 1) * self._share_bytes()
        return secret

    def open(self, value: ReferenceValue) -> int:
        return self.field.decode_signed(self._open_raw(value.shares))

    def open_unsigned(self, value: ReferenceValue) -> int:
        return self._open_raw(value.shares)

    # -------------------------------------------------------------- multiply

    def mul(self, a: ReferenceValue, b: ReferenceValue) -> ReferenceValue:
        ta, tb, tc = self.dealer.triple()
        self.counters.triples_consumed += 1
        d = self._open_raw(self.sub(a, self._wrap(ta)).shares)
        e = self._open_raw(self.sub(b, self._wrap(tb)).shares)
        self.counters.rounds -= 1  # the two openings of one Beaver step batch
        de = self.field.mul(d, e)
        out = {}
        for pid in self.party_ids:
            y = tc[pid].y
            y = self.field.add(y, self.field.mul(d, tb[pid].y))
            y = self.field.add(y, self.field.mul(e, ta[pid].y))
            out[pid] = Share(pid, self.field.add(y, de))
        self.counters.multiplications += 1
        return self._wrap(out)

    # ------------------------------------------------------------ comparison

    def less_than(self, a: ReferenceValue, b: ReferenceValue) -> ReferenceValue:
        """The mod-2^k protocol spelled out: d mod 2^k from the masked
        opening and the mask's low bits, then bit k of d = a - b + 2^k."""
        k = self.bit_width
        value, low_bits = self.dealer.edabit(k + 1 + STATISTICAL_SECURITY_BITS, k)
        self.counters.edabits_consumed += 1
        d = self.add_public(self.sub(a, b), 1 << k)
        e = self._open_raw(self.add(d, self._wrap(value)).shares)
        e_low = e % (1 << k)
        wrapped = self.bitwise_public_less_than(e_low, low_bits)
        r_low = self.constant(0)
        for i, bit in enumerate(low_bits):
            r_low = self.add(r_low, self.scale(self._wrap(bit), 1 << i))
        d_low = self.add(self.sub(self.constant(e_low), r_low), self.scale(wrapped, 1 << k))
        not_less = self.scale(self.sub(d, d_low), self.field.inv(1 << k))
        result = self.sub(self.constant(1), not_less)
        self.counters.comparisons += 1
        return result

    def bitwise_public_less_than(self, public_value: int, bits: List[Sharing]) -> ReferenceValue:
        """[public_value < r], MSB down, one product per level below the top
        (whose prefix is the constant 1)."""
        result = self.constant(0)
        prefix_eq = self.constant(1)
        for i in reversed(range(len(bits))):
            r_i = self._wrap(bits[i])
            t = r_i if i == len(bits) - 1 else self.mul(prefix_eq, r_i)
            if (public_value >> i) & 1:
                prefix_eq = t
            else:
                result = self.add(result, t)
                prefix_eq = self.sub(prefix_eq, t)
        return result

    def greater_than(self, a: ReferenceValue, b: ReferenceValue) -> ReferenceValue:
        return self.less_than(b, a)

    # ------------------------------------------------------------- selection

    def select(self, bit: ReferenceValue, if_true: ReferenceValue, if_false: ReferenceValue) -> ReferenceValue:
        return self.add(self.mul(bit, self.sub(if_true, if_false)), if_false)

    def argmax(self, values: Sequence[ReferenceValue]) -> ReferenceValue:
        best_value = values[0]
        best_index = self.constant(0)
        for i, v in enumerate(values[1:], start=1):
            is_greater = self.greater_than(v, best_value)
            best_value = self.select(is_greater, v, best_value)
            best_index = self.select(is_greater, self.constant(i), best_index)
        return best_index

    def corrupt_share(self, value: ReferenceValue, party_id: int, delta: int = 1) -> None:
        old = value.shares[party_id]
        value.shares[party_id] = Share(party_id, self.field.add(old.y, delta))
