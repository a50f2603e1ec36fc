"""Honest-majority Shamir MPC engine for committee vignettes.

This is the stand-in for MP-SPDZ's SPDZ-wise Shamir protocol (§6): a
committee of n parties with threshold t < n/2 computes over secret-shared
values. Additions are local; multiplications consume a Beaver triple and one
opening round; comparisons use the masked-opening + bitwise circuit protocol
over edaBits (the MP-SPDZ approach). Every operation is metered — openings,
rounds, triples, bytes — and those counters feed the planner's cost model,
mirroring how the paper benchmarks building blocks and extrapolates.

The engine simulates all parties in one process but enforces the sharing
discipline through its API: a :class:`SecretValue` can only be read via
``open``/``declassify``, reconstruction is degree-checked so a corrupted
share is detected (the honest-majority analogue of SPDZ MAC checks), and
tests exercise malicious members through :meth:`MPCEngine.corrupt_share`.

A shared value is one list of y-values in party order from the dealer's
draw to the hand-off; no operation changes a list in place, so handles may
share one (a handle made from an edaBit bit *is* the dealer's list).
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..crypto.backend import get_backend
from ..crypto.field import PrimeField, DEFAULT_FIELD
from ..crypto.shamir import lagrange_weights
from .beaver import OfflineDealer

#: Statistical security (bits of masking slack) for masked openings, as in
#: the paper's MP-SPDZ configuration (§6: "40 bits of statistical security").
STATISTICAL_SECURITY_BITS = 40

#: Default width of compared values: 30 integer + 16 fraction bits (§6),
#: plus a sign bit. The runtime's committees do not use it: they compare at
#: the width their plan's certified ranges need (``runtime.width``).
DEFAULT_BIT_WIDTH = 47


def max_bit_width(field: PrimeField) -> int:
    """Widest k a comparison over ``field`` can mask: the (k+1+40)-bit
    edaBit plus two bits of headroom must fit the field (84 for the
    127-bit Mersenne field)."""
    return field.bits - 2 - 1 - STATISTICAL_SECURITY_BITS


class CheatingDetected(Exception):
    """Raised when an opened sharing is inconsistent (a party cheated)."""


class SecretValue:
    """Handle to a secret-shared field element living inside one engine:
    its shares' y-values in that engine's party order."""

    __slots__ = ("ys", "engine_id")

    def __init__(self, ys: List[int], engine_id: int):
        if not ys:
            raise ValueError("a secret value needs at least one share")
        self.ys = ys
        self.engine_id = engine_id


@dataclass
class CostCounters:
    """Online-phase work performed by an engine, for the cost model."""

    openings: int = 0
    rounds: int = 0
    multiplications: int = 0
    comparisons: int = 0
    bytes_sent: int = 0
    inputs: int = 0
    triples_consumed: int = 0
    edabits_consumed: int = 0

    def snapshot(self) -> "CostCounters":
        return CostCounters(**vars(self))


class MPCEngine:
    """One committee's MPC instance.

    Parameters
    ----------
    num_parties:
        Committee size n. Threshold defaults to the largest t with
        n >= 2t+1 (honest majority).
    field:
        The prime field; defaults to the 127-bit Mersenne field, which
        leaves 40 bits of masking slack above the 47-bit value width.
    """

    #: ``next()`` on a C-level counter is atomic, so engines built on
    #: different threads can never share an id.
    _engine_ids = itertools.count()

    def __init__(
        self,
        num_parties: int,
        field: PrimeField = DEFAULT_FIELD,
        threshold: Optional[int] = None,
        rng: Optional[random.Random] = None,
        bit_width: int = DEFAULT_BIT_WIDTH,
    ):
        if num_parties < 3:
            raise ValueError("honest-majority MPC needs at least 3 parties")
        self.field = field
        self.party_ids = list(range(1, num_parties + 1))
        self.threshold = threshold if threshold is not None else (num_parties - 1) // 2
        if num_parties < 2 * self.threshold + 1:
            raise ValueError("threshold violates the honest-majority bound n >= 2t+1")
        self.bit_width = bit_width
        if bit_width > max_bit_width(field):
            raise ValueError(
                f"field of {field.bits} bits too small for {bit_width}-bit values "
                f"with {STATISTICAL_SECURITY_BITS}-bit statistical masking"
            )
        if rng is None:
            # Shares and masks drawn from an ambient stream would be
            # unreproducible and unauditable; callers must thread their own.
            raise ValueError("MPCEngine requires an explicit random.Random")
        self.rng = rng
        self.dealer = OfflineDealer(field, self.party_ids, self.threshold, self.rng)
        self.counters = CostCounters()
        #: Consulted between communication rounds; the fault-injection
        #: runtime (``repro.faults``) installs a hook here that simulates
        #: crashes, stragglers, and equivocation by raising typed errors.
        self.round_hook: Optional[Callable[[], None]] = None
        #: True while :meth:`mul_many` holds one round open around its products.
        self._in_batch = False
        self._id = next(MPCEngine._engine_ids)
        #: 2^-bit_width in the field: a comparison divides by it once.
        self._inverse_shift = get_backend().invmod(1 << bit_width, field.modulus)
        #: Bytes on the wire when one party sends a share to each other party.
        self._fanout_bytes = (num_parties - 1) * ((field.bits + 7) // 8)
        # The opening matrix, applied to the quorum's (first t+1 parties')
        # y-values: row 0 interpolates the secret at x=0, each further row
        # predicts one non-quorum party's share. It depends only on the
        # party set, so the weights come from the shared Lagrange cache.
        ids = tuple(self.party_ids)
        quorum = ids[: self.threshold + 1]
        self._secret_row = lagrange_weights(field.modulus, quorum)
        self._check_rows = [
            (index, lagrange_weights(field.modulus, quorum, ids[index]))
            for index in range(self.threshold + 1, len(ids))
        ]

    # ------------------------------------------------------------------ io

    @property
    def num_parties(self) -> int:
        return len(self.party_ids)

    def _check_ownership(self, *values: SecretValue) -> None:
        for v in values:
            if v.engine_id != self._id:
                raise ValueError("secret value belongs to a different committee")

    def input_value(self, value: int) -> SecretValue:
        """A party inputs a (signed) value by secret-sharing it."""
        return self.input_values([value])[0]

    def input_values(self, values: Sequence[int]) -> List[SecretValue]:
        """Input many (signed) values: one sharing each over this engine's
        own rng and party set, in order, the counters added in bulk."""
        encoded = [self.field.encode_signed(v) for v in values]
        share = self.dealer.share
        self.counters.inputs += len(values)
        self.counters.bytes_sent += self._fanout_bytes * len(values)
        return [SecretValue(share(v), self._id) for v in encoded]

    def export_columns(self, values: Sequence[SecretValue]) -> Dict[int, List[int]]:
        """Hand values out for redistribution to another committee: each
        party id (its x-coordinate) with its y-value of every value."""
        self._check_ownership(*values)
        return {
            pid: [value.ys[index] for value in values]
            for index, pid in enumerate(self.party_ids)
        }

    def input_columns(self, columns: Dict[int, Sequence[int]]) -> List[SecretValue]:
        """Adopt values produced elsewhere (e.g. received via VSR), in the
        shape :meth:`export_columns` hands out: one column per party."""
        if set(columns) != set(self.party_ids):
            raise ValueError("columns do not match this committee's parties")
        ordered = [columns[pid] for pid in self.party_ids]
        if len({len(column) for column in ordered}) != 1:
            raise ValueError("parties hold different numbers of values")
        return [SecretValue(list(ys), self._id) for ys in zip(*ordered)]

    def constant(self, value: int) -> SecretValue:
        """Share a public constant (degree-0 'sharing': every share equals it)."""
        return SecretValue([self.field.encode_signed(value)] * self.num_parties, self._id)

    # --------------------------------------------------------------- linear

    def add(self, a: SecretValue, b: SecretValue) -> SecretValue:
        self._check_ownership(a, b)
        p = self.field.modulus
        return SecretValue([(x + y) % p for x, y in zip(a.ys, b.ys)], self._id)

    def sub(self, a: SecretValue, b: SecretValue) -> SecretValue:
        self._check_ownership(a, b)
        p = self.field.modulus
        return SecretValue([(x - y) % p for x, y in zip(a.ys, b.ys)], self._id)

    def add_public(self, a: SecretValue, k: int) -> SecretValue:
        self._check_ownership(a)
        p, encoded = self.field.modulus, self.field.encode_signed(k)
        return SecretValue([(x + encoded) % p for x in a.ys], self._id)

    def mul_public(self, a: SecretValue, k: int) -> SecretValue:
        self._check_ownership(a)
        p, encoded = self.field.modulus, self.field.encode_signed(k)
        return SecretValue([x * encoded % p for x in a.ys], self._id)

    def sum_values(self, values: Sequence[SecretValue]) -> SecretValue:
        """Sum shared values with a balanced pairwise tree.

        Share addition is exact field addition (no rounding, no counters
        touched by :meth:`add`), so the tree's result is byte-identical to
        the historical left fold while keeping the reduction depth
        logarithmic — the shape a real committee would use to overlap
        communication-free local additions.
        """
        if not values:
            return self.constant(0)
        layer = list(values)
        while len(layer) > 1:
            nxt = [
                self.add(layer[i], layer[i + 1])
                for i in range(0, len(layer) - 1, 2)
            ]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    # ------------------------------------------------------------- opening

    def _open_values(self, vectors: Sequence[Sequence[int]]) -> List[int]:
        """King-model openings with degree-t consistency checks.

        Every party sends its share of each value to a king, who
        interpolates from t+1 shares and verifies the remaining n-t-1
        against the polynomial; any mismatch means some party lied, and the
        protocol aborts. This is the honest-majority error-detection
        analogue of SPDZ MAC checks. ``vectors`` are y-values in party
        order and travel together: one round, unless :meth:`mul_many` has
        already opened one around them. Each value is metered as it passes
        its check, so an aborted round counts what was actually opened.
        """
        if not self._in_batch and self.round_hook is not None:
            # A round boundary: the fault injector may fail a member here.
            self.round_hook()
        p = self.field.modulus
        quorum_size = self.threshold + 1
        secret_row, check_rows, mul = self._secret_row, self._check_rows, operator.mul
        counters = self.counters
        # n-1 sends to the king plus n-1 broadcasts of the result.
        value_bytes = 2 * self._fanout_bytes
        opened = []
        for ys in vectors:
            quorum = ys[:quorum_size]
            for index, row in check_rows:
                if sum(map(mul, row, quorum)) % p != ys[index]:
                    raise CheatingDetected(
                        f"party {self.party_ids[index]} submitted an inconsistent share"
                    )
            opened.append(sum(map(mul, secret_row, quorum)) % p)
            counters.openings += 1
            counters.bytes_sent += value_bytes
        if not self._in_batch:
            counters.rounds += 1
        return opened

    def open(self, value: SecretValue) -> int:
        """Open a secret to all parties, returning the signed integer."""
        self._check_ownership(value)
        return self.field.decode_signed(self._open_values([value.ys])[0])

    def open_unsigned(self, value: SecretValue) -> int:
        self._check_ownership(value)
        return self._open_values([value.ys])[0]

    # -------------------------------------------------------------- multiply

    def mul(self, a: SecretValue, b: SecretValue) -> SecretValue:
        """Beaver multiplication: one triple, one round of two openings."""
        self._check_ownership(a, b)
        p = self.field.modulus
        ta, tb, tc = self.dealer.triple()
        self.counters.triples_consumed += 1
        d, e = self._open_values(
            [
                [(x - y) % p for x, y in zip(a.ys, ta)],
                [(x - y) % p for x, y in zip(b.ys, tb)],
            ]
        )
        self.counters.multiplications += 1
        de = d * e
        return SecretValue(
            [(z + d * y + e * x + de) % p for x, y, z in zip(ta, tb, tc)], self._id
        )

    def mul_many(
        self, pairs: Sequence[Tuple[SecretValue, SecretValue]]
    ) -> List[SecretValue]:
        """Independent Beaver products in one protocol round.

        No product's inputs depend on another's openings, so the 2k masked
        values travel together; the simulation still evaluates the products
        one :meth:`mul` after another, which draws the k triples in
        ``pairs`` order — the dealer's RNG stream never sees the batching.
        """
        if not pairs:
            return []
        if self.round_hook is not None:
            self.round_hook()
        self._in_batch = True
        try:
            products = [self.mul(a, b) for a, b in pairs]
        finally:
            self._in_batch = False
        self.counters.rounds += 1
        return products

    # ------------------------------------------------------------ comparison

    def less_than(self, a: SecretValue, b: SecretValue) -> SecretValue:
        """Shared bit [a < b], correct only when |a - b| < 2^k, k = ``bit_width``.

        Nothing here can check that precondition on shared values: past it
        the bit opens wrong, silently. The caller guarantees it. The
        runtime's committees compare at ``runtime.width.comparison_width``,
        the smallest k the plan's certified value ranges satisfy at every
        comparison site; a direct engine user picks k for its own values.

        Protocol (MP-SPDZ ``LTZ`` over ``Mod2m``): d = a - b + 2^k lies in
        (0, 2^(k+1)) and its bit k is [a >= b]. Mask d with a random
        (k+1+40)-bit edaBit r whose low k bits are bit-shared, open
        e = d + r, and let u = [e mod 2^k < r mod 2^k] from the bitwise
        circuit; then d mod 2^k = (e mod 2^k) - (r mod 2^k) + 2^k u and
        [a < b] = 1 - (d - d mod 2^k) / 2^k, exact in the field. Whatever
        the operands: one edaBit, k - 1 triples, k rounds.
        """
        self._check_ownership(a, b)
        k = self.bit_width
        mask, low_bits = self.dealer.edabit(k + 1 + STATISTICAL_SECURITY_BITS, k)
        self.counters.edabits_consumed += 1
        p, shift, inverse = self.field.modulus, 1 << k, self._inverse_shift
        shifted = [(x - y + shift) % p for x, y in zip(a.ys, b.ys)]
        (e,) = self._open_values([[(d + r) % p for d, r in zip(shifted, mask)]])
        e_low = e % shift
        wrapped = self._bitwise_public_less_than(e_low, low_bits)
        # Each party weighs its own low-bit shares into its share of r mod 2^k.
        r_low = [sum(y << i for i, y in enumerate(column)) for column in zip(*low_bits)]
        result = [
            (1 - (d - e_low + r - shift * u) * inverse) % p
            for d, r, u in zip(shifted, r_low, wrapped.ys)
        ]
        self.counters.comparisons += 1
        return SecretValue(result, self._id)

    def _bitwise_public_less_than(
        self, public_value: int, bits: Sequence[List[int]]
    ) -> SecretValue:
        """Shared bit [public_value < r] for r's shared bits, LSB first, and
        a public value of no more bits than that.

        From the MSB down ``prefix`` is [every higher bit equal], and one
        product t = prefix * r_i serves either public bit: at a 1 the prefix
        survives only where r_i = 1 (prefix <- t); at a 0, r_i = 1 decides
        for r (result += t) and the prefix survives as prefix - t. The top
        level's prefix is the constant 1, so its t is r_i and costs no triple.
        """
        top = len(bits) - 1
        result, prefix = self.constant(0), self.constant(1)
        for i in range(top, -1, -1):
            r_i = SecretValue(bits[i], self._id)
            t = self.mul(prefix, r_i) if i < top else r_i
            if (public_value >> i) & 1:
                prefix = t
            else:
                result, prefix = self.add(result, t), self.sub(prefix, t)
        return result

    def greater_than(self, a: SecretValue, b: SecretValue) -> SecretValue:
        return self.less_than(b, a)

    # ------------------------------------------------------------- selection

    def select(self, bit: SecretValue, if_true: SecretValue, if_false: SecretValue) -> SecretValue:
        """Oblivious choice: bit*(if_true - if_false) + if_false."""
        return self.select_many(bit, [(if_true, if_false)])[0]

    def select_many(
        self, bit: SecretValue, choices: Sequence[Tuple[SecretValue, SecretValue]]
    ) -> List[SecretValue]:
        """Several (if_true, if_false) choices on one bit, in one round."""
        products = self.mul_many([(bit, self.sub(t, f)) for t, f in choices])
        return [self.add(product, f) for product, (_, f) in zip(products, choices)]

    def argmax(self, values: Sequence[SecretValue]) -> SecretValue:
        """Shared index of the maximum value (first maximum wins ties)."""
        if not values:
            raise ValueError("argmax of an empty sequence")
        best_value = values[0]
        best_index = self.constant(0)
        for i, v in enumerate(values[1:], start=1):
            is_greater = self.greater_than(v, best_value)
            best_value, best_index = self.select_many(
                is_greater, [(v, best_value), (self.constant(i), best_index)]
            )
        return best_index

    def maximum(self, values: Sequence[SecretValue]) -> SecretValue:
        if not values:
            raise ValueError("max of an empty sequence")
        best = values[0]
        for v in values[1:]:
            is_greater = self.greater_than(v, best)
            best = self.select(is_greater, v, best)
        return best

    # ----------------------------------------------------------------- noise

    def noise(self, sample: int) -> SecretValue:
        """Adopt a jointly generated noise sample as a shared value.

        The sample is produced by the committee's joint noise sub-protocol
        (``mpc.protocols`` draws the Laplace and Gumbel samples); the dealer
        shares it so no single party ever sees it.
        """
        return SecretValue(self.dealer.noise_share(sample), self._id)

    # --------------------------------------------------------------- testing

    def corrupt_share(self, value: SecretValue, party_id: int, delta: int = 1) -> None:
        """Test hook: a malicious party perturbs its share of ``value``."""
        self._check_ownership(value)
        ys = list(value.ys)  # a copy: the list may be shared with other handles
        index = self.party_ids.index(party_id)
        ys[index] = self.field.add(ys[index], delta)
        value.ys = ys
