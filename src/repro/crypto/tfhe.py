"""A functional model of TFHE-style boolean FHE.

§2.2: "schemes like TFHE are often used to compute Boolean circuits over
encrypted bits, whereas others, such as BGV, are more commonly used for
numeric operations. The former is more efficient for logical operations
and comparisons, while the latter is more efficient for additions and
multiplications." This module provides the boolean side of that design
dimension so the planner can trade the two off (§3.3: "using a particular
cryptographic primitive might speed up additions but slow down
comparisons").

Like the BGV model, this is behavioural (see DESIGN.md): ciphertexts carry
their bit internally and are only readable via ``decrypt`` with the right
key; every gate goes through a bootstrapping step, so unlike the leveled
BGV model there is no depth limit — the cost is per-gate instead, which the
cost model charges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

#: Serialized TFHE ciphertext: one LWE sample at n=630, 32-bit torus.
CIPHERTEXT_BYTES = 2520


@dataclass(frozen=True)
class TFHEPublicKey:
    key_id: int


@dataclass(frozen=True)
class TFHEPrivateKey:
    public: TFHEPublicKey


@dataclass
class TFHEBit:
    """One encrypted bit; ``gates`` counts the bootstrapped gates in its
    history (for cost accounting and tests)."""

    value: bool = field(repr=False)
    key_id: int
    gates: int = 0


class TFHEEngine:
    """Gate-level homomorphic evaluation with a per-engine gate counter."""

    def __init__(self, rng: random.Random = None):
        rng = rng or random.Random()
        self._key_id = rng.getrandbits(63)
        self.gates_evaluated = 0

    def keygen(self) -> TFHEPrivateKey:
        return TFHEPrivateKey(TFHEPublicKey(self._key_id))

    # ---------------------------------------------------------------- io

    def encrypt(self, pk: TFHEPublicKey, bit: bool) -> TFHEBit:
        if pk.key_id != self._key_id:
            raise ValueError("key from a different engine")
        return TFHEBit(bool(bit), pk.key_id)

    def encrypt_int(self, pk: TFHEPublicKey, value: int, bits: int) -> List[TFHEBit]:
        """Two's-complement-free unsigned bit decomposition, LSB first."""
        if value < 0 or value >= (1 << bits):
            raise ValueError(f"{value} does not fit in {bits} unsigned bits")
        return [self.encrypt(pk, bool((value >> i) & 1)) for i in range(bits)]

    def decrypt(self, sk: TFHEPrivateKey, bit: TFHEBit) -> bool:
        if bit.key_id != sk.public.key_id:
            raise ValueError("ciphertext under a different key")
        return bit.value

    def decrypt_int(self, sk: TFHEPrivateKey, bits: Sequence[TFHEBit]) -> int:
        return sum(int(self.decrypt(sk, b)) << i for i, b in enumerate(bits))

    # -------------------------------------------------------------- gates

    def _gate(self, out: bool, *inputs: TFHEBit) -> TFHEBit:
        key_id = inputs[0].key_id
        if any(b.key_id != key_id for b in inputs):
            raise ValueError("mixing ciphertexts under different keys")
        self.gates_evaluated += 1
        return TFHEBit(out, key_id, gates=max(b.gates for b in inputs) + 1)

    def and_(self, a: TFHEBit, b: TFHEBit) -> TFHEBit:
        return self._gate(a.value and b.value, a, b)

    def or_(self, a: TFHEBit, b: TFHEBit) -> TFHEBit:
        return self._gate(a.value or b.value, a, b)

    def xor(self, a: TFHEBit, b: TFHEBit) -> TFHEBit:
        return self._gate(a.value != b.value, a, b)

    def not_(self, a: TFHEBit) -> TFHEBit:
        # NOT is a free (non-bootstrapped) operation in TFHE.
        return TFHEBit(not a.value, a.key_id, gates=a.gates)

    def mux(self, sel: TFHEBit, if_true: TFHEBit, if_false: TFHEBit) -> TFHEBit:
        return self._gate(if_true.value if sel.value else if_false.value, sel, if_true, if_false)

    # ------------------------------------------------------------ circuits

    def add_int(self, a: Sequence[TFHEBit], b: Sequence[TFHEBit]) -> List[TFHEBit]:
        """Ripple-carry adder (~5 gates/bit), dropping the final carry."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        out: List[TFHEBit] = []
        carry = None
        for x, y in zip(a, b):
            s = self.xor(x, y)
            if carry is None:
                out.append(s)
                carry = self.and_(x, y)
            else:
                out.append(self.xor(s, carry))
                carry = self.or_(self.and_(x, y), self.and_(s, carry))
        return out

    def less_than(self, a: Sequence[TFHEBit], b: Sequence[TFHEBit]) -> TFHEBit:
        """Unsigned comparison a < b (~3 gates/bit)."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        result = None
        for x, y in zip(a, b):  # LSB to MSB
            lt = self.and_(self.not_(x), y)
            if result is None:
                result = lt
            else:
                eq = self.not_(self.xor(x, y))
                result = self.or_(lt, self.and_(eq, result))
        return result

    def equals(self, a: Sequence[TFHEBit], b: Sequence[TFHEBit]) -> TFHEBit:
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        acc = None
        for x, y in zip(a, b):
            bit_eq = self.not_(self.xor(x, y))
            acc = bit_eq if acc is None else self.and_(acc, bit_eq)
        return acc

    def max_int(self, a: Sequence[TFHEBit], b: Sequence[TFHEBit]) -> List[TFHEBit]:
        """Oblivious maximum via compare + per-bit mux."""
        a_less = self.less_than(a, b)
        return [self.mux(a_less, y, x) for x, y in zip(a, b)]


def comparison_gate_count(bits: int) -> int:
    """Gates one ``less_than`` needs — the planner's TFHE cost unit.

    One AND for the first bit, then AND+XOR+AND+OR per remaining bit.
    """
    return 4 * bits - 3


def addition_gate_count(bits: int) -> int:
    return 5 * bits - 3
