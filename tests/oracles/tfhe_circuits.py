"""TFHE's boolean circuits in the clear, with a count of bootstrapped gates.

The planner prices a TFHE stage with two closed forms,
:func:`repro.planner.costmodel.comparison_gate_count` and
:func:`~repro.planner.costmodel.addition_gate_count`. ``tests/test_tfhe.py``
builds the circuits those forms describe out of the gates below and requires
the gate count to equal them. There are no keys and no encryption: a bit is a
``bool``. Every gate but NOT bootstraps in TFHE, so every gate but NOT
counts one.

Nothing in ``src/`` imports this module.
"""

from typing import List, Sequence


def bits_of(value: int, width: int) -> List[bool]:
    """Unsigned bit decomposition, least significant bit first."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"{value} does not fit in {width} unsigned bits")
    return [bool((value >> i) & 1) for i in range(width)]


def int_of(bits: Sequence[bool]) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


class Circuit:
    """Gate-level evaluation with a count of the bootstrapped gates."""

    def __init__(self):
        self.gates = 0

    def _gate(self, out: bool) -> bool:
        self.gates += 1
        return out

    def and_(self, a: bool, b: bool) -> bool:
        return self._gate(a and b)

    def or_(self, a: bool, b: bool) -> bool:
        return self._gate(a or b)

    def xor(self, a: bool, b: bool) -> bool:
        return self._gate(a != b)

    def not_(self, a: bool) -> bool:
        # NOT is a free (non-bootstrapped) operation in TFHE.
        return not a

    def mux(self, sel: bool, if_true: bool, if_false: bool) -> bool:
        return self._gate(if_true if sel else if_false)

    def add_int(self, a: Sequence[bool], b: Sequence[bool]) -> List[bool]:
        """Ripple-carry adder, LSB first, dropping the final carry."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        out: List[bool] = []
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

    def less_than(self, a: Sequence[bool], b: Sequence[bool]) -> bool:
        """Unsigned comparison a < b, scanning LSB to MSB."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        result = None
        for x, y in zip(a, b):
            lt = self.and_(self.not_(x), y)
            if result is None:
                result = lt
            else:
                eq = self.not_(self.xor(x, y))
                result = self.or_(lt, self.and_(eq, result))
        return result
