"""Paillier slot packing for the upload data plane.

The dominant cost of the input phase is one modular exponentiation per
Paillier encryption, at one ciphertext per logical slot when nothing is
packed. Because the paper's device rows are tiny values (one-hot
bits, small bounded integers) inside a huge plaintext space (a 2·k-bit
modulus), many logical slots can share one plaintext: slot i is placed at
bit offset ``(i mod lanes) * slot_bits`` of packed ciphertext
``i // lanes``. Homomorphic addition then sums every lane in parallel —
the classic BatchCrypt/ACORN-style quantized packing — cutting both the
device-side exponentiations and the aggregate/decrypt work by the lane
count.

Correctness requires that no lane ever carries into its neighbour:
``slot_bits`` must cover the *aggregated* per-slot sum (device count times
the per-device slot bound, which the upload ZKPs enforce for every
accepted upload), and ``lanes * slot_bits`` must fit the plaintext
modulus. :func:`plan_packing` computes the widest safe layout and returns
``None`` when packing cannot help (a single lane) or cannot be proven safe
(signed ranges).

Packing changes the ciphertext-level wire format only. Upload witnesses,
ZKP statements, rejected-device sets, decrypted logical counts, DP noise,
and every published output are unchanged — the runtime equivalence suite
(``tests/test_runtime_equivalence.py``) pins that down against a
one-ciphertext-per-slot run of the same intake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class SlotPacking:
    """Layout mapping ``width`` logical slots onto packed plaintexts."""

    width: int
    slot_bits: int
    lanes: int

    def __post_init__(self):
        if self.width < 1 or self.slot_bits < 1 or self.lanes < 1:
            raise ValueError("packing dimensions must be positive")

    @property
    def packed_width(self) -> int:
        return -(-self.width // self.lanes)

    def pack(self, vector: Sequence[int]) -> List[int]:
        """Pack a logical slot vector into ``packed_width`` plaintexts."""
        if len(vector) != self.width:
            raise ValueError(
                f"vector of {len(vector)} slots does not match width {self.width}"
            )
        packed = []
        for start in range(0, self.width, self.lanes):
            word = 0
            for lane, v in enumerate(vector[start : start + self.lanes]):
                word |= int(v) << (lane * self.slot_bits)
            packed.append(word)
        return packed

    def unpack(self, packed: Sequence[int], *, check: bool = True) -> List[int]:
        """Split packed (aggregated) plaintexts back into logical slots.

        With ``check`` (the default) a value that overflows its packed
        capacity raises instead of silently bleeding into a neighbouring
        lane — this can only happen if the planner's per-slot bound was
        violated, i.e. a protocol bug, never honest data.
        """
        if len(packed) != self.packed_width:
            raise ValueError(
                f"{len(packed)} packed values do not match packed width "
                f"{self.packed_width}"
            )
        mask = (1 << self.slot_bits) - 1
        slots: List[int] = []
        for start, value in zip(range(0, self.width, self.lanes), packed):
            lanes_here = min(self.lanes, self.width - start)
            if check and value >> (lanes_here * self.slot_bits):
                raise ValueError(
                    "packed aggregate overflowed its lane capacity; the "
                    "per-slot sum bound used to plan the packing was violated"
                )
            slots.extend(
                (value >> (lane * self.slot_bits)) & mask for lane in range(lanes_here)
            )
        return slots


def plan_packing(
    width: int,
    max_slot_sum: int,
    plaintext_modulus: int,
) -> Optional[SlotPacking]:
    """Choose the widest carry-free packing, or ``None`` if packing can't win.

    ``max_slot_sum`` bounds the aggregated per-slot total (device count ×
    per-device slot maximum, as enforced by the upload ZKPs); one guard bit
    is added on top. Returns ``None`` when fewer than two lanes fit —
    callers then keep the one-ciphertext-per-slot layout.
    """
    if width < 1:
        raise ValueError("width must be positive")
    if max_slot_sum < 0:
        raise ValueError("max_slot_sum must be non-negative")
    slot_bits = max(max_slot_sum.bit_length(), 1) + 1
    usable_bits = plaintext_modulus.bit_length() - 1
    lanes = min(width, usable_bits // slot_bits)
    if lanes < 2:
        return None
    return SlotPacking(width=width, slot_bits=slot_bits, lanes=lanes)
