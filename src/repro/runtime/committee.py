"""Committees: MPC engines with VSR hand-offs between them (§5.2, §5.4).

Each committee wraps an honest-majority MPC engine over its members. When
intermediate state must move from one committee to the next (key shares
from the key-generation committee to decryption committees, decrypted
aggregates to noising committees, partial argmax results up the tree), the
sending committee verifiably re-shares it with VSR; as long as both
committees have honest majorities the receiving committee reconstructs a
fresh sharing of the same secrets, and tampered sub-shares are detected.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..crypto.field import DEFAULT_FIELD, PrimeField
from ..crypto.vsr import VSRError, redistribute_vector
from ..mpc.engine import MPCEngine, SecretValue

#: Big integers (Paillier key material) are carried as base-2^LIMB_BITS
#: limbs so they fit the MPC field.
LIMB_BITS = 96


def bigint_to_limbs(value: int, count: int) -> List[int]:
    """Split a non-negative integer into ``count`` fixed-width limbs."""
    if value < 0:
        raise ValueError("only non-negative integers can be limb-encoded")
    mask = (1 << LIMB_BITS) - 1
    limbs = [(value >> (LIMB_BITS * i)) & mask for i in range(count)]
    if value >> (LIMB_BITS * count):
        raise OverflowError(f"{count} limbs cannot hold a {value.bit_length()}-bit value")
    return limbs


def limbs_to_bigint(limbs: Sequence[int]) -> int:
    value = 0
    for i, limb in enumerate(limbs):
        value |= limb << (LIMB_BITS * i)
    return value


class Committee:
    """One sortition-selected committee and its MPC engine.

    ``bit_width`` is the engine's comparison width; the executor passes the
    plan's (``runtime.width.comparison_width``), so there is no default.
    """

    def __init__(
        self,
        name: str,
        members: Sequence[int],
        rng: random.Random,
        bit_width: int,
        field: PrimeField = DEFAULT_FIELD,
        round_hook: Optional[Callable[[], None]] = None,
    ):
        if len(members) < 3:
            raise ValueError("a committee needs at least 3 members")
        self.name = name
        self.members = list(members)
        self.field = field
        self.rng = rng
        self.bit_width = bit_width
        self.round_hook = round_hook
        self.engine = MPCEngine(
            len(members), field=field, rng=rng, bit_width=bit_width
        )
        self.engine.round_hook = round_hook

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def threshold(self) -> int:
        return self.engine.threshold

    # --------------------------------------------------------------- sharing

    def share_values(self, values: Sequence[int]) -> List[SecretValue]:
        """Secret-share cleartext values held inside this committee's MPC.

        Draws, shares, and counters match a per-value ``input_value`` loop.
        """
        return self.engine.input_values(values)

    def _redistribute(
        self,
        values: Sequence[SecretValue],
        dealer_pids: Sequence[int],
        engine: MPCEngine,
        rng: random.Random,
    ) -> List[SecretValue]:
        """One VSR round: ``dealer_pids``' shares of ``values`` into ``engine``."""
        columns = self.engine.export_columns(values)
        moved = redistribute_vector(
            {pid: columns[pid] for pid in dealer_pids},
            self.threshold,
            engine.threshold,
            engine.party_ids,
            self.field,
            rng,
        )
        return engine.input_columns(moved)

    # ------------------------------------------------------------------ VSR

    def send_via_vsr(
        self,
        values: Sequence[SecretValue],
        recipient: "Committee",
        exclude_members: Sequence[int] = (),
    ) -> List[SecretValue]:
        """Verifiably re-share ``values`` into the recipient's engine.

        In deployment the redistribution messages travel through the
        aggregator's mailbox, signed and encrypted; here the exchange is
        in-process but runs the full VSR protocol (Feldman-committed
        sub-shares, one check per dealer row). ``exclude_members`` drops
        those dealers' redistribution messages — the recovery path when a
        dealer's message is lost in transit: any surviving quorum of at
        least threshold+1 dealers reconstructs the identical secrets.
        """
        if recipient.field.modulus != self.field.modulus:
            raise ValueError("committees must share a field for VSR")
        excluded_pids = {
            self.members.index(m) + 1 for m in exclude_members if m in self.members
        }
        dealers = [pid for pid in self.engine.party_ids if pid not in excluded_pids]
        if len(dealers) < self.threshold + 1:
            raise VSRError(
                f"only {len(dealers)} dealers reachable; need a "
                f"quorum of {self.threshold + 1} to redistribute"
            )
        return self._redistribute(values, dealers, recipient.engine, self.rng)

    # ------------------------------------------------------- share recovery

    def recover_shares(
        self,
        vectors: Dict[str, List[SecretValue]],
        lost_members: Sequence[int],
        rng: random.Random,
    ) -> Dict[str, List[SecretValue]]:
        """Survive member loss *after* shares were dealt (§5.1 churn).

        The surviving members form a reconstruction quorum as long as at
        least ``threshold + 1`` of them remain (and at least 3, the
        honest-majority floor): they verifiably re-share every outstanding
        secret among themselves via VSR, the committee shrinks to the
        survivors, and a fresh engine (with the survivors' own threshold)
        adopts the re-shared values. The secrets are bit-identical — only
        the sharing polynomials change — so recovered executions produce
        exactly the fault-free answer.

        Raises :class:`CommitteeError` when the loss exceeds what Shamir
        reconstruction tolerates; the caller must then fail over or abort.
        """
        lost = set(lost_members)
        departed = [m for m in self.members if m in lost]
        if not departed:
            return vectors
        survivors = [m for m in self.members if m not in lost]
        quorum = self.threshold + 1
        if len(survivors) < max(3, quorum):
            raise CommitteeError(
                f"committee {self.name!r} lost {len(departed)} member(s); "
                f"{len(survivors)} survivor(s) cannot meet the "
                f"reconstruction quorum of {max(3, quorum)}"
            )
        surviving_pids = [self.members.index(m) + 1 for m in survivors]
        new_engine = MPCEngine(
            len(survivors), field=self.field, rng=rng, bit_width=self.bit_width
        )
        new_engine.round_hook = self.round_hook
        recovered = {
            label: self._redistribute(values, surviving_pids, new_engine, rng)
            for label, values in vectors.items()
        }
        self.members = survivors
        self.engine = new_engine
        return recovered


class CommitteeError(Exception):
    """Raised when no usable committee can be assembled."""


class CommitteePool:
    """Allocates committees from a sortition assignment, in order.

    The executor asks for committees one at a time; each request consumes
    the next block of selected devices. If the sortition round selected
    fewer committees than a small-scale plan needs, selection wraps around
    (the §5.1 fallback of reassigning tasks to committee i+1 mod c). The
    same fallback handles churn: a committee that lost more than the
    tolerated fraction of members to churn is skipped and its task moves
    to the next committee.
    """

    def __init__(
        self,
        committees: List[List[int]],
        rng: random.Random,
        bit_width: int,
        field: PrimeField = DEFAULT_FIELD,
        online_filter: Optional[Callable[[List[int]], List[int]]] = None,
        churn_tolerance: float = 0.25,
        round_hook: Optional[Callable[[], None]] = None,
    ):
        if not committees:
            raise ValueError("sortition produced no committees")
        self._memberships = committees
        self._next = 0
        self._rng = rng
        self._field = field
        self._bit_width = bit_width
        self._online_filter = online_filter
        self._churn_tolerance = churn_tolerance
        self._round_hook = round_hook
        self.allocated: List[Committee] = []
        self.skipped: List[List[int]] = []
        #: Indices into the sortition assignment already recorded as skipped;
        #: membership lists are not hashable and may repeat under wrap-around,
        #: so dedup happens on the index, not the list.
        self._skipped_indices: Set[int] = set()

    def _usable_members(self, members: List[int]) -> Optional[List[int]]:
        """Online members, or None if the committee lost too many (§5.1)."""
        if self._online_filter is None:
            return list(members)
        online = self._online_filter(members)
        minimum = max(3, int((1.0 - self._churn_tolerance) * len(members)))
        if len(online) < minimum:
            return None
        return online

    def allocate(self, name: str) -> Committee:
        attempts = 0
        while attempts < 2 * len(self._memberships):
            index = self._next % len(self._memberships)
            members = self._memberships[index]
            self._next += 1
            attempts += 1
            usable = self._usable_members(members)
            if usable is None:
                if index not in self._skipped_indices:
                    self._skipped_indices.add(index)
                    self.skipped.append(members)
                continue
            committee = Committee(
                name,
                usable,
                self._rng,
                field=self._field,
                bit_width=self._bit_width,
                round_hook=self._round_hook,
            )
            self.allocated.append(committee)
            return committee
        raise CommitteeError(
            f"no committee with enough online members for task {name!r}"
        )
