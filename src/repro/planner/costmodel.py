"""Benchmark-derived cost model (§4.6, §6).

Arboretum scores candidate plans with a simple cost model built by
benchmarking each building block — FHE operations, MPC start-up cost,
incremental MPC costs, ZKP proving/verification — on a reference platform,
then summing the per-operation costs of a plan. The model is not meant to
predict exact costs; it only needs to order candidates ("weed out expensive
candidates", §4.6).

Our constants are anchored to the numbers the paper reports for its
reference platform (PowerEdge R430, 2×E5-2620) and its device experiments
(Raspberry Pi 4): e.g. the key-generation committee costs ~700 MB of
traffic and ~14 minutes of computation per member at m=42 (§7.2), an
RSA-2048 signature takes 767 µs on the server and 6 ms on the Pi (§7.5,
fixing the ~8× device slowdown), and a BGV ciphertext at degree 2^15 with a
135-bit modulus is ~1.1 MB (§6). EXPERIMENTS.md records the calibration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple


# --------------------------------------------------------------------------
# The six metrics (§4.2)
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CostVector:
    """The six cost metrics the analyst can constrain and optimize (§4.2).

    Times are seconds (aggregator time is core-seconds); bytes are bytes.
    Participant costs come in expected (averaged over all devices, including
    the low probability of committee service) and maximum (a device that is
    actually selected for the most expensive committee) flavours.

    The planner allocates one of these per search node, so the class uses
    ``slots`` to keep instances dict-free.
    """

    aggregator_core_seconds: float = 0.0
    aggregator_bytes: float = 0.0
    participant_expected_seconds: float = 0.0
    participant_expected_bytes: float = 0.0
    participant_max_seconds: float = 0.0
    participant_max_bytes: float = 0.0

    METRICS = (
        "aggregator_core_seconds",
        "aggregator_bytes",
        "participant_expected_seconds",
        "participant_expected_bytes",
        "participant_max_seconds",
        "participant_max_bytes",
    )

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(
            self.aggregator_core_seconds + other.aggregator_core_seconds,
            self.aggregator_bytes + other.aggregator_bytes,
            self.participant_expected_seconds + other.participant_expected_seconds,
            self.participant_expected_bytes + other.participant_expected_bytes,
            # Max costs do not add across vignettes run by *different*
            # committees; the caller combines them explicitly. For
            # accumulation over a single entity's vignettes, plain addition
            # is correct, which is what plan scoring needs.
            self.participant_max_seconds + other.participant_max_seconds,
            self.participant_max_bytes + other.participant_max_bytes,
        )

    def get(self, metric: str) -> float:
        if metric not in self.METRICS:
            raise KeyError(f"unknown metric {metric!r}")
        return getattr(self, metric)

    def max_fields(self, other: "CostVector") -> "CostVector":
        """Component-wise maximum (used for per-committee max costs)."""
        return CostVector(
            max(self.aggregator_core_seconds, other.aggregator_core_seconds),
            max(self.aggregator_bytes, other.aggregator_bytes),
            max(self.participant_expected_seconds, other.participant_expected_seconds),
            max(self.participant_expected_bytes, other.participant_expected_bytes),
            max(self.participant_max_seconds, other.participant_max_seconds),
            max(self.participant_max_bytes, other.participant_max_bytes),
        )


@dataclass(frozen=True)
class Constraints:
    """Upper limits on any subset of the six metrics (§4.2); None = no limit."""

    aggregator_core_seconds: Optional[float] = None
    aggregator_bytes: Optional[float] = None
    participant_expected_seconds: Optional[float] = None
    participant_expected_bytes: Optional[float] = None
    participant_max_seconds: Optional[float] = None
    participant_max_bytes: Optional[float] = None

    def allows(self, cost: CostVector) -> bool:
        for metric in CostVector.METRICS:
            limit = getattr(self, metric)
            if limit is not None and cost.get(metric) > limit:
                return False
        return True

    def first_violation(self, cost: CostVector) -> Optional[str]:
        for metric in CostVector.METRICS:
            limit = getattr(self, metric)
            if limit is not None and cost.get(metric) > limit:
                return metric
        return None


@dataclass(frozen=True)
class Goal:
    """The metric to minimize among plans that satisfy the constraints.

    Comparison is lexicographic: the primary metric decides, and exact
    ties are broken by a composite of the other metrics (seconds weighted
    1:1, bytes at 1 MB ≈ 1 s), so that of two plans with identical
    expected participant time the planner prefers the one that is cheaper
    everywhere else. A weighted single float would not work here — the
    byte metrics reach petabytes, so any fixed weight either distorts the
    primary objective or underflows.
    """

    metric: str = "participant_expected_seconds"

    #: Relative tolerance within which two primary scores count as tied.
    TIE_EPS = 1e-9

    def __post_init__(self):
        if self.metric not in CostVector.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    def composite(self, cost: CostVector) -> float:
        total = 0.0
        for metric in CostVector.METRICS:
            value = cost.get(metric)
            if metric.endswith("bytes"):
                value *= 1e-6
            total += value
        return total

    def score(self, cost: CostVector) -> float:
        """The primary metric (used for bounds and reporting)."""
        return cost.get(self.metric)

    def is_tied(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.TIE_EPS * max(abs(a), abs(b), 1.0)

    def better(self, cost: CostVector, best_score: float, best_composite: float) -> bool:
        """Lexicographic comparison against the incumbent."""
        value = self.score(cost)
        if self.is_tied(value, best_score):
            return self.composite(cost) < best_composite
        return value < best_score


# --------------------------------------------------------------------------
# Device profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceProfile:
    """A class of machine, relative to the reference server core.

    ``speed`` scales computation times (reference core = 1.0; the paper's
    Raspberry Pi 4 proxy runs the same signature ~8× slower, §7.5).
    ``battery_volts`` converts watts to amps in the Fig 11 power model
    (``eval.power``).
    """

    name: str
    speed: float
    battery_volts: float = 3.85

    def seconds(self, reference_seconds: float) -> float:
        return reference_seconds / self.speed


REFERENCE_SERVER = DeviceProfile("poweredge-r430-core", speed=1.0)
PARTICIPANT_DEVICE = DeviceProfile("raspberry-pi-4", speed=0.125)


# --------------------------------------------------------------------------
# Abstract work: primitive operation counts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Work:
    """Primitive-operation counts for one entity instance in one vignette.

    The planner fills these in during expansion; the cost model turns them
    into seconds and bytes. Slot counts refer to ciphertext SIMD slots.
    A ``Work`` is an immutable value: the planner's emitters share one
    instance among every vignette, segment and plan of the process that
    counts the same work, so a changed count is a new value
    (``dataclasses.replace``), never a write to a shared one.
    """

    # Homomorphic encryption (counts are ciphertext operations).
    he_encryptions: float = 0.0
    he_additions: float = 0.0
    he_plain_mults: float = 0.0
    he_ct_mults: float = 0.0
    he_rotations: float = 0.0
    he_comparisons: float = 0.0  # slot-wise sign extraction, per ciphertext
    he_exponentiations: float = 0.0  # polynomial exp evaluation, per ciphertext
    ring_slots: float = 0.0  # slots per ciphertext these ops run at

    # TFHE boolean FHE (bootstrapped gates; no depth limit).
    tfhe_gates: float = 0.0
    tfhe_encryptions: float = 0.0  # per encrypted bit

    # Zero-knowledge proofs.
    zkp_proofs: float = 0.0
    zkp_constraint_slots: float = 0.0  # statement size per proof
    zkp_verifications: float = 0.0

    # Hashing / Merkle work.
    hash_bytes: float = 0.0

    # MPC (per committee member).
    mpc_setup: float = 0.0  # 1 if this vignette starts an MPC
    mpc_triples: float = 0.0
    mpc_rounds: float = 0.0
    mpc_comparisons: float = 0.0
    mpc_noise_samples: float = 0.0
    mpc_inputs: float = 0.0
    dist_decryptions: float = 0.0  # threshold decryptions, per ciphertext
    dist_keygens: float = 0.0
    vsr_elements_sent: float = 0.0
    vsr_elements_received: float = 0.0

    # Explicit payloads (already-sized traffic like uploads/downloads).
    payload_bytes_sent: float = 0.0
    payload_bytes_received: float = 0.0

    # Pre-computed time (e.g. cleartext postprocessing, sortition signing).
    fixed_seconds: float = 0.0

    def merge(self, other: "Work") -> "Work":
        counts = {
            name: getattr(self, name) + getattr(other, name) for name in _WORK_FIELD_NAMES
        }
        # ring_slots is a parameter, not a count: keep the larger ring.
        counts["ring_slots"] = max(self.ring_slots, other.ring_slots)
        return Work(**counts)

    def cache_key(self) -> int:
        """An interned value token for cost memoization.

        A ``Work`` is immutable, so its field values are hashed once, on the
        first call, and interned to a small integer that the instance keeps:
        structurally equal values share one token (and thus one cached cost
        entry), and the per-score cache lookup hashes an ``(int, int)`` pair
        instead of a 27-float tuple. Tokens are never reused, so one kept
        past a reset of the bounded intern table still names only its value.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            values = tuple(getattr(self, name) for name in _WORK_FIELD_NAMES)
            table = _WORK_KEY_INTERN
            key = table.get(values)
            if key is None:
                if len(table) >= _WORK_KEY_INTERN_LIMIT:
                    table.clear()
                key = table[values] = next(_WORK_TOKENS)
            self.__dict__["_cache_key"] = key
        return key


_WORK_FIELD_NAMES = tuple(f.name for f in fields(Work))
#: Work values -> token. Bounded: one planning pass over the catalog keys
#: about 200 values, and a full table is cleared rather than grown.
_WORK_KEY_INTERN: Dict[tuple, int] = {}
_WORK_KEY_INTERN_LIMIT = 1 << 14
_WORK_TOKENS = itertools.count()


# --------------------------------------------------------------------------
# Ciphertext geometry
# --------------------------------------------------------------------------
#
# The paper prices FHE rather than running it (§7.1), so BGV and TFHE exist
# here only as parameter and cost models; every ciphertext the runtime
# computes is Paillier.

#: Security-standard table (ciphertext-modulus bits -> minimum log2(ring
#: degree) for >=128-bit security), coarsened from the HE standard [6].
_SECURITY_TABLE = (
    (27, 10),
    (54, 11),
    (109, 12),
    (218, 13),
    (438, 14),
    (881, 15),
)

#: The BGV levels model: a modulus first pays for the base noise, then each
#: multiplicative level consumes the plaintext modulus (§6: summing binary
#: values over ~10^9 users needs ~2^31) plus ~20 bits of noise growth.
NOISE_FLOOR_BITS = 30
PER_LEVEL_BITS = 31 + 20

#: Smallest modulus that holds a depth-0 aggregate of a ~2^30 plaintext.
DEPTH0_MODULUS_BITS = 60

#: Serialized TFHE ciphertext: one LWE sample at n=630, 32-bit torus.
TFHE_CIPHERTEXT_BYTES = 2520.0


def min_ring_degree_log2(ciphertext_modulus_bits: int) -> int:
    """Smallest log2(N) that keeps >=128-bit security for a modulus size."""
    for max_bits, log_degree in _SECURITY_TABLE:
        if ciphertext_modulus_bits <= max_bits:
            return log_degree
    raise ValueError(
        f"no standard parameter set covers a {ciphertext_modulus_bits}-bit modulus"
    )


def comparison_gate_count(bits: int) -> int:
    """Bootstrapped gates one TFHE ``less_than`` needs: one AND for the
    first bit, then AND+XOR+AND+OR per remaining bit."""
    return 4 * bits - 3


def addition_gate_count(bits: int) -> int:
    """Bootstrapped gates one TFHE ripple-carry ``add_int`` needs."""
    return 5 * bits - 3


@dataclass(frozen=True)
class SchemeParams:
    """Ring geometry and modulus for one HE scheme instance."""

    name: str  # "ahe" or "fhe"
    ring_log2: int
    ciphertext_modulus_bits: int

    @property
    def slots(self) -> int:
        return 1 << self.ring_log2

    @property
    def levels(self) -> int:
        """Multiplicative depth this modulus supports (the BGV levels model)."""
        budget = self.ciphertext_modulus_bits - NOISE_FLOOR_BITS
        return max(0, budget // PER_LEVEL_BITS)

    @property
    def ciphertext_bytes(self) -> int:
        return 2 * self.slots * ((self.ciphertext_modulus_bits + 7) // 8)

    @property
    def public_key_bytes(self) -> int:
        return self.ciphertext_bytes

    @property
    def secret_key_elements(self) -> int:
        """Field elements in the secret key (one ring element)."""
        return self.slots


def ahe_params_for(categories: int) -> SchemeParams:
    """Smallest depth-0 BGV (AHE-only) ring that packs ``categories`` slots.

    Summing binary values across a billion users needs a ~2^30 plaintext
    modulus, which a 60-bit ciphertext modulus holds at depth 0 (§6). The
    ring starts at 2^11, one degree below what the security table asks of
    60 bits (2^12 above 54), so rows of up to 2^11 categories are priced
    below the table. ``enc-bgv-budget`` does not hold AHE to the table: the
    runtime's AHE is Paillier, so this ring is only a price.
    """
    ring_log2 = max(11, math.ceil(math.log2(max(categories, 1))))
    ring_log2 = min(ring_log2, 15)
    return SchemeParams("ahe", ring_log2, DEPTH0_MODULUS_BITS)


def fhe_params_for(categories: int, depth: int = 3) -> SchemeParams:
    """BGV ring for FHE work of the given multiplicative depth.

    The paper's typical query uses a 135-bit modulus at degree 2^15 (§6);
    deeper circuits scale the modulus (and thus ciphertext size) up by 50
    bits a level where the levels model charges 51, so the planner's depth
    6 is priced at 335 bits, which :attr:`SchemeParams.levels` says hold 5.
    """
    modulus_bits = 85 + 50 * max(depth - 2, 0) + (50 if depth >= 2 else 0)
    modulus_bits = max(modulus_bits, 85)
    ring_log2 = max(15, math.ceil(math.log2(max(categories, 1))))
    return SchemeParams("fhe", ring_log2, modulus_bits)


# --------------------------------------------------------------------------
# The model proper
# --------------------------------------------------------------------------


#: Default primitive costs, in seconds on the reference server core or in
#: bytes, anchored to §6/§7 (see module docstring and EXPERIMENTS.md).
DEFAULT_CONSTANTS: Dict[str, float] = {
    # HE per-slot costs.
    "he_add_per_slot": 4e-8,
    "he_encrypt_per_slot": 4e-7,
    "he_plain_mult_per_slot": 4e-7,
    "he_ct_mult_per_slot": 3e-6,
    "he_rotate_per_slot": 1.5e-6,
    "he_compare_per_slot": 1.2e-5,  # sign-extraction polynomial
    "he_exp_per_slot": 2.4e-5,  # degree-8 polynomial approximation
    # TFHE: ~100 bootstrapped gates/second per core (§3.2's estimate);
    # encryption of one bit is cheap.
    "tfhe_gate_seconds": 1e-2,
    "tfhe_encrypt_seconds": 5e-5,
    # ZKPs (Groth16 via bellman): one proof per 4096-slot circuit chunk
    # (proving-key sizes bound the circuit), proving scales with the
    # statement, verification is constant-time per proof.
    "zkp_chunk_slots": 4096.0,
    "zkp_prove_base": 0.5,
    "zkp_prove_per_slot": 6.0e-4,
    "zkp_verify": 1.5e-3,
    "zkp_proof_bytes": 256.0,
    # Hashing.
    "hash_per_byte": 5e-9,
    # MPC online/offline (per committee member; m = committee size).
    "mpc_setup_seconds": 30.0,
    "mpc_setup_bytes_per_peer": 50e3,
    "mpc_triple_seconds": 0.1,  # offline gen + online use, ~40 malicious parties
    "mpc_triple_bytes_per_peer": 96.0,
    "mpc_round_latency": 0.05,
    "mpc_comparison_triples": 180.0,  # edaBit + bitwise circuit
    "mpc_comparison_rounds": 12.0,  # log-depth prefix circuit
    # Joint noise sampling is the heaviest committee sub-protocol: a
    # fixpoint inverse-CDF circuit over jointly sampled bits (§6 uses the
    # base-2 construction of Ilvento).
    "mpc_noise_triples": 2000.0,
    "mpc_noise_rounds": 100.0,
    "mpc_input_bytes_per_peer": 16.0,
    # Threshold (distributed) decryption, per ciphertext per member:
    # malicious-secure partial decryption + share recombination.
    "dist_decrypt_seconds_per_slot": 4e-3,
    # Distributed BGV keygen, per member: ~20 s and ~17 MB per peer,
    # matching ~14 min and ~700 MB at m=42 (§7.2).
    "keygen_seconds_per_peer": 20.0,
    "keygen_bytes_per_peer": 17e6,
    # VSR: per redistributed field element per receiving member.
    "vsr_bytes_per_element": 32.0,
    "vsr_seconds_per_element": 1e-5,
    # Fixed per-round artifacts.
    "certificate_bytes": 4096.0,
    "merkle_path_bytes": 1024.0,
    "audit_leaves_per_device": 2.0,
    "sortition_signature_seconds": 767e-6,
}


class CostModel:
    """Maps Work to (seconds, bytes) for a device profile.

    One instance is built per deployment; constants can be overridden to
    model different reference platforms (the validation data in [44, §C]
    does exactly this).
    """

    def __init__(self, constants: Optional[Dict[str, float]] = None):
        self.constants = dict(DEFAULT_CONSTANTS)
        if constants:
            unknown = set(constants) - set(self.constants)
            if unknown:
                raise KeyError(f"unknown cost constants: {sorted(unknown)}")
            self.constants.update(constants)
        # Memoized (seconds, sent, received) per (work, committee size); the
        # planner scores the same emitted vignette at thousands of search
        # nodes, so the hit rate is very high. Counters are surfaced in
        # PlannerStatistics (`repro plan --stats`).
        self.cost_cache: Dict[tuple, Tuple[float, float, float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------- plumbing

    def cached_costs(self, work: Work, committee_size: int = 1) -> Tuple[float, float, float]:
        """Memoized ``(compute_seconds, traffic_bytes, received_bytes)``.

        Returns exactly the values the three underlying methods would — the
        cache only avoids recomputation, never changes a float — so callers
        that need bit-identical scores across cached/uncached paths can rely
        on it.
        """
        key = (work.cache_key(), committee_size)
        cached = self.cost_cache.get(key)
        if cached is None:
            self.cache_misses += 1
            cached = (
                self.compute_seconds(work, committee_size),
                self.traffic_bytes(work, committee_size),
                self.received_bytes(work, committee_size),
            )
            self.cost_cache[key] = cached
        else:
            self.cache_hits += 1
        return cached

    def compute_seconds(self, work: Work, committee_size: int = 1) -> float:
        """Reference-core seconds for one entity instance's work."""
        c = self.constants
        slots = max(work.ring_slots, 1.0)
        seconds = work.fixed_seconds
        seconds += work.he_encryptions * slots * c["he_encrypt_per_slot"]
        seconds += work.he_additions * slots * c["he_add_per_slot"]
        seconds += work.he_plain_mults * slots * c["he_plain_mult_per_slot"]
        seconds += work.he_ct_mults * slots * c["he_ct_mult_per_slot"]
        seconds += work.he_rotations * slots * c["he_rotate_per_slot"]
        seconds += work.he_comparisons * slots * c["he_compare_per_slot"]
        seconds += work.he_exponentiations * slots * c["he_exp_per_slot"]
        seconds += work.tfhe_gates * c["tfhe_gate_seconds"]
        seconds += work.tfhe_encryptions * c["tfhe_encrypt_seconds"]
        seconds += work.zkp_proofs * (
            c["zkp_prove_base"] + work.zkp_constraint_slots * c["zkp_prove_per_slot"]
        )
        seconds += work.zkp_verifications * c["zkp_verify"]
        seconds += work.hash_bytes * c["hash_per_byte"]
        # MPC: triples cover offline+online compute; rounds add latency.
        triples = work.mpc_triples
        triples += work.mpc_comparisons * c["mpc_comparison_triples"]
        triples += work.mpc_noise_samples * c["mpc_noise_triples"]
        seconds += work.mpc_setup * c["mpc_setup_seconds"]
        seconds += triples * c["mpc_triple_seconds"]
        rounds = work.mpc_rounds
        rounds += work.mpc_comparisons * c["mpc_comparison_rounds"]
        rounds += work.mpc_noise_samples * c["mpc_noise_rounds"]
        seconds += rounds * c["mpc_round_latency"]
        seconds += work.dist_decryptions * slots * c["dist_decrypt_seconds_per_slot"]
        seconds += work.dist_keygens * committee_size * c["keygen_seconds_per_peer"]
        seconds += (
            (work.vsr_elements_sent + work.vsr_elements_received)
            * c["vsr_seconds_per_element"]
        )
        return seconds

    def traffic_bytes(self, work: Work, committee_size: int = 1) -> float:
        """Bytes sent by one entity instance for its work."""
        c = self.constants
        peers = max(committee_size - 1, 0)
        bytes_sent = work.payload_bytes_sent
        triples = work.mpc_triples
        triples += work.mpc_comparisons * c["mpc_comparison_triples"]
        triples += work.mpc_noise_samples * c["mpc_noise_triples"]
        bytes_sent += work.mpc_setup * peers * c["mpc_setup_bytes_per_peer"]
        bytes_sent += triples * peers * c["mpc_triple_bytes_per_peer"]
        bytes_sent += work.mpc_inputs * peers * c["mpc_input_bytes_per_peer"]
        bytes_sent += work.dist_keygens * peers * c["keygen_bytes_per_peer"]
        bytes_sent += (
            work.vsr_elements_sent * committee_size * c["vsr_bytes_per_element"]
        )
        bytes_sent += work.zkp_proofs * c["zkp_proof_bytes"]
        return bytes_sent

    def received_bytes(self, work: Work, committee_size: int = 1) -> float:
        """Bytes received (relevant for the aggregator-forwarding metric)."""
        c = self.constants
        received = work.payload_bytes_received
        received += (
            work.vsr_elements_received * committee_size * c["vsr_bytes_per_element"]
        )
        return received

    def device_seconds(self, work: Work, device: DeviceProfile, committee_size: int = 1) -> float:
        return device.seconds(self.compute_seconds(work, committee_size))

    # --------------------------------------------------------- calibration

    @classmethod
    def calibrated_from_engine(
        cls,
        num_parties: int = 8,
        operations: int = 32,
        platform_scale: float = 1.0,
        seed: int = 0,
    ) -> "CostModel":
        """Build a model by benchmarking the real MPC engine (CostCO-style).

        §4.6 notes that manual benchmarking could be replaced by an
        automated cost-modeling framework like CostCO. This constructor
        does the local-framework equivalent: it times multiplications and
        comparisons on the in-process MPC engine, reads the protocol's
        actual triple/round counts from its counters, and derives the MPC
        constants from the measurements. ``platform_scale`` maps the
        in-process simulation onto a real deployment's per-party speed
        (1.0 keeps raw measurements).

        Only the MPC constants are replaced; HE/ZKP constants keep their
        paper-anchored defaults.
        """
        import random as _random
        import time as _time

        from ..mpc.engine import DEFAULT_BIT_WIDTH, MPCEngine

        rng = _random.Random(seed)
        engine = MPCEngine(num_parties, rng=rng, bit_width=DEFAULT_BIT_WIDTH)
        values = [engine.input_value(rng.randrange(1000)) for _ in range(2 * operations)]

        start = _time.perf_counter()
        for i in range(operations):
            engine.mul(values[2 * i], values[2 * i + 1])
        mul_elapsed = _time.perf_counter() - start
        triples_per_mul = engine.counters.triples_consumed / operations

        before = engine.counters.snapshot()
        start = _time.perf_counter()
        for i in range(operations):
            engine.less_than(values[2 * i], values[2 * i + 1])
        cmp_elapsed = _time.perf_counter() - start
        cmp_triples = (
            engine.counters.triples_consumed - before.triples_consumed
        ) / operations
        cmp_rounds = (engine.counters.rounds - before.rounds) / operations

        triple_seconds = (mul_elapsed / operations / triples_per_mul) * platform_scale
        constants = {
            "mpc_triple_seconds": max(triple_seconds, 1e-9),
            "mpc_comparison_triples": max(cmp_triples, 1.0),
            "mpc_comparison_rounds": max(cmp_rounds, 1.0),
        }
        # Sanity: comparison time implied by the derived constants should
        # be within an order of magnitude of the direct measurement.
        implied = constants["mpc_comparison_triples"] * constants["mpc_triple_seconds"]
        measured = cmp_elapsed / operations * platform_scale
        if implied > 0 and not 0.05 < measured / implied < 20.0:
            constants["mpc_triple_seconds"] = measured / constants["mpc_comparison_triples"]
        return cls(constants)
