"""Packed vs one-ciphertext-per-slot intake: byte-identical execution results.

The numpy slot kernels, Paillier slot packing, and tree reductions may
change *how fast* the runtime computes, never *what* it computes. Under
identical seeds a run with slot packing and its unpacked twin — the same
shard pipeline, one ciphertext per logical slot — must release identical
``QueryResult``s — outputs, rejected devices, audit verdicts, committee
usage, event logs, certificates — and identical DP accounting, in
fault-free runs and across injected-fault recovery schedules alike.
"""

import random

import numpy as np
import pytest

from repro.crypto import bgv, paillier
from repro.crypto.field import MERSENNE_127, PrimeField
from repro.faults import FaultInjector, get_scenario
from repro.mpc.engine import MPCEngine
from repro.planner.search import plan_query
from repro.privacy.accountant import PrivacyAccountant
from repro.queries.catalog import get
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from repro.runtime.packing import SlotPacking, plan_packing
from tests.conftest import small_env

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"


class UnpackedExecutor(QueryExecutor):
    """The same intake with packing declined: one ciphertext per logical slot."""

    def _plan_packing(self, public_key, bins):
        return None


EXECUTORS = {"packed": QueryExecutor, "unpacked": UnpackedExecutor}


def _run(
    layout,
    devices=32,
    seed=11,
    malicious_fraction=0.0,
    scenario=None,
    accountant=None,
    source=TOP1,
    numeric=None,
    categories=8,
):
    env = small_env(num_participants=devices, categories=categories, epsilon=8.0)
    planning = plan_query(source, env, name="equiv")
    network = FederatedNetwork(
        devices, rng=random.Random(seed), malicious_fraction=malicious_fraction
    )
    if numeric is not None:
        network.load_numeric_data(*numeric, width=categories)
    else:
        network.load_categorical_data(categories)
    faults = (
        FaultInjector(get_scenario(scenario), seed=seed) if scenario else None
    )
    executor = EXECUTORS[layout](
        network,
        planning,
        committee_size=4,
        key_prime_bits=96,
        rng=random.Random(seed + 1),
        accountant=accountant,
        faults=faults,
    )
    return executor.run()


def _fault_trail(log):
    return [(r.fault.kind, r.detection, r.recovery, r.outcome) for r in log.records]


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", [3, 11, 21])
    def test_plain_runs_byte_identical(self, seed):
        unpacked = _run("unpacked", seed=seed)
        packed = _run("packed", seed=seed)
        # QueryResult equality covers outputs, rejected devices, audits,
        # committees, epsilon, events, and the authorization certificate
        # (statistics are excluded from equality by design).
        assert unpacked == packed
        assert packed.statistics.packing_lanes > 1  # packing engaged

    def test_malicious_uploads_rejected_identically(self):
        unpacked = _run("unpacked", seed=21, malicious_fraction=0.25)
        packed = _run("packed", seed=21, malicious_fraction=0.25)
        assert unpacked.rejected_devices  # the seed produced some
        assert unpacked == packed

    def test_numeric_range_rows_byte_identical(self):
        # Unsigned numeric rows: packing uses the ZKP range bound.
        base = small_env(num_participants=40, categories=4, epsilon=8.0)
        env = type(base)(
            num_participants=40,
            row_width=4,
            db_element=base.db_element,
            epsilon=8.0,
            sensitivity=1.0,
            row_encoding="bounded",
        )
        source = "aggr = sum(db); n = laplace(aggr[0], sens / epsilon); output(n);"
        planning = plan_query(source, env, name="bounded")

        def run(layout):
            network = FederatedNetwork(
                40, rng=random.Random(7), malicious_fraction=0.15
            )
            network.load_numeric_data(0, 1, width=4)
            executor = EXECUTORS[layout](
                network,
                planning,
                committee_size=4,
                key_prime_bits=96,
                rng=random.Random(8),
            )
            return executor.run()

        unpacked = run("unpacked")
        packed = run("packed")
        assert unpacked == packed
        assert packed.statistics.packing_lanes > 1

    def test_dp_accounting_identical(self):
        acc_unpacked = PrivacyAccountant(epsilon_budget=64.0, delta_budget=1e-6)
        acc_packed = PrivacyAccountant(epsilon_budget=64.0, delta_budget=1e-6)
        unpacked = _run("unpacked", seed=5, accountant=acc_unpacked)
        packed = _run("packed", seed=5, accountant=acc_packed)
        assert unpacked == packed
        assert acc_unpacked == acc_packed
        assert unpacked.epsilon_charged == packed.epsilon_charged

    @pytest.mark.parametrize("scenario", ["keygen-loss", "vsr-loss"])
    def test_chaos_recovery_byte_identical(self, scenario):
        unpacked = _run("unpacked", seed=5, scenario=scenario)
        packed = _run("packed", seed=5, scenario=scenario)
        assert unpacked.fault_log.records  # the scenario actually fired
        assert unpacked.outputs == packed.outputs
        assert unpacked.rejected_devices == packed.rejected_devices
        assert unpacked.audits_failed == packed.audits_failed
        assert unpacked.committees_used == packed.committees_used
        assert unpacked.events == packed.events
        assert unpacked.epsilon_charged == packed.epsilon_charged
        assert _fault_trail(unpacked.fault_log) == _fault_trail(packed.fault_log)

    def test_garbage_upload_chaos_byte_identical(self):
        unpacked = _run("unpacked", seed=5, scenario="garbage-upload")
        packed = _run("packed", seed=5, scenario="garbage-upload")
        assert unpacked.rejected_devices  # garbage uploads were injected
        assert unpacked.rejected_devices == packed.rejected_devices
        assert unpacked.outputs == packed.outputs
        assert unpacked.events == packed.events
        assert _fault_trail(unpacked.fault_log) == _fault_trail(packed.fault_log)

    def test_chaos_matches_fault_free_twin_under_packing(self):
        spec = get("top1")
        env = spec.environment(32, categories=8, epsilon=8.0)
        planning = plan_query(spec.source, env, name=spec.name)

        def run(scenario):
            net = FederatedNetwork(32, rng=random.Random(5))
            net.load_categorical_data(8, distribution=[20, 4, 1, 1, 1, 1, 1, 1])
            executor = QueryExecutor(
                net,
                planning,
                committee_size=4,
                key_prime_bits=96,
                rng=random.Random(6),
                faults=FaultInjector(get_scenario(scenario), seed=5),
            )
            return executor.run()

        baseline = run("none")
        recovered = run("decrypt-crash")
        assert recovered.outputs == baseline.outputs
        assert recovered.fault_log.all_recovered
        assert baseline.statistics.packing_lanes > 1

    def test_statistics_populated(self):
        stats = _run("packed", seed=3).statistics
        assert stats.uploads_submitted == 32
        assert stats.uploads_verified == 32
        assert stats.logical_width == 8
        assert stats.packing_lanes > 1
        assert stats.packed_width < stats.logical_width
        assert stats.submit_seconds > 0
        assert stats.uploads_verified_per_second > 0
        unpacked = _run("unpacked", seed=3).statistics
        assert unpacked.packing_lanes == 1
        assert unpacked.packed_width == unpacked.logical_width

    def test_unknown_data_plane_rejected(self):
        # bench/ still passes data_plane="sharded"; no other value exists.
        env = small_env(num_participants=8)
        planning = plan_query(TOP1, env, name="q")
        network = FederatedNetwork(8, rng=random.Random(1))
        network.load_categorical_data(8)
        for plane in ("legacy", "vectorized", "simd", ""):
            with pytest.raises(ValueError, match="data plane"):
                QueryExecutor(network, planning, rng=random.Random(2), data_plane=plane)
        QueryExecutor(network, planning, rng=random.Random(2), data_plane="sharded")


class TestKernelEquivalence:
    """The array kernels against inline copies of the seed algorithms."""

    def test_bgv_ops_match_seed_tuple_kernels(self):
        params = bgv.BGVParams(ring_degree_log2=12, ciphertext_modulus_bits=109)
        sk = bgv.keygen(params, random.Random(0))
        rng = random.Random(1)
        t = params.plaintext_modulus
        a = [rng.randrange(t) for _ in range(params.slots)]
        b = [rng.randrange(t) for _ in range(params.slots)]
        ct_a = bgv.encrypt(sk.public, a)
        ct_b = bgv.encrypt(sk.public, b)
        assert bgv.decrypt(sk, bgv.add(ct_a, ct_b)) == [
            (x + y) % t for x, y in zip(a, b)
        ]
        assert bgv.decrypt(sk, bgv.sub(ct_a, ct_b)) == [
            (x - y) % t for x, y in zip(a, b)
        ]
        assert bgv.decrypt(sk, bgv.multiply_plain(ct_a, b)) == [
            (x * y) % t for x, y in zip(a, b)
        ]
        for k in (1, 7, params.slots - 1):
            assert bgv.decrypt(sk, bgv.rotate(ct_a, k)) == list(a[k:] + a[:k])

    def test_bgv_sum_matches_linear_fold(self):
        params = bgv.BGVParams(ring_degree_log2=10, ciphertext_modulus_bits=27)
        sk = bgv.keygen(params, random.Random(0))
        rng = random.Random(2)
        t = params.plaintext_modulus
        cts = [
            bgv.encrypt(sk.public, [rng.randrange(t) for _ in range(params.slots)])
            for _ in range(37)
        ]
        folded = cts[0]
        for ct in cts[1:]:
            folded = bgv.add(folded, ct)
        stacked = bgv.sum_ciphertexts(cts)
        assert bgv.decrypt(sk, stacked) == bgv.decrypt(sk, folded)
        assert stacked.level == folded.level

    def test_paillier_tree_sum_matches_linear_fold(self):
        sk = paillier.keygen(64, random.Random(0))
        rng = random.Random(1)
        cts = [paillier.encrypt(sk.public, i, rng) for i in range(11)]
        folded = cts[0]
        for ct in cts[1:]:
            folded = paillier.add_ciphertexts(folded, ct)
        assert paillier.sum_ciphertexts(cts) == folded

    def test_paillier_split_encrypt_matches_encrypt(self):
        sk = paillier.keygen(64, random.Random(0))
        rng_a, rng_b = random.Random(5), random.Random(5)
        direct = paillier.encrypt(sk.public, 41, rng_a)
        r = paillier.draw_obfuscator(sk.public, rng_b)
        assert paillier.encrypt_with_obfuscator(sk.public, 41, r) == direct
        assert rng_a.getrandbits(32) == rng_b.getrandbits(32)

    def test_mpc_input_values_matches_input_value_loop(self):
        def build():
            return MPCEngine(5, field=PrimeField(MERSENNE_127), rng=random.Random(3))

        batched_engine, loop_engine = build(), build()
        values = [5, -7, 0, 123, -1]
        batched = batched_engine.input_values(values)
        looped = [loop_engine.input_value(v) for v in values]
        assert [sv.ys for sv in batched] == [sv.ys for sv in looped]
        assert vars(batched_engine.counters) == vars(loop_engine.counters)
        assert batched_engine.rng.random() == loop_engine.rng.random()

    def test_mpc_tree_sum_matches_linear_fold(self):
        engine = MPCEngine(5, field=PrimeField(MERSENNE_127), rng=random.Random(3))
        values = engine.input_values(list(range(-3, 10)))
        assert engine.open(engine.sum_values(values)) == sum(range(-3, 10))
        assert engine.open(engine.sum_values([])) == 0
        assert engine.open(engine.sum_values(values[:1])) == -3


class TestSlotPacking:
    def test_pack_unpack_roundtrip(self):
        packing = SlotPacking(width=10, slot_bits=7, lanes=3)
        vector = [1, 0, 5, 9, 0, 0, 2, 0, 0, 1]
        assert packing.packed_width == 4
        assert packing.unpack(packing.pack(vector)) == vector

    def test_pack_unpack_roundtrip_across_lane_shapes(self):
        # One lane, a ragged last word, the planner's 15 x 8 layout, and
        # lanes wider than a machine word's half.
        rng = random.Random(8)
        for lanes, slot_bits in ((1, 8), (3, 7), (15, 8), (4, 33)):
            packing = SlotPacking(width=2 * lanes + 1, slot_bits=slot_bits, lanes=lanes)
            vector = [rng.randrange(1 << slot_bits) for _ in range(packing.width)]
            packed = packing.pack(vector)
            assert packed == [
                sum(v << (i * slot_bits) for i, v in enumerate(vector[s : s + lanes]))
                for s in range(0, packing.width, lanes)
            ]
            assert packing.unpack(packed) == vector

    def test_packed_sum_equals_slotwise_sum(self):
        packing = SlotPacking(width=8, slot_bits=12, lanes=4)
        rng = random.Random(0)
        vectors = [[rng.randrange(16) for _ in range(8)] for _ in range(50)]
        packed_total = [0] * packing.packed_width
        for v in vectors:
            for j, p in enumerate(packing.pack(v)):
                packed_total[j] += p
        expected = [sum(col) for col in zip(*vectors)]
        assert packing.unpack(packed_total) == expected

    def test_unpack_detects_lane_overflow(self):
        packing = SlotPacking(width=2, slot_bits=4, lanes=2)
        with pytest.raises(ValueError, match="overflow"):
            packing.unpack([1 << 8])
        assert packing.unpack([1 << 8], check=False)  # masked, no raise

    def test_plan_packing_bounds(self):
        # 64 devices of one-hot bits -> 7+1 slot bits; 127 usable bits -> 15 lanes.
        packing = plan_packing(32, 64, (1 << 127) - 1)
        assert packing.lanes == 15 and packing.slot_bits == 8
        # Lanes never exceed the width.
        assert plan_packing(4, 64, (1 << 127) - 1).lanes == 4
        # Too-large sums leave fewer than 2 lanes: packing declined.
        assert plan_packing(8, 1 << 80, (1 << 127) - 1) is None
        with pytest.raises(ValueError):
            plan_packing(0, 1, 1 << 64)

    def test_pack_rejects_wrong_width(self):
        packing = SlotPacking(width=4, slot_bits=8, lanes=2)
        with pytest.raises(ValueError):
            packing.pack([1, 2, 3])
        with pytest.raises(ValueError):
            packing.unpack([1, 2, 3])


class TestNumpyBackingInvariants:
    def test_slots_are_int64_on_fast_path(self):
        params = bgv.BGVParams()  # t = 2^30 qualifies
        sk = bgv.keygen(params, random.Random(0))
        ct = bgv.encrypt(sk.public, [1, 2, 3])
        assert isinstance(ct.slots, np.ndarray)
        assert ct.slots.dtype == np.int64

    def test_decrypt_returns_python_ints(self):
        params = bgv.BGVParams()
        sk = bgv.keygen(params, random.Random(0))
        values = bgv.decrypt(sk, bgv.encrypt(sk.public, [5, 7]), count=2)
        assert values == [5, 7]
        assert all(type(v) is int for v in values)
