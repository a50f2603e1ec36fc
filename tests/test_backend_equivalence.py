"""Differential fuzz suite: crypto backends must be bit-identical.

The backend PR's contract is the same one every perf PR in this repo has
carried: a backend may change *how fast* a kernel runs, never *what* it
computes. ``PureBackend`` is the oracle — the seed's pure-python/numpy
kernels, unchanged — and every other backend must reproduce its outputs
exactly: same Python ints, same numpy dtypes, same ciphertext bytes,
same shares, same end-to-end ``QueryResult``s under identical seeds, in
fault-free runs, under chaos scenarios, and across journal crash-resume.

In this container gmpy2/numba are typically absent, so the accelerated
backend exercises its gated fallbacks plus the algorithmic accelerations
that need no compiled library (Montgomery batch inversion). When the
libraries *are* present (the CI ``accel`` job), the identical assertions
pin the mpz/jitted kernels to the oracle — that is the point of the
suite: one set of assertions, any backend.
"""

import random

import numpy as np
import pytest

from repro.crypto import bgv, paillier, shamir, vsr
from repro.crypto.backend import (
    AcceleratedBackend,
    PureBackend,
    active_backend_name,
    describe_backends,
    get_backend,
    selection_reason,
    set_backend,
    use_backend,
)
from repro.crypto.field import MERSENNE_61, MERSENNE_127, PrimeField
from repro.faults import FaultInjector, get_scenario
from repro.planner.search import plan_query
from repro.runtime.executor import QueryExecutor
from repro.runtime.network import FederatedNetwork
from repro.runtime.journal import ExecutionJournal, run_to_completion
from tests.conftest import small_env

BACKENDS = ["pure", "accel"]
TOP1 = "aggr = sum(db); r = em(aggr); output(r);"


@pytest.fixture(autouse=True)
def _restore_backend():
    """Never leak a forced backend into other test modules."""
    yield
    set_backend(None)


def _oracle_and_subject():
    return PureBackend(), AcceleratedBackend()


# ------------------------------------------------------------ kernel fuzz


class TestKernelEquivalence:
    """Every kernel, fuzzed against the pure oracle."""

    def test_powmod_matches_oracle(self):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(0)
        for bits in (16, 64, 256, 1024):
            mod = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            for _ in range(20):
                base = rng.getrandbits(bits)
                exp = rng.getrandbits(bits)
                got = subject.powmod(base, exp, mod)
                assert got == oracle.powmod(base, exp, mod)
                assert type(got) is int

    def test_powmod_vector_matches_oracle(self):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(1)
        mod = rng.getrandbits(512) | (1 << 511) | 1
        exp = rng.getrandbits(512)
        bases = [rng.getrandbits(512) for _ in range(33)]
        got = subject.powmod_vector(bases, exp, mod)
        assert got == oracle.powmod_vector(bases, exp, mod)
        assert all(type(v) is int for v in got)
        assert subject.powmod_vector([], exp, mod) == []

    def test_powmod_base_vector_matches_oracle(self):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(2)
        mod = rng.getrandbits(384) | (1 << 383) | 1
        base = rng.getrandbits(384) % mod
        exps = [rng.getrandbits(256) for _ in range(17)] + [0, 1]
        got = subject.powmod_base_vector(base, exps, mod)
        assert got == oracle.powmod_base_vector(base, exps, mod)
        assert all(type(v) is int for v in got)

    def test_invmod_matches_oracle_including_failure(self):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(3)
        p = MERSENNE_61
        for _ in range(50):
            a = rng.randrange(1, p)
            assert subject.invmod(a, p) == oracle.invmod(a, p)
        # Non-invertible inputs fail with the same typed error.
        with pytest.raises(ValueError):
            oracle.invmod(0, p)
        with pytest.raises(ValueError):
            subject.invmod(0, p)
        with pytest.raises(ValueError):
            subject.invmod(6, 9)

    @pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_127])
    def test_batch_invmod_matches_oracle(self, modulus):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(4)
        for size in (0, 1, 2, 7, 64):
            values = [rng.randrange(1, modulus) for _ in range(size)]
            got = subject.batch_invmod(values, modulus)
            assert got == oracle.batch_invmod(values, modulus)
            for v, inv in zip(values, got):
                assert v * inv % modulus == 1

    def test_batch_invmod_montgomery_is_exact(self):
        # The accelerated path is Montgomery's trick even without gmpy2;
        # negative and > mod inputs must reduce identically to the oracle.
        oracle, subject = _oracle_and_subject()
        p = 2**61 - 1
        values = [-3, 5, p + 7, 2 * p - 1, 1]
        assert subject.batch_invmod(values, p) == oracle.batch_invmod(values, p)

    def test_batch_invmod_zero_defers_to_per_element_error(self):
        _, subject = _oracle_and_subject()
        with pytest.raises(ValueError):
            subject.batch_invmod([3, 0, 5], MERSENNE_61)

    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_slot_ops_match_oracle(self, dtype):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(5)
        t = (1 << 30) + 3 if dtype == "int64" else (1 << 80) + 13
        if dtype == "int64":
            a = np.array([rng.randrange(t) for _ in range(64)], dtype=np.int64)
            b = np.array([rng.randrange(t) for _ in range(64)], dtype=np.int64)
        else:
            a = np.array([rng.randrange(t) for _ in range(64)], dtype=object)
            b = np.array([rng.randrange(t) for _ in range(64)], dtype=object)
        for op in ("slot_add", "slot_sub", "slot_mul"):
            want = getattr(oracle, op)(a, b, t)
            got = getattr(subject, op)(a, b, t)
            assert got.dtype == want.dtype
            assert list(got) == list(want)

    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_sum_slots_matches_oracle(self, dtype):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(6)
        t = (1 << 30) + 3 if dtype == "int64" else (1 << 80) + 13
        np_dtype = np.int64 if dtype == "int64" else object
        stack = np.array(
            [[rng.randrange(t) for _ in range(16)] for _ in range(97)],
            dtype=np_dtype,
        )
        want = oracle.sum_slots(stack, t)
        got = subject.sum_slots(stack, t)
        assert got.dtype == want.dtype
        assert list(got) == list(want)
        # Cross-check against the direct python sum.
        assert list(want) == [
            sum(int(stack[i, j]) for i in range(stack.shape[0])) % t
            for j in range(stack.shape[1])
        ]

    def test_sum_slots_chunking_never_overflows_int64(self):
        # Slot values right at t-1 with a t large enough that an unchunked
        # 9-row column sum would overflow a signed 64-bit partial sum
        # (9 * (2^61 - 1) > 2^63): the chunk bound (3 rows here) must kick
        # in and keep every partial within the machine word.
        oracle, subject = _oracle_and_subject()
        t = 1 << 61
        stack = np.full((9, 4), t - 1, dtype=np.int64)
        want = [(9 * (t - 1)) % t] * 4
        assert list(oracle.sum_slots(stack, t)) == want
        assert list(subject.sum_slots(stack, t)) == want

    @pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_127])
    def test_matmul_matvec_match_oracle(self, modulus):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(7)
        a = np.array(
            [[rng.randrange(modulus) for _ in range(5)] for _ in range(9)],
            dtype=object,
        )
        b = np.array(
            [[rng.randrange(modulus) for _ in range(7)] for _ in range(5)],
            dtype=object,
        )
        v = np.array([rng.randrange(modulus) for _ in range(5)], dtype=object)
        want = oracle.matmul_mod(a, b, modulus)
        got = subject.matmul_mod(a, b, modulus)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()
        assert list(subject.matvec_mod(a, v, modulus)) == list(
            oracle.matvec_mod(a, v, modulus)
        )

    def test_pack_unpack_lanes_match_oracle(self):
        oracle, subject = _oracle_and_subject()
        rng = random.Random(8)
        for lanes, slot_bits in ((1, 8), (3, 7), (15, 8), (4, 33)):
            values = [rng.randrange(1 << slot_bits) for _ in range(lanes)]
            packed = oracle.pack_lanes(values, slot_bits)
            assert subject.pack_lanes(values, slot_bits) == packed
            assert subject.unpack_lanes(packed, slot_bits, lanes) == values
            assert oracle.unpack_lanes(packed, slot_bits, lanes) == values


# ----------------------------------------------------- primitive identity


class TestPrimitiveEquivalence:
    """Whole-primitive byte identity under pinned backends."""

    def _paillier_transcript(self):
        sk = paillier.keygen(128, random.Random(0))
        rng = random.Random(1)
        cts = [paillier.encrypt(sk.public, m, rng) for m in range(8)]
        total = paillier.sum_ciphertexts(cts)
        scaled = paillier.mul_plain(cts[3], 17)
        return (
            sk.lam,
            sk.mu,
            [ct.value for ct in cts],
            total.value,
            scaled.value,
            paillier.decrypt(sk, total),
            rng.getrandbits(64),  # the RNG stream position must match too
        )

    def test_paillier_ciphertexts_byte_identical(self):
        with use_backend("pure"):
            want = self._paillier_transcript()
        with use_backend("accel"):
            got = self._paillier_transcript()
        assert got == want

    def test_paillier_pad_precompute_matches_per_element(self):
        sk = paillier.keygen(96, random.Random(2))
        rng = random.Random(3)
        obfuscators = [paillier.draw_obfuscator(sk.public, rng) for _ in range(16)]
        for name in BACKENDS:
            with use_backend(name):
                pads = paillier.precompute_pads(sk.public, obfuscators)
                assert pads == [
                    get_backend().powmod(r, sk.public.n, sk.public.n_squared)
                    for r in obfuscators
                ]

    def _shamir_transcript(self, modulus):
        field = PrimeField(modulus)
        shamir.lagrange_weights.cache_clear()  # computed by the active backend
        rng = random.Random(4)
        values = [rng.randrange(field.modulus) for _ in range(13)]
        party_ids = [1, 2, 3, 5, 8]
        shares = shamir.share_vector(values, 2, party_ids, field, rng)
        rows = [
            [shares[pid][i] for pid in party_ids] for i in range(len(values))
        ]
        points = [shares[pid][0] for pid in party_ids[:3]]
        return (
            shares,
            [shamir.reconstruct_secret(row, field) for row in rows],
            shamir.reconstruct_secret(points, field),
            rng.random(),
        )

    @pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_127])
    def test_shamir_shares_byte_identical(self, modulus):
        with use_backend("pure"):
            want = self._shamir_transcript(modulus)
        with use_backend("accel"):
            got = self._shamir_transcript(modulus)
        assert got == want

    def _vsr_transcript(self, modulus):
        field = PrimeField(modulus)
        # Weights and the generator's table are cached: clear both so that
        # the active backend really computes them.
        shamir.lagrange_weights.cache_clear()
        get_backend()._comb.cache_clear()
        rng = random.Random(7)
        old = {x: [rng.randrange(modulus) for _ in range(9)] for x in (2, 3, 5, 8, 13)}
        moved = vsr.redistribute_vector(old, 2, 1, [1, 4, 6, 7], field, rng)
        assert get_backend()._comb.cache_info().misses == 1
        return moved, rng.random()

    @pytest.mark.parametrize("modulus", [MERSENNE_61, MERSENNE_127])
    def test_vsr_hand_off_byte_identical(self, modulus):
        with use_backend("pure"):
            want = self._vsr_transcript(modulus)
        with use_backend("accel"):
            got = self._vsr_transcript(modulus)
        assert got == want

    def test_lagrange_coefficients_byte_identical(self):
        field = PrimeField(MERSENNE_127)
        ids = [1, 2, 3, 7, 11, 40]
        # The weights are cached per point set: clear so that each backend
        # really computes them.
        with use_backend("pure"):
            shamir.lagrange_weights.cache_clear()
            want = shamir.lagrange_coefficients_at_zero(ids, field)
        with use_backend("accel"):
            shamir.lagrange_weights.cache_clear()
            got = shamir.lagrange_coefficients_at_zero(ids, field)
        assert got == want

    def _bgv_transcript(self, params):
        sk = bgv.keygen(params, random.Random(5))
        rng = random.Random(6)
        t = params.plaintext_modulus
        a = [rng.randrange(t) for _ in range(params.slots)]
        b = [rng.randrange(t) for _ in range(params.slots)]
        ct_a, ct_b = bgv.encrypt(sk.public, a), bgv.encrypt(sk.public, b)
        cts = [ct_a, ct_b, bgv.add(ct_a, ct_b)]
        return (
            bgv.decrypt(sk, bgv.add(ct_a, ct_b)),
            bgv.decrypt(sk, bgv.sub(ct_a, ct_b)),
            bgv.decrypt(sk, bgv.multiply(ct_a, ct_b)),
            bgv.decrypt(sk, bgv.multiply_plain(ct_a, b)),
            bgv.decrypt(sk, bgv.sum_ciphertexts(cts)),
        )

    def test_bgv_fast_path_byte_identical(self):
        # t = 2^30 stays on the int64 fast path.
        params = bgv.BGVParams(ring_degree_log2=12, ciphertext_modulus_bits=109)
        with use_backend("pure"):
            want = self._bgv_transcript(params)
        with use_backend("accel"):
            got = self._bgv_transcript(params)
        assert got == want

    def test_bgv_exact_path_byte_identical(self):
        # A plaintext modulus past the int64 bound forces the object-dtype
        # exact path — the one the accel backend reimplements with mpz.
        params = bgv.BGVParams(
            plaintext_modulus=(1 << 40) + 27,
            ring_degree_log2=12,
            ciphertext_modulus_bits=109,
        )
        with use_backend("pure"):
            want = self._bgv_transcript(params)
        with use_backend("accel"):
            got = self._bgv_transcript(params)
        assert got == want


# ------------------------------------------------------------- end to end


def _run_query(
    devices=32,
    seed=11,
    malicious_fraction=0.0,
    scenario=None,
    categories=8,
):
    env = small_env(num_participants=devices, categories=categories, epsilon=8.0)
    planning = plan_query(TOP1, env, name="backend-equiv")
    network = FederatedNetwork(
        devices, rng=random.Random(seed), malicious_fraction=malicious_fraction
    )
    network.load_categorical_data(categories)
    faults = FaultInjector(get_scenario(scenario), seed=seed) if scenario else None
    executor = QueryExecutor(
        network,
        planning,
        committee_size=4,
        key_prime_bits=96,
        rng=random.Random(seed + 1),
        faults=faults,
    )
    return executor.run()


class TestEndToEndEquivalence:
    def test_query_results_identical_across_backends(self):
        with use_backend("pure"):
            want = _run_query()
        with use_backend("accel"):
            got = _run_query()
        # QueryResult equality covers outputs, rejected devices, audits,
        # committees, epsilon, events, and the certificate (statistics
        # are excluded from equality by design).
        assert got == want

    def test_malicious_rejections_identical_across_backends(self):
        with use_backend("pure"):
            want = _run_query(seed=21, malicious_fraction=0.25)
        with use_backend("accel"):
            got = _run_query(seed=21, malicious_fraction=0.25)
        assert want.rejected_devices  # the seed produced some
        assert got == want

    @pytest.mark.parametrize(
        "scenario", ["keygen-loss", "vsr-loss", "garbage-upload"]
    )
    def test_chaos_scenarios_identical_across_backends(self, scenario):
        with use_backend("pure"):
            want = _run_query(seed=5, scenario=scenario)
        with use_backend("accel"):
            got = _run_query(seed=5, scenario=scenario)
        assert want.fault_log.records  # the scenario actually fired
        assert got == want
        assert [
            (r.fault.kind, r.detection, r.recovery, r.outcome)
            for r in got.fault_log.records
        ] == [
            (r.fault.kind, r.detection, r.recovery, r.outcome)
            for r in want.fault_log.records
        ]

    def test_statistics_name_the_active_backend(self):
        for name in BACKENDS:
            with use_backend(name):
                result = _run_query(devices=16)
                assert result.statistics.crypto_backend == name


class TestJournalCrashResumeEquivalence:
    def _build(self, planning, plan, journal=None, seed=5):
        net = FederatedNetwork(32, rng=random.Random(seed))
        net.load_categorical_data(8, distribution=[20, 4, 1, 1, 1, 1, 1, 1])
        return QueryExecutor(
            net,
            planning,
            committee_size=4,
            key_prime_bits=96,
            rng=random.Random(seed + 1),
            faults=FaultInjector(plan, seed=seed),
            journal=journal,
        )

    @pytest.fixture(scope="class")
    def planning(self):
        env = small_env(num_participants=32, categories=8, epsilon=8.0)
        return plan_query(TOP1, env, name="backend-journal")

    def test_crash_resume_identical_across_backends(self, planning, tmp_path):
        # A coordinator crash + journal resume must produce the same
        # result, resume count, and checkpoint digest chain under every
        # backend: the journal digests cover the crypto transcript, so a
        # single non-identical ciphertext would break the chain.
        plan = get_scenario("coordinator-crash-input")
        outcomes = {}
        for name in BACKENDS:
            with use_backend(name):
                path = str(tmp_path / f"{name}.journal")
                result, resumes = run_to_completion(
                    lambda j: self._build(planning, plan, journal=j), path
                )
                digests = ExecutionJournal.load(path).checkpoint_digests()
                outcomes[name] = (result, resumes, digests)
        want = outcomes["pure"]
        assert want[1] == 1  # the crash fired and one resume happened
        for name in BACKENDS[1:]:
            assert outcomes[name] == want

    def test_journaled_fault_free_runs_identical(self, planning, tmp_path):
        outcomes = {}
        for name in BACKENDS:
            with use_backend(name):
                journal = ExecutionJournal.create(
                    str(tmp_path / f"{name}-plain.journal"), {}
                )
                result = self._build(
                    planning, get_scenario("none"), journal=journal
                ).run()
                outcomes[name] = (result, journal.tail_digest())
        assert outcomes["accel"] == outcomes["pure"]


# ------------------------------------------------------ selection plumbing


class TestSelectionMachinery:
    def test_set_backend_and_reason(self):
        backend = set_backend("accel")
        assert backend.name == "accel" and active_backend_name() == "accel"
        assert "forced programmatically" in selection_reason()
        set_backend(None)
        assert active_backend_name() in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cuda")

    def test_env_var_forces_selection(self, monkeypatch):
        for name in BACKENDS:
            monkeypatch.setenv("REPRO_CRYPTO_BACKEND", name)
            set_backend(None)
            assert active_backend_name() == name
            assert "forced by REPRO_CRYPTO_BACKEND" in selection_reason()

    def test_bad_env_var_is_a_typed_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "fpga")
        with pytest.raises(ValueError, match="not a known backend"):
            set_backend(None)

    def test_use_backend_restores_previous(self):
        set_backend("pure")
        with use_backend("accel") as backend:
            assert backend.name == "accel"
            assert active_backend_name() == "accel"
        assert active_backend_name() == "pure"

    def test_use_backend_restores_on_error(self):
        set_backend("pure")
        with pytest.raises(RuntimeError):
            with use_backend("accel"):
                raise RuntimeError("boom")
        assert active_backend_name() == "pure"

    def test_describe_backends_rows(self):
        rows = describe_backends()
        by_name = {row["backend"]: row for row in rows}
        assert set(by_name) == set(BACKENDS)
        assert by_name["pure"]["available"] is True
        assert by_name["pure"]["unavailable_reason"] is None
        assert sum(1 for row in rows if row["selected"]) == 1
        selected = next(row for row in rows if row["selected"])
        assert selected["selection_reason"]
        for row in rows:
            assert isinstance(row["detail"], str) and row["detail"]

    def test_accel_backend_constructible_without_libraries(self):
        # Forcing accel must never fail, even with no compiled library:
        # each kernel gates on availability and falls back to the oracle.
        backend = AcceleratedBackend()
        assert backend.powmod(3, 5, 7) == pow(3, 5, 7)
        assert isinstance(backend.detail, str)
