"""Differential fuzz suite: crypto backends must be bit-identical.

The backend PR's contract is the same one every perf PR in this repo has
carried: a backend may change *how fast* a kernel runs, never *what* it
computes. ``PureBackend`` is the oracle — the seed's five bigint kernels
on Python ints, unchanged — and every other backend must reproduce its
outputs exactly: same Python ints, same ciphertext bytes, same shares,
same end-to-end ``QueryResult``s under identical seeds, in fault-free
runs, under chaos scenarios, and across journal crash-resume.

In this container gmpy2 is typically absent, so the accelerated backend
runs the kernels it inherits. When gmpy2 *is* present (the CI ``accel``
job), the identical assertions pin its two mpz kernels (``powmod``,
``powmod_vector``) to the oracle — that is the point of the suite: one
set of assertions, any backend.
"""

import importlib.util
import random
import sys

import pytest

from repro.crypto import backend as backend_module
from repro.crypto import paillier, shamir, vsr
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
from tests.conftest import share_values, small_env

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

    def test_batch_invmod_reduces_out_of_range_inputs(self):
        # Negative and > mod inputs are reduced before they are inverted.
        oracle, subject = _oracle_and_subject()
        p = 2**61 - 1
        values = [-3, 5, p + 7, 2 * p - 1, 1]
        got = subject.batch_invmod(values, p)
        assert got == oracle.batch_invmod(values, p)
        assert all(v * inv % p == 1 for v, inv in zip(values, got))

    def test_batch_invmod_zero_defers_to_per_element_error(self):
        _, subject = _oracle_and_subject()
        with pytest.raises(ValueError):
            subject.batch_invmod([3, 0, 5], MERSENNE_61)


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
        shares = share_values(values, 2, party_ids, field, rng)
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
        # Forcing accel must never fail, even without gmpy2: its two
        # kernels gate on the import and fall back to the oracle's.
        backend = AcceleratedBackend()
        assert backend.powmod(3, 5, 7) == pow(3, 5, 7)
        assert isinstance(backend.detail, str)
        # The seam itself: five kernels, two of them overridden.
        kernels = {"powmod", "powmod_vector", "powmod_base_vector", "invmod", "batch_invmod"}
        public = {
            name
            for name in dir(PureBackend)
            if not name.startswith("_") and callable(getattr(PureBackend, name))
        }
        assert public == kernels | {"available", "unavailable_reason"}
        assert kernels & set(vars(AcceleratedBackend)) == {"powmod", "powmod_vector"}
        oracle, p, rng = PureBackend(), MERSENNE_127, random.Random(9)
        a, b, c = (rng.randrange(1, p) for _ in range(3))
        for name, args in (
            ("powmod", (a, b, p)),
            ("powmod_vector", ([a, b, c], b, p)),
            ("powmod_base_vector", (a, [b, c, 0], p)),
            ("invmod", (a, p)),
            ("batch_invmod", ([a, b, c], p)),
        ):
            assert getattr(backend, name)(*args) == getattr(oracle, name)(*args)

    def test_numba_is_asked_about_never_imported(self):
        # bench/run.py records the answer as provenance; nothing uses numba.
        assert backend_module.numba_available() == (
            importlib.util.find_spec("numba") is not None
        )
        assert "numba" not in sys.modules
