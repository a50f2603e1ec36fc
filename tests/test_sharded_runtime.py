"""Sharded event-driven intake: scheduler, shards, tree, and equivalence.

The intake owns its RNG schedule (per-shard labelled streams) and drains
its event pipeline one event at a time, in post order; the bytes it
releases are pinned to the commit before the worker pool was deleted.
On top of that sit the multi-level aggregation tree's audit guarantees
(any internal level reproduces the shard-leaf inclusion proofs) and the
shard-scoped journal checkpoints (a coordinator death mid-intake resumes
bit-identically, re-running only the shards it had not journaled).
"""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from repro.crypto import paillier
from repro.crypto.zkp import one_hot_statement
from repro.faults import (
    COORDINATOR_CRASH,
    DROPOUT,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    get_scenario,
)
from repro.planner.search import plan_query
from repro.runtime.aggregator import AggregatorTree, Upload
from repro.runtime import shard as shard_module
from repro.runtime.executor import QueryExecutor, pad_pool_size
from repro.runtime.journal import ExecutionJournal, run_to_completion
from repro.runtime.network import FederatedNetwork
from repro.runtime.scheduler import (
    AGGREGATE,
    CHURN,
    EventScheduler,
    FOLD,
    UPLOAD,
    VERIFY,
)
from repro.runtime.shard import (
    DeviceShard,
    ObfuscatorPool,
    ShardContext,
    build_shards,
    upload_shard,
    verify_shard,
)
from repro.verify.invariants import run_twin_identical
from tests.conftest import small_env

TOP1 = "aggr = sum(db); r = em(aggr); output(r);"
SEED = 11


def _executor(
    devices=64,
    seed=SEED,
    malicious_fraction=0.0,
    scenario=None,
    shard_size=8,
    tree_fanout=2,
    categories=8,
    **kwargs,
):
    env = small_env(num_participants=devices, categories=categories, epsilon=8.0)
    planning = plan_query(TOP1, env, name="sharded-equiv")
    network = FederatedNetwork(
        devices, rng=random.Random(seed), malicious_fraction=malicious_fraction
    )
    network.load_categorical_data(categories)
    faults = None
    if scenario is not None:
        plan = scenario if isinstance(scenario, FaultPlan) else get_scenario(scenario)
        faults = FaultInjector(plan, seed=seed)
    return QueryExecutor(
        network,
        planning,
        committee_size=4,
        key_prime_bits=96,
        rng=random.Random(seed + 1),
        faults=faults,
        shard_size=shard_size,
        tree_fanout=tree_fanout,
        **kwargs,
    )


def _run(**kwargs):
    return _executor(**kwargs).run()


# ------------------------------------------------------------- scheduler


class TestEventScheduler:
    def _pipeline(self, items=10):
        """A churn->upload->verify->aggregate pipeline over plain ints."""
        sched = EventScheduler()
        trace, kinds = [], Counter()

        def register(kind, handler):
            def counted(ev):
                kinds[ev.kind] += 1
                return handler(ev)

            sched.register(kind, counted)

        register(
            CHURN,
            lambda ev: (None, [(UPLOAD, ev.shard_id, ev.shard_id * 10)]),
        )
        register(
            UPLOAD, lambda ev: (ev.payload + 1, [(VERIFY, ev.shard_id, ev.payload + 1)]),
        )
        register(
            VERIFY, lambda ev: (ev.payload, [(AGGREGATE, ev.shard_id, ev.payload)]),
        )
        register(
            AGGREGATE,
            lambda ev: (trace.append((ev.shard_id, ev.payload)), []),
        )
        for i in range(items):
            sched.post(CHURN, i)
        handled = sched.drain()
        return trace, handled, kinds

    def test_serial_and_parallel_traces_identical(self):
        # The id predates the deletion of the worker pool; its serial half is
        # what is left: every event handled once, in post order.
        trace, handled, kinds = self._pipeline()
        assert handled == 40
        assert trace == [(i, i * 10 + 1) for i in range(10)]
        assert kinds == dict.fromkeys((CHURN, UPLOAD, VERIFY, AGGREGATE), 10)

    def test_takes_no_worker_count(self):
        with pytest.raises(TypeError):
            EventScheduler(workers=2)
        with pytest.raises(TypeError):
            EventScheduler().register(UPLOAD, lambda ev: (None, []), parallel=True)

    def test_unregistered_kind_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError, match="no handler"):
            sched.post(FOLD, 0)
        with pytest.raises(ValueError, match="unknown event kind"):
            sched.register("teleport", lambda ev: (None, []))

    def test_followups_run_after_batch_in_seq_order(self):
        sched = EventScheduler()
        order = []
        sched.register(
            UPLOAD, lambda ev: (order.append(("u", ev.shard_id)), [(VERIFY, ev.shard_id, None)]),
        )
        sched.register(VERIFY, lambda ev: (order.append(("v", ev.shard_id)), []))
        for i in range(6):
            sched.post(UPLOAD, i)
        sched.drain()
        # What the posted events return runs after all of them, in post order.
        assert order == [("u", i) for i in range(6)] + [("v", i) for i in range(6)]


# ------------------------------------------------------- shards and pool


@pytest.fixture(scope="module")
def keypair():
    sk = paillier.keygen(bits=96, rng=random.Random(3))
    return sk.public, sk


@pytest.fixture(scope="module")
def shard_ctx(keypair):
    pk, sk = keypair
    return ShardContext(
        public_key=pk,
        statement=one_hot_statement(8),
        categories=8,
        bins=1,
        one_hot=True,
        width=8,
        round_number=1,
        packing=None,
        pool=ObfuscatorPool(sk, random.Random(42), pool_size=16, subset_size=4),
    )


def _make_shard(n=12, shard_id=0, offline=(), malicious=()):
    ids = np.arange(1, n + 1, dtype=np.int64)
    values = np.arange(n, dtype=np.int64) % 8
    online = np.ones(n, dtype=bool)
    online[list(offline)] = False
    mal = np.zeros(n, dtype=bool)
    mal[list(malicious)] = True
    return DeviceShard(shard_id, ids, values, online, mal, "sharded/upload/0")


class TestShardStages:
    def test_pool_draws_decrypt_correctly(self, keypair):
        pk, sk = keypair
        pool = ObfuscatorPool(sk, random.Random(7), pool_size=8, subset_size=3)
        messages = (0, 1, 12345)
        pads = pool.products(pool.draw(random.Random(9), len(messages)))
        assert len(set(pads)) == len(messages)
        for m, pad in zip(messages, pads):
            ct = paillier.encrypt_with_pad(pk, m, pad)
            assert paillier.decrypt(sk, ct) == m

    def test_pool_and_upload_deterministic(self, keypair, shard_ctx):
        _, sk = keypair
        pads_a = ObfuscatorPool(sk, random.Random(42), pool_size=16)._pads
        pads_b = ObfuscatorPool(sk, random.Random(42), pool_size=16)._pads
        assert pads_a == pads_b
        batch_a = upload_shard(_make_shard(), shard_ctx, random.Random(5))
        batch_b = upload_shard(_make_shard(), shard_ctx, random.Random(5))
        assert batch_a.ciphertexts == batch_b.ciphertexts
        assert batch_a.proofs == batch_b.proofs

    def test_offline_devices_never_upload(self, shard_ctx):
        batch = upload_shard(_make_shard(offline=[2, 5]), shard_ctx, random.Random(5))
        assert set(batch.device_ids) == set(range(1, 13)) - {3, 6}

    def test_malicious_uploads_rejected_at_the_leaf(self, shard_ctx):
        batch = upload_shard(
            _make_shard(malicious=[1, 4]), shard_ctx, random.Random(5)
        )
        result = verify_shard(batch, shard_ctx)
        assert result.rejected == [2, 5]
        assert result.accepted == 10
        assert result.uploads_received == 12
        assert len(result.upload_digests) == 10

    def test_build_shards_slices_and_labels(self):
        ids = np.arange(1, 21, dtype=np.int64)
        values = np.zeros(20, dtype=np.int64)
        online = np.ones(20, dtype=bool)
        mal = np.zeros(20, dtype=bool)
        shards = build_shards(ids, values, online, mal, shard_size=8)
        assert [len(s) for s in shards] == [8, 8, 4]
        assert [s.stream_label for s in shards] == [
            "sharded/upload/0", "sharded/upload/1", "sharded/upload/2"
        ]
        # Snapshots are copies: churn on one shard cannot leak to another.
        shards[0].online[0] = False
        assert online[0]


# ------------------------------------------------- upload digest caching


class TestUploadDigestCache:
    """No digest is cached: not on an ``Upload``, not in the columns."""

    def _upload(self, keypair):
        pk, _ = keypair
        rng = random.Random(4)
        vector = [1, 0, 0, 0, 0, 0, 0, 0]
        from repro.crypto.zkp import prove
        from repro.runtime.aggregator import ciphertext_vector_digest

        cts = [paillier.encrypt(pk, v, rng) for v in vector]
        proof = prove(one_hot_statement(8), 1, 1, ciphertext_vector_digest(cts))
        return Upload(1, cts, proof, vector, [])

    def test_digest_follows_ciphertexts(self, keypair):
        upload = self._upload(keypair)
        first = upload.digest()
        assert upload.digest() == first
        # Nothing is cached: a changed ciphertext changes the digest.
        upload.ciphertexts[0] = paillier.tampered(upload.ciphertexts[0])
        assert upload.digest() != first

    def test_tamper_after_cache_still_caught_by_shard_verify(
        self, keypair, shard_ctx
    ):
        batch = upload_shard(_make_shard(n=4), shard_ctx, random.Random(5))
        before = [batch.upload(k).digest() for k in range(len(batch))]
        batch.ciphertexts[2][0] = paillier.tampered(batch.upload(2).ciphertexts[0]).value
        # The columns cache no digest at all: the leaf recomputes every one
        # from the stored values, so the stale one above is never consulted.
        assert batch.upload(2).digest() != before[2]
        result = verify_shard(batch, shard_ctx)
        assert result.rejected == [3]
        assert result.accepted == 3


# ------------------------------------------------------ aggregator tree


class TestAggregatorTree:
    def _folded_tree(self, keypair, shard_ctx, num_shards=9, fanout=2):
        pk, _ = keypair
        tree = AggregatorTree(pk, num_leaves=num_shards, fanout=fanout)
        ready = []
        for sid in range(num_shards):
            shard = _make_shard(shard_id=sid)
            result = verify_shard(
                upload_shard(shard, shard_ctx, random.Random(100 + sid)),
                shard_ctx,
            )
            parent = tree.ingest_leaf(result)
            if parent:
                ready.append(parent)
        while ready:
            parent = tree.fold_node(*ready.pop(0))
            if parent:
                ready.append(parent)
        return tree

    def test_depth_and_fanout(self, keypair):
        pk, _ = keypair
        assert AggregatorTree(pk, num_leaves=9, fanout=2).depth == 5
        assert AggregatorTree(pk, num_leaves=16, fanout=4).depth == 3
        assert AggregatorTree(pk, num_leaves=1, fanout=2).depth == 2
        with pytest.raises(ValueError):
            AggregatorTree(pk, num_leaves=0)
        with pytest.raises(ValueError):
            AggregatorTree(pk, num_leaves=4, fanout=1)

    def test_root_totals_decrypt_to_population_sum(self, keypair, shard_ctx):
        pk, sk = keypair
        tree = self._folded_tree(keypair, shard_ctx)
        counts = [paillier.decrypt(sk, ct) for ct in tree.totals()]
        # 9 shards x 12 devices, values i % 8: categories 0..3 get 2 per
        # shard, categories 4..7 get 1 per shard.
        assert counts == [18, 18, 18, 18, 9, 9, 9, 9]
        assert tree.root.accepted == 9 * 12

    def test_audits_at_internal_levels_reproduce_leaf_proofs(
        self, keypair, shard_ctx
    ):
        tree = self._folded_tree(keypair, shard_ctx)
        assert tree.depth >= 4  # the point: audits cross multiple levels
        assert tree.run_audits(random.Random(5), auditors=16) == 0
        for leaf_index in range(9):
            assert tree.verify_leaf_inclusion(leaf_index)

    def test_rewritten_child_commitment_detected_on_path(self, keypair, shard_ctx):
        tree = self._folded_tree(keypair, shard_ctx)
        victim = tree.levels[1][2]  # parent of leaves 4 and 5
        victim.node.corrupt_step(0)  # rewrite the child/0.4 commitment
        assert not tree.verify_leaf_inclusion(4)
        assert tree.verify_leaf_inclusion(0)  # other paths unaffected

    def test_rewritten_fold_detected_by_internal_audit(self, keypair, shard_ctx):
        tree = self._folded_tree(keypair, shard_ctx)
        victim = tree.levels[1][2]
        victim.node.corrupt_step(len(victim.children))  # the fold step
        # The inclusion chain only walks child commitments; the random
        # internal-level step audit is what covers fold steps.
        assert tree.run_audits(random.Random(5), auditors=32) > 0

    def test_fold_and_audit_through_the_node_match_the_pinned_loops(
        self, keypair, shard_ctx
    ):
        # The digest, the count and both stream positions were taken on the
        # commit before fold_node summed through AggregatorNode.aggregate and
        # run_audits checked its step through AggregatorNode.run_audits
        # (the tree then carried its own copies of both loops). The count was
        # the tree's own tally of leaf sums and folds; folding A vectors of
        # width w takes (A - 1) * w additions whatever the tree's shape.
        def position(rng):
            return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()

        tree = self._folded_tree(keypair, shard_ctx)
        # Re-pinned in the z^α pad epoch (docs/PROTOCOL.md §3): ciphertexts moved.
        assert tree.root.digest.hex() == (
            "842a492bfea477a548f47ef8527517d8dc49863c84ea49779a2e83a5f930e8fc"
        )
        assert (tree.root.accepted - 1) * len(tree.totals()) == 856
        rng = random.Random(5)
        assert tree.run_audits(rng, auditors=16) == 0
        assert position(rng) == (
            "5af125cdc032f4f26e7af772d1f4896809a8bc73db8bf2300d1cf9f92caa7448"
        )
        victim = tree.levels[1][2]
        victim.node.corrupt_step(len(victim.children))  # the fold step
        rng = random.Random(5)
        assert tree.run_audits(rng, auditors=32) == 1
        assert position(rng) == (
            "2997138dad7e6299de38bf58ad369745e5bc67322a05a0d5ff752cdbbb801e47"
        )

    def test_substituted_leaf_digest_detected(self, keypair, shard_ctx):
        tree = self._folded_tree(keypair, shard_ctx)
        tree.levels[0][4].digest = b"\x00" * 32
        assert not tree.verify_leaf_inclusion(4)
        assert tree.verify_leaf_inclusion(0)  # other paths unaffected

    def test_double_ingest_and_premature_fold_rejected(self, keypair, shard_ctx):
        pk, _ = keypair
        tree = AggregatorTree(pk, num_leaves=4, fanout=2)
        result = verify_shard(
            upload_shard(_make_shard(shard_id=0), shard_ctx, random.Random(1)),
            shard_ctx,
        )
        tree.ingest_leaf(result)
        with pytest.raises(ValueError, match="ingested twice"):
            tree.ingest_leaf(result)
        with pytest.raises(ValueError, match="waits on"):
            tree.fold_node(1, 0)
        with pytest.raises(ValueError, match="has not folded"):
            tree.totals()


# ------------------------------------------- network struct-of-arrays


class TestNetworkSoA:
    def test_soa_view_matches_devices(self):
        net = FederatedNetwork(20, rng=random.Random(2), malicious_fraction=0.3)
        net.load_categorical_data(8)
        net.take_offline([3, 9])
        ids, values, online, malicious = net.soa_view()
        assert list(ids) == list(range(1, 21))
        assert values.tolist() == [d.value for d in net.devices]
        assert online.tolist() == [d.online for d in net.devices]
        assert malicious.tolist() == [d.malicious for d in net.devices]


# ------------------------------------------------------- pad pool size


class TestPadPoolSize:
    """The pool is no larger than the ciphertexts it will obfuscate."""

    def test_rule(self):
        assert pad_pool_size(24, 1) == 24  # a service query: one packed ciphertext each
        assert pad_pool_size(256, 1) == 64
        assert pad_pool_size(24, 8) == 64  # unpacked rows reach the cap sooner
        assert pad_pool_size(1, 1) == 2  # the pool's own floor

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        built = []

        class Recording(ObfuscatorPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.pool_size)

        monkeypatch.setattr(shard_module, "ObfuscatorPool", Recording)
        return built

    def test_a_run_builds_the_pool_the_rule_gives(self, pool_sizes):
        small = _run(devices=24)
        assert small.statistics.packed_width == 1
        large = _run(devices=256, shard_size=64)
        assert large.statistics.packed_width == 1
        assert pool_sizes == [24, 64]

    def test_a_churned_run_sizes_as_its_fault_free_twin(self, pool_sizes):
        # Sized from the registered population, not from who is online.
        churn = FaultPlan(
            "pre-upload-churn",
            events=(FaultEvent(DROPOUT, "input", target=(30, 31, 32)),),
            mutates_inputs=True,
        )
        twin = _run(devices=32, scenario="none")
        churned = _run(devices=32, scenario=churn)
        assert twin.statistics.uploads_submitted == 32
        assert churned.statistics.uploads_submitted == 29
        assert pool_sizes == [32, 32]


# --------------------------------------------------- end-to-end oracle


class TestShardedEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return _run(malicious_fraction=0.1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_removed_worker_count_is_refused_by_name(self, workers):
        with pytest.raises(ValueError, match="shard_workers"):
            _executor(shard_workers=workers)

    def test_the_frozen_harness_literal_is_still_accepted(self):
        assert _executor(shard_workers=0).shard_size == 8

    def test_sharded_stats_populated(self, serial):
        stats = serial.statistics
        assert stats.shards == 8
        assert stats.tree_depth == 4  # 8 leaves at fanout 2
        assert stats.scheduler_events == 8 * 4 + 7  # 4 stages + 7 folds
        assert stats.uploads_submitted == 64
        assert stats.packing_lanes > 1  # slot packing engaged

    def test_shard_topology_changes_do_not_change_rejections(self):
        # Different shard sizes reshape the tree, but accept/reject is a
        # per-upload decision: the rejected set must be stable.
        a = _run(seed=21, malicious_fraction=0.25, shard_size=8)
        b = _run(seed=21, malicious_fraction=0.25, shard_size=32, tree_fanout=4)
        assert a.rejected_devices and a.rejected_devices == b.rejected_devices


class TestIntakeCounts:
    """``RuntimeStatistics`` is the one owner of the intake counts.

    Pinned on the commit before the aggregator's per-``Upload`` intake and
    its statistics dataclasses were deleted, when the executor copied these
    counts field by field out of the tree's own tally.
    """

    KEYS = (
        "crypto_backend", "logical_width", "packed_width", "packing_lanes",
        "uploads_submitted", "submit_seconds", "uploads_verified",
        "uploads_rejected", "verify_seconds", "aggregate_seconds",
        "ciphertext_additions", "uploads_verified_per_second",
        "uploads_rejected_per_second", "decrypt_seconds", "shards", "shard_size",
        "tree_depth", "scheduler_events", "scheduler_batches", "checkpoints",
        "journal_records", "journal_replayed", "resume_events",
    )

    @pytest.fixture(scope="class")
    def result(self):
        # 12 shards under a depth-3 tree, two packed ciphertexts an upload,
        # malicious devices scattered and every device of shard 5 malicious.
        executor = _executor(
            devices=96, categories=32, malicious_fraction=0.1, tree_fanout=4
        )
        for device in executor.network.devices[40:48]:
            device.malicious = True
        return executor.run()

    def test_counts_match_the_pinned_run(self, result):
        from repro.crypto.backend import active_backend_name

        stats = result.statistics.as_dict()
        assert tuple(stats) == self.KEYS
        assert {k: v for k, v in stats.items() if not isinstance(v, float)} == {
            "crypto_backend": active_backend_name(),
            "logical_width": 32,
            "packed_width": 2,
            "packing_lanes": 23,
            "uploads_submitted": 96,
            "uploads_verified": 76,
            "uploads_rejected": 20,
            "ciphertext_additions": 150,
            "shards": 12,
            "shard_size": 8,
            "tree_depth": 3,
            "scheduler_events": 52,
            "scheduler_batches": 52,
            "checkpoints": 51,
            "journal_records": 0,
            "journal_replayed": 0,
            "resume_events": 0,
        }
        assert set(range(41, 49)) <= set(result.rejected_devices)
        # the parent's empty-plan twin
        assert hashlib.sha256(repr(result).encode()).hexdigest() == (
            "4700ab3f3eafaa6ee2d2df68286aba7e04bef76f215861a8136ce6bd0082e8c7"
        )

    def test_rates_are_the_counts_over_verify_time(self, result):
        stats = result.statistics
        assert stats.verify_seconds > 0 and stats.aggregate_seconds > 0
        assert stats.uploads_verified_per_second == pytest.approx(
            stats.uploads_verified / stats.verify_seconds
        )
        assert stats.uploads_rejected_per_second == pytest.approx(
            stats.uploads_rejected / stats.verify_seconds
        )


class TestWaveDrain:
    """One shard in flight: the drain order, the memory bound, the bytes."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """One journaled run with its intake handlers counted."""
        from repro.runtime.journal import ExecutionJournal

        log, trees = [], []
        in_flight = [0, 0]  # now, and the most there ever were

        def note(kind, delta=0):
            log.append(kind)
            in_flight[0] += delta
            in_flight[1] = max(in_flight[1], in_flight[0])

        stream, upload = QueryExecutor._fresh, shard_module.upload_shard
        ingest = AggregatorTree.ingest_leaf

        def counted_stream(self, label):
            if label.startswith("sharded/upload/"):
                note("churn")  # the one thing only the churn handler derives
            return stream(self, label)

        def counted_upload(*args):
            batch = upload(*args)
            note("upload", +1)
            return batch

        def counted_ingest(self, result):
            trees.append(self)
            note("ingest", -1)
            return ingest(self, result)

        path = tmp_path_factory.mktemp("waves") / "w.journal"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QueryExecutor, "_fresh", counted_stream)
            patch.setattr(shard_module, "upload_shard", counted_upload)
            patch.setattr(AggregatorTree, "ingest_leaf", counted_ingest)
            result = _run(
                malicious_fraction=0.1,
                journal=ExecutionJournal.create(str(path), {"recipe": "waves"}),
            )
        return result, trees[0].root.digest, path.read_bytes(), log, in_flight[1]

    def test_any_width_releases_the_same_bytes(self, run):
        # Taken on the commit before the worker pool and the wave widths were
        # deleted (123997d), where widths 0, 1, 2 and 4 all released them.
        result, root, journal, _, _ = run
        # the parent's empty-plan twin
        assert hashlib.sha256(repr(result).encode()).hexdigest() == (
            "54c04d1ceca6d581beb61234aab8717694a394edeaf21b5a55a45c037bb815ee"
        )
        # the parent's empty-plan twin
        assert root.hex() == (
            "95b3c3013b6051dbb4bea14c0f4d875929b8f6554664ef59fcdcf15592784ce6"
        )
        # Re-taken when keygen stopped parking μ beside λ: only the held
        # secret's seal and limb counts (and so the digest chain) moved.
        assert len(journal) == 17054
        assert hashlib.sha256(journal).hexdigest() == (
            "6146ab6adcfea8bf9e6966441c84367641ac54fc07933b25a3adfc3fae7ed9d9"
        )

    def test_every_churn_is_handled_before_the_first_upload(self, run):
        log = run[3]
        assert log.count("churn") == log.count("upload") == log.count("ingest") == 8
        assert log[:8] == ["churn"] * 8

    def test_at_most_one_wave_of_batches_awaits_ingest(self, run):
        _, _, _, log, most = run
        assert most == 1  # the bound, and it is reached
        # A shard is ingested before the next one uploads.
        assert log[8:] == ["upload", "ingest"] * 8


class TestShardedCrashResume:
    @pytest.fixture(scope="class")
    def uncrashed(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("leaves") / "uncrashed.journal")
        result, _ = run_to_completion(
            lambda journal: _executor(scenario="none", journal=journal), path
        )
        return result, ExecutionJournal.load(path)

    @pytest.mark.parametrize("crash_at", [f"input/shard{i}" for i in range(8)] + ["program"])
    def test_a_resume_redoes_only_the_shards_it_lost(
        self, crash_at, uncrashed, tmp_path, monkeypatch
    ):
        baseline, base_journal = uncrashed
        if crash_at == "program":  # no target: the phase's first checkpoint
            event, lost = FaultEvent(COORDINATOR_CRASH, "program"), []
        else:
            event = FaultEvent(COORDINATOR_CRASH, "input", target=crash_at)
            lost = list(range(int(crash_at[len("input/shard"):]) + 1, 8))
        plan = FaultPlan("crash", events=(event,))
        # Counted where bench/trace.py wraps them: the module attributes.
        calls = []
        upload, verify = shard_module.upload_shard, shard_module.verify_shard

        def counted_upload(shard, *rest):
            calls[-1].append(("upload", shard.shard_id))
            return upload(shard, *rest)

        def counted_verify(batch, *rest):
            calls[-1].append(("verify", batch.shard_id))
            return verify(batch, *rest)

        class CountedPool(ObfuscatorPool):
            def __init__(self, *args, **kwargs):
                calls[-1].append(("pool", None))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shard_module, "upload_shard", counted_upload)
        monkeypatch.setattr(shard_module, "verify_shard", counted_verify)
        monkeypatch.setattr(shard_module, "ObfuscatorPool", CountedPool)

        def incarnation(journal):
            calls.append([])
            return _executor(scenario=plan, journal=journal)

        path = str(tmp_path / "crashed.journal")
        result, resumes = run_to_completion(incarnation, path)
        assert resumes == 1 and len(calls) == 2
        digests = (
            ExecutionJournal.load(path).checkpoint_digests(),
            base_journal.checkpoint_digests(),
        )
        assert not run_twin_identical(result, baseline, plan, digests)
        # The resumed incarnation builds the pad pool at its first live upload
        # and uploads and verifies exactly the shards the crash lost.
        assert calls[1] == ([("pool", None)] if lost else []) + [
            (stage, shard) for shard in lost for stage in ("upload", "verify")
        ]
        # Every count but the journal's own equals the uncrashed run's, scheduler
        # events included: a restored shard still passes every intake event.
        journal_counts = ("journal_records", "journal_replayed", "resume_events")

        def counts(stats):
            return {
                name: value
                for name, value in stats.as_dict().items()
                if not isinstance(value, float) and name not in journal_counts
            }

        assert counts(result.statistics) == counts(baseline.statistics)
        crash_seq = next(
            p["seq"]
            for p in base_journal.checkpoint_payloads()
            if p["label"] == crash_at or (crash_at == "program" and p["phase"] == "program")
        )
        assert result.statistics.journal_replayed == crash_seq + 1

