"""The aggregator node: upload intake, ZKP verification, Merkle commitments,
homomorphic aggregation, and the committee mailbox (§5.3, §5.4).

The aggregator is untrusted (OB threat model, §3.1): everything it computes
is committed into a Merkle tree whose leaves the participants audit, its
mailbox only ever carries committee payloads it cannot read, and malformed
participant uploads are filtered by their ZKPs before aggregation.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto import paillier
from ..crypto.merkle import InclusionProof, MerkleTree, verify_inclusion
from ..crypto.zkp import InputProof, Statement, verify as zkp_verify


def upload_digests(device_ids: Sequence[int], ciphertext_bytes: Sequence[bytes]) -> List[bytes]:
    """Per upload, the digest over (device id as 8 bytes big-endian, its
    ciphertext vector in :func:`paillier.ciphertext_bytes` layout)."""
    return [
        hashlib.sha256(device_id.to_bytes(8, "big") + body).digest()
        for device_id, body in zip(device_ids, ciphertext_bytes)
    ]


@dataclass
class Upload:
    """One device's submission: ciphertext vector, proof, and (simulation
    only) the witness the proof is checked against — in a deployment the
    SNARK checks the circuit directly and no witness ever leaves the device.
    """

    device_id: int
    ciphertexts: List[paillier.PaillierCiphertext]
    proof: InputProof
    witness: Sequence[int]

    def digest(self) -> bytes:
        """Digest over (device id, ciphertext vector), cached.

        Uploads are frozen after construction, so the first computation is
        cached and reused — tree leaves and Merkle commitments digest every
        upload at least twice. The cache is *not* a trust anchor: the
        verify path (:meth:`AggregatorNode.verify_uploads`,
        :func:`repro.runtime.shard.verify_shard`) always recomputes the
        ciphertext digest from the stored ciphertexts, so tampering with
        an upload after its digest was cached is still caught.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            body = paillier.ciphertext_bytes([ct.value for ct in self.ciphertexts])
            self._digest = cached = upload_digests([self.device_id], [body])[0]
        return cached


def ciphertext_vector_digest(cts: Sequence[paillier.PaillierCiphertext]) -> bytes:
    return hashlib.sha256(paillier.ciphertext_bytes([ct.value for ct in cts])).digest()


@dataclass
class AggregationStatistics:
    """Wall-clock and throughput counters for one query's upload intake.

    These feed ``QueryResult.statistics`` (``repro run --stats``); they are
    observability only and never participate in commitments or results.
    """

    uploads_received: int = 0
    uploads_verified: int = 0
    uploads_rejected: int = 0
    verify_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    ciphertext_additions: int = 0

    @property
    def uploads_verified_per_second(self) -> float:
        if self.verify_seconds <= 0:
            return 0.0
        return self.uploads_verified / self.verify_seconds

    @property
    def uploads_rejected_per_second(self) -> float:
        if self.verify_seconds <= 0:
            return 0.0
        return self.uploads_rejected / self.verify_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "uploads_received": self.uploads_received,
            "uploads_verified": self.uploads_verified,
            "uploads_rejected": self.uploads_rejected,
            "verify_seconds": self.verify_seconds,
            "aggregate_seconds": self.aggregate_seconds,
            "ciphertext_additions": self.ciphertext_additions,
            "uploads_verified_per_second": self.uploads_verified_per_second,
            "uploads_rejected_per_second": self.uploads_rejected_per_second,
        }


@dataclass
class StepCommitment:
    """One audited computation step: a label and the result digest."""

    label: str
    digest: bytes


class AggregatorNode:
    """The coordinator: honest-but-auditable in the simulation.

    Test hooks (``tamper_with_upload``, ``corrupt_step``) let tests exercise
    the Byzantine-aggregator detection paths.
    """

    def __init__(self, public_key: paillier.PaillierPublicKey):
        self.public_key = public_key
        self.uploads: List[Upload] = []
        self.rejected: List[int] = []
        self.steps: List[StepCommitment] = []
        self._step_tree: Optional[MerkleTree] = None
        self.mailbox: Dict[str, List[object]] = {}
        self.stats = AggregationStatistics()

    # ----------------------------------------------------------------- input

    def receive_upload(self, upload: Upload) -> None:
        self.uploads.append(upload)
        self.stats.uploads_received += 1

    def receive_uploads(self, uploads: Sequence[Upload]) -> None:
        """Batched intake: one call per submission round, not per device."""
        self.uploads.extend(uploads)
        self.stats.uploads_received += len(uploads)

    def verify_uploads(self, statement: Statement, round_number: int) -> List[Upload]:
        """Check every upload's ZKP; malformed inputs are dropped (§5.3).

        A proof counts only if it is the one for *this* uploader, the
        current round and the query's statement, over the ciphertexts
        actually stored — the comparisons
        :func:`repro.runtime.shard.verify_shard` makes — so a proof
        replayed from another device, round or statement is rejected.
        """
        started = time.perf_counter()
        accepted: List[Upload] = []
        for upload in self.uploads:
            proof = upload.proof
            if (
                proof.ciphertext_digest == ciphertext_vector_digest(upload.ciphertexts)
                and proof.device_id == upload.device_id
                and proof.round_number == round_number
                and proof.statement == statement
                and zkp_verify(proof, upload.witness)
            ):
                accepted.append(upload)
            else:
                self.rejected.append(upload.device_id)
        self.stats.verify_seconds += time.perf_counter() - started
        self.stats.uploads_verified += len(accepted)
        self.stats.uploads_rejected = len(self.rejected)
        return accepted

    # ------------------------------------------------------------- aggregate

    def aggregate(
        self, vectors: Sequence[Sequence[paillier.PaillierCiphertext]]
    ) -> List[paillier.PaillierCiphertext]:
        """Homomorphically sum ciphertext vectors slot-wise.

        Each slot column is one :func:`paillier.sum_ciphertexts` fold;
        Paillier ⊞ is associative and commutative, so the totals (and the
        step commitments over them) do not depend on the fold's shape.
        """
        if not vectors:
            raise ValueError("no ciphertext vectors to aggregate")
        width = len(vectors[0])
        if any(len(vector) != width for vector in vectors):
            raise ValueError("ciphertext vectors have inconsistent widths")
        started = time.perf_counter()
        totals = [
            paillier.sum_ciphertexts([vector[j] for vector in vectors])
            for j in range(width)
        ]
        self.stats.aggregate_seconds += time.perf_counter() - started
        self.stats.ciphertext_additions += (len(vectors) - 1) * width
        return totals

    # ----------------------------------------------------------------- audit

    def commit_step(self, label: str, digest: bytes) -> None:
        """Record a computation step for later participant audits (§5.3)."""
        self.steps.append(StepCommitment(label, digest))
        self._step_tree = None

    def publish_step_root(self) -> bytes:
        if not self.steps:
            raise ValueError("no steps committed yet")
        if self._step_tree is None:
            leaves = [s.label.encode() + b"\x00" + s.digest for s in self.steps]
            self._step_tree = MerkleTree(leaves)
        return self._step_tree.root

    def answer_audit(self, leaf_index: int) -> Tuple[bytes, InclusionProof]:
        """Return (leaf, inclusion proof) for a participant's challenge."""
        self.publish_step_root()
        return self._step_tree.leaf(leaf_index), self._step_tree.prove(leaf_index)

    def run_audits(self, rng: random.Random, auditors: int, leaves_each: int = 2) -> int:
        """Simulate ``auditors`` devices auditing random leaves; returns the
        number of failed audits (0 for an honest aggregator)."""
        root = self.publish_step_root()
        failures = 0
        for _ in range(auditors):
            for _ in range(leaves_each):
                index = rng.randrange(len(self.steps))
                leaf, proof = self.answer_audit(index)
                if not verify_inclusion(root, leaf, proof):
                    failures += 1
        return failures

    # --------------------------------------------------------------- mailbox

    def post(self, channel: str, message: object) -> None:
        """Committees deposit (encrypted/signed) payloads for the next
        vignette; the aggregator cannot read them (§5.4)."""
        self.mailbox.setdefault(channel, []).append(message)

    def fetch(self, channel: str) -> List[object]:
        return self.mailbox.pop(channel, [])

    # ------------------------------------------------------------ test hooks

    def tamper_with_upload(self, index: int) -> None:
        """Byzantine hook: corrupt a stored upload's first ciphertext."""
        upload = self.uploads[index]
        upload.ciphertexts[0] = paillier.tampered(upload.ciphertexts[0])

    def corrupt_step(self, index: int) -> None:
        """Byzantine hook: rewrite a committed step after publication."""
        self.publish_step_root()
        self.steps[index] = StepCommitment(
            self.steps[index].label, b"\x00" * 32
        )
        # Keep the stale tree: audits now verify against mismatched data.
        tree = self._step_tree

        def answer(leaf_index: int, _tree=tree):
            leaf = (
                self.steps[leaf_index].label.encode()
                + b"\x00"
                + self.steps[leaf_index].digest
            )
            return leaf, _tree.prove(leaf_index)

        self.answer_audit = answer  # type: ignore[method-assign]


@dataclass
class TreeNode:
    """One node of the multi-level aggregation tree.

    Leaves (level 0) carry a shard batch's intake: its partial ciphertext
    sums and the leaf digest committing to the accepted uploads in order.
    Internal nodes each wrap an :class:`AggregatorNode` whose step
    commitments record, in child order, the digest of every child plus
    the digest of the folded partial sums — so the node's published step
    root *is* its digest, and auditing any level reproduces the chain of
    inclusion proofs down to the shard leaves.
    """

    level: int
    index: int
    children: List["TreeNode"] = field(default_factory=list)
    partials: Optional[List[paillier.PaillierCiphertext]] = None
    accepted: int = 0
    digest: bytes = b""
    node: Optional[AggregatorNode] = None
    pending_children: int = 0
    folded: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.level == 0


class AggregatorTree:
    """A multi-level aggregation tree over shard-batch leaves (§5.3 at scale).

    The intake/aggregation split of production federated-analytics
    systems: leaves ingest verified shard batches (partial Paillier sums
    plus a commitment to the accepted uploads), internal nodes fold their
    children's partials homomorphically, and every level commits digests
    into the node's Merkle'd step log. The root's partials are the query
    totals; the root's digest commits, transitively, to every accepted
    upload in the run.

    Folding is driven by readiness: :meth:`ingest_leaf` and
    :meth:`fold_node` each return the coordinates of any parent whose
    children just completed, which is exactly the ``fold`` event the
    scheduler then drains. Child order is fixed by construction, so the
    fold result is byte-identical whatever order the leaves arrive in.
    """

    def __init__(
        self,
        public_key: paillier.PaillierPublicKey,
        num_leaves: int,
        fanout: int = 16,
    ):
        if num_leaves < 1:
            raise ValueError("an aggregation tree needs at least one leaf")
        if fanout < 2:
            raise ValueError("tree fanout must be at least 2")
        self.public_key = public_key
        self.fanout = fanout
        self.rejected: List[int] = []
        self.stats = AggregationStatistics()
        self.levels: List[List[TreeNode]] = [
            [TreeNode(0, i) for i in range(num_leaves)]
        ]
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            level = len(self.levels)
            parents = []
            for index in range(0, len(below), fanout):
                children = below[index : index + fanout]
                parent = TreeNode(
                    level,
                    index // fanout,
                    children=children,
                    node=AggregatorNode(public_key),
                    pending_children=len(children),
                )
                parents.append(parent)
            self.levels.append(parents)
        if len(self.levels) == 1:
            # Single-leaf population: give the root an explicit fold node
            # so totals/audits always go through a committed fold step.
            leaf = self.levels[0][0]
            self.levels.append(
                [
                    TreeNode(
                        1, 0, children=[leaf],
                        node=AggregatorNode(public_key), pending_children=1,
                    )
                ]
            )

    # ---------------------------------------------------------- structure

    @property
    def depth(self) -> int:
        """Number of levels, leaves included."""
        return len(self.levels)

    @property
    def root(self) -> TreeNode:
        return self.levels[-1][0]

    def _parent_of(self, node: TreeNode) -> TreeNode:
        return self.levels[node.level + 1][node.index // self.fanout]

    # ------------------------------------------------------------- intake

    def ingest_leaf(self, result) -> Optional[Tuple[int, int]]:
        """Ingest one shard batch (a ``ShardIntakeResult``) at its leaf.

        Returns the (level, index) of the parent node if this leaf was
        the last child it was waiting for — the scheduler turns that into
        a ``fold`` event — else ``None``.
        """
        leaf = self.levels[0][result.shard_id]
        if leaf.folded:
            raise ValueError(f"leaf {result.shard_id} ingested twice")
        if result.modulus != self.public_key.n:
            raise ValueError(
                f"shard {result.shard_id} was summed under a different key than the tree's"
            )
        leaf.partials = result.partials
        leaf.accepted = result.accepted
        leaf.digest = result.leaf_digest
        leaf.folded = True
        self.rejected.extend(result.rejected)
        stats = self.stats
        stats.uploads_received += result.uploads_received
        stats.uploads_verified += result.accepted
        stats.uploads_rejected += len(result.rejected)
        stats.verify_seconds += result.verify_seconds
        stats.aggregate_seconds += result.aggregate_seconds
        stats.ciphertext_additions += result.ciphertext_additions
        parent = self._parent_of(leaf)
        parent.pending_children -= 1
        if parent.pending_children == 0:
            return (parent.level, parent.index)
        return None

    def fold_node(self, level: int, index: int) -> Optional[Tuple[int, int]]:
        """Fold one internal node whose children are all complete.

        Commits every child's digest, then the folded partials' digest,
        into the node's step log; the published step root becomes the
        node's digest. Returns the parent's coordinates when this fold
        completed it, else ``None``.
        """
        tree_node = self.levels[level][index]
        if tree_node.is_leaf or tree_node.node is None:
            raise ValueError(f"node ({level},{index}) is not an internal node")
        if tree_node.pending_children:
            raise ValueError(
                f"node ({level},{index}) still waits on {tree_node.pending_children} children"
            )
        if tree_node.folded:
            raise ValueError(f"node ({level},{index}) folded twice")
        started = time.perf_counter()
        for child in tree_node.children:
            tree_node.node.commit_step(
                f"child/{child.level}.{child.index}", child.digest
            )
        columns = [c.partials for c in tree_node.children if c.partials]
        if columns:
            tree_node.partials = tree_node.node.aggregate(columns)
            self.stats.ciphertext_additions += (len(columns) - 1) * len(columns[0])
            fold_digest = ciphertext_vector_digest(tree_node.partials)
        else:
            fold_digest = hashlib.sha256(b"empty-fold").digest()
        tree_node.accepted = sum(c.accepted for c in tree_node.children)
        tree_node.node.commit_step("fold", fold_digest)
        tree_node.digest = tree_node.node.publish_step_root()
        tree_node.folded = True
        self.stats.aggregate_seconds += time.perf_counter() - started
        if level + 1 < len(self.levels):
            parent = self._parent_of(tree_node)
            parent.pending_children -= 1
            if parent.pending_children == 0:
                return (parent.level, parent.index)
        return None

    def totals(self) -> List[paillier.PaillierCiphertext]:
        """The root's folded partial sums (the query's encrypted totals)."""
        if not self.root.folded:
            raise ValueError("the root has not folded yet")
        if self.root.partials is None:
            raise ValueError("every upload was rejected; no totals to publish")
        return self.root.partials

    # -------------------------------------------------------------- audits

    def audit_path(self, leaf_index: int) -> List[Tuple[TreeNode, int]]:
        """The chain of (internal node, child position) from root to leaf."""
        path: List[Tuple[TreeNode, int]] = []
        node = self.root
        target = self.levels[0][leaf_index]
        while not node.is_leaf:
            for position, child in enumerate(node.children):
                lo = child.index * (self.fanout ** child.level)
                hi = (child.index + 1) * (self.fanout ** child.level)
                if lo <= leaf_index < hi:
                    path.append((node, position))
                    node = child
                    break
            else:
                raise ValueError(f"leaf {leaf_index} unreachable from the root")
        if node is not target:
            raise ValueError(f"audit path ended at the wrong leaf {node.index}")
        return path

    def verify_leaf_inclusion(self, leaf_index: int) -> bool:
        """Reproduce the inclusion-proof chain root → shard leaf.

        At every internal node on the path, the child's committed digest
        must (a) carry a valid Merkle inclusion proof against the node's
        published step root and (b) equal the child's actual digest — so
        a rewritten fold or a substituted shard batch fails the audit at
        the level where it happened.
        """
        for node, position in self.audit_path(leaf_index):
            leaf_bytes, proof = node.node.answer_audit(position)
            if not verify_inclusion(node.node.publish_step_root(), leaf_bytes, proof):
                return False
            child = node.children[position]
            expected = f"child/{child.level}.{child.index}".encode() + b"\x00" + child.digest
            if leaf_bytes != expected:
                return False
        return True

    def run_audits(self, rng: random.Random, auditors: int, leaves_each: int = 2) -> int:
        """Simulate participant audits over the whole tree; returns failures.

        Each auditor alternates two checks: a full root→leaf inclusion
        chain for a random shard leaf, and one of the node's own audits
        (:meth:`AggregatorNode.run_audits`, a single random step) on a
        randomly chosen *internal* node — exercising per-level commitments
        directly, fold steps included.
        """
        if not self.root.folded:
            raise ValueError("cannot audit before the root folds")
        failures = 0
        num_leaves = len(self.levels[0])
        for _ in range(auditors):
            for _ in range(leaves_each):
                leaf_index = rng.randrange(num_leaves)
                if not self.verify_leaf_inclusion(leaf_index):
                    failures += 1
                level = 1 + rng.randrange(len(self.levels) - 1)
                node = self.levels[level][rng.randrange(len(self.levels[level]))]
                failures += node.node.run_audits(rng, auditors=1, leaves_each=1)
        return failures
