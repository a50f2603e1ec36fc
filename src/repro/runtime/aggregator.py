"""The aggregator: a tree of nodes that fold verified shard sums
homomorphically and commit every step to a Merkle log (§5.3).

The aggregator is untrusted (OB threat model, §3.1): everything it computes
is committed into a Merkle tree whose leaves the participants audit, and
malformed participant uploads are filtered before aggregation by
:func:`repro.runtime.shard.verify_shard`: each statement on its handed-over
witness (simulated), each leaf's partial against the sum of its accepted
witnesses (real, the leaf equation of docs/PROTOCOL.md §3). Its verified
partial sums are the tree's leaves. The §5.4 mailbox that relays
committee payloads is priced by the planner; the simulation hands a
committee's shares to the next one directly (VSR, ``runtime/committee.py``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..crypto import paillier
from ..crypto.merkle import InclusionProof, MerkleTree, verify_inclusion
from ..crypto.zkp import InputProof

# bench/ (frozen) resolves ``zkp_verify`` in this module's namespace; nothing
# here calls it since the per-Upload intake left (ROADMAP, benchmark-only item).
from ..crypto.zkp import verify as zkp_verify  # noqa: F401  verify: allow(no-unused-imports)


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
    only) the trapdoor they are checked against — the witness and, per
    ciphertext, its pool-pad indices. In a deployment the SNARK checks the
    circuit directly and neither ever leaves the device.
    """

    device_id: int
    ciphertexts: List[paillier.PaillierCiphertext]
    proof: InputProof
    witness: Sequence[int]
    pad_indices: Sequence[Sequence[int]]

    def digest(self) -> bytes:
        """Digest over (device id, ciphertext vector), the one
        :func:`upload_digests` writes for this row. The intake digests its
        columns through :func:`upload_digests` and never builds an
        ``Upload``; only tests and the intake oracle call this.
        """
        body = paillier.ciphertext_bytes([ct.value for ct in self.ciphertexts])
        return upload_digests([self.device_id], [body])[0]


def ciphertext_vector_digest(cts: Sequence[paillier.PaillierCiphertext]) -> bytes:
    return hashlib.sha256(paillier.ciphertext_bytes([ct.value for ct in cts])).digest()


@dataclass
class StepCommitment:
    """One audited computation step: a label and the result digest."""

    label: str
    digest: bytes


class AggregatorNode:
    """One internal node of the aggregation tree: its fold and its step log.

    Honest-but-auditable in the simulation; the test hook ``corrupt_step``
    lets tests exercise the Byzantine-aggregator detection paths.
    """

    def __init__(self) -> None:
        self.steps: List[StepCommitment] = []
        self._step_tree: Optional[MerkleTree] = None

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
        return [
            paillier.sum_ciphertexts([vector[j] for vector in vectors])
            for j in range(width)
        ]

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

    # ------------------------------------------------------------ test hooks

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
                    node=AggregatorNode(),
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
                        node=AggregatorNode(), pending_children=1,
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
        for child in tree_node.children:
            tree_node.node.commit_step(
                f"child/{child.level}.{child.index}", child.digest
            )
        columns = [c.partials for c in tree_node.children if c.partials]
        if columns:
            tree_node.partials = tree_node.node.aggregate(columns)
            fold_digest = ciphertext_vector_digest(tree_node.partials)
        else:
            fold_digest = hashlib.sha256(b"empty-fold").digest()
        tree_node.accepted = sum(c.accepted for c in tree_node.children)
        tree_node.node.commit_step("fold", fold_digest)
        tree_node.digest = tree_node.node.publish_step_root()
        tree_node.folded = True
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
