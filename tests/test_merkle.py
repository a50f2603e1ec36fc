"""Tests for Merkle trees and inclusion proofs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree, verify_inclusion


class TestTree:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        proof = tree.prove(0)
        assert verify_inclusion(tree.root, b"only", proof)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_all_leaves_provable(self):
        leaves = [bytes([i]) * 4 for i in range(13)]  # odd sizes exercise promotion
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_inclusion(tree.root, leaf, tree.prove(i))

    def test_wrong_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        proof = tree.prove(0)
        assert not verify_inclusion(tree.root, b"x", proof)

    def test_wrong_index_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not verify_inclusion(tree.root, b"a", tree.prove(1))

    def test_out_of_range_index(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.prove(5)

    def test_leaves_are_exposed_immutably(self):
        source = [b"a", b"b", b"c"]
        tree = MerkleTree(source)
        assert tree.leaves == (b"a", b"b", b"c")
        source[0] = b"x"  # the tree kept its own copy
        assert tree.leaves[0] == tree.leaf(0) == b"a"
        with pytest.raises(TypeError):
            tree.leaves[0] = b"x"

    def test_root_changes_with_content(self):
        t1 = MerkleTree([b"a", b"b"])
        t2 = MerkleTree([b"a", b"c"])
        assert t1.root != t2.root

    def test_root_changes_with_order(self):
        t1 = MerkleTree([b"a", b"b"])
        t2 = MerkleTree([b"b", b"a"])
        assert t1.root != t2.root

    def test_leaf_node_domain_separation(self):
        """A leaf cannot be confused with an interior node: the two-leaf
        tree root differs from a single leaf whose data is the
        concatenation of the two child hashes."""
        t = MerkleTree([b"a", b"b"])
        fake = MerkleTree([t.root])
        assert t.root != fake.root


@given(
    leaves=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40),
    data=st.data(),
)
@settings(max_examples=60)
def test_inclusion_property(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = tree.prove(index)
    assert verify_inclusion(tree.root, leaves[index], proof)
    # A different payload with the same proof must fail.
    assert not verify_inclusion(tree.root, leaves[index] + b"!", proof)
