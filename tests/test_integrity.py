"""Unit tests of the trustworthy-server building blocks (PR 8).

Covers the Merkle tree (construction, O(log n) appends, inclusion proofs,
odd-tail promotion), the wire codec for proof attachments, the owner's
:class:`~repro.integrity.state.TableIntegrityState` (root agreement,
freshness chain, proof checking), reply signing, resumption tickets, and
the :class:`~repro.exceptions.StoreIntegrityWarning` category.
"""

import hashlib

import pytest

from repro.api.auth import (
    open_ticket,
    seal_ticket,
    sign_reply,
    verify_reply,
)
from repro.api.delta import compute_view_delta
from repro.exceptions import AuthError, IntegrityError, StoreIntegrityWarning, WireError
from repro.integrity.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    hash_row,
    leaves_after_delta,
    relation_leaves,
    verify_proof,
)
from repro.integrity.state import TableIntegrityState
from repro.relational.table import Relation
from repro.wire import decode_merkle_proofs, encode_merkle_proofs


def leaves(n: int) -> list[bytes]:
    return [hash_row([f"r{i}", i]) for i in range(n)]


def relation(rows) -> Relation:
    return Relation(["A", "B"], [list(map(str, r)) for r in rows], name="t")


# ----------------------------------------------------------------------
# Merkle tree
# ----------------------------------------------------------------------
class TestMerkleTree:
    def test_empty_tree_has_fixed_root(self):
        tree = MerkleTree()
        assert tree.num_leaves == 0
        assert tree.root == EMPTY_ROOT
        # The constant is domain-separated, not the hash of nothing.
        assert tree.root != hashlib.sha256(b"").hexdigest()

    def test_single_leaf_root_is_the_leaf(self):
        leaf = hash_row(["x"])
        assert MerkleTree([leaf]).root == leaf.hex()

    def test_root_is_deterministic_and_order_sensitive(self):
        ls = leaves(5)
        assert MerkleTree(ls).root == MerkleTree(ls).root
        assert MerkleTree(ls).root != MerkleTree(list(reversed(ls))).root

    def test_leaf_and_node_domains_are_separated(self):
        # A two-leaf root must differ from a leaf whose content is the
        # concatenation of the two leaves (0x00 vs 0x01 prefixes).
        a, b = leaves(2)
        forged = hashlib.sha256(b"\x00" + a + b).hexdigest()
        assert MerkleTree([a, b]).root != forged

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 64])
    @pytest.mark.parametrize("added", [1, 2, 3, 7])
    def test_extend_equals_rebuild(self, size, added):
        base = leaves(size)
        extra = [hash_row(["new", i]) for i in range(added)]
        tree = MerkleTree(base)
        tree.extend(extra)
        assert tree.root == MerkleTree(base + extra).root
        assert tree.num_leaves == size + added

    def test_extend_nothing_is_a_noop(self):
        tree = MerkleTree(leaves(5))
        before = tree.root
        tree.extend([])
        assert tree.root == before

    def test_copy_is_independent(self):
        tree = MerkleTree(leaves(4))
        clone = tree.copy()
        clone.append(hash_row(["z"]))
        assert tree.num_leaves == 4
        assert clone.num_leaves == 5
        assert tree.root != clone.root

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 33])
    def test_every_proof_verifies(self, size):
        ls = leaves(size)
        tree = MerkleTree(ls)
        for i in range(size):
            path = tree.proof(i)
            assert verify_proof(ls[i], i, size, path, tree.root)
            assert len(path) <= max(1, size - 1).bit_length()

    def test_proof_fails_for_wrong_leaf_index_or_root(self):
        ls = leaves(7)
        tree = MerkleTree(ls)
        path = tree.proof(3)
        assert not verify_proof(ls[2], 3, 7, path, tree.root)  # wrong leaf
        assert not verify_proof(ls[3], 2, 7, path, tree.root)  # wrong index
        assert not verify_proof(ls[3], 3, 7, path, MerkleTree(leaves(6)).root)
        assert not verify_proof(ls[3], 3, 7, path[:-1], tree.root)  # truncated
        assert not verify_proof(ls[3], 3, 7, path + [ls[0]], tree.root)  # padded
        assert not verify_proof(ls[3], 3, 0, path, tree.root)
        assert not verify_proof(ls[3], 9, 7, path, tree.root)

    def test_promoted_tail_contributes_no_path_element(self):
        # In a 5-leaf tree, leaf 4 is promoted until the final pairing: its
        # proof is a single sibling (the 4-leaf subtree root).
        ls = leaves(5)
        tree = MerkleTree(ls)
        path = tree.proof(4)
        assert len(path) == 1
        assert path[0].hex() == MerkleTree(ls[:4]).root
        assert verify_proof(ls[4], 4, 5, path, tree.root)

    def test_proof_out_of_range_raises(self):
        with pytest.raises(IntegrityError):
            MerkleTree(leaves(3)).proof(3)

    def test_relation_leaves_match_canonical_digest_bytes(self):
        # Leaves hash the canonical cell bytes (``str(cell)``): two
        # relations with equal rows hash identically regardless of name.
        rel_a = relation([["x", 1], ["y", 2]])
        rel_b = Relation(["A", "B"], [["x", "1"], ["y", "2"]], name="other")
        assert relation_leaves(rel_a) == relation_leaves(rel_b)


class TestLeavesAfterDelta:
    def test_matches_full_rehash(self):
        base = relation([[f"k{i}", i] for i in range(8)])
        updated = relation([[f"k{i}", i] for i in range(8)] + [["new", 99]])
        delta = compute_view_delta(base, updated)
        derived = leaves_after_delta(relation_leaves(base), delta)
        assert derived == relation_leaves(updated)
        assert MerkleTree(derived).root == MerkleTree(relation_leaves(updated)).root

    def test_copy_segment_outside_base_raises(self):
        base = relation([["a", 1], ["b", 2]])
        updated = relation([["a", 1], ["b", 2], ["c", 3]])
        delta = compute_view_delta(base, updated)
        with pytest.raises(IntegrityError):
            leaves_after_delta(relation_leaves(base)[:1], delta)


# ----------------------------------------------------------------------
# Proof attachments on the wire
# ----------------------------------------------------------------------
class TestProofCodec:
    @pytest.mark.parametrize("form", ["binary"])
    def test_round_trip(self, form):
        tree = MerkleTree(leaves(9))
        paths = [tree.proof(i) for i in (0, 4, 8)]
        blob = encode_merkle_proofs(9, paths)
        num_leaves, decoded = decode_merkle_proofs(blob)
        assert num_leaves == 9
        assert decoded == paths

    @pytest.mark.parametrize("form", ["binary"])
    def test_empty_paths(self, form):
        blob = encode_merkle_proofs(4, [])
        assert decode_merkle_proofs(blob) == (4, [])

    def test_unrecognised_blob_rejected(self):
        with pytest.raises(WireError):
            decode_merkle_proofs(b"\x99garbage")

    def test_binary_rejects_non_digest_lengths(self):
        with pytest.raises(WireError):
            encode_merkle_proofs(2, [[b"short"]])


# ----------------------------------------------------------------------
# Owner-side verification state
# ----------------------------------------------------------------------
class TestTableIntegrityState:
    def make_state(self, rows=4):
        view = relation([[f"k{i}", i] for i in range(rows)])
        state = TableIntegrityState("orders")
        state.record_push(view, version=1)
        return state, view

    def test_push_and_matching_reply(self):
        state, view = self.make_state()
        root = state.expected_root
        state.check_reply(1, root, num_rows=view.num_rows)
        state.check_reply(1, root)  # row count optional

    def test_push_rejects_contradicting_server_root(self):
        view = relation([["a", 1]])
        state = TableIntegrityState("orders")
        with pytest.raises(IntegrityError, match="acknowledged root"):
            state.record_push(view, version=1, server_root="ff" * 32)

    def test_wrong_root_raises(self):
        state, _ = self.make_state()
        with pytest.raises(IntegrityError, match="differs from the owner"):
            state.check_reply(1, "ab" * 32)

    def test_wrong_row_count_raises(self):
        state, view = self.make_state()
        with pytest.raises(IntegrityError, match="rows"):
            state.check_reply(1, state.expected_root, num_rows=view.num_rows + 1)

    def test_version_rollback_raises(self):
        state, _ = self.make_state()
        root = state.expected_root
        with pytest.raises(IntegrityError, match="rollback|regressed"):
            state.check_reply(0, root)

    def test_fork_same_version_different_root_raises(self):
        state = TableIntegrityState("orders")
        # No tree recorded (analyst-style state): only the freshness chain.
        state.check_reply(3, "aa" * 32)
        with pytest.raises(IntegrityError, match="fork"):
            state.check_reply(3, "bb" * 32)

    def test_record_delta_advances_root(self):
        base = relation([[f"k{i}", i] for i in range(4)])
        updated = relation([[f"k{i}", i] for i in range(4)] + [["new", 9]])
        state = TableIntegrityState("orders")
        state.record_push(base, version=1)
        delta = compute_view_delta(base, updated)
        root = state.record_delta(delta, version=2)
        assert root == MerkleTree(relation_leaves(updated)).root
        state.check_reply(2, root, num_rows=updated.num_rows)

    def test_record_delta_before_push_raises(self):
        base = relation([["a", 1]])
        delta = compute_view_delta(base, base)
        with pytest.raises(IntegrityError, match="before any push"):
            TableIntegrityState("orders").record_delta(delta, version=1)

    def test_verify_proofs_accepts_and_rejects(self):
        state, view = self.make_state(rows=6)
        tree = MerkleTree(relation_leaves(view))
        indexes = [1, 4]
        proofs = [tree.proof(i) for i in indexes]
        state.verify_proofs(indexes, proofs, tree.num_leaves, tree.root)
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs([1, 5], proofs, tree.num_leaves, tree.root)
        with pytest.raises(IntegrityError, match="proofs for"):
            state.verify_proofs(indexes, proofs[:1], tree.num_leaves, tree.root)
        with pytest.raises(IntegrityError, match="-row tree"):
            state.verify_proofs(indexes, proofs, tree.num_leaves + 1, tree.root)
        with pytest.raises(IntegrityError, match="outside"):
            state.verify_proofs([99, 4], proofs, tree.num_leaves, tree.root)

    def test_verify_proofs_decides_against_the_owners_tree(self):
        state, view = self.make_state(rows=6)
        tree = MerkleTree(relation_leaves(view))
        state.verify_proofs([2], [tuple(tree.proof(2))], tree.num_leaves, tree.root)
        flipped = [bytes([tree.proof(2)[0][0] ^ 1]) + tree.proof(2)[0][1:]]
        flipped += tree.proof(2)[1:]
        for path in (flipped, tree.proof(2) + [tree.proof(2)[0]], tree.proof(2)[:-1]):
            with pytest.raises(IntegrityError, match="does not verify"):
                state.verify_proofs([2], [path], tree.num_leaves, tree.root)
        # A server tree that differs in another row still carries a valid
        # hash path for row 2 to *its* root; the owner's tree rejects it.
        rows = [list(view.row(i)) for i in range(view.num_rows)]
        rows[5][0] = "tampered"
        forged = MerkleTree(relation_leaves(relation(rows)))
        assert verify_proof(tree.leaves[2], 2, 6, forged.proof(2), forged.root)
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs([2], [forged.proof(2)], 6, forged.root)


# ----------------------------------------------------------------------
# Reply signatures and resumption tickets
# ----------------------------------------------------------------------
class TestReplySignatures:
    SECRET = b"\x07" * 32

    def test_round_trip(self):
        sig = sign_reply(self.SECRET, "sess-1", 42, b"payload")
        assert verify_reply(self.SECRET, "sess-1", 42, b"payload", sig)

    @pytest.mark.parametrize(
        "session,seq,payload",
        [("sess-2", 42, b"payload"), ("sess-1", 43, b"payload"), ("sess-1", 42, b"other")],
    )
    def test_any_field_change_invalidates(self, session, seq, payload):
        sig = sign_reply(self.SECRET, "sess-1", 42, b"payload")
        assert not verify_reply(self.SECRET, session, seq, payload, sig)

    def test_key_binds(self):
        sig = sign_reply(self.SECRET, "sess-1", 42, b"payload")
        assert not verify_reply(b"\x08" * 32, "sess-1", 42, b"payload", sig)


class TestResumptionTickets:
    SECRET = b"\x05" * 32

    def test_round_trip(self):
        doc = {"session_id": "s1", "tenant_id": "acme", "version": 3}
        ticket = seal_ticket(self.SECRET, doc)
        assert ticket.startswith("f2tkt1.")
        assert open_ticket(self.SECRET, ticket) == doc

    def test_rotation_invalidates(self):
        ticket = seal_ticket(self.SECRET, {"session_id": "s1"})
        with pytest.raises(AuthError):
            open_ticket(b"\x06" * 32, ticket)

    @pytest.mark.parametrize(
        "ticket",
        ["", "nope", "f2tkt1.only-two", "f2tkt1.!!!.00", "f2tkt1..deadbeef"],
    )
    def test_malformed_rejected(self, ticket):
        with pytest.raises(AuthError):
            open_ticket(b"\x05" * 32, ticket)

    def test_tampered_body_rejected(self):
        ticket = seal_ticket(self.SECRET, {"session_id": "s1"})
        prefix, body, mac = ticket.split(".")
        forged = ".".join([prefix, body[:-1] + ("A" if body[-1] != "A" else "B"), mac])
        with pytest.raises(AuthError):
            open_ticket(self.SECRET, forged)


# ----------------------------------------------------------------------
# Warning category
# ----------------------------------------------------------------------
class TestStoreIntegrityWarning:
    def test_is_a_runtime_warning(self):
        assert issubclass(StoreIntegrityWarning, RuntimeWarning)

    def test_corrupt_snapshot_warns_with_the_category(self, tmp_path):
        from repro.api.protocol import ProtocolServer

        (tmp_path / "broken.f2t").write_bytes(b"\x00not a snapshot")  # not migrated
        with pytest.warns(StoreIntegrityWarning, match="broken"):
            server = ProtocolServer(storage_dir=tmp_path)
        assert server.table_ids(None) == []
