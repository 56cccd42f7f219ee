"""Unit tests of the trustworthy-server building blocks (PR 8).

Covers the content-defined Merkle sequence (construction, splices,
multiproofs, and Hypothesis properties of both), the owner's
:class:`~repro.integrity.state.TableIntegrityState` (root agreement,
freshness chain, the answer check of a select), reply signing, resumption
tickets, and the :class:`~repro.exceptions.StoreIntegrityWarning` category.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.auth import (
    open_ticket,
    seal_ticket,
    sign_reply,
    verify_reply,
)
from repro.api.delta import OP_COPY, OP_LITERAL, ViewDelta, compute_view_delta
from repro.exceptions import AuthError, IntegrityError, StoreIntegrityWarning
from repro.integrity.merkle import (
    EMPTY_ROOT,
    MAX_CHUNK,
    MerkleTree,
    Multiproof,
    hash_row,
    relation_leaves,
    verify_multiproof,
)
from repro.integrity.state import TableIntegrityState
from repro.query.server import ServerAnd, ServerOr, TokenLeaf, execute_server_expr
from repro.relational.table import Relation


def leaves(n: int) -> list[bytes]:
    return [hash_row([f"r{i}", i]) for i in range(n)]


def relation(rows) -> Relation:
    return Relation(["A", "B"], [list(map(str, r)) for r in rows], name="t")


def digests(proof: Multiproof) -> int:
    return sum(len(path) for path in proof.paths)


def legacy_binary_root(leaves: list[bytes]) -> str:
    """Root of the binary Merkle tree older stores recorded (format 1):
    ``sha256(0x01 || left || right)`` level by level, an odd tail promoted."""
    level = list(leaves)
    while len(level) > 1:
        level = [
            hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
            if i + 1 < len(level)
            else level[i]
            for i in range(0, len(level), 2)
        ]
    return level[0].hex()


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
        # concatenation of the two leaves (0x00 vs 0x03 prefixes).
        a, b = leaves(2)
        forged = hashlib.sha256(b"\x00" + a + b).hexdigest()
        assert MerkleTree([a, b]).root != forged

    @pytest.mark.parametrize("size", [2, 3, 17, 100])
    def test_root_differs_from_the_legacy_binary_root(self, size):
        ls = leaves(size)
        assert MerkleTree(ls).root != legacy_binary_root(ls)

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

    def test_shape_is_history_independent(self):
        # Leaf by leaf or all at once: the same leaves, the same tree.
        ls = leaves(150)
        grown = MerkleTree()
        for leaf in ls:
            grown.append(leaf)
        assert grown == MerkleTree(ls)

    def test_runs_of_identical_leaves_stay_bounded(self):
        # No digest closes a chunk of equal leaves, so MAX_CHUNK does: the
        # tree stays shallow and a proof stays small.
        same = [hash_row(["dup"])] * 500
        tree = MerkleTree(same)
        assert tree.height <= (500 - 1).bit_length()
        for index in (0, 250, 499):
            proof = tree.multiproof([index])
            assert digests(proof) <= (MAX_CHUNK - 1) * tree.height
            assert verify_multiproof([same[index]], [index], 500, proof, tree.root)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 33])
    def test_every_proof_verifies(self, size):
        ls = leaves(size)
        tree = MerkleTree(ls)
        assert tree.height <= max(1, size - 1).bit_length()
        for i in range(size):
            proof = tree.multiproof([i])
            assert verify_multiproof([ls[i]], [i], size, proof, tree.root)
            assert digests(proof) <= (MAX_CHUNK - 1) * tree.height

    def test_proof_fails_for_wrong_leaf_index_or_root(self):
        ls = leaves(40)
        tree = MerkleTree(ls)
        proof = tree.multiproof([3])
        path = proof.paths[0]
        assert verify_multiproof([ls[3]], [3], 40, proof, tree.root)
        assert not verify_multiproof([ls[2]], [3], 40, proof, tree.root)  # wrong leaf
        assert not verify_multiproof([ls[3]], [2], 40, proof, tree.root)  # wrong index
        assert not verify_multiproof(
            [ls[3]], [3], 40, proof, MerkleTree(leaves(39)).root
        )
        truncated = Multiproof((path[:-1],), proof.geometry)
        padded = Multiproof((path + (ls[0],),), proof.geometry)
        for forged in (truncated, padded):
            assert not verify_multiproof([ls[3]], [3], 40, forged, tree.root)
        assert not verify_multiproof([ls[3]], [3], 0, proof, tree.root)
        assert not verify_multiproof([ls[3]], [41], 40, proof, tree.root)
        assert not verify_multiproof([ls[3]], [3], 41, proof, tree.root)

    def test_a_multiproof_carries_each_shared_digest_once(self):
        ls = leaves(300)
        tree = MerkleTree(ls)
        indexes = list(range(0, 300, 3))
        proof = tree.multiproof(indexes)
        singles = sum(digests(tree.multiproof([i])) for i in indexes)
        assert digests(proof) < singles
        # Row k carries only what rows before it did not, so no digest
        # travels twice (every node of this tree is distinct).
        carried = [digest for path in proof.paths for digest in path]
        assert len(carried) == len(set(carried))
        assert verify_multiproof([ls[i] for i in indexes], indexes, 300, proof, tree.root)

    def test_proof_out_of_range_raises(self):
        with pytest.raises(IntegrityError):
            MerkleTree(leaves(3)).multiproof([3])
        with pytest.raises(IntegrityError, match="ascending"):
            MerkleTree(leaves(3)).multiproof([1, 1])

    def test_relation_leaves_match_canonical_digest_bytes(self):
        # Leaves hash the canonical cell bytes (``str(cell)``): two
        # relations with equal rows hash identically regardless of name.
        rel_a = relation([["x", 1], ["y", 2]])
        rel_b = Relation(["A", "B"], [["x", "1"], ["y", "2"]], name="other")
        assert relation_leaves(rel_a) == relation_leaves(rel_b)


class TestSpliceDelta:
    def test_matches_full_rehash(self):
        base = relation([[f"k{i}", i] for i in range(8)])
        updated = relation([[f"k{i}", i] for i in range(8)] + [["new", 99]])
        delta = compute_view_delta(base, updated)
        spliced = MerkleTree(relation_leaves(base)).splice(delta)
        assert spliced == MerkleTree(relation_leaves(updated))
        assert spliced.root == MerkleTree(relation_leaves(updated)).root

    def test_copy_segment_outside_base_raises(self):
        base = relation([["a", 1], ["b", 2]])
        updated = relation([["a", 1], ["b", 2], ["c", 3]])
        delta = compute_view_delta(base, updated)
        with pytest.raises(IntegrityError):
            MerkleTree(relation_leaves(base)[:1]).splice(delta)

    def test_splice_leaves_the_base_tree_untouched(self):
        base = relation([[f"k{i}", i] for i in range(60)])
        updated = relation([[f"k{i}", i] for i in range(60) if i != 7] + [["n", 1]])
        tree = MerkleTree(relation_leaves(base))
        before = tree.root
        tree.splice(compute_view_delta(base, updated))
        assert tree.root == before
        assert tree == MerkleTree(relation_leaves(base))


# ----------------------------------------------------------------------
# Properties of the tree (Hypothesis)
# ----------------------------------------------------------------------
def _rows(values) -> Relation:
    return Relation(["A"], [[str(value)] for value in values], name="t")


@st.composite
def base_and_delta(draw):
    """A base view and a delta over it, covering the edit shapes a splice
    meets: reordered or dropped copy segments, literal runs, all-literal,
    pure append, an empty result, and identical rows beyond the chunk cap."""
    # A small alphabet makes runs of identical leaves; "dup" runs are
    # longer than MAX_CHUNK.
    value = st.one_of(st.integers(0, 3), st.integers(0, 10**6))
    base = draw(
        st.one_of(
            st.lists(value, max_size=300),
            st.integers(0, 60).map(lambda n: ["dup"] * (MAX_CHUNK * 3 + n)),
        )
    )
    shape = draw(st.sampled_from(["mixed", "all-literal", "append", "empty"]))
    segments: list = []
    literals: list = []
    if shape == "append":
        segments.append([OP_COPY, 0, len(base)])
        extra = draw(st.lists(value, min_size=1, max_size=40))
        segments.append([OP_LITERAL, len(extra)])
        literals += extra
    elif shape == "all-literal":
        literals = draw(st.lists(value, min_size=1, max_size=80))
        segments.append([OP_LITERAL, len(literals)])
    elif shape == "mixed":
        for _ in range(draw(st.integers(0, 6))):
            if base and draw(st.booleans()):
                start = draw(st.integers(0, len(base) - 1))
                count = draw(st.integers(0, len(base) - start))
                segments.append([OP_COPY, start, count])
            else:
                run = draw(
                    st.one_of(
                        st.lists(value, min_size=1, max_size=20),
                        st.just(["dup"] * (MAX_CHUNK + 5)),
                    )
                )
                segments.append([OP_LITERAL, len(run)])
                literals += run
    result: list = []
    cursor = 0
    for segment in segments:
        if segment[0] == OP_COPY:
            result += base[segment[1] : segment[1] + segment[2]]
        else:
            result += literals[cursor : cursor + segment[1]]
            cursor += segment[1]
    delta = ViewDelta(
        base_rows=len(base),
        segments=segments,
        literals=_rows(literals) if literals else None,
    )
    return base, delta, result


@st.composite
def tree_and_indexes(draw):
    size = draw(st.integers(1, 300))
    ls = leaves(size)
    indexes = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=40)))
    return ls, indexes


PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTreeProperties:
    @PROPERTY_SETTINGS
    @given(base_and_delta())
    def test_splice_equals_a_build_of_the_result(self, case):
        base, delta, result = case
        tree = MerkleTree(relation_leaves(_rows(base)))
        spliced = tree.splice(delta)
        rebuilt = MerkleTree(relation_leaves(_rows(result)))
        assert spliced.root == rebuilt.root
        assert spliced == rebuilt  # every level, counts and chunk sizes
        assert tree == MerkleTree(relation_leaves(_rows(base)))  # base untouched

    @PROPERTY_SETTINGS
    @given(tree_and_indexes())
    def test_every_emitted_multiproof_verifies(self, case):
        ls, indexes = case
        tree = MerkleTree(ls)
        proof = tree.multiproof(indexes)
        assert verify_multiproof([ls[i] for i in indexes], indexes, len(ls), proof, tree.root)

    @PROPERTY_SETTINGS
    @given(tree_and_indexes(), st.data())
    def test_mutated_proofs_are_rejected(self, case, data):
        ls, indexes = case
        tree = MerkleTree(ls)
        proof = tree.multiproof(indexes)
        root, n = tree.root, len(ls)
        mutation = data.draw(
            st.sampled_from(["none", "digest", "shift", "num_leaves", "unsorted"])
        )
        claimed, num_leaves = list(indexes), n
        if mutation == "digest":
            carrying = [row for row, path in enumerate(proof.paths) if path]
            if not carrying:
                return  # nothing to flip: every leaf of a 1-leaf tree
            row = data.draw(st.sampled_from(carrying))
            slot = data.draw(st.integers(0, len(proof.paths[row]) - 1))
            byte = data.draw(st.integers(0, 31))
            path = list(proof.paths[row])
            path[slot] = path[slot][:byte] + bytes([path[slot][byte] ^ 1]) + path[slot][byte + 1 :]
            paths = list(proof.paths)
            paths[row] = tuple(path)
            proof = Multiproof(tuple(paths), proof.geometry)
        elif mutation == "shift":
            k = data.draw(st.integers(0, len(claimed) - 1))
            moved = claimed[k] + data.draw(st.sampled_from([-1, 1]))
            if not 0 <= moved < n or moved in claimed:
                return
            claimed[k] = moved
            claimed.sort()
        elif mutation == "num_leaves":
            num_leaves = n + data.draw(st.sampled_from([-1, 1]))
        elif mutation == "unsorted":
            if len(claimed) < 2:
                claimed = claimed * 2  # duplicated
            else:
                claimed[0], claimed[1] = claimed[1], claimed[0]
        in_range = all(0 <= i < n for i in claimed)
        claimed_leaves = [ls[i] if 0 <= i < n else b"" for i in claimed]
        verdict = in_range and verify_multiproof(claimed_leaves, claimed, num_leaves, proof, root)
        assert verdict == (mutation == "none")


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
        # The answer check: the reply's matched rows and per-leaf counts must
        # be exactly what the plan gives over the owner's replica.
        state, view = self.make_state(rows=6)
        expr = ServerOr(
            (
                TokenLeaf("A", ("k1", "k4"), index=0),
                TokenLeaf("B", ("4", "5"), index=1),
            )
        )
        replica = view.coded()
        state.verify_proofs(expr, [1, 4, 5], [2, 2], replica)
        for rows, counts, match in [
            ([1], [2, 2], "matched rows"),  # dropped
            ([1, 2, 4, 5], [2, 2], "matched rows"),  # added
            ([1, 3, 5], [2, 2], "matched rows"),  # swapped
            ([4, 5, 1], [2, 2], "matched rows"),  # not ascending
            ([1, 4, 5], [2, 1], "leaf match counts"),
            ([1, 4, 5], [2], "leaf match counts"),
        ]:
            with pytest.raises(IntegrityError, match=match):
                state.verify_proofs(expr, rows, counts, replica)
        empty = ServerAnd((TokenLeaf("A", ("k1",), index=0), TokenLeaf("B", ("3",), index=1)))
        state.verify_proofs(empty, [], [1, 1], replica)

    def test_verify_proofs_decides_against_the_owners_replica(self):
        # A reply computed honestly over a *different* view — a store that
        # lost, gained or rewrote rows — is rejected, whatever it claims.
        state, view = self.make_state(rows=40)
        expr = TokenLeaf("A", ("k7",), index=0)
        rows = [list(view.row(i)) for i in range(view.num_rows)]
        for server_rows in (rows[1:], rows + [["k7", 99]], [["k7", 0]] + rows[1:]):
            served = relation(server_rows).coded()
            indexes, counts = execute_server_expr(served, expr)
            with pytest.raises(IntegrityError):
                state.verify_proofs(expr, indexes, counts, view.coded())


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

        table = tmp_path / "broken.f2s"
        table.mkdir()
        (table / "CURRENT").write_text("LOG-000001.log\n")
        (table / "LOG-000001.log").write_bytes(b"\x00not a snapshot record")
        with pytest.warns(StoreIntegrityWarning, match="broken"):
            server = ProtocolServer(storage_dir=tmp_path)
        assert server.table_ids(None) == []
