"""Tests of server-view deltas and the ``InsertDelta`` protocol path (PR 5).

The contract under test: with the materialiser's fresh-nonce retention, an
incremental insert's server view aligns against the previous one into a
small edit script; applying that script on the provider reproduces the new
view *byte-identically*; and the whole resumed flow (outsource, then
deltas) decrypts to exactly the same plaintext as a from-scratch outsource —
across both compute backends.
"""

import dataclasses
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    DataOwner,
    InsertBatch,
    InsertDelta,
    LoopbackTransport,
    Message,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    apply_view_delta,
    compute_view_delta,
)
from repro.api.auth import ErrorCode, TenantRegistry
from repro.api.protocol import ErrorReply, SignedEnvelope
from repro.api.session import decrypt_table
from repro.backend import numpy_available
from repro.core.config import F2Config
from repro.exceptions import ProtocolError
from repro.relational.table import Relation
from repro.wire import WIRE_FORMS

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")


def make_owner(key_seed=42, alpha=0.25, seed=7, backend=None) -> DataOwner:
    return DataOwner.from_seed(
        key_seed, config=F2Config(alpha=alpha, seed=seed, backend=backend)
    )


def rel(rows, attrs=("A", "B")) -> Relation:
    return Relation(list(attrs), [list(row) for row in rows], name="t")


def ciphertext_rows(relation: Relation):
    return [tuple(str(value) for value in row) for row in relation.rows()]


# ----------------------------------------------------------------------
# The edit-script algebra
# ----------------------------------------------------------------------
class TestViewDelta:
    def roundtrip(self, old: Relation, new: Relation):
        delta = compute_view_delta(old, new)
        applied = apply_view_delta(old, delta)
        assert list(applied.rows()) == list(new.rows())
        assert applied.schema == new.schema
        return delta

    def test_identical_views_are_one_copy_segment(self):
        view = rel([["a", "1"], ["b", "2"], ["c", "3"]])
        delta = self.roundtrip(view, view.copy())
        assert delta.segments == [["c", 0, 3]]
        assert delta.literals is None
        assert delta.reuse_fraction == 1.0

    def test_append_only(self):
        old = rel([["a", "1"], ["b", "2"]])
        new = rel([["a", "1"], ["b", "2"], ["c", "3"]])
        delta = self.roundtrip(old, new)
        assert delta.segments == [["c", 0, 2], ["l", 1]]
        assert delta.literal_rows == 1

    def test_mid_change_and_tail_shift(self):
        # One row changes in place, the tail shifts by an insertion: the
        # alignment keeps both flanks as copies.
        old = rel([["a", "1"], ["b", "2"], ["c", "3"], ["d", "4"]])
        new = rel([["a", "1"], ["B", "X"], ["zz", "9"], ["c", "3"], ["d", "4"]])
        delta = self.roundtrip(old, new)
        assert delta.literal_rows == 2
        assert ["c", 2, 2] in delta.segments  # the shifted tail is one copy

    def test_reordered_rows_are_still_copies(self):
        old = rel([["a", "1"], ["b", "2"], ["c", "3"]])
        new = rel([["c", "3"], ["a", "1"], ["b", "2"]])
        delta = self.roundtrip(old, new)
        assert delta.literals is None

    def test_duplicate_rows_interchangeable(self):
        old = rel([["x", "1"], ["x", "1"], ["y", "2"]])
        new = rel([["y", "2"], ["x", "1"], ["x", "1"], ["x", "1"]])
        delta = self.roundtrip(old, new)
        # A fourth "x" copy may reference any equal base row.
        assert delta.literals is None

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            compute_view_delta(rel([["a", "1"]]), rel([["a"]], attrs=("A",)))

    def test_apply_rejects_wrong_base(self):
        old = rel([["a", "1"], ["b", "2"]])
        new = rel([["a", "1"], ["b", "2"], ["c", "3"]])
        delta = compute_view_delta(old, new)
        with pytest.raises(ProtocolError) as excinfo:
            apply_view_delta(new, delta)  # the wrong base (already updated)
        assert excinfo.value.code == ErrorCode.DELTA_MISMATCH.value

    @pytest.mark.parametrize(
        "segments",
        [
            [["c", 0, 5]],  # copy overruns the base
            [["c", -1, 1]],  # negative start
            [["l", 3]],  # literal overrun
            [["q", 1]],  # unknown opcode
            [["c", 0]],  # malformed copy
            ["nope"],  # not a segment
        ],
    )
    def test_apply_rejects_malformed_segments(self, segments):
        base = rel([["a", "1"], ["b", "2"]])
        delta = compute_view_delta(base, base.copy())
        delta.segments = segments
        with pytest.raises(ProtocolError) as excinfo:
            apply_view_delta(base, delta)
        assert excinfo.value.code == ErrorCode.BAD_REQUEST.value

    def test_unconsumed_literals_rejected(self):
        base = rel([["a", "1"]])
        new = rel([["b", "2"]])
        delta = compute_view_delta(base, new)
        delta.segments = []  # ships a literal row no segment consumes
        with pytest.raises(ProtocolError):
            apply_view_delta(base, delta)


# ----------------------------------------------------------------------
# The wire form
# ----------------------------------------------------------------------
class TestInsertDeltaMessage:
    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_roundtrip(self, form):
        old = rel([["a", "1"], ["b", "2"], ["c", "3"]])
        new = rel([["a", "1"], ["x", "9"], ["c", "3"], ["d", "4"]])
        delta = compute_view_delta(old, new)
        message = InsertDelta(table_id="orders", delta=delta, batch_rows=2)
        decoded = Message.decode(message.encode(form))
        assert isinstance(decoded, InsertDelta)
        assert decoded.table_id == "orders"
        assert decoded.batch_rows == 2
        assert decoded.delta.segments == delta.segments
        assert decoded.delta.base_rows == delta.base_rows
        assert list(decoded.delta.literals.rows()) == list(delta.literals.rows())
        # The decoded delta applies exactly like the original.
        assert list(apply_view_delta(old, decoded.delta).rows()) == list(new.rows())

    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_roundtrip_without_literals(self, form):
        view = rel([["a", "1"]])
        delta = compute_view_delta(view, view.copy())
        decoded = Message.decode(InsertDelta(table_id="t", delta=delta).encode(form))
        assert decoded.delta.literals is None
        assert decoded.delta.segments == delta.segments


# ----------------------------------------------------------------------
# End to end through the protocol
# ----------------------------------------------------------------------
def incremental_batch(table: Relation, count: int, tag: str):
    """Rows that keep the MAS structure (reuse an existing duplicated
    combination, fresh unique Street values) so the insert runs
    incrementally rather than falling back to a full re-encryption."""
    from collections import Counter

    index = table.schema.index_of("Street")
    combos = Counter(
        tuple(value for position, value in enumerate(row) if position != index)
        for row in table.rows()
    )
    combo, _ = combos.most_common(1)[0]
    rows = []
    for offset in range(count):
        row = list(combo)
        row.insert(index, f"street-{tag}-{offset}")
        rows.append(row)
    return rows


class TestDeltaProtocolPath:
    def test_incremental_insert_ships_delta_and_matches_bytes(self, zipcode_table):
        server = ProtocolServer()
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(LoopbackTransport(server)))
        session.outsource(zipcode_table)
        for round_index in range(3):
            session.insert_rows(incremental_batch(owner.plaintext, 2, f"r{round_index}"))
            assert owner.last_update_report.mode == "incremental"
            assert session.last_delta is not None, "expected the delta path"
            assert session.last_delta.reuse_fraction >= 0.5
            # The spliced store is byte-identical to the owner's full view.
            assert ciphertext_rows(server.store()) == ciphertext_rows(
                owner.server_view()
            )
        # And the decrypted state equals the plaintext exactly.
        matches = session.query("City", "Hoboken")
        assert list(matches.rows()) == list(
            owner.select_plaintext("City", "Hoboken").rows()
        )

    def test_mas_change_falls_back_to_full_insert(self, zipcode_table):
        server = ProtocolServer()
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(LoopbackTransport(server)))
        session.outsource(zipcode_table)
        # Duplicating a full existing row makes previously unique projections
        # collide -> the MAS structure changes -> full pipeline fallback.
        session.insert_rows([list(zipcode_table.row(0))])
        assert owner.last_update_report.mode == "full"
        assert session.last_delta is None
        assert ciphertext_rows(server.store()) == ciphertext_rows(owner.server_view())

    def test_interleaved_writer_triggers_mismatch_fallback(self, zipcode_table):
        # Another writer replaces the stored view behind the session's back;
        # the next delta fails the commit-version CAS and the session
        # silently re-ships the full view instead.
        server = ProtocolServer()
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(LoopbackTransport(server)))
        session.outsource(zipcode_table)

        intruder = make_owner(key_seed=5, seed=5)
        intruder.outsource(zipcode_table)
        ProtocolClient(LoopbackTransport(server)).outsource(
            "default", intruder.server_view()
        )

        session.insert_rows(incremental_batch(owner.plaintext, 2, "x"))
        assert session.last_delta is None  # fell back to InsertBatch
        assert ciphertext_rows(server.store()) == ciphertext_rows(owner.server_view())
        # Delta shipping resumes once the base is realigned.
        session.insert_rows(incremental_batch(owner.plaintext, 2, "y"))
        assert session.last_delta is not None

    def test_delta_measurably_smaller_on_wire(self, zipcode_table):
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, ProtocolClient(LoopbackTransport(ProtocolServer()))
        )
        session.outsource(zipcode_table)
        base_view = owner.server_view()
        session.insert_rows(incremental_batch(owner.plaintext, 1, "small"))
        delta = session.last_delta
        assert delta is not None
        new_view = owner.server_view()
        delta_bytes = len(InsertDelta(table_id="t", delta=delta).encode("binary"))
        full_bytes = len(InsertBatch(table_id="t", relation=new_view).encode("binary"))
        assert delta_bytes < full_bytes / 2

    def test_delta_updates_can_be_disabled(self, zipcode_table):
        server = ProtocolServer()
        owner = make_owner()
        session = RemoteOwnerSession(
            owner,
            ProtocolClient(LoopbackTransport(server)),
            delta_updates=False,
        )
        session.outsource(zipcode_table)
        session.insert_rows(incremental_batch(owner.plaintext, 2, "z"))
        assert session.last_delta is None
        assert ciphertext_rows(server.store()) == ciphertext_rows(owner.server_view())


# ----------------------------------------------------------------------
# The base check: row count + commit-version CAS (no view digest)
# ----------------------------------------------------------------------
class RecordingTransport(LoopbackTransport):
    """A loopback transport that keeps every request frame it carried."""

    def __init__(self, server: ProtocolServer):
        super().__init__(server)
        self.frames: list[bytes] = []
        self.replies: list[bytes] = []

    def request(self, data: bytes) -> bytes:
        self.frames.append(data)
        reply = super().request(data)
        self.replies.append(reply)
        return reply

    def kinds(self) -> list[str]:
        return [Message.decode(frame).kind for frame in self.frames]

    def clear(self) -> None:
        self.frames.clear()
        self.replies.clear()


def remote_plaintext(owner: DataOwner, server: ProtocolServer) -> list[tuple]:
    """Decrypt the provider's stored view with the owner's key and provenance."""
    remote = dataclasses.replace(owner.encrypted, relation=server.store())
    return list(decrypt_table(remote, owner.pipeline.cipher).rows())


def storage_server(storage: Path, engine: str) -> ProtocolServer:
    return ProtocolServer(storage_dir=storage, storage_engine=engine)


def reconnected(owner, old_session, server) -> "tuple[RemoteOwnerSession, RecordingTransport]":
    """A new session over ``server`` carrying the owner's delta base."""
    transport = RecordingTransport(server)
    session = RemoteOwnerSession(owner, ProtocolClient(transport), verify=False)
    session._last_view = old_session._last_view
    session._last_version = old_session._last_version
    return session, transport


def assert_full_fallback_then_resume(owner, session, transport, server) -> None:
    """The next insert's delta fails the CAS and the full view is re-shipped;
    the insert after that is a delta again."""
    transport.clear()
    session.insert_rows(incremental_batch(owner.plaintext, 2, "after"))
    assert owner.last_update_report.mode == "incremental"
    assert session.last_delta is None
    assert transport.kinds() == ["insert_delta", "insert_batch"]
    refused = Message.decode(transport.replies[0])
    assert isinstance(refused, ErrorReply)
    assert refused.code == ErrorCode.VERSION_CONFLICT.value
    assert ciphertext_rows(server.store()) == ciphertext_rows(owner.server_view())
    assert remote_plaintext(owner, server) == list(owner.plaintext.rows())
    session.insert_rows(incremental_batch(owner.plaintext, 1, "resumed"))
    assert session.last_delta is not None
    assert remote_plaintext(owner, server) == list(owner.plaintext.rows())


class TestDeltaBaseCheck:
    """With verification off the CAS alone must catch a moved base.

    (With it on, the owner's freshness chain rejects a rolled-back store
    itself — ``tests/test_integrity_protocol.py`` pins that.)
    """

    @pytest.mark.parametrize("engine", ["snapshot", "segment"])
    def test_interleaved_full_insert_from_second_session(
        self, zipcode_table, tmp_path, engine
    ):
        server = storage_server(tmp_path, engine)
        owner = make_owner()
        transport = RecordingTransport(server)
        session = RemoteOwnerSession(owner, ProtocolClient(transport), verify=False)
        session.outsource(zipcode_table)
        session.insert_rows(incremental_batch(owner.plaintext, 1, "first"))
        assert session.last_delta is not None

        # A second session pushes a full InsertBatch behind the first one's
        # back — the same rows in another order, so the row count still
        # matches and only the commit version tells the bases apart.
        view = owner.server_view()
        shuffled = Relation(list(view.attributes), [list(row) for row in view.rows()][::-1])
        ProtocolClient(LoopbackTransport(server)).insert("default", shuffled)
        assert server.store().num_rows == owner.server_view().num_rows

        assert_full_fallback_then_resume(owner, session, transport, server)

    def test_segment_store_reopened_at_older_generation(self, zipcode_table, tmp_path):
        storage = tmp_path / "live"
        server = storage_server(storage, "segment")
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, ProtocolClient(LoopbackTransport(server)), verify=False
        )
        session.outsource(zipcode_table)
        frozen = tmp_path / "older"
        shutil.copytree(storage, frozen)
        session.insert_rows(incremental_batch(owner.plaintext, 1, "lost"))
        assert session.last_delta is not None

        # The provider comes back on the older generation.
        shutil.rmtree(storage)
        shutil.copytree(frozen, storage)
        revived = storage_server(storage, "segment")
        assert revived.table_store().commit_version < session._last_version
        fresh, transport = reconnected(owner, session, revived)
        assert_full_fallback_then_resume(owner, fresh, transport, revived)

    def test_restored_older_snapshot(self, zipcode_table, tmp_path):
        server = storage_server(tmp_path, "snapshot")
        transport = RecordingTransport(server)
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(transport), verify=False)
        session.outsource(zipcode_table)
        older = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        session.insert_rows(incremental_batch(owner.plaintext, 1, "lost"))
        assert session.last_delta is not None

        # The provider restores the older snapshot (and its sidecar) in place.
        for name, data in older.items():
            (tmp_path / name).write_bytes(data)
        session.client.load_snapshot("default")
        assert server.table_store().commit_version < session._last_version

        assert_full_fallback_then_resume(owner, session, transport, server)


class TestDuplicateDeltaFrame:
    """A re-delivered ``InsertDelta`` frame is never spliced twice.

    Every delta is CAS-armed, so the copy of an unauthenticated frame fails
    the commit-version check; on a signed session the replayed sequence
    number is rejected before that.  (Making the owner's insert itself
    two-phase, so a lost *reply* can be retried safely, is separate work.)
    """

    def test_unauthenticated_copy_is_a_version_conflict(self, zipcode_table):
        server = ProtocolServer()
        transport = RecordingTransport(server)
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(transport))
        session.outsource(zipcode_table)
        session.insert_rows(incremental_batch(owner.plaintext, 2, "once"))
        frame = transport.frames[-1]
        request = Message.decode(frame)
        assert isinstance(request, InsertDelta)
        assert request.base_version >= 0
        stored = ciphertext_rows(server.store())

        reply = Message.decode(server.handle_bytes(frame))
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.VERSION_CONFLICT.value
        assert ciphertext_rows(server.store()) == stored == ciphertext_rows(
            owner.server_view()
        )

    def test_signed_copy_is_a_bad_sequence(self, zipcode_table):
        registry = TenantRegistry()
        server = ProtocolServer(tenants=registry)
        transport = RecordingTransport(server)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner,
            ProtocolClient(transport),
            credential=registry.mint("acme", "owner"),
        )
        session.outsource(zipcode_table)
        session.insert_rows(incremental_batch(owner.plaintext, 2, "once"))
        frame = transport.frames[-1]
        envelope = Message.decode(frame)
        assert isinstance(envelope, SignedEnvelope)
        inner = Message.decode(envelope.payload)
        assert isinstance(inner, InsertDelta) and inner.base_version >= 0
        stored = ciphertext_rows(server.store(tenant_id="acme"))

        reply = Message.decode(server.handle_bytes(frame))
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.BAD_SEQUENCE.value
        assert ciphertext_rows(server.store(tenant_id="acme")) == stored


# ----------------------------------------------------------------------
# Property: resumed state == from-scratch outsource, across backends
# ----------------------------------------------------------------------
def seeded_urandom(seed: int):
    """A context patching the fresh-nonce source so runs are byte-comparable.

    Instance ciphertexts and artificial values already derive from the key
    and the config seed; only frequency-one (RandomCell) encryptions draw
    from ``os.urandom``.
    """
    import random as _random
    from unittest import mock

    rng = _random.Random(seed)
    return mock.patch(
        "repro.crypto.probabilistic.os.urandom",
        lambda count: bytes(rng.getrandbits(8) for _ in range(count)),
    )


def random_batches(table, seed: int, rounds: int = 2):
    """Batches recombining the table's own per-attribute values, so examples
    exercise both the incremental-delta path and the full fallback."""
    import random as _random

    rng = _random.Random(seed)
    return [
        [
            [rng.choice(table.column(attr)) for attr in table.attributes]
            for _ in range(rng.randint(1, 3))
        ]
        for _ in range(rounds)
    ]


def run_delta_flow(backend, key_seed, seed, alpha, table, batches, urandom_seed=1234):
    """Outsource ``table`` then insert each batch through the session's
    delta path; returns (stored ciphertext rows as text, decrypted rows,
    number of delta-shipped batches)."""
    with seeded_urandom(urandom_seed):
        server = ProtocolServer(backend=backend)
        owner = make_owner(key_seed=key_seed, alpha=alpha, seed=seed, backend=backend)
        session = RemoteOwnerSession(owner, ProtocolClient(LoopbackTransport(server)))
        session.outsource(table.copy())
        deltas = 0
        for batch in batches:
            session.insert_rows(batch)
            deltas += session.last_delta is not None
        stored = server.store()
        decrypted = owner.decrypt()
    return ciphertext_rows(stored), list(decrypted.rows()), deltas


class TestResumeEqualsScratch:
    @SLOW
    @given(st.integers(min_value=0, max_value=30), st.sampled_from([0.5, 0.34]))
    def test_delta_resume_equals_scratch_outsource(self, seed, alpha):
        from tests.conftest import make_random_table

        table = make_random_table(seed + 500, num_attributes=3)
        batches = random_batches(table, seed)
        stored, decrypted, _ = run_delta_flow(None, seed, seed, alpha, table, batches)

        # The decrypted resumed state equals the full plaintext exactly.
        full_plain = table.copy()
        for batch in batches:
            full_plain.extend(batch)
        assert decrypted == list(full_plain.rows())
        # The flow is deterministic under a seeded nonce source, and the
        # provider's spliced store is byte-identical to the owner's view —
        # the delta path introduced no divergence anywhere.
        replay = run_delta_flow(None, seed, seed, alpha, table, batches)
        assert replay[0] == stored

    @needs_numpy
    @SLOW
    @given(st.integers(min_value=0, max_value=12), st.sampled_from([0.5, 0.34]))
    def test_delta_flow_byte_identical_across_backends(self, seed, alpha):
        from tests.conftest import make_random_table

        table = make_random_table(seed + 700, num_attributes=3)
        batches = random_batches(table, seed)
        python_flow = run_delta_flow("python", seed, seed, alpha, table, batches)
        numpy_flow = run_delta_flow("numpy", seed, seed, alpha, table, batches)
        assert python_flow[0] == numpy_flow[0]  # stored ciphertext bytes
        assert python_flow[1] == numpy_flow[1]  # decrypted rows
        assert python_flow[2] == numpy_flow[2]  # same delta-vs-full decisions
