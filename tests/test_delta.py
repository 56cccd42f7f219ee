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
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    DataOwner,
    InsertDelta,
    LoopbackTransport,
    Message,
    OutsourceRequest,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    apply_view_delta,
    compute_view_delta,
)
from repro.api import session as session_module
from repro.api.auth import ErrorCode, TenantRegistry
from repro.api.protocol import ErrorReply, SignedEnvelope
from repro.api.session import decrypt_table
from repro.backend import numpy_available
from repro.core.config import F2Config
from repro.exceptions import AuthError, ProtocolError
from repro.integrity.writers import WriteCoordinator
from repro.query.ast import Eq
from repro.relational.table import Relation

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
    @pytest.mark.parametrize("form", ["binary"])
    def test_roundtrip(self, form):
        old = rel([["a", "1"], ["b", "2"], ["c", "3"]])
        new = rel([["a", "1"], ["x", "9"], ["c", "3"], ["d", "4"]])
        delta = compute_view_delta(old, new)
        message = InsertDelta(table_id="orders", delta=delta, batch_rows=2)
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, InsertDelta)
        assert decoded.table_id == "orders"
        assert decoded.batch_rows == 2
        assert decoded.delta.segments == delta.segments
        assert decoded.delta.base_rows == delta.base_rows
        assert list(decoded.delta.literals.rows()) == list(delta.literals.rows())
        # The decoded delta applies exactly like the original.
        assert list(apply_view_delta(old, decoded.delta).rows()) == list(new.rows())

    @pytest.mark.parametrize("form", ["binary"])
    def test_roundtrip_without_literals(self, form):
        view = rel([["a", "1"]])
        delta = compute_view_delta(view, view.copy())
        decoded = Message.decode(InsertDelta(table_id="t", delta=delta).encode())
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
        matches = session.select(Eq("City", "Hoboken"))
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
        assert session.last_delta is None  # fell back to a full OutsourceRequest
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
        delta_bytes = len(InsertDelta(table_id="t", delta=delta).encode())
        full_bytes = len(OutsourceRequest(table_id="t", relation=new_view).encode())
        assert delta_bytes < full_bytes / 2


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


def remote_plaintext(owner: DataOwner, server: ProtocolServer, **table) -> list[tuple]:
    """Decrypt the provider's stored view with the owner's key and provenance.

    ``table`` names the stored table (``table_id``, ``tenant_id``) when it is
    not the local default one.
    """
    remote = dataclasses.replace(owner.encrypted, relation=server.store(**table))
    return list(decrypt_table(remote, owner.pipeline.cipher).rows())


def storage_server(storage: Path, engine: str) -> ProtocolServer:
    """A server on ``engine``: the in-memory store or the segment store."""
    return ProtocolServer(storage_dir=None if engine == "memory" else storage)


def reconnected(owner, old_session, server) -> "tuple[RemoteOwnerSession, RecordingTransport]":
    """A new session over ``server`` carrying the owner's delta base."""
    transport = RecordingTransport(server)
    session = RemoteOwnerSession(
        owner, ProtocolClient(transport), verify=False, coordinator=old_session.coordinator
    )
    return session, transport


def assert_full_fallback_then_resume(owner, session, transport, server) -> None:
    """The next insert's delta fails the CAS and the full view is re-shipped;
    the insert after that is a delta again."""
    transport.clear()
    session.insert_rows(incremental_batch(owner.plaintext, 2, "after"))
    assert owner.last_update_report.mode == "incremental"
    assert session.last_delta is None
    assert transport.kinds() == ["insert_delta", "outsource_request"]
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

    @pytest.mark.parametrize("engine", ["memory", "segment"])
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

        # A second session pushes a full view behind the first one's
        # back — the same rows in another order, so the row count still
        # matches and only the commit version tells the bases apart.
        view = owner.server_view()
        shuffled = Relation(list(view.attributes), [list(row) for row in view.rows()][::-1])
        ProtocolClient(LoopbackTransport(server)).outsource("default", shuffled)
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
        assert revived.table_store().commit_version < session.coordinator.snapshot_base()[1]
        fresh, transport = reconnected(owner, session, revived)
        assert_full_fallback_then_resume(owner, fresh, transport, revived)


class LostReplyTransport(RecordingTransport):
    """Delivers every request, but can lose the reply of the next request of
    kind ``lose_next_reply_of`` (a signed one is judged by its payload): the
    server applied it and the owner never learns."""

    lose_next_reply_of: "str | None" = None

    def request(self, data: bytes) -> bytes:
        reply = super().request(data)
        message = Message.decode(data)
        if isinstance(message, SignedEnvelope):
            message = Message.decode(message.payload)
        if message.kind == self.lose_next_reply_of:
            self.lose_next_reply_of = None
            raise ConnectionError("reply lost")
        return reply


def counting_alignments():
    """Patch the session's ``compute_view_delta``; returns (patch, calls)."""
    calls: list[int] = []
    real = session_module.compute_view_delta

    def counted(old, new):
        calls.append(new.num_rows)
        return real(old, new)

    return mock.patch.object(session_module, "compute_view_delta", counted), calls


class TestDirectDelta:
    """The delta the incremental tail builds from its splice."""

    def check_direct_delta(self, owner: DataOwner, batch) -> bool:
        previous_view = owner.server_view()
        owner.insert_rows(batch)
        report, delta = owner.last_update_report, owner.last_view_delta
        if report.mode != "incremental" or report.tail_fallback is not None:
            assert delta is None
            return False
        assert delta is not None and delta.base_rows == previous_view.num_rows
        new_view = owner.server_view()
        assert ciphertext_rows(apply_view_delta(previous_view, delta)) == ciphertext_rows(
            new_view
        )
        assert delta.literal_rows <= compute_view_delta(previous_view, new_view).literal_rows
        return True

    def test_zipcode_inserts(self, zipcode_table):
        owner = make_owner()
        owner.outsource(zipcode_table)
        for round_index in range(4):
            batch = incremental_batch(owner.plaintext, 1 + 2 * round_index, f"d{round_index}")
            assert self.check_direct_delta(owner, batch)
        assert owner.last_view_delta.reuse_fraction >= 0.5

    @SLOW
    @given(st.integers(min_value=0, max_value=60), st.sampled_from([0.5, 0.34]))
    def test_random_tables(self, seed, alpha):
        from tests.conftest import make_random_table

        table = make_random_table(seed + 900, num_attributes=3)
        owner = make_owner(key_seed=seed, alpha=alpha, seed=seed)
        owner.outsource(table)
        for batch in random_batches(table, seed, rounds=3):
            self.check_direct_delta(owner, batch)

    @pytest.mark.parametrize("engine", ["memory", "segment"])
    def test_lost_reply_disables_the_direct_delta(self, zipcode_table, tmp_path, engine):
        """A lost reply no longer leaves the owner ahead of her acknowledged
        base: she takes the rows back, so the next insert's base is her
        previous table again and ships the direct delta.  The server holds
        the lost rows, so the CAS refuses it and the full view is re-pushed;
        nothing is ever aligned."""
        server = storage_server(tmp_path, engine)
        transport = LostReplyTransport(server)
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(transport), verify=False)
        session.outsource(zipcode_table)
        patch, aligned = counting_alignments()
        with patch:
            session.insert_rows(incremental_batch(owner.plaintext, 1, "acked"))
            assert session.last_delta is owner.last_view_delta is not None

            transport.lose_next_reply_of = "insert_delta"
            acked = owner.state()
            with pytest.raises(ConnectionError):
                session.insert_rows(incremental_batch(owner.plaintext, 1, "lost"))
            assert owner.state() == acked
            assert "street-lost-0" not in owner.plaintext.column("Street")
            assert server.store().num_rows > owner.encrypted.relation.num_rows

            transport.clear()
            session.insert_rows(incremental_batch(owner.plaintext, 1, "next"))
            assert transport.kinds() == ["insert_delta", "outsource_request"]
            refused = Message.decode(transport.replies[0])
            assert refused.code == ErrorCode.VERSION_CONFLICT.value
            assert session.last_delta is None
            assert remote_plaintext(owner, server) == list(owner.plaintext.rows())

            # Acknowledged again: the direct delta is back.
            session.insert_rows(incremental_batch(owner.plaintext, 1, "resumed"))
            assert session.last_delta is owner.last_view_delta is not None
            assert aligned == []
        assert ciphertext_rows(server.store()) == ciphertext_rows(owner.server_view())
        assert remote_plaintext(owner, server) == list(owner.plaintext.rows())
        assert "street-lost-0" not in owner.plaintext.column("Street")


class TestStagedInserts:
    """An insert adopts its rows on the owner only when the server holds
    them: a return means the rows are on both sides exactly once, a raise
    means they are on neither."""

    @pytest.mark.parametrize("engine", ["memory", "segment"])
    def test_a_retry_after_a_lost_reply_inserts_once(self, zipcode_table, tmp_path, engine):
        server = storage_server(tmp_path, engine)
        transport = LostReplyTransport(server)
        owner = make_owner()
        session = RemoteOwnerSession(owner, ProtocolClient(transport), verify=False)
        session.outsource(zipcode_table)
        batch = incremental_batch(owner.plaintext, 1, "retried")

        transport.lose_next_reply_of = "insert_delta"
        with pytest.raises(ConnectionError):
            session.insert_rows(batch)
        session.insert_rows(batch)  # the caller's retry

        assert owner.plaintext.num_rows == zipcode_table.num_rows + 1
        assert remote_plaintext(owner, server) == list(owner.plaintext.rows())
        assert session.select(Eq("Street", "street-retried-0")).num_rows == 1

    @pytest.mark.parametrize("allow_anonymous", [False, True])
    @pytest.mark.parametrize("change", ["delta", "mas-change"])
    def test_a_signed_retry_after_a_lost_reply_re_handshakes(
        self, zipcode_table, allow_anonymous, change
    ):
        """The lost reply drops the signed session.  The retry opens a new
        one with the same credential; it never goes out unsigned, where a
        server that admits anonymous peers would run it as the local
        tenant."""
        registry = TenantRegistry()
        server = ProtocolServer(tenants=registry, allow_anonymous=allow_anonymous)
        transport = LostReplyTransport(server)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner,
            ProtocolClient(transport),
            table_id="orders",
            credential=registry.mint("acme", "owner"),
            verify=False,
        )
        session.outsource(zipcode_table)
        if change == "delta":
            batch = incremental_batch(owner.plaintext, 1, "retried")
            transport.lose_next_reply_of = "insert_delta"
        else:
            batch = [list(zipcode_table.row(0))]  # a duplicate row changes the MASs
            transport.lose_next_reply_of = "outsource_request"
        with pytest.raises(ConnectionError):
            session.insert_rows(batch)
        session.insert_rows(batch)  # the caller's retry

        assert owner.last_update_report.mode == ("incremental" if change == "delta" else "full")
        assert owner.plaintext.num_rows == zipcode_table.num_rows + 1
        assert server.table_ids(None) == ["acme/orders"]
        assert server.table_ids() == []
        assert remote_plaintext(owner, server, table_id="orders", tenant_id="acme") == list(
            owner.plaintext.rows()
        )
        assert set(transport.kinds()) == {"hello", "signed"}

    def test_a_refused_insert_leaves_the_owner_as_it_was(self, zipcode_table):
        registry = TenantRegistry()
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner,
            ProtocolClient(LoopbackTransport(server)),
            credential=registry.mint("acme", "owner"),
        )
        session.outsource(zipcode_table)
        expected = list(session.select(Eq("City", "Hoboken")).rows())
        plaintext, encrypted = owner.plaintext, owner.encrypted
        token = owner.derive_search_token("City", "Hoboken")  # memoised
        analyst = RemoteOwnerSession(
            owner,
            ProtocolClient(LoopbackTransport(server)),
            credential=registry.mint("acme", "analyst"),
        )
        with pytest.raises(AuthError) as excinfo:
            analyst.insert_rows(incremental_batch(owner.plaintext, 1, "refused"))
        assert excinfo.value.code == ErrorCode.FORBIDDEN.value

        assert owner.plaintext.num_rows == zipcode_table.num_rows
        assert owner.plaintext is plaintext and owner.encrypted is encrypted
        assert owner.derive_search_token("City", "Hoboken") is token
        assert list(session.select(Eq("City", "Hoboken")).rows()) == expected

    def test_a_coordinated_writer_recovers_from_a_lost_reply(self, zipcode_table):
        server = ProtocolServer()
        owner = make_owner()
        coordinator = WriteCoordinator()
        boot = RemoteOwnerSession(
            owner, ProtocolClient(LoopbackTransport(server)), coordinator=coordinator
        )
        boot.outsource(zipcode_table)
        transport = LostReplyTransport(server)
        writer = RemoteOwnerSession(owner, ProtocolClient(transport), coordinator=coordinator)
        transport.lose_next_reply_of = "insert_delta"
        with pytest.raises(ConnectionError):
            writer.insert_rows(incremental_batch(owner.plaintext, 1, "lost"))

        # The server moved with no writer of the coordinator in flight: the
        # next insert re-pushes the full view instead of waiting for an ack
        # that never comes.  A thread with a timeout fails a livelock.
        returned = []
        thread = threading.Thread(
            target=lambda: returned.append(
                writer.insert_rows(incremental_batch(owner.plaintext, 1, "next"))
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=30)
        assert returned == [owner.encrypted.relation.num_rows]
        assert remote_plaintext(owner, server) == list(owner.plaintext.rows())
        assert "street-lost-0" not in owner.plaintext.column("Street")
        assert coordinator.stats.withdrawn == 1
        assert coordinator.stats.full_pushes == 2  # the boot outsource and the re-push

    @pytest.mark.parametrize("later", ["acknowledged", "refused"])
    def test_a_refused_writer_under_a_later_writer(self, zipcode_table, later):
        """Writer A's push is refused after writer B staged on top of it.
        A cannot take its rows back (B's view holds them): it waits for B,
        and is a no-op once B is acknowledged, or pushes again once B took
        its rows back."""
        server = ProtocolServer()
        owner = make_owner()
        coordinator = WriteCoordinator()
        RemoteOwnerSession(
            owner, ProtocolClient(LoopbackTransport(server)), coordinator=coordinator
        ).outsource(zipcode_table)
        refusal = ErrorReply(error="Refused", message="refused", code="BAD_REQUEST").encode()
        a_settling = threading.Event()
        b_pushing = threading.Event()
        settle = coordinator.settle_conflict

        def settling(*args):
            a_settling.set()
            return settle(*args)

        coordinator.settle_conflict = settling

        class Gate(LoopbackTransport):
            """Runs ``hold`` before the first delta and answers it with
            ``refusal`` instead of forwarding it when ``refuse`` is set."""

            def __init__(self, hold, refuse):
                super().__init__(server)
                self.hold, self.refuse = hold, refuse

            def request(self, data: bytes) -> bytes:
                if self.hold is None or Message.decode(data).kind != "insert_delta":
                    return super().request(data)
                self.hold()
                self.hold = None
                return refusal if self.refuse else super().request(data)

        outcome = []

        def run_b():
            try:
                b.insert_rows(incremental_batch(owner.plaintext, 1, "b"))
                outcome.append("returned")
            except ProtocolError:
                outcome.append("raised")

        def b_holds():
            b_pushing.set()
            assert a_settling.wait(10)

        def a_holds():
            thread.start()
            assert b_pushing.wait(10)

        thread = threading.Thread(target=run_b, daemon=True)
        b = RemoteOwnerSession(
            owner, ProtocolClient(Gate(b_holds, later == "refused")), coordinator=coordinator
        )
        a = RemoteOwnerSession(owner, ProtocolClient(Gate(a_holds, True)), coordinator=coordinator)
        a.insert_rows(incremental_batch(owner.plaintext, 1, "a"))
        thread.join(timeout=30)

        assert outcome == ["returned" if later == "acknowledged" else "raised"]
        streets = owner.plaintext.column("Street")
        assert "street-a-0" in streets
        assert ("street-b-0" in streets) == (later == "acknowledged")
        assert remote_plaintext(owner, server) == list(owner.plaintext.rows())
        assert coordinator.stats.withdrawn == (later == "refused")


class TestDuplicateDeltaFrame:
    """A re-delivered ``InsertDelta`` frame is never spliced twice.

    Every delta is CAS-armed, so the copy of an unauthenticated frame fails
    the commit-version check; on a signed session the replayed sequence
    number is rejected before that.  (A lost *reply* is the owner's side:
    the session takes the rows back and the retry's CAS conflict re-pushes
    her view — ``TestStagedInserts``.)
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
