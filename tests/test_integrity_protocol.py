"""End-to-end tests of the trustworthy-server subsystem (PR 8).

The tamper matrix: bit-flipped stores, a generation rollback, and replies
edited in transit are each detected *owner-side* with ``IntegrityError`` —
on the durable segment store (plus one folded by a long delta history) and
both compute backends.  A lying server that signs a wrong answer is caught
by the owner's answer check over her replica.  Plus: protocol v7
sessions (signed replies, recovery by a new Hello), the per-table version CAS
for multi-writer deltas, the coordinated multi-writer stress run that
pins zero full-view fallbacks, the tree-upkeep counters, the refusal of a
store in a format this code does not read, and the root check of an
insert's full-view fallback.
"""

import dataclasses
import shutil
import threading
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    DataOwner,
    ErrorCode,
    LoopbackTransport,
    Message,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    TenantRegistry,
)
from repro import obs
from repro.api.delta import compute_view_delta
from repro.api.protocol import ErrorReply, PlanQueryRequest, SignedReply
from repro.backend import get_backend, numpy_available
from repro.cli import main
from repro.core.config import F2Config
from repro.exceptions import (
    AuthError,
    IntegrityError,
    ProtocolError,
    QueryError,
    StoreIntegrityWarning,
)
from repro.integrity.merkle import MerkleTree, relation_leaves
from repro.integrity.state import TableIntegrityState
from repro.integrity.writers import WriteCoordinator
from repro.query.ast import And, Eq, In, Or
from repro.query.server import execute_server_expr
from repro.relational.table import Relation
from repro.store import FOLD_LOG_RECORDS
from repro.store.segment import SegmentTableStore
from repro.wire.binary import ByteReader

from tests.conftest import binary_frame

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
#: The in-memory store and the durable segment engine.
ENGINES = ["memory", "segment"]
#: On-disk tamper inputs: a short delta history, and one long enough for
#: the segment store to have folded it into one segment.
STORES = ["segment", "compacted"]

SCHEMA = ["City", "Zip", "Side"]
ROWS = [
    ["Hoboken", "07030", "E"],
    ["Hoboken", "07030", "W"],
    ["Jersey", "07302", "E"],
    ["Newark", "07102", "N"],
    ["Hoboken", "07030", "N"],
    ["Jersey", "07302", "W"],
]


def make_owner(seed: int = 7, backend: str | None = None) -> DataOwner:
    return DataOwner.from_seed(seed, config=F2Config(alpha=0.25, seed=3, backend=backend))


def base_relation() -> Relation:
    return Relation(SCHEMA, [list(r) for r in ROWS], name="addresses")


@pytest.fixture
def registry() -> TenantRegistry:
    return TenantRegistry()


def storage_dir(tmp_path: Path, engine: str) -> "Path | None":
    """The server's storage directory for ``engine`` (none for memory)."""
    return None if engine == "memory" else tmp_path


def verified_session(server, credential, owner=None, **kwargs) -> RemoteOwnerSession:
    owner = owner or make_owner()
    client = ProtocolClient(LoopbackTransport(server))
    return RemoteOwnerSession(
        owner, client, table_id="orders", credential=credential, verify=True, **kwargs
    )


# ----------------------------------------------------------------------
# The happy path: verification enabled, nothing tampered
# ----------------------------------------------------------------------
class TestVerifiedRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_round_trip_is_byte_identical(self, registry, tmp_path, engine, backend):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(
            tenants=registry, storage_dir=storage_dir(tmp_path, engine),
            backend=backend,
        )
        owner = make_owner(backend=backend)
        session = verified_session(server, credential, owner=owner)
        relation = base_relation()
        session.outsource(relation)
        session.insert_rows([["Summit", "07901", "E"]])

        matches = session.select("City = Hoboken")
        expected = [r for r in ROWS if r[0] == "Hoboken"]
        assert sorted(map(list, matches.rows())) == sorted(expected)
        point = session.select(Eq("City", "Jersey"))
        assert point.num_rows == 2

    def test_verified_select_checks_the_answer_once(self, registry, monkeypatch):
        # Each verified select recomputes its answer over the owner's
        # replica exactly once, before decryption, and the reply carries
        # no inclusion proofs.
        credential = registry.mint("acme", "owner")
        session = verified_session(ProtocolServer(tenants=registry), credential)
        session.outsource(base_relation())
        checked = []
        original = TableIntegrityState.verify_proofs

        def recording(state, expr, row_indexes, leaf_match_counts, replica):
            checked.append((list(row_indexes), list(leaf_match_counts)))
            return original(state, expr, row_indexes, leaf_match_counts, replica)

        replies = []
        plan_query = session.client.plan_query

        def capture(*args, **kwargs):
            replies.append(plan_query(*args, **kwargs))
            return replies[-1]

        monkeypatch.setattr(TableIntegrityState, "verify_proofs", recording)
        monkeypatch.setattr(session.client, "plan_query", capture)
        assert session.select(Eq("City", "Jersey")).num_rows == 2
        assert session.select("City = Hoboken or City = Newark").num_rows == 4
        assert checked == [
            (list(reply.row_indexes), list(reply.leaf_match_counts)) for reply in replies
        ]
        assert len(checked) == 2
        assert all(reply.proofs is None for reply in replies)

    def test_session_verifies_equally_over_both_engines(self, registry, tmp_path):
        # The owner-side expected root is engine-independent: the same
        # pushed view yields the same root whichever way the server stores it.
        credential = registry.mint("acme", "owner")
        roots = []
        for engine in ENGINES:
            server = ProtocolServer(
                tenants=registry, storage_dir=storage_dir(tmp_path / engine, engine)
            )
            session = verified_session(server, credential)
            session.outsource(base_relation())
            result = session.client.plan_query(
                "orders", session.owner.plan_query("City = Hoboken").server,
                with_root=True,
            )
            session.integrity.check_reply(result.version, result.merkle_root)
            roots.append(session.integrity.expected_root)
        assert roots[0]  # non-empty

    def test_ack_carries_version_and_root(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        session = verified_session(server, credential)
        session.outsource(base_relation())
        ack = session.client.last_ack
        assert int(ack.fields["version"]) >= 0
        assert ack.fields["merkle_root"] == session.integrity.expected_root

    def test_env_var_enables_verification(self, registry, monkeypatch):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        monkeypatch.setenv("REPRO_VERIFY", "1")
        client = ProtocolClient(LoopbackTransport(server))
        session = RemoteOwnerSession(
            make_owner(), client, table_id="orders", credential=credential
        )
        assert session.verify and session.integrity is not None
        monkeypatch.setenv("REPRO_VERIFY", "0")
        client2 = ProtocolClient(LoopbackTransport(server))
        session2 = RemoteOwnerSession(
            make_owner(), client2, table_id="orders", credential=credential
        )
        assert not session2.verify


# ----------------------------------------------------------------------
# A lying server: a signed reply with a wrong answer
# ----------------------------------------------------------------------
LIES = ["drop", "add", "swap", "leaf-count", "num-rows"]


def tell(lie: str, reply):
    """``reply`` with one lie told about the match set or its counts."""
    rows = list(reply.row_indexes)
    unmatched = sorted(set(range(reply.num_rows)) - set(rows))
    if lie == "leaf-count":
        counts = list(reply.leaf_match_counts)
        counts[0] += 1
        return dataclasses.replace(reply, leaf_match_counts=tuple(counts))
    if lie == "num-rows":
        return dataclasses.replace(reply, num_rows=reply.num_rows + 1)
    if lie == "drop":
        rows = rows[1:]
    elif lie == "add":
        rows = sorted(rows + unmatched[:1])
    else:  # swap one match for a row that does not match
        rows = sorted(rows[1:] + unmatched[:1])
    return dataclasses.replace(reply, row_indexes=tuple(rows))


class LyingServer(ProtocolServer):
    """Executes every select honestly, then signs a reply with ``lie`` told."""

    lie: "str | None" = None

    def _lying_plan_query(self, request, auth):
        reply = ProtocolServer._handle_plan_query(self, request, auth)
        return reply if self.lie is None else tell(self.lie, reply)

    _HANDLERS = {**ProtocolServer._HANDLERS, PlanQueryRequest: _lying_plan_query}


class TestLyingServer:
    PREDICATES = ["City = Hoboken", "City = Jersey or City = Newark"]

    def served(self, registry, tmp_path, engine, backend, verify):
        credential = registry.mint("acme", "owner")
        server = LyingServer(
            tenants=registry, storage_dir=storage_dir(tmp_path, engine), backend=backend
        )
        owner = make_owner(backend=backend)
        client = ProtocolClient(LoopbackTransport(server))
        session = RemoteOwnerSession(
            owner, client, table_id="orders", credential=credential, verify=verify
        )
        session.outsource(base_relation())
        session.insert_rows([["Summit", "07901", "E"]])
        for predicate in self.PREDICATES:  # honest, and warms both caches
            expected = owner.select_plaintext_where(predicate)
            assert list(session.select(predicate).rows()) == list(expected.rows())
        return server, session

    @pytest.mark.parametrize("lie", LIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_verified_select_rejects_the_lie(self, registry, tmp_path, engine, backend, lie):
        server, session = self.served(registry, tmp_path, engine, backend, verify=True)
        server.lie = lie
        for predicate in self.PREDICATES:
            with pytest.raises(IntegrityError) as excinfo:
                session.select(predicate)
            assert "orders" in str(excinfo.value)

    @pytest.mark.parametrize("lie", LIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unverified_select_decrypts_the_lie(self, registry, tmp_path, engine, backend, lie):
        # Without verification the owner checks nothing beyond the row
        # count: she decrypts whatever match set the provider returns.
        server, session = self.served(registry, tmp_path, engine, backend, verify=False)
        server.lie = lie
        owner = session.owner
        for predicate in self.PREDICATES:
            if lie == "num-rows":
                with pytest.raises(QueryError, match="out of sync"):
                    session.select(predicate)
                continue
            matches, report = session.select_with_report(predicate)
            plan = owner.plan_query(predicate)
            lied = session.client.plan_query("orders", plan.server)
            assert list(matches.rows()) == list(owner.decrypt_plan_result(plan, lied).rows())
            assert report.consistent == (lie != "leaf-count")


# ----------------------------------------------------------------------
# The owner's answer check: cache, staleness, and the server's executor
# ----------------------------------------------------------------------
class _DroppingTransport:
    """Wraps a transport; while ``down``, requests never reach the server."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def request(self, data: bytes) -> bytes:
        if self.down:
            raise ConnectionError("link down")
        return self.inner.request(data)

    def close(self) -> None:
        self.inner.close()


def _predicates(attributes, values):
    """Random boolean predicates over ``attributes`` (values from ``values``)."""
    leaf = st.one_of(
        st.builds(Eq, st.sampled_from(attributes), st.sampled_from(values)),
        st.builds(
            In,
            st.sampled_from(attributes),
            st.lists(st.sampled_from(values), min_size=1, max_size=3).map(tuple),
        ),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda c: And(tuple(c))),
            st.lists(children, min_size=2, max_size=3).map(lambda c: Or(tuple(c))),
        ),
        max_leaves=4,
    )


class TestAnswerCheck:
    def test_select_after_insert_sees_the_new_row(self, registry):
        # The owner's leaf masks move to the grown replica through the
        # insert's view delta: the next verified select is checked (and
        # answered) over the grown view, the mask of a token the insert
        # left unchanged is a spliced hit, and only a full push drops them.
        credential = registry.mint("acme", "owner")
        session = verified_session(ProtocolServer(tenants=registry), credential)
        session.outsource(base_relation())
        masks = session.owner.replica_masks
        assert session.select("City = Hoboken").num_rows == 3
        assert session.select("Side = E").num_rows == 2
        assert session.select("Side = E").num_rows == 2
        assert masks.stats()["hits"] >= 1
        session.insert_rows([["Hoboken", "07030", "S"]])
        assert session.last_delta is not None
        before = masks.stats()
        assert session.select("Side = E").num_rows == 2
        after = masks.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["splices"] == before["splices"] + 1
        matches = session.select("City = Hoboken")
        assert ["Hoboken", "07030", "S"] in [list(row) for row in matches.rows()]
        assert matches.num_rows == 4
        assert masks.stats()["invalidations"] == 0
        session.outsource(base_relation())
        assert session.select("Side = E").num_rows == 2
        assert masks.stats()["invalidations"] == 1

    def test_owner_ahead_of_an_unacked_push_reports_the_desync(self, registry):
        # An insert that never reached the server is taken back from the
        # owner, so the next verified select answers.  An owner-side insert
        # that was never pushed does put her table ahead of every view the
        # server acknowledged: the answer is checked over the acknowledged
        # view (so it passes), and decryption then reports the desync, as
        # an unverified select does.
        credential = registry.mint("acme", "owner")
        transport = _DroppingTransport(LoopbackTransport(ProtocolServer(tenants=registry)))
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, ProtocolClient(transport), table_id="orders",
            credential=credential, verify=True,
        )
        session.outsource(base_relation())
        assert session.select("City = Hoboken").num_rows == 3
        transport.down = True
        with pytest.raises(ConnectionError):
            session.insert_rows([["Hoboken", "07030", "S"]])
        transport.down = False
        session.client.authenticate(credential)
        assert session.select("City = Hoboken").num_rows == 3
        owner.insert_rows([["Hoboken", "07030", "S"]])
        with pytest.raises(QueryError, match="out of sync"):
            session.select("City = Hoboken")

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["Hoboken", "Jersey", "Summit"]),
                st.sampled_from(["07030", "07302"]),
                st.sampled_from(["E", "W", "S"]),
            ),
            max_size=3,
        ),
        st.data(),
    )
    def test_replica_execution_equals_the_servers(self, inserts, data):
        registry = TenantRegistry()
        credential = registry.mint("acme", "owner")
        session = verified_session(ProtocolServer(tenants=registry), credential)
        session.outsource(base_relation())
        for row in inserts:
            session.insert_rows([list(row)])
        owner = session.owner
        values = sorted({cell for row in ROWS + [list(r) for r in inserts] for cell in row})
        predicates = _predicates(SCHEMA, values)
        for _ in range(3):
            plan = owner.plan_query(data.draw(predicates))
            if plan.server is None:
                continue
            served = session.client.plan_query("orders", plan.server)
            for _ in range(2):  # a cold and a cached execution
                rows, counts = execute_server_expr(
                    owner.replica_masks.over(owner.encrypted.relation), plan.server
                )
                assert (rows, counts) == (list(served.row_indexes), list(served.leaf_match_counts))
            matches = session.select(plan.predicate)
            assert list(matches.rows()) == list(owner.select_plaintext_where(plan.predicate).rows())


# ----------------------------------------------------------------------
# Signed replies
# ----------------------------------------------------------------------
class _EditingTransport:
    """Wraps a transport; can strip or corrupt SignedReply frames."""

    def __init__(self, inner):
        self.inner = inner
        self.mode = None  # None | "strip" | "flip"

    def request(self, data: bytes) -> bytes:
        reply = self.inner.request(data)
        if self.mode is None:
            return reply
        message = Message.decode(reply)
        if not isinstance(message, SignedReply):
            return reply
        if self.mode == "strip":
            return message.payload
        payload = bytearray(message.payload)
        payload[len(payload) // 2] ^= 0x01
        return SignedReply(
            session_id=message.session_id,
            sequence=message.sequence,
            signature=message.signature,
            payload=bytes(payload),
        ).encode()

    def close(self) -> None:
        self.inner.close()


class TestSignedReplies:
    def make_session(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        transport = _EditingTransport(LoopbackTransport(server))
        client = ProtocolClient(transport)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, client, table_id="orders", credential=credential, verify=True
        )
        return session, transport

    def test_reply_edited_in_transit_detected(self, registry):
        session, transport = self.make_session(registry)
        session.outsource(base_relation())
        transport.mode = "flip"
        with pytest.raises(IntegrityError, match="signature"):
            session.select(Eq("City", "Hoboken"))

    def test_stripped_signature_detected(self, registry):
        session, transport = self.make_session(registry)
        session.outsource(base_relation())
        transport.mode = "strip"
        with pytest.raises(IntegrityError, match="signed reply"):
            session.select(Eq("City", "Hoboken"))

    def test_signature_binds_to_the_request_sequence(self, registry):
        # A recorded (signed) reply replayed for a different request fails
        # verification because the sequence is part of the MAC input.
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)

        recorded = []

        class ReplayTransport:
            def __init__(self, inner):
                self.inner = inner
                self.replay = False

            def request(self, data):
                reply = self.inner.request(data)
                if self.replay and recorded:
                    decoded = Message.decode(recorded[0])
                    if isinstance(decoded, SignedReply):
                        return recorded[0]
                if isinstance(Message.decode(reply), SignedReply):
                    recorded.append(reply)
                return reply

            def close(self):
                self.inner.close()

        transport = ReplayTransport(LoopbackTransport(server))
        client = ProtocolClient(transport)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, client, table_id="orders", credential=credential, verify=True
        )
        session.outsource(base_relation())
        session.select(Eq("City", "Hoboken"))  # recorded
        transport.replay = True
        with pytest.raises(IntegrityError):
            session.select(Eq("City", "Jersey"))


# ----------------------------------------------------------------------
# Session recovery: a Hello is the only way to open a session
# ----------------------------------------------------------------------
class TestSessionRecovery:
    def test_restarted_server_is_recovered_by_hello(self, registry):
        credential = registry.mint("acme", "owner")
        client = ProtocolClient(LoopbackTransport(ProtocolServer(tenants=registry)))
        client.authenticate(credential)

        # A restart over the same registry: no session survives it.
        client.transport = LoopbackTransport(ProtocolServer(tenants=registry))
        owner = make_owner()
        owner.outsource(base_relation())
        with pytest.raises(AuthError) as excinfo:
            client.outsource("orders", owner.server_view())
        assert excinfo.value.code == ErrorCode.AUTH_UNKNOWN_SESSION.value
        assert client.session_id is None

        client.authenticate(credential)
        assert client.outsource("orders", owner.server_view()) > 0
        assert client.transport.server.has_table("orders", tenant_id="acme")

    def test_resume_frame_is_malformed(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        ProtocolClient(LoopbackTransport(server)).authenticate(credential)
        sessions = dict(server._sessions)
        reply = Message.decode(
            server.handle_bytes(binary_frame("resume", {"ticket": "f2tkt1.e30.00"}))
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.WIRE_MALFORMED.value
        assert server._sessions == sessions


# ----------------------------------------------------------------------
# Version CAS
# ----------------------------------------------------------------------
class TestVersionCas:
    def test_stale_base_version_rejected(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())
        stale = session.coordinator.snapshot_base()[1]

        # Another writer moves the table first.
        session.insert_rows([["Summit", "07901", "E"]])
        assert session.coordinator.snapshot_base()[1] > stale

        from repro.api.delta import compute_view_delta

        view = owner.server_view()
        delta = compute_view_delta(view, view)
        with pytest.raises(ProtocolError) as excinfo:
            session.client.insert_delta("orders", delta, base_version=stale)
        assert excinfo.value.code == ErrorCode.VERSION_CONFLICT.value

    def test_unversioned_delta_is_rejected(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())

        from repro.api.delta import compute_view_delta

        view = owner.server_view()
        delta = compute_view_delta(view, view)
        # Without a base version nothing pins the view the copy segments
        # index into: the server refuses instead of splicing blind.
        with pytest.raises(ProtocolError) as excinfo:
            session.client.insert_delta("orders", delta, base_version=-1)
        assert excinfo.value.code == ErrorCode.BAD_REQUEST.value
        assert server.store("orders", tenant_id="acme").num_rows == view.num_rows


# ----------------------------------------------------------------------
# Tamper matrix: on-disk stores
# ----------------------------------------------------------------------
def populate(registry, tmp_path, store="segment", backend=None, seed=7):
    """Outsource + delta inserts over a persistent server; returns paths.

    ``store="compacted"`` inserts until the segment store has folded its
    delta history into one segment at least once.
    """
    credential = registry.mint("acme", "owner")
    owner = make_owner(seed=seed, backend=backend)
    server = ProtocolServer(tenants=registry, storage_dir=tmp_path, backend=backend)
    session = verified_session(server, credential, owner=owner)
    session.outsource(base_relation())
    session.insert_rows([["Summit", "07901", "E"]])
    if store == "compacted":
        table = server.table_store("orders", tenant_id="acme")
        folded = False
        for index in range(2 * FOLD_LOG_RECORDS):
            files = table.store_stats()["segments"]
            session.insert_rows([["Summit", "07901", f"S{index}"]])
            assert session.last_delta is not None
            if table.store_stats()["segments"] < files:
                folded = True
                break
        assert folded
    return credential, owner, session


def reconnect_verified(registry, tmp_path, credential, owner, old_session,
                       backend=None):
    """A fresh server over the same storage + the owner's retained state."""
    server = ProtocolServer(tenants=registry, storage_dir=tmp_path, backend=backend)
    client = ProtocolClient(LoopbackTransport(server))
    # Carry the owner's acknowledged base and verification state across the
    # reconnect (the whole point: the server cannot reset the owner's
    # expectations).
    return RemoteOwnerSession(
        owner,
        client,
        table_id="orders",
        credential=credential,
        verify=True,
        coordinator=old_session.coordinator,
    )


def flip_byte_of_cell_data(storage: Path) -> None:
    """Corrupt stored cell bytes so the table decodes to different rows.

    Flips a bit inside the value bytes of the cell at the middle of the
    first dictionary blob — never a cell's tag or length byte, which would
    leave a blob that no longer decodes rather than different rows.
    """
    blobs = sorted(storage.glob("*/*.f2s/dict-*.blob")) or sorted(
        storage.glob("*.f2s/dict-*.blob")
    )
    target = blobs[0]
    data = bytearray(target.read_bytes())
    reader = ByteReader(bytes(data))
    while True:
        reader.u8()  # the cell's tag: a string or ciphertext cell here
        length = reader.uvarint()
        start = len(data) - reader.remaining
        if start + length > len(data) // 2:
            break
        reader.skip(length)
    data[start + length // 2] ^= 0x01
    target.write_bytes(bytes(data))


class TestTamperMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("store", STORES)
    def test_bit_flipped_store_detected_owner_side(
        self, registry, tmp_path, store, backend
    ):
        credential, owner, session = populate(registry, tmp_path, store, backend)
        flip_byte_of_cell_data(tmp_path)
        fresh = reconnect_verified(
            registry, tmp_path, credential, owner, session, backend
        )
        with pytest.raises(IntegrityError) as excinfo:
            fresh.select("City = Hoboken")
        assert "orders" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ["segment"])
    def test_rollback_to_older_generation_detected(self, registry, tmp_path, engine):
        storage = tmp_path / "live"
        storage.mkdir()
        credential = registry.mint("acme", "owner")
        owner = make_owner()
        server = ProtocolServer(
            tenants=registry, storage_dir=storage, storage_engine=engine
        )
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())

        # Snapshot generation A wholesale, then move the table forward.
        frozen = tmp_path / "generation-a"
        shutil.copytree(storage, frozen)
        session.insert_rows([["Summit", "07901", "E"]])

        # The provider "restores a backup": generation A comes back.
        shutil.rmtree(storage)
        shutil.copytree(frozen, storage)
        fresh = reconnect_verified(registry, storage, credential, owner, session)
        with pytest.raises(IntegrityError) as excinfo:
            fresh.select("City = Hoboken")
        assert "orders" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ["segment"])
    def test_untampered_restart_passes(self, registry, tmp_path, engine):
        credential, owner, session = populate(registry, tmp_path, engine)
        fresh = reconnect_verified(registry, tmp_path, credential, owner, session)
        matches = fresh.select("City = Hoboken")
        expected = [r for r in ROWS if r[0] == "Hoboken"]
        assert sorted(map(list, matches.rows())) == sorted(expected)


# ----------------------------------------------------------------------
# Coordinated multi-writer stress
# ----------------------------------------------------------------------
class TestMultiWriterStress:
    THREADS = 3
    INSERTS_PER_THREAD = 2

    def test_zero_full_fallbacks_and_root_matches_rebuild(self, registry):
        obs.REGISTRY.reset()

        def served(kind: str) -> int:
            return obs.REGISTRY.counter("server.requests", kind=kind).value

        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        coordinator = WriteCoordinator(table_id="orders")
        boot = verified_session(
            server, credential, owner=owner, coordinator=coordinator
        )
        boot.outsource(base_relation())

        errors: list[str] = []

        def writer(k: int) -> None:
            try:
                session = verified_session(
                    server, credential, owner=owner, coordinator=coordinator
                )
                for i in range(self.INSERTS_PER_THREAD):
                    session.insert_rows([[f"City{k}x{i}", f"{k:02d}{i:03d}", "E"]])
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []

        stats = coordinator.stats
        total = self.THREADS * self.INSERTS_PER_THREAD
        # The boot outsource is the run's only full-view write; every push
        # attempt, won or conflicted, is one delta.
        assert served("outsource_request") == 1
        assert served("insert_delta") == stats.delta_pushes + stats.cas_conflicts
        assert stats.delta_pushes + stats.noop_pushes == total
        assert stats.rebases == stats.cas_conflicts

        # The server's final root equals a from-scratch rebuild over the
        # owner's final view — concurrency lost nothing.
        final_view = owner.server_view()
        expected_root = MerkleTree(relation_leaves(final_view)).root
        check = ProtocolClient(LoopbackTransport(server))
        check.authenticate(credential)
        result = check.plan_query(
            "orders", owner.plan_query(Eq("City", "Hoboken")).server, with_root=True
        )
        assert result.merkle_root == expected_root
        assert coordinator.integrity.expected_root == expected_root


# ----------------------------------------------------------------------
# Tree upkeep: splice per delta, one rebuild after a restart
# ----------------------------------------------------------------------
class TestTreeUpkeepCounters:
    def test_warm_store_splices_and_reopened_store_rebuilds_once(self, tmp_path):
        backend = get_backend("python")
        views = [Relation(SCHEMA, [list(r) for r in ROWS[: 3 + k]], name="t") for k in range(4)]
        store = SegmentTableStore(tmp_path / "t.f2s", backend, create=True)
        store.replace(views[0])
        for old, new in zip(views, views[1:]):
            store.apply_delta(compute_view_delta(old, new))
        stats = store.store_stats()
        assert (stats["tree_splices"], stats["tree_rebuilds"]) == (3, 0)
        assert store.merkle_root() == MerkleTree(relation_leaves(views[-1])).root
        store.close()

        reopened = SegmentTableStore(tmp_path / "t.f2s", backend)
        grown = Relation(SCHEMA, [list(r) for r in ROWS] + [["Summit", "07901", "E"]], name="t")
        reopened.merkle_proofs([0, 2])
        reopened.apply_delta(compute_view_delta(views[-1], grown))
        reopened.merkle_proofs([1])
        stats = reopened.store_stats()
        assert (stats["tree_splices"], stats["tree_rebuilds"]) == (1, 1)
        assert reopened.merkle_root() == MerkleTree(relation_leaves(grown)).root
        reopened.close()

    def test_counters_reach_the_stats_surface(self, registry, tmp_path):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry, storage_dir=tmp_path)
        session = verified_session(server, credential)
        session.outsource(base_relation())
        session.insert_rows([["Summit", "07901", "E"]])
        assert session.last_delta is not None
        doc = server.stats_doc(include_traces=False)
        (stats,) = doc["tables"].values()
        assert (stats["tree_splices"], stats["tree_rebuilds"]) == (1, 0)
        names = {counter["name"] for counter in doc["metrics"]["counters"]}
        assert {"integrity.tree_splices", "integrity.tree_rebuilds"} <= names


# ----------------------------------------------------------------------
# A store this code does not read: refused, restored by a re-outsource
# ----------------------------------------------------------------------
class TestUnreadableStoreRecovery:
    def test_refused_store_is_restored_by_a_re_outsource(self, registry, tmp_path, capsys):
        credential, owner, session = populate(registry, tmp_path)
        (table_dir,) = tmp_path.glob("acme/*.f2s")
        # A store from before the table log: CURRENT names a JSON manifest.
        (table_dir / "CURRENT").write_text("MANIFEST-000002.json\n")
        before = {path.name: path.read_bytes() for path in table_dir.iterdir()}

        with pytest.warns(StoreIntegrityWarning, match="orders.f2s.*not a table log"):
            fresh = reconnect_verified(registry, tmp_path, credential, owner, session)
        with pytest.raises(ProtocolError):
            fresh.select("City = Hoboken")
        # A write does not overwrite what the server cannot read.
        with pytest.raises(ProtocolError, match="not a table log"):
            fresh.outsource(base_relation())
        assert {path.name: path.read_bytes() for path in table_dir.iterdir()} == before
        assert main(["verify", "--storage", str(tmp_path)]) == 7
        assert "not a table log" in capsys.readouterr().err

        # Recovery is the protocol: the operator removes the directory and
        # the owner re-outsources under a new verified session.
        shutil.rmtree(table_dir)
        server = ProtocolServer(tenants=registry, storage_dir=tmp_path)
        restored = verified_session(server, credential, owner=owner)
        restored.outsource(base_relation())
        restored.insert_rows([["Summit", "07901", "E"]])
        matches = restored.select("City = Hoboken")
        assert sorted(map(list, matches.rows())) == sorted(r for r in ROWS if r[0] == "Hoboken")
        assert main(["verify", "--storage", str(tmp_path)]) == 0


# ----------------------------------------------------------------------
# The full-view fallback of an insert carries the write-time root check
# ----------------------------------------------------------------------
class ManglingServer(ProtocolServer):
    """Stores every full view after the first with one cell changed."""

    full_writes = 0

    def _receive_store(self, store_key, relation, with_root=False):
        self.full_writes += 1
        if self.full_writes > 1:
            rows = [list(relation.row(i)) for i in range(relation.num_rows)]
            rows[0][0] = "mangled"
            relation = Relation(relation.attributes, rows, name=relation.name)
        return ProtocolServer._receive_store(self, store_key, relation, with_root)


class TestFullViewFallback:
    def test_insert_rows_catches_a_mangled_fallback_view(self, registry):
        credential = registry.mint("acme", "owner")
        server = ManglingServer(tenants=registry)
        session = verified_session(server, credential)
        session.outsource(base_relation())
        # A batch that repeats a whole existing record changes the MAS
        # structure, so the insert ships the full view.
        with pytest.raises(IntegrityError, match="server acknowledged root"):
            session.insert_rows([list(ROWS[0])])
        assert session.last_delta is None
        assert server.full_writes == 2
