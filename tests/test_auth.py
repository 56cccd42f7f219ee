"""Tests of the authenticated multi-tenant session layer (PR 5).

Covers the tenant registry (mint/rotate/revoke + persistence), credential
tokens, the Hello handshake, signed-frame verification (signatures, sequence
numbers, replay), capability enforcement, per-tenant namespacing, and —
over the *real socket transport* — the distinct ``ErrorCode`` each class of
bad request is rejected with.
"""

import base64
import json
import warnings
from dataclasses import dataclass
from typing import Any, ClassVar

import pytest

from repro.api import (
    Credential,
    DataOwner,
    ErrorCode,
    ErrorReply,
    Hello,
    HelloAck,
    LoopbackTransport,
    Message,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    SignedEnvelope,
    SocketProtocolServer,
    SocketTransport,
    TenantRegistry,
)
from repro.api.auth import sign_frame, verify_frame
from repro.api.delta import compute_view_delta
from repro.core.config import F2Config
from repro.exceptions import AuthError, ProtocolError
from repro.query.ast import Eq
from repro.api.protocol import MESSAGE_MAGIC, DiscoverRequest
from repro.wire import encode_cells
from tests.conftest import binary_frame


@dataclass(frozen=True)
class LegacyQueryRequest(Message):
    """The wire shape of the retired ``query_request`` message (old clients)."""

    kind: ClassVar[str] = "query_request"
    table_id: str
    attribute: str
    token: tuple = ()

    def _meta(self) -> dict[str, Any]:
        return {
            "table_id": self.table_id,
            "attribute": self.attribute,
            "include_rows": False,
            "with_root": False,
        }

    def _attachments(self) -> dict[str, bytes]:
        return {"token": encode_cells(list(self.token))}


def make_owner(key_seed: int = 42, alpha: float = 0.25, seed: int = 7) -> DataOwner:
    return DataOwner.from_seed(key_seed, config=F2Config(alpha=alpha, seed=seed))


@pytest.fixture
def registry() -> TenantRegistry:
    return TenantRegistry()


@pytest.fixture
def tenanted_server(registry) -> ProtocolServer:
    return ProtocolServer(tenants=registry)


def loopback(server: ProtocolServer) -> ProtocolClient:
    return ProtocolClient(LoopbackTransport(server))


# ----------------------------------------------------------------------
# Credentials and the registry
# ----------------------------------------------------------------------
class TestCredential:
    def test_token_roundtrip(self):
        credential = Credential(
            tenant_id="acme", capability="analyst", secret=b"\x01" * 32, token_id="k0007"
        )
        assert Credential.from_token(credential.to_token()) == credential

    @pytest.mark.parametrize(
        "token",
        [
            "",
            "nope",
            "f2tok1.acme.owner.k0001",  # missing secret
            "f2tok1.acme.owner.k0001.zz",  # non-hex secret
            "f2tok1.acme.owner.k0001.",  # empty secret
            "f2tok1.acme.superuser.k0001.0a",  # unknown capability
            "f2tok1.../evil.owner.k0001.0a",  # path-unsafe tenant
        ],
    )
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises((AuthError, ProtocolError)):
            Credential.from_token(token)


class TestTenantRegistry:
    def test_mint_rotate_revoke(self, registry):
        first = registry.mint("acme", "owner")
        assert first.tenant_id == "acme"
        assert len(first.secret) == 32
        rotated = registry.rotate("acme", "owner")
        assert rotated.secret != first.secret
        assert rotated.token_id != first.token_id
        assert registry.revoke("acme", "owner") == 1
        assert registry.key_for("acme", "owner").revoked is True

    def test_local_tenant_is_reserved(self, registry):
        # "local" is the anonymous namespace (bare store keys); minting a
        # credential for it would alias the legacy tables.
        with pytest.raises(ProtocolError) as excinfo:
            registry.mint("local", "owner")
        assert excinfo.value.code == ErrorCode.BAD_REQUEST.value

    def test_rotate_unknown_key_errors(self, registry):
        with pytest.raises(ProtocolError) as excinfo:
            registry.rotate("ghost", "owner")
        assert excinfo.value.code == ErrorCode.AUTH_UNKNOWN_TENANT.value
        with pytest.raises(ProtocolError):
            registry.revoke("ghost")

    def test_describe_never_exposes_secrets(self, registry):
        credential = registry.mint("acme", "owner")
        listing = registry.describe()
        assert listing == [
            {
                "tenant_id": "acme",
                "capability": "owner",
                "token_id": credential.token_id,
                "revoked": False,
            }
        ]
        assert credential.secret.hex() not in str(listing)

    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "tenants.json"
        first = TenantRegistry(path)
        minted = first.mint("acme", "owner")
        first.mint("globex", "analyst")
        reloaded = TenantRegistry(path)
        assert reloaded.tenant_ids() == ["acme", "globex"]
        key = reloaded.key_for("acme", "owner")
        assert key.secret_hex == minted.secret.hex()
        # Token ids keep counting up across restarts (no id reuse).
        assert reloaded.mint("acme", "analyst").token_id not in {
            minted.token_id,
            "k0002",
        }

    def test_file_backed_registry_sees_foreign_edits(self, tmp_path):
        # `f2-repro admin` runs in its own process: a server's registry
        # must pick up rotations/revocations written to the file by another
        # registry instance — on the next read, without a restart.
        path = tmp_path / "tenants.json"
        server_side = TenantRegistry(path)
        admin_side = TenantRegistry(path)
        minted = admin_side.mint("acme", "owner")
        key = server_side.key_for("acme", "owner")
        assert key is not None and key.secret_hex == minted.secret.hex()
        admin_side.revoke("acme", "owner")
        assert server_side.key_for("acme", "owner").revoked is True
        rotated = admin_side.mint("acme", "owner")
        assert server_side.key_for("acme", "owner").secret_hex == rotated.secret.hex()

    def test_signature_helpers_roundtrip(self):
        secret = b"\x07" * 32
        signature = sign_frame(secret, "sess", 3, b"payload")
        assert verify_frame(secret, "sess", 3, b"payload", signature)
        assert not verify_frame(secret, "sess", 4, b"payload", signature)
        assert not verify_frame(secret, "other", 3, b"payload", signature)
        assert not verify_frame(b"\x08" * 32, "sess", 3, b"payload", signature)


# ----------------------------------------------------------------------
# Wire form of the new messages
# ----------------------------------------------------------------------
class TestAuthMessages:
    @pytest.mark.parametrize("form", ["binary"])
    def test_hello_roundtrip(self, form):
        message = Hello(
            tenant_id="acme",
            capability="analyst",
            token_id="k0001",
            versions=(1, 2),
            wire_forms=(form,),
        )
        assert Message.decode(message.encode()) == message

    @pytest.mark.parametrize("form", ["binary"])
    def test_hello_ack_roundtrip(self, form):
        message = HelloAck(session_id="abcd" * 8, version=2, server_name="p")
        payload = message.encode()
        assert Message.decode(payload) == message
        # The meta still names the wire form, for earlier binary clients.
        assert f'"wire_format":"{form}"'.encode() in payload

    @pytest.mark.parametrize("form", ["binary"])
    def test_signed_envelope_preserves_payload_bytes(self, form):
        # The signature covers the exact payload bytes; they must
        # round-trip untouched.
        inner = Hello(tenant_id="acme", capability="owner", wire_forms=(form,)).encode()
        envelope = SignedEnvelope(
            session_id="s1", sequence=9, signature="ab" * 32, payload=inner
        )
        decoded = Message.decode(envelope.encode())
        assert decoded == envelope
        assert decoded.payload == inner

    @pytest.mark.parametrize("form", ["binary"])
    def test_error_reply_carries_code(self, form):
        reply = ErrorReply(error="AuthError", message="no", code="FORBIDDEN")
        payload = reply.encode()
        assert payload.startswith(MESSAGE_MAGIC)
        assert Message.decode(payload) == reply

    def test_legacy_error_reply_defaults_to_internal(self):
        # Pre-PR5 replies carry no code; decoding must not fail.
        legacy = binary_frame("error", {"error": "X", "message": "y"})
        decoded = Message.decode(legacy)
        assert decoded.code == ErrorCode.INTERNAL.value


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
class TestHandshake:
    def test_handshake_negotiates_session(self, registry, tenanted_server):
        credential = registry.mint("acme", "owner")
        client = loopback(tenanted_server)
        ack = client.authenticate(credential)
        assert ack.version == 6
        assert ack.resume_ticket.startswith("f2tkt1.")
        assert client.session_id == ack.session_id

    def test_unknown_tenant(self, registry, tenanted_server):
        registry.mint("acme", "owner")
        ghost = Credential(tenant_id="ghost", capability="owner", secret=b"\x01" * 32)
        with pytest.raises(AuthError) as excinfo:
            loopback(tenanted_server).authenticate(ghost)
        assert excinfo.value.code == ErrorCode.AUTH_UNKNOWN_TENANT.value

    def test_missing_capability_key(self, registry, tenanted_server):
        registry.mint("acme", "owner")  # no analyst key minted
        analyst = Credential(tenant_id="acme", capability="analyst", secret=b"\x01" * 32)
        with pytest.raises(AuthError) as excinfo:
            loopback(tenanted_server).authenticate(analyst)
        assert excinfo.value.code == ErrorCode.AUTH_FAILED.value

    def test_revoked_key_cannot_handshake(self, registry, tenanted_server):
        credential = registry.mint("acme", "owner")
        registry.revoke("acme", "owner")
        with pytest.raises(AuthError) as excinfo:
            loopback(tenanted_server).authenticate(credential)
        assert excinfo.value.code == ErrorCode.AUTH_REVOKED.value

    def test_version_mismatch(self, registry, tenanted_server):
        # Only protocol version 6 opens a session; the retired versions 1
        # to 5 (5 had InsertBatch, 4 carried select multiproofs) are
        # refused, however they are offered.
        credential = registry.mint("acme", "owner")
        for versions in [(1,), (2,), (3,), (4,), (5,), (1, 2, 3, 4, 5)]:
            with pytest.raises(AuthError) as excinfo:
                loopback(tenanted_server).authenticate(credential, versions=versions)
            assert excinfo.value.code == ErrorCode.VERSION_UNSUPPORTED.value

    def test_local_tenant_handshake_rejected(self, registry, tenanted_server):
        # Even a hand-edited registry must not yield a session aliasing the
        # anonymous local namespace.
        registry._keys["local"] = {}
        forged = Credential(tenant_id="local", capability="owner", secret=b"\x01" * 32)
        with pytest.raises(AuthError) as excinfo:
            loopback(tenanted_server).authenticate(forged)
        assert excinfo.value.code == ErrorCode.AUTH_UNKNOWN_TENANT.value

    def test_server_without_registry_rejects_handshake(self):
        credential = Credential(tenant_id="acme", capability="owner", secret=b"\x01" * 32)
        with pytest.raises(AuthError):
            loopback(ProtocolServer()).authenticate(credential)


# ----------------------------------------------------------------------
# Signed sessions end to end (loopback)
# ----------------------------------------------------------------------
class TestSignedSessions:
    @pytest.fixture
    def outsourced(self, registry, tenanted_server, zipcode_table):
        credential = registry.mint("acme", "owner")
        owner = make_owner()
        client = loopback(tenanted_server)
        session = RemoteOwnerSession(owner, client, credential=credential)
        session.outsource(zipcode_table)
        return owner, session, credential

    def test_full_owner_flow(self, outsourced, zipcode_table):
        owner, session, _ = outsourced
        result = session.discover_fds()
        assert result.parameters["validated"] is True
        session.insert_rows([["07030", "Hoboken", "street-new", "N"]])
        matches = session.select("City = Hoboken")
        assert list(matches.rows()) == list(
            owner.select_plaintext_where("City = Hoboken").rows()
        )

    def test_tables_live_in_tenant_namespace(self, outsourced, tenanted_server):
        # The store key is namespaced; the anonymous/local namespace is empty.
        assert tenanted_server.table_ids(None) == ["acme/default"]
        assert tenanted_server.table_ids() == []
        assert tenanted_server.has_table("default", tenant_id="acme")
        assert not tenanted_server.has_table("default")

    def test_cross_tenant_tables_invisible(self, outsourced, registry, tenanted_server):
        other = registry.mint("globex", "owner")
        client = loopback(tenanted_server)
        client.authenticate(other)
        with pytest.raises(ProtocolError) as excinfo:
            client.discover("default")
        assert excinfo.value.code == ErrorCode.UNKNOWN_TABLE.value

    def test_analyst_can_read_but_not_write(
        self, outsourced, registry, tenanted_server, zipcode_table
    ):
        _, session, _ = outsourced
        analyst_cred = registry.mint("acme", "analyst")
        client = loopback(tenanted_server)
        client.authenticate(analyst_cred)
        # Reads of the tenant's table work.
        assert client.discover("default").fds
        # Every mutation is rejected with FORBIDDEN.
        view = session.owner.server_view()
        for call in (
            lambda: client.outsource("default", view),
            lambda: client.insert_delta(
                "default", compute_view_delta(view, view), base_version=1
            ),
        ):
            with pytest.raises(AuthError) as excinfo:
                call()
            assert excinfo.value.code == ErrorCode.FORBIDDEN.value

    def test_wrong_secret_fails_on_first_frame(self, outsourced, tenanted_server):
        forged = Credential(tenant_id="acme", capability="owner", secret=b"\x13" * 32)
        client = loopback(tenanted_server)
        client.authenticate(forged)  # the handshake itself is unauthenticated
        with pytest.raises(AuthError) as excinfo:
            client.discover("default")
        assert excinfo.value.code == ErrorCode.AUTH_FAILED.value

    def test_rotation_kills_live_sessions(self, outsourced, registry):
        _, session, _ = outsourced
        registry.rotate("acme", "owner")
        with pytest.raises(AuthError) as excinfo:
            session.discover_fds()
        assert excinfo.value.code == ErrorCode.AUTH_FAILED.value

    def test_revocation_kills_live_sessions(self, outsourced, registry):
        _, session, _ = outsourced
        registry.revoke("acme", "owner")
        with pytest.raises(AuthError) as excinfo:
            session.discover_fds()
        assert excinfo.value.code == ErrorCode.AUTH_REVOKED.value

    def test_replayed_frame_rejected(self, outsourced, tenanted_server, registry):
        _, session, credential = outsourced
        client = session.client
        # Capture the exact bytes of one legitimate signed frame ...
        captured: list[bytes] = []
        transport = client.transport
        original = transport.request

        def capture(data):
            captured.append(data)
            return original(data)

        transport.request = capture
        client.discover("default")
        transport.request = original
        # ... and replay them verbatim: same session, same sequence, same
        # (valid!) signature — the moved sequence window rejects it.
        reply = Message.decode(tenanted_server.handle_bytes(captured[-1]))
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.BAD_SEQUENCE.value
        # The failed replay does not desync the legitimate client.
        assert client.discover("default").fds

    def test_handler_error_keeps_session_usable(self, outsourced):
        _, session, _ = outsourced
        client = session.client
        with pytest.raises(ProtocolError) as excinfo:
            client.discover("no-such-table")
        assert excinfo.value.code == ErrorCode.UNKNOWN_TABLE.value
        # The frame was authentic, the sequence advanced on both sides.
        assert client.discover("default").fds

    def test_signed_frame_cannot_nest_handshakes(self, outsourced, tenanted_server):
        _, session, credential = outsourced
        client = session.client
        inner = Hello(tenant_id="acme", capability="owner").encode()
        envelope = SignedEnvelope(
            session_id=client.session_id,
            sequence=client._next_sequence,
            signature=sign_frame(
                credential.secret, client.session_id, client._next_sequence, inner
            ),
            payload=inner,
        )
        reply = Message.decode(tenanted_server.handle_bytes(envelope.encode()))
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.BAD_REQUEST.value

    def test_unknown_session_rejected(self, tenanted_server, registry):
        registry.mint("acme", "owner")
        envelope = SignedEnvelope(
            session_id="feed" * 8, sequence=1, signature="00" * 32, payload=b"F2M?"
        )
        reply = Message.decode(tenanted_server.handle_bytes(envelope.encode()))
        assert reply.code == ErrorCode.AUTH_UNKNOWN_SESSION.value

    def test_anonymous_requests_rejected_when_tenanted(self, tenanted_server, registry):
        registry.mint("acme", "owner")
        with pytest.raises(AuthError) as excinfo:
            loopback(tenanted_server).discover("default")
        assert excinfo.value.code == ErrorCode.AUTH_REQUIRED.value

    def test_session_table_bounded_lru(self, registry, tenanted_server, monkeypatch):
        # Handshakes are cheap for anyone who knows a tenant id; the session
        # table must stay bounded, evicting the least recently used session.
        monkeypatch.setattr(ProtocolServer, "MAX_SESSIONS", 3)
        credential = registry.mint("acme", "owner")
        clients = []
        for _ in range(5):
            client = loopback(tenanted_server)
            client.authenticate(credential)
            clients.append(client)
        assert len(tenanted_server._sessions) == 3
        # The two oldest sessions were evicted ...
        with pytest.raises(AuthError) as excinfo:
            clients[0].discover("whatever")
        assert excinfo.value.code == ErrorCode.AUTH_UNKNOWN_SESSION.value
        # ... the newest still works (its table does not exist, but the
        # frame authenticates and reaches the handler).
        with pytest.raises(ProtocolError) as excinfo:
            clients[-1].discover("whatever")
        assert excinfo.value.code == ErrorCode.UNKNOWN_TABLE.value

    def test_allow_anonymous_opt_in(self, registry, zipcode_table):
        server = ProtocolServer(tenants=registry, allow_anonymous=True)
        owner = make_owner()
        owner.outsource(zipcode_table)
        client = loopback(server)
        client.outsource("default", owner.server_view())
        assert server.table_ids() == ["default"]  # the local namespace


# ----------------------------------------------------------------------
# The acceptance matrix over the real socket transport
# ----------------------------------------------------------------------
class TestSocketErrorCodes:
    @pytest.fixture
    def socket_setup(self, zipcode_table):
        registry = TenantRegistry()
        owner_cred = registry.mint("acme", "owner")
        analyst_cred = registry.mint("acme", "analyst")
        registry.mint("globex", "owner")
        server = ProtocolServer(tenants=registry)
        with SocketProtocolServer(server) as sock_server:
            sock_server.serve_in_background()
            owner = make_owner()
            owner.outsource(zipcode_table)
            push = ProtocolClient(SocketTransport(port=sock_server.port))
            push.authenticate(owner_cred)
            push.outsource("default", owner.server_view())
            yield sock_server.port, registry, owner, owner_cred, analyst_cred
            push.close()

    def connect(self, port) -> ProtocolClient:
        return ProtocolClient(SocketTransport(port=port))

    def test_unauthenticated_request(self, socket_setup):
        port, *_ = socket_setup
        client = self.connect(port)
        with pytest.raises(AuthError) as excinfo:
            client.discover("default")
        assert excinfo.value.code == ErrorCode.AUTH_REQUIRED.value
        client.close()

    def test_wrong_tenant_secret(self, socket_setup):
        port, *_ = socket_setup
        client = self.connect(port)
        client.authenticate(
            Credential(tenant_id="acme", capability="owner", secret=b"\x55" * 32)
        )
        with pytest.raises(AuthError) as excinfo:
            client.discover("default")
        assert excinfo.value.code == ErrorCode.AUTH_FAILED.value
        client.close()

    def test_cross_tenant_table_invisible(self, socket_setup):
        port, registry, *_ = socket_setup
        client = self.connect(port)
        client.authenticate(registry.mint("globex", "analyst"))
        with pytest.raises(ProtocolError) as excinfo:
            client.discover("default")
        assert excinfo.value.code == ErrorCode.UNKNOWN_TABLE.value
        client.close()

    def test_wrong_capability(self, socket_setup, zipcode_table):
        port, _, owner, _, analyst_cred = socket_setup
        client = self.connect(port)
        client.authenticate(analyst_cred)
        with pytest.raises(AuthError) as excinfo:
            client.outsource("default", owner.server_view())
        assert excinfo.value.code == ErrorCode.FORBIDDEN.value
        client.close()

    def test_replayed_frame(self, socket_setup):
        port, _, _, owner_cred, _ = socket_setup
        client = self.connect(port)
        client.authenticate(owner_cred)
        # Craft two frames with the same sequence number: the first one
        # lands, the verbatim re-send (a replay) must bounce.
        payload = Message.encode(
            __import__("repro.api.protocol", fromlist=["DiscoverRequest"]).DiscoverRequest(
                table_id="default"
            )
        )
        sequence = client._next_sequence
        envelope = SignedEnvelope(
            session_id=client.session_id,
            sequence=sequence,
            signature=sign_frame(owner_cred.secret, client.session_id, sequence, payload),
            payload=payload,
        ).encode()
        transport = client.transport
        first = Message.decode(transport.request(envelope))
        assert not isinstance(first, ErrorReply)
        replayed = Message.decode(transport.request(envelope))
        assert isinstance(replayed, ErrorReply)
        assert replayed.code == ErrorCode.BAD_SEQUENCE.value
        client.close()

    @pytest.mark.parametrize("frame", ["binary", "json", "json-hello", "b64-payload"])
    def test_legacy_query_request_is_malformed(self, socket_setup, frame):
        # Frames of retired protocol features get a typed error reply in
        # the binary form, and neither the connection nor the session is
        # lost: the query_request message (bare or signed), a request in
        # the retired JSON wire form, a Hello offering only JSON, and a
        # signed envelope whose payload is a base64 {"b64": ...} wrapper.
        port, _, owner, owner_cred, _ = socket_setup
        transport = SocketTransport(port=port)
        client = ProtocolClient(transport)
        legacy = LegacyQueryRequest(
            table_id="default",
            attribute="City",
            token=owner.derive_search_token("City", "Hoboken"),
        )
        discover = DiscoverRequest(table_id="default").encode()
        bare_frames = {
            "binary": (legacy.encode(), ErrorCode.WIRE_MALFORMED),
            "json": (
                json.dumps(
                    {
                        "protocol": "f2/1",
                        "kind": "discover_request",
                        "meta": {"table_id": "default"},
                    }
                ).encode(),
                ErrorCode.WIRE_MALFORMED,
            ),
            "json-hello": (
                Hello(tenant_id="acme", capability="owner", wire_forms=("json",)).encode(),
                ErrorCode.VERSION_UNSUPPORTED,
            ),
        }
        connection = None
        if frame in bare_frames:
            data, code = bare_frames[frame]
            raw = transport.request(data)
            assert raw.startswith(MESSAGE_MAGIC)
            bare = Message.decode(raw)
            assert isinstance(bare, ErrorReply)
            assert bare.code == code.value
            connection = transport._sock

        client.authenticate(owner_cred)
        connection = connection or transport._sock
        session_id = client.session_id
        if frame == "b64-payload":
            # Signed over the wrapped request: unwrapping would serve it.
            sequence = client._next_sequence
            wrapped = json.dumps({"b64": base64.b64encode(discover).decode("ascii")})
            envelope = SignedEnvelope(
                session_id=session_id,
                sequence=sequence,
                signature=sign_frame(owner_cred.secret, session_id, sequence, discover),
                payload=wrapped.encode(),
            )
            reply = Message.decode(transport.request(envelope.encode()))
            assert isinstance(reply, ErrorReply)
            assert reply.code == ErrorCode.WIRE_MALFORMED.value
        with pytest.raises(ProtocolError) as excinfo:
            client.call(legacy)  # signed into an envelope by the session
        assert excinfo.value.code == ErrorCode.WIRE_MALFORMED.value
        assert client.session_id == session_id

        plan = owner.plan_query(Eq("City", "Hoboken"))
        result = client.plan_query("default", plan.server)
        assert list(owner.decrypt_plan_result(plan, result).rows()) == list(
            owner.select_plaintext("City", "Hoboken").rows()
        )
        assert transport._sock is connection
        client.close()

    def test_owner_flow_over_socket(self, socket_setup, zipcode_table):
        port, _, _, owner_cred, _ = socket_setup
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, self.connect(port), credential=owner_cred
        )
        session.outsource(zipcode_table)
        session.insert_rows([["07030", "Hoboken", "street-sock", "S"]])
        assert session.last_delta is not None  # shipped as a delta
        matches = session.select(Eq("Zipcode", "07030"))
        assert list(matches.rows()) == list(
            owner.select_plaintext("Zipcode", "07030").rows()
        )
        session.close()


# ----------------------------------------------------------------------
# Corrupt-store resilience (satellite regression)
# ----------------------------------------------------------------------
class TestCorruptSnapshotSkip:
    def test_truncated_snapshot_skipped_other_tenants_survive(
        self, tmp_path, zipcode_table
    ):
        registry = TenantRegistry(tmp_path / "tenants.json")
        acme = registry.mint("acme", "owner")
        globex = registry.mint("globex", "owner")
        server = ProtocolServer(storage_dir=tmp_path, tenants=registry)
        owner = make_owner()
        owner.outsource(zipcode_table)
        view = owner.server_view()
        for credential in (acme, globex):
            client = loopback(server)
            client.authenticate(credential)
            client.outsource("orders", view)
        # Truncate acme's only segment (a crash mid-write / bad disk).
        (acme_segment,) = (tmp_path / "acme" / "orders.f2s").glob("seg-*.seg")
        payload = acme_segment.read_bytes()
        acme_segment.write_bytes(payload[: len(payload) // 2])

        with pytest.warns(RuntimeWarning, match="corrupt table store"):
            revived = ProtocolServer(storage_dir=tmp_path, tenants=registry)
        # globex's table survived; acme's needs a re-outsource.
        assert revived.table_ids(None) == ["globex/orders"]
        assert revived.store("orders", tenant_id="globex") == view

    def test_garbage_local_snapshot_skipped(self, tmp_path, zipcode_table):
        owner = make_owner()
        owner.outsource(zipcode_table)
        first = ProtocolServer(storage_dir=tmp_path)
        loopback(first).outsource("good", owner.server_view())
        # A whole-table .f2t snapshot is not a table: the server neither
        # reads nor warns about it, and keeps serving everything else.
        (tmp_path / "bad.f2t").write_bytes(b"F2WB definitely not a frame")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            revived = ProtocolServer(storage_dir=tmp_path)
        assert revived.table_ids() == ["good"]
