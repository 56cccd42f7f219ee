"""Transport-agnostic client/server protocol between owner and provider.

The paper's Figure-2 workflow is a *network* protocol: the data owner ships
a ciphertext relation to an untrusted service provider, the provider runs FD
discovery (and, here, answers token-based selections) and sends typed
results back.  This module is that protocol made concrete:

* **Messages** — frozen dataclasses (:class:`OutsourceRequest`,
  :class:`InsertDelta`, :class:`DiscoverRequest` / :class:`DiscoverResult`,
  :class:`PlanQueryRequest` / :class:`PlanQueryResult`, :class:`Ack`,
  :class:`ErrorReply`) that serialize through the binary
  :mod:`repro.wire` codec.
* **Transports** — anything with a ``request(bytes) -> bytes`` method.
  :class:`LoopbackTransport` calls a :class:`ProtocolServer` in-process (the
  session facades use it, which is how the pre-protocol API keeps working
  byte-for-byte); :class:`SocketTransport` speaks length-prefixed frames
  over a real TCP connection to a :class:`SocketProtocolServer`.
* **Endpoints** — :class:`ProtocolClient` (owner side: encodes requests,
  decodes replies, raises :class:`~repro.exceptions.ProtocolError` on error
  replies) and :class:`ProtocolServer` (provider side: a keyless store of
  ciphertext relations, FD discovery over the compute backends, planned
  boolean selections over search tokens executed as bitset algebra,
  and, given a storage directory, durable segment stores that survive
  restarts).  Each table has its
  own read/write lock: parallel queries against one table share its read
  lock, and a mutation takes the write lock, so traffic never serializes
  behind an unrelated table's work.

The server never sees a key or a plaintext: it stores what it is sent,
groups and counts ciphertexts, and filters rows against owner-issued search
tokens — exactly the honest-but-curious model of the paper.
"""

from __future__ import annotations

import json
import os
import re
import socket
import socketserver
import struct
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from contextlib import contextmanager

from repro.api.auth import (
    CAPABILITY_OWNER,
    Credential,
    DEFAULT_TENANT,
    ErrorCode,
    TenantKey,
    TenantRegistry,
    check_capability,
    check_tenant_id,
    sign_frame,
    sign_reply,
    verify_frame,
    verify_reply,
)
from repro.api.delta import ViewDelta
from repro import obs
from repro.backend import ComputeBackend, get_backend
from repro.exceptions import (
    AuthError,
    ConfigurationError,
    IntegrityError,
    ProtocolError,
    QueryError,
    ReproError,
    StoreError,
    StoreIntegrityWarning,
    WireError,
)
from repro.fd.tane import TaneResult, tane_with_stats
from repro.query.server import (
    ServerExpr,
    collect_leaves,
    execute_server_expr,
    server_expr_from_doc,
    server_expr_to_doc,
)
from repro.relational.table import Relation

# Only the store contract module may be imported here: the store modules
# (memory/segment) import repro.api.delta / repro.api.auth, so a
# top-level import would close a cycle through this package's __init__.
# The store classes are imported lazily via the helpers below.
from repro.store.base import STORAGE_ENGINE_SEGMENT, STORE_SUFFIX, TableStore
from repro.wire import (
    decode_cells,
    decode_relation,
    decode_tane_result,
    encode_cells,
    encode_relation,
    encode_tane_result,
    sanitize_json,
)
from repro.wire.codec import json_blob
from repro.wire.binary import ByteReader, ByteWriter

#: Magic + version prefix of a binary protocol message (the *envelope*
#: format — distinct from the service protocol version below).
MESSAGE_MAGIC = b"F2M"
MESSAGE_VERSION = 1

#: The service protocol version of an authenticated session: a ``Hello``
#: opens it, then signed requests, server-signed replies, and Merkle roots
#: of the content-defined tree, with no inclusion proofs on select
#: replies and one full-view write message, :class:`OutsourceRequest`
#: (version 6 also had resumption tickets and a wire-form list; version 5
#: ``InsertBatch``; version 4 carried a multiproof of the matched rows;
#: version 3 binary-tree roots and per-row paths).  A ``Hello`` that does
#: not offer it is refused with ``VERSION_UNSUPPORTED``.  Anonymous
#: local-tenant frames (no ``Hello``) are a server mode, not a protocol
#: version.
PROTOCOL_VERSION = 7

#: Default table id used by the session facades.
DEFAULT_TABLE_ID = "default"

#: Table ids double as store directory names; keep them path-safe.
_TABLE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Tenant store directories share the same path-safe grammar.
_TENANT_DIR_RE = _TABLE_ID_RE

#: Upper bound on a single protocol frame (corrupted length guard).
MAX_FRAME_BYTES = 1 << 30

#: Seconds a server connection may sit silent before the server closes it,
#: so an idle or stalled client cannot pin a handler thread forever.  A
#: client's next request reconnects transparently (see SocketTransport).
IDLE_TIMEOUT_SECONDS = 300.0


def _memory_store_cls():
    """Deferred import of the in-memory store (see the import note above)."""
    from repro.store.memory import MemoryTableStore

    return MemoryTableStore


def _segment_store_module():
    """Deferred import of the segment engine (see the import note above)."""
    from repro.store import segment

    return segment


def check_table_id(table_id: str) -> str:
    """Validate a table id (file-name safe, no path separators)."""
    if not isinstance(table_id, str) or not _TABLE_ID_RE.match(table_id):
        raise ProtocolError(
            f"invalid table id {table_id!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit",
            code=ErrorCode.BAD_REQUEST.value,
        )
    return table_id


# ----------------------------------------------------------------------
# Message envelope
# ----------------------------------------------------------------------
#: Reserved meta key carrying ``[trace_id, parent_span_id]`` across the
#: wire.  Emitted only when a trace context is attached, so messages
#: without one encode byte-identically to the pre-observability wire.
TRACE_META_KEY = "_trace"


@dataclass(frozen=True)
class Message:
    """Base class: a typed message = meta fields + bulk attachments.

    ``meta`` is always a small JSON document; attachments are payloads of the
    :mod:`repro.wire` codec (relations, TANE results, cell lists).
    """

    kind: ClassVar[str] = ""

    def _meta(self) -> dict[str, Any]:
        return {}

    def _attachments(self) -> dict[str, bytes]:
        return {}

    @classmethod
    def _build(cls, meta: dict[str, Any], attachments: dict[str, bytes]) -> "Message":
        raise NotImplementedError

    # -- trace propagation ---------------------------------------------
    def with_trace(self, trace_id: str, parent_span_id: str = "") -> "Message":
        """Attach a trace context; rides the wire under ``_trace`` meta.

        The context travels *inside* a signed envelope's payload, so it is
        covered by the frame signature like every other request field.
        (The dataclasses are frozen but not slotted, so the side-channel
        attribute never perturbs field equality or the encoded meta of
        messages without a trace.)
        """
        object.__setattr__(self, "_trace_ctx", (trace_id, parent_span_id))
        return self

    def trace_context(self) -> tuple[str, str]:
        """The attached ``(trace_id, parent_span_id)``, or ``("", "")``."""
        return getattr(self, "_trace_ctx", ("", ""))

    # -- encoding ------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the message into one binary frame."""
        meta = sanitize_json(self._meta())
        trace_ctx = getattr(self, "_trace_ctx", None)
        if trace_ctx is not None:
            meta[TRACE_META_KEY] = [trace_ctx[0], trace_ctx[1]]
        attachments = self._attachments()
        writer = ByteWriter()
        writer.raw(MESSAGE_MAGIC)
        writer.raw(bytes([MESSAGE_VERSION]))
        writer.lp_str(self.kind)
        writer.lp_bytes(json.dumps(meta, separators=(",", ":")).encode("utf-8"))
        writer.uvarint(len(attachments))
        for name, payload in attachments.items():
            writer.lp_str(name)
            writer.lp_bytes(payload)
        return writer.getvalue()

    @staticmethod
    def decode(data: bytes) -> "Message":
        """Deserialize one binary protocol message."""
        if data[: len(MESSAGE_MAGIC)] != MESSAGE_MAGIC:
            raise WireError("not a protocol message: missing the F2M magic")
        reader = ByteReader(data)
        reader.skip(len(MESSAGE_MAGIC))
        version = reader.u8()
        if version != MESSAGE_VERSION:
            raise WireError(f"unsupported protocol message version {version}")
        kind = reader.lp_str()
        meta = json_blob(reader.lp_bytes())
        attachments = {}
        for _ in range(reader.uvarint()):
            name = reader.lp_str()
            attachments[name] = reader.lp_bytes()
        reader.expect_end()
        message_cls = MESSAGE_TYPES.get(kind)
        if message_cls is None:
            raise WireError(f"unknown protocol message kind {kind!r}")
        if not isinstance(meta, dict):
            raise WireError(f"protocol message {kind!r} carries a non-object meta")
        trace_ctx = meta.pop(TRACE_META_KEY, None)
        message = message_cls._build(meta, attachments)
        if (
            isinstance(trace_ctx, (list, tuple))
            and len(trace_ctx) == 2
            and trace_ctx[0]
        ):
            message.with_trace(str(trace_ctx[0]), str(trace_ctx[1]))
        return message


@dataclass(frozen=True)
class OutsourceRequest(Message):
    """Owner -> provider: store this ciphertext relation as ``table_id``.

    The one full-view write: the first push of a table, and an insert that
    cannot ship as an :class:`InsertDelta` (a MAS change, a poor delta, a
    base the server no longer holds).
    """

    kind: ClassVar[str] = "outsource_request"
    table_id: str
    relation: Relation
    #: Ask the ack for the server's Merkle root over the stored rows (the
    #: owner checks it against her own tree at write time).
    with_root: bool = False

    def _meta(self) -> dict[str, Any]:
        return {"table_id": self.table_id, "with_root": self.with_root}

    def _attachments(self) -> dict[str, bytes]:
        return {"relation": encode_relation(self.relation)}

    @classmethod
    def _build(cls, meta, attachments) -> "OutsourceRequest":
        return cls(
            table_id=check_table_id(meta.get("table_id", "")),
            relation=decode_relation(_require(attachments, "relation", cls.kind)),
            with_root=bool(meta.get("with_root", False)),
        )


@dataclass(frozen=True)
class DiscoverRequest(Message):
    """Owner -> provider: run FD discovery on ``table_id``."""

    kind: ClassVar[str] = "discover_request"
    table_id: str
    max_lhs_size: int | None = None

    def _meta(self) -> dict[str, Any]:
        return {"table_id": self.table_id, "max_lhs_size": self.max_lhs_size}

    @classmethod
    def _build(cls, meta, attachments) -> "DiscoverRequest":
        max_lhs = meta.get("max_lhs_size")
        return cls(
            table_id=check_table_id(meta.get("table_id", "")),
            max_lhs_size=None if max_lhs is None else int(max_lhs),
        )


@dataclass(frozen=True)
class DiscoverResult(Message):
    """Provider -> owner: the TANE result for a discovery request."""

    kind: ClassVar[str] = "discover_result"
    table_id: str
    result: TaneResult

    def _meta(self) -> dict[str, Any]:
        return {"table_id": self.table_id}

    def _attachments(self) -> dict[str, bytes]:
        return {"result": encode_tane_result(self.result)}

    @classmethod
    def _build(cls, meta, attachments) -> "DiscoverResult":
        return cls(
            table_id=check_table_id(meta.get("table_id", "")),
            result=decode_tane_result(_require(attachments, "result", cls.kind)),
        )


@dataclass(frozen=True)
class PlanQueryRequest(Message):
    """Owner -> provider: execute a planned boolean selection server-side.

    Carries the server-evaluable expression of a
    :class:`~repro.query.planner.QueryPlan`: token leaves combined by
    and/or/not, to be executed as bitset algebra over the stored rows.  The
    wire form is a structure document in the meta (leaves referenced by
    index) plus one cell-codec attachment per leaf token — and nothing else:
    the owner-side plaintext annotations on the leaves are dropped at
    encoding time, so the provider sees only ciphertexts and structure.
    """

    kind: ClassVar[str] = "plan_query_request"
    table_id: str
    expr: ServerExpr
    #: Attach the commit version and Merkle root to the result.
    with_root: bool = False

    def _meta(self) -> dict[str, Any]:
        return {
            "table_id": self.table_id,
            "expr": server_expr_to_doc(self.expr),
            "with_root": self.with_root,
        }

    def _attachments(self) -> dict[str, bytes]:
        return {
            f"token{leaf.index}": encode_cells(list(leaf.token))
            for leaf in collect_leaves(self.expr)
        }

    @classmethod
    def _build(cls, meta, attachments) -> "PlanQueryRequest":
        doc = meta.get("expr")
        if doc is None:
            raise WireError("plan_query_request without an expression")
        tokens: dict[int, tuple] = {}
        for name, payload in attachments.items():
            if not name.startswith("token"):
                continue
            try:
                index = int(name[len("token") :])
            except ValueError as exc:
                raise WireError(f"malformed token attachment name {name!r}") from exc
            tokens[index] = tuple(decode_cells(payload))
        return cls(
            table_id=check_table_id(meta.get("table_id", "")),
            expr=server_expr_from_doc(doc, tokens),
            with_root=bool(meta.get("with_root", False)),
        )


@dataclass(frozen=True)
class PlanQueryResult(Message):
    """Provider -> owner: the bitset-execution result of a planned query.

    ``row_indexes`` is the final match set (ascending);
    ``leaf_match_counts`` is the cardinality of every token leaf's match
    bitset in leaf-index order — the access pattern the provider observed,
    which feeds the owner's :class:`~repro.query.leakage.QueryLeakageReport`.
    ``num_rows`` is the stored row count (the leakage denominator).  A
    verified owner recomputes all three over her replica of the view
    (:meth:`repro.integrity.state.TableIntegrityState.verify_proofs`).
    """

    kind: ClassVar[str] = "plan_query_result"
    table_id: str
    row_indexes: tuple[int, ...]
    leaf_match_counts: tuple[int, ...]
    num_rows: int
    #: Commit version / Merkle root, attached when the request asked for
    #: them (``with_root``).
    version: int = -1
    merkle_root: str = ""
    #: Always ``None``: a reply carries no inclusion proofs (a class
    #: constant, not a constructor field).
    proofs: ClassVar[None] = None

    def _meta(self) -> dict[str, Any]:
        meta: dict[str, Any] = {
            "table_id": self.table_id,
            "row_indexes": list(self.row_indexes),
            "leaf_match_counts": list(self.leaf_match_counts),
            "num_rows": self.num_rows,
        }
        if self.merkle_root or self.version >= 0:
            meta["version"] = self.version
            meta["merkle_root"] = self.merkle_root
        return meta

    @classmethod
    def _build(cls, meta, attachments) -> "PlanQueryResult":
        indexes = meta.get("row_indexes")
        counts = meta.get("leaf_match_counts")
        num_rows = meta.get("num_rows")
        if not isinstance(indexes, list) or not isinstance(counts, list):
            raise WireError("plan_query_result without row indexes or leaf counts")
        if num_rows is None:
            # num_rows anchors the owner's leakage denominator and her
            # desync check; defaulting it would make both silently wrong.
            raise WireError("plan_query_result without a stored row count")
        return cls(
            table_id=check_table_id(meta.get("table_id", "")),
            row_indexes=tuple(int(index) for index in indexes),
            leaf_match_counts=tuple(int(count) for count in counts),
            num_rows=int(num_rows),
            version=int(meta.get("version", -1)),
            merkle_root=str(meta.get("merkle_root", "")),
        )


@dataclass(frozen=True)
class InsertDelta(Message):
    """Owner -> provider: splice an incremental insert into ``table_id``.

    Ships only what changed: copy segments referencing the provider's stored
    base view plus the literal (new/changed) ciphertext rows — see
    :mod:`repro.api.delta`.  The provider checks the base under the table's
    write lock before splicing: the commit version must equal
    ``base_version`` (``VERSION_CONFLICT`` otherwise — an interleaved
    writer, a rolled-back store) and the row count ``delta.base_rows``
    (``DELTA_MISMATCH``); the owner then falls back to a full
    :class:`OutsourceRequest`.
    """

    kind: ClassVar[str] = "insert_delta"
    table_id: str
    delta: ViewDelta
    batch_rows: int = 0
    #: Commit version the delta was computed against: the server's
    #: compare-and-swap base.  A delta without one (``-1``) is rejected as
    #: ``BAD_REQUEST`` — nothing else pins which view its copy segments
    #: index into.
    base_version: int = -1
    with_root: bool = False

    def _meta(self) -> dict[str, Any]:
        return {
            "table_id": self.table_id,
            "batch_rows": self.batch_rows,
            "base_rows": self.delta.base_rows,
            "segments": [list(segment) for segment in self.delta.segments],
            "table_name": self.delta.table_name,
            "new_root": self.delta.new_root,
            "base_version": self.base_version,
            "with_root": self.with_root,
        }

    def _attachments(self) -> dict[str, bytes]:
        if self.delta.literals is None:
            return {}
        return {"literals": encode_relation(self.delta.literals)}

    @classmethod
    def _build(cls, meta, attachments) -> "InsertDelta":
        segments = meta.get("segments")
        if not isinstance(segments, list):
            raise WireError("insert_delta without segments")
        literals_payload = attachments.get("literals")
        delta = ViewDelta(
            base_rows=int(meta.get("base_rows", -1)),
            segments=[list(segment) for segment in segments],
            literals=None
            if literals_payload is None
            else decode_relation(literals_payload),
            table_name=str(meta.get("table_name", "")),
            new_root=str(meta.get("new_root", "")),
        )
        return cls(
            table_id=check_table_id(meta.get("table_id", "")),
            delta=delta,
            batch_rows=int(meta.get("batch_rows", 0)),
            base_version=int(meta.get("base_version", -1)),
            with_root=bool(meta.get("with_root", False)),
        )


@dataclass(frozen=True)
class Hello(Message):
    """Client -> server: open an authenticated session (the handshake).

    Carries the tenant identity, the capability the client's credential was
    minted for, and the protocol versions the client speaks.  The server
    requires :data:`PROTOCOL_VERSION` among the versions and answers with a
    :class:`HelloAck`; proof of key possession happens on the first signed
    frame, not here — a forged Hello yields a session its sender cannot
    sign anything for.  It is the only way to open a session: a client
    whose session was evicted or lost to a restart sends a new one.
    """

    kind: ClassVar[str] = "hello"
    tenant_id: str
    capability: str
    token_id: str = ""
    versions: tuple[int, ...] = (PROTOCOL_VERSION,)

    def _meta(self) -> dict[str, Any]:
        return {
            "tenant_id": self.tenant_id,
            "capability": self.capability,
            "token_id": self.token_id,
            "versions": list(self.versions),
        }

    @classmethod
    def _build(cls, meta, attachments) -> "Hello":
        versions = meta.get("versions")
        if not isinstance(versions, list):
            raise WireError("hello without a version list")
        return cls(
            tenant_id=check_tenant_id(str(meta.get("tenant_id", ""))),
            capability=check_capability(str(meta.get("capability", ""))),
            token_id=str(meta.get("token_id", "")),
            versions=tuple(int(version) for version in versions),
        )


@dataclass(frozen=True)
class HelloAck(Message):
    """Server -> client: the established session id and protocol version."""

    kind: ClassVar[str] = "hello_ack"
    session_id: str
    version: int
    server_name: str = ""

    def _meta(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "version": self.version,
            "server_name": self.server_name,
        }

    @classmethod
    def _build(cls, meta, attachments) -> "HelloAck":
        session_id = meta.get("session_id")
        if not isinstance(session_id, str) or not session_id:
            raise WireError("hello_ack without a session id")
        return cls(
            session_id=session_id,
            version=int(meta.get("version", 0)),
            server_name=str(meta.get("server_name", "")),
        )


@dataclass(frozen=True)
class _SignedFrame(Message):
    """Session id, sequence number, HMAC signature, and a raw payload.

    ``payload`` is a complete encoded protocol message that travels as a
    raw attachment, so the receiver checks the exact bytes the signature
    covers.  The two directions differ only in their kind and signing key.
    """

    #: What the frame is called in decode errors.
    what: ClassVar[str] = ""
    session_id: str
    sequence: int
    signature: str
    payload: bytes

    def _meta(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "sequence": self.sequence,
            "signature": self.signature,
        }

    def _attachments(self) -> dict[str, bytes]:
        return {"payload": self.payload}

    @classmethod
    def _build(cls, meta, attachments) -> "_SignedFrame":
        payload = attachments.get("payload")
        if payload is None:
            raise WireError(f"{cls.what} without a payload")
        if not payload.startswith(MESSAGE_MAGIC):
            raise WireError(f"{cls.what} payload is not a binary protocol message")
        session_id = meta.get("session_id")
        signature = meta.get("signature")
        if not isinstance(session_id, str) or not isinstance(signature, str):
            raise WireError(f"{cls.what} without session id or signature")
        return cls(
            session_id=session_id,
            sequence=int(meta.get("sequence", -1)),
            signature=signature,
            payload=payload,
        )


@dataclass(frozen=True)
class SignedEnvelope(_SignedFrame):
    """Client -> server: an authenticated request frame.

    The signature is HMAC-SHA256 over ``(session_id, sequence, payload)``
    keyed by the session's tenant secret (see :mod:`repro.api.auth`).
    """

    kind: ClassVar[str] = "signed"
    what: ClassVar[str] = "signed envelope"


@dataclass(frozen=True)
class SignedReply(_SignedFrame):
    """Server -> client: an authenticated reply frame.

    The signature is HMAC-SHA256 over ``(session_id, request sequence,
    payload)`` keyed by the tenant's *derived reply key* (see
    :func:`repro.api.auth.sign_reply`).  Echoing the request's sequence
    number pins the reply to the exact request it answers — a recorded
    reply replayed against a later request fails verification.
    """

    kind: ClassVar[str] = "signed_reply"
    what: ClassVar[str] = "signed reply"


@dataclass(frozen=True)
class StatsRequest(Message):
    """Owner -> provider: the live observability snapshot.

    Owner capability only — the stats surface names tables, error
    messages, and traffic shapes across the whole process, which is more
    than a read-only analyst should see.

    ``trace_id`` asks for the spans of one specific trace (the client
    merges them with its own half of the tree); otherwise the reply
    carries the last ``max_traces`` finished trace trees.
    """

    kind: ClassVar[str] = "stats_request"
    include_metrics: bool = True
    include_traces: bool = True
    trace_id: str = ""
    max_traces: int = 20

    def _meta(self) -> dict[str, Any]:
        return {
            "include_metrics": self.include_metrics,
            "include_traces": self.include_traces,
            "trace_id": self.trace_id,
            "max_traces": self.max_traces,
        }

    @classmethod
    def _build(cls, meta, attachments) -> "StatsRequest":
        return cls(
            include_metrics=bool(meta.get("include_metrics", True)),
            include_traces=bool(meta.get("include_traces", True)),
            trace_id=str(meta.get("trace_id", "")),
            max_traces=int(meta.get("max_traces", 20)),
        )


@dataclass(frozen=True)
class StatsReply(Message):
    """The provider's observability snapshot, one JSON document.

    ``stats`` carries the metrics registry snapshot, per-table store
    stats, the error ring, the slow-query ring, and recent traces — see
    :meth:`ProtocolServer.stats_doc` for the exact shape.
    """

    kind: ClassVar[str] = "stats_reply"
    stats: dict[str, Any] = field(default_factory=dict)

    def _meta(self) -> dict[str, Any]:
        return {"stats": self.stats}

    @classmethod
    def _build(cls, meta, attachments) -> "StatsReply":
        stats = meta.get("stats")
        return cls(stats=stats if isinstance(stats, dict) else {})


@dataclass(frozen=True)
class Ack(Message):
    """Generic success reply; ``fields`` carries request-specific details."""

    kind: ClassVar[str] = "ack"
    fields: dict[str, Any] = field(default_factory=dict)

    def _meta(self) -> dict[str, Any]:
        return dict(self.fields)

    @classmethod
    def _build(cls, meta, attachments) -> "Ack":
        return cls(fields=dict(meta))


@dataclass(frozen=True)
class ErrorReply(Message):
    """Failure reply: a stable error code, category, and readable message.

    ``code`` is an :class:`repro.api.auth.ErrorCode` value; clients (and the
    CLI's exit-code mapping) branch on it instead of parsing ``message``.
    ``error`` remains the server-side exception class name, for logs.
    """

    kind: ClassVar[str] = "error"
    error: str
    message: str
    code: str = ErrorCode.INTERNAL.value

    def _meta(self) -> dict[str, Any]:
        return {"error": self.error, "message": self.message, "code": self.code}

    @classmethod
    def _build(cls, meta, attachments) -> "ErrorReply":
        return cls(
            error=str(meta.get("error", "")),
            message=str(meta.get("message", "")),
            code=str(meta.get("code", ErrorCode.INTERNAL.value)),
        )


MESSAGE_TYPES: dict[str, type[Message]] = {
    cls.kind: cls
    for cls in (
        OutsourceRequest,
        InsertDelta,
        DiscoverRequest,
        DiscoverResult,
        PlanQueryRequest,
        PlanQueryResult,
        Hello,
        HelloAck,
        SignedEnvelope,
        SignedReply,
        StatsRequest,
        StatsReply,
        Ack,
        ErrorReply,
    )
}


def _require(attachments: dict[str, bytes], name: str, kind: str) -> bytes:
    payload = attachments.get(name)
    if payload is None:
        raise WireError(f"protocol message {kind!r} missing attachment {name!r}")
    return payload


def _error_reply(exc: Exception, default: str = "") -> ErrorReply:
    """Map a server-side exception onto a coded :class:`ErrorReply`.

    Exceptions that carry a ``code`` (``ProtocolError``/``AuthError``) keep
    it; the remaining repro domains fall back to their category code;
    anything else gets ``default`` (the decode path passes
    ``WIRE_MALFORMED`` — any exception there means unparseable input) or
    ``INTERNAL``.
    """
    code = getattr(exc, "code", None)
    if not code:
        if isinstance(exc, WireError):
            code = ErrorCode.WIRE_MALFORMED.value
        elif isinstance(exc, QueryError):
            # Attribute-missing QueryErrors carry UNKNOWN_ATTRIBUTE
            # explicitly (see _unknown_attribute); the rest are structural
            # request problems.
            code = ErrorCode.BAD_REQUEST.value
        else:
            code = default or ErrorCode.INTERNAL.value
    return ErrorReply(error=type(exc).__name__, message=str(exc), code=str(code))


def _unknown_attribute(table_id: str, attribute: str) -> QueryError:
    """A QueryError tagged with the stable UNKNOWN_ATTRIBUTE wire code."""
    error = QueryError(f"table {table_id!r} has no attribute {attribute!r}")
    error.code = ErrorCode.UNKNOWN_ATTRIBUTE.value
    return error


# ----------------------------------------------------------------------
# Per-table read/write locking
# ----------------------------------------------------------------------
class _RWLock:
    """A writer-preferring read/write lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Once a writer is waiting, new readers queue behind it, so a
    steady stream of queries cannot starve a mutation.  Not reentrant —
    handlers acquire at most one table lock and never nest.

    Every acquisition records *wait* (queueing behind other holders) and
    *hold* time into the ``store.lock_wait_seconds`` /
    ``store.lock_hold_seconds`` histograms, labelled by table and mode —
    the direct measurement of how much traffic serializes per table.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting", "_table", "_hists")

    def __init__(self, table: str = "") -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._table = table
        # Histogram handles cached per mode: registry label lookups cost
        # more than the observe itself, and every query pays this path.
        # (``REGISTRY.reset`` zeroes handles in place, so they stay live.)
        self._hists: dict[str, tuple] = {}

    def _observe(self, mode: str, waited: float, held: float) -> None:
        hists = self._hists.get(mode)
        if hists is None:
            hists = (
                obs.histogram("store.lock_wait_seconds", mode=mode, table=self._table),
                obs.histogram("store.lock_hold_seconds", mode=mode, table=self._table),
            )
            self._hists[mode] = hists
        hists[0].observe(waited)
        hists[1].observe(held)

    @contextmanager
    def read(self):
        recording = obs.REGISTRY.enabled
        wait_start = time.perf_counter() if recording else 0.0
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        acquired = time.perf_counter() if recording else 0.0
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()
            if recording:
                released = time.perf_counter()
                self._observe("read", acquired - wait_start, released - acquired)

    @contextmanager
    def write(self):
        recording = obs.REGISTRY.enabled
        wait_start = time.perf_counter() if recording else 0.0
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        acquired = time.perf_counter() if recording else 0.0
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()
            if recording:
                released = time.perf_counter()
                self._observe("write", acquired - wait_start, released - acquired)


# ----------------------------------------------------------------------
# Server endpoint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _AuthContext:
    """Who a request acts as: the resolved tenant and its capability."""

    tenant_id: str
    capability: str
    session_id: str = ""


#: The context of unauthenticated (legacy single-tenant) requests: the
#: implicit local tenant with full rights.
_ANONYMOUS = _AuthContext(tenant_id=DEFAULT_TENANT, capability=CAPABILITY_OWNER)


@dataclass
class _SessionState:
    """One established session: identity and next sequence."""

    session_id: str
    tenant_id: str
    capability: str
    token_id: str
    next_sequence: int = 1
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Monotonic clock of the last verified frame (LRU eviction order).
    last_used: float = 0.0


class ProtocolServer:
    """The provider endpoint: keyless stores, discovery, queries, persistence.

    Parameters
    ----------
    name:
        Display name used in error messages and logs.
    backend:
        Compute backend for FD discovery and query filtering (the provider is
        the party with the big hardware).
    storage_dir:
        Directory for persistence.  When set, every table is a segment
        store (:mod:`repro.store.segment`): a ``<table>.f2s`` directory of
        columnar segment files and an append-only table log, directly in
        the directory for the default local tenant
        and under ``<tenant_id>/`` for authenticated tenants.  Every write
        is durable when it is acknowledged, an :class:`InsertDelta` is an
        O(delta) disk append, and every readable table is loaded back on
        construction, so a restarted server resumes serving without a
        re-outsource.  A table that does not open (corrupt, or in a
        format this code does not read) is skipped with a warning — one
        bad file must not take down every other tenant's tables; the
        owner re-outsources it once the operator removed its directory.
        ``None`` keeps all stores in memory only.
    storage_engine:
        ``None`` or ``"segment"``; the engine follows from ``storage_dir``.
        ``"segment"`` without a ``storage_dir`` is a configuration error.
    tenants:
        A :class:`~repro.api.auth.TenantRegistry` (or a path to one)
        enabling the authenticated multi-tenant session layer.  When set,
        plain unauthenticated data messages are rejected with
        ``AUTH_REQUIRED`` unless ``allow_anonymous=True``.  ``None`` (the
        default) keeps the legacy behaviour: every request acts as the
        implicit local tenant with full rights.
    allow_anonymous:
        Explicitly allow unauthenticated requests alongside a tenant
        registry (they act as the local tenant).  Defaults to ``True`` when
        ``tenants`` is ``None`` and ``False`` otherwise.
    slow_query_ms:
        Arm the structured slow-query log: any request whose handling takes
        at least this many milliseconds is recorded (with its rendered
        trace tree) in :attr:`slow_queries` and logged through the
        ``repro.obs.slowlog`` logging channel.  ``None`` (the default)
        disables the log.  Requires metrics enabled (``REPRO_METRICS``).
    """

    def __init__(
        self,
        name: str = "service-provider",
        backend: "ComputeBackend | str | None" = None,
        storage_dir: "str | Path | None" = None,
        tenants: "TenantRegistry | str | Path | None" = None,
        allow_anonymous: "bool | None" = None,
        storage_engine: "str | None" = None,
        slow_query_ms: "float | None" = None,
    ):
        self.name = name
        self.backend = backend
        self.started_at = time.time()
        #: Last-N server errors, one entry per :class:`ErrorReply` produced;
        #: shipped inside :class:`StatsReply`.
        self.errors = obs.ErrorRing()
        #: Requests slower than ``slow_query_ms`` land here with their
        #: rendered trace trees (``None`` keeps the log disarmed).
        self.slow_queries = obs.SlowQueryLog(slow_query_ms)
        # Per-message-kind metric handles, cached: the registry's labelled
        # lookup costs more than the increments on the query hot path.
        self._kind_metrics: dict[str, tuple] = {}
        if storage_engine not in (None, STORAGE_ENGINE_SEGMENT):
            raise ConfigurationError(
                f"unknown storage engine {storage_engine!r}: the segment "
                "engine is the only one (and follows from storage_dir)"
            )
        if storage_engine == STORAGE_ENGINE_SEGMENT and storage_dir is None:
            raise ConfigurationError(
                "the segment storage engine persists to disk and needs a "
                "storage_dir"
            )
        self._resolved_backend: "ComputeBackend | None" = None
        self._stores: dict[str, TableStore] = {}
        self._discoveries: dict[str, TaneResult] = {}
        # Registry lock: guards the dicts above (and the lock registry
        # below) for the few microseconds of a lookup/update.  Long work —
        # query execution, store IO — runs under the *per-table*
        # read/write locks instead, so traffic against one table never
        # serializes behind another table's mutation, and parallel queries
        # against one table share its read lock.
        self._lock = threading.Lock()
        self._table_locks: dict[str, _RWLock] = {}
        self._sessions: dict[str, _SessionState] = {}
        if tenants is None or isinstance(tenants, TenantRegistry):
            self.tenants = tenants
        else:
            self.tenants = TenantRegistry(tenants)
        self._allow_anonymous = (
            (self.tenants is None) if allow_anonymous is None else bool(allow_anonymous)
        )
        self._storage_dir = Path(storage_dir) if storage_dir is not None else None
        if self._storage_dir is not None:
            from repro.store.manifest import create_directory

            create_directory(self._storage_dir)
            self._load_all_segment_stores()

    def _compute_backend(self) -> ComputeBackend:
        """The resolved compute backend the table stores run on (memoised)."""
        if self._resolved_backend is None:
            self._resolved_backend = get_backend(self.backend)
        return self._resolved_backend

    # -- tenant/table namespacing --------------------------------------
    @staticmethod
    def _store_key(tenant_id: str, table_id: str) -> str:
        """The internal store key of a tenant's table.

        The local tenant keeps bare table ids (so pre-tenancy stores,
        facades, and tests address the same keys as before); every other
        tenant gets a ``tenant_id/table_id`` namespace.  Table and tenant
        ids both forbid ``/``, so the namespaces cannot collide.
        """
        check_table_id(table_id)
        if tenant_id == DEFAULT_TENANT:
            return table_id
        return f"{check_tenant_id(tenant_id)}/{table_id}"

    def _table_lock(self, store_key: str) -> _RWLock:
        """The read/write lock of one table (created on first use).

        Lock ordering: a handler takes the table lock first and the registry
        lock second (briefly, inside); never the reverse while holding the
        registry lock.  Read handlers call :meth:`_require_known_table`
        before this, so remote input for nonexistent table ids cannot grow
        the registry without bound.
        """
        with self._lock:
            lock = self._table_locks.get(store_key)
            if lock is None:
                lock = self._table_locks[store_key] = _RWLock(store_key)
            return lock

    def _require_known_table(self, store_key: str, table_id: str) -> None:
        """Reject requests for tables this tenant does not hold.

        Raised *before* a per-table lock is allocated: tables are never
        removed, so the check cannot race a deletion, and an untrusted
        client probing random table ids leaves no trace in the registry.
        The message names the client-facing table id only — another
        tenant's namespace never leaks into an error.
        """
        with self._lock:
            if store_key not in self._stores:
                raise ProtocolError(
                    f"{self.name} has no table {table_id!r}",
                    code=ErrorCode.UNKNOWN_TABLE.value,
                )

    # -- store access (used by the in-process facade and tests) --------
    def table_ids(self, tenant_id: "str | None" = DEFAULT_TENANT) -> list[str]:
        """Table ids of one tenant (default: local); ``None`` lists every
        store key across all tenants (namespaced keys included)."""
        with self._lock:
            keys = sorted(self._stores)
        if tenant_id is None:
            return keys
        if tenant_id == DEFAULT_TENANT:
            return [key for key in keys if "/" not in key]
        prefix = f"{tenant_id}/"
        return [key[len(prefix) :] for key in keys if key.startswith(prefix)]

    def table_store(
        self, table_id: str = DEFAULT_TABLE_ID, tenant_id: str = DEFAULT_TENANT
    ) -> TableStore:
        """The :class:`~repro.store.base.TableStore` holding one table."""
        key = self._store_key(tenant_id, table_id)
        with self._lock:
            store = self._stores.get(key)
        if store is None:
            raise ProtocolError(
                f"{self.name} has no table {table_id!r}",
                code=ErrorCode.UNKNOWN_TABLE.value,
            )
        return store

    def store(
        self, table_id: str = DEFAULT_TABLE_ID, tenant_id: str = DEFAULT_TENANT
    ) -> Relation:
        """The stored relation, materialised from its table store."""
        return self.table_store(table_id, tenant_id=tenant_id).relation()

    def has_table(
        self, table_id: str = DEFAULT_TABLE_ID, tenant_id: str = DEFAULT_TENANT
    ) -> bool:
        key = self._store_key(tenant_id, table_id)
        with self._lock:
            return key in self._stores

    def last_discovery(
        self, table_id: str = DEFAULT_TABLE_ID, tenant_id: str = DEFAULT_TENANT
    ) -> TaneResult | None:
        """The most recent discovery for ``table_id``.

        ``None`` until a discovery ran — and again after every received
        store, because a result computed on the previous ciphertext does not
        describe the current one.
        """
        key = self._store_key(tenant_id, table_id)
        with self._lock:
            return self._discoveries.get(key)

    # -- transport-facing entry point ----------------------------------
    def handle_bytes(self, data: bytes) -> bytes:
        """Decode one request, dispatch it, and encode the reply.

        A server must never let a malformed request kill the connection, so
        *any* decode failure — including non-Repro exceptions raised by
        corrupted meta documents (``UnicodeDecodeError``, ``ValueError``
        from field coercions, ...) — becomes an :class:`ErrorReply`.
        """
        try:
            request = Message.decode(data)
        except Exception as exc:  # noqa: BLE001 - see docstring
            reply = _error_reply(exc, default=ErrorCode.WIRE_MALFORMED.value)
            self._note_error(reply, kind="undecodable")
            out = reply.encode()
            self._note_traffic("undecodable", len(data), len(out))
            return out
        if isinstance(request, Hello):
            reply = self._dispatch_safely(self._handle_hello, request)
        elif isinstance(request, SignedEnvelope):
            reply = self._dispatch_safely(self._handle_signed, request)
        elif not self._allow_anonymous:
            reply = ErrorReply(
                error="AuthError",
                message=f"{self.name} requires an authenticated session "
                "(send a Hello handshake and sign your requests)",
                code=ErrorCode.AUTH_REQUIRED.value,
            )
            self._note_error(reply, kind=request.kind)
        else:
            reply = self.handle(request)
        out = reply.encode()
        self._note_traffic(request.kind, len(data), len(out))
        return out

    def _dispatch_safely(self, handler, request: Message) -> Message:
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            reply = _error_reply(exc)
            self._note_error(
                reply, kind=request.kind, trace_id=request.trace_context()[0]
            )
            return reply

    # -- instrumentation helpers ---------------------------------------
    def _kind_handles(self, kind: str) -> tuple:
        """Cached ``(requests, request_seconds, bytes_in, bytes_out)``
        handles for one message kind (``REGISTRY.reset`` zeroes handles in
        place, so cached ones stay live)."""
        handles = self._kind_metrics.get(kind)
        if handles is None:
            handles = (
                obs.counter("server.requests", kind=kind),
                obs.histogram("server.request_seconds", kind=kind),
                obs.counter("server.bytes_received", kind=kind),
                obs.counter("server.bytes_sent", kind=kind),
            )
            self._kind_metrics[kind] = handles
        return handles

    def _note_traffic(self, kind: str, bytes_in: int, bytes_out: int) -> None:
        """Per-message-kind wire byte counters (delta-vs-full insert bytes
        fall straight out of ``kind="insert_delta"`` vs
        ``kind="outsource_request"``)."""
        if not obs.REGISTRY.enabled:
            return
        _, _, received, sent = self._kind_handles(kind)
        received.inc(bytes_in)
        sent.inc(bytes_out)

    def _note_error(self, reply: ErrorReply, kind: str = "", trace_id: str = "") -> None:
        """Count one produced :class:`ErrorReply` and remember it in the ring.

        The ring records even with metrics disabled — it is server state
        (what went wrong recently), not a rate.
        """
        obs.counter("server.errors", code=reply.code).inc()
        self.errors.record(reply.code, reply.message, kind=kind, trace_id=trace_id)

    def handle(self, request: Message, auth: _AuthContext = _ANONYMOUS) -> Message:
        """Dispatch one decoded request to its handler; errors become replies.

        ``auth`` is the verified identity the request acts as: the implicit
        local tenant for plain requests, or the session's tenant/capability
        for a signed frame.  Capability enforcement happens here, per
        message type, before any handler runs.

        This is also the observability chokepoint for every *logical*
        request (plain or the inner message of a signed frame): one
        ``server.<kind>`` span — adopting the request's wire trace context,
        so the tree grafts under the client's span — plus per-kind request
        count/latency metrics, error accounting, and the slow-query check.
        """
        if not obs.REGISTRY.enabled:
            return self._dispatch(request, auth)
        kind = request.kind
        table = getattr(request, "table_id", "")
        span_obj = None
        trace_id = ""
        if obs.tracing_active():
            trace_id, parent_id = request.trace_context()
            span_obj = obs.start_span(
                f"server.{kind}", trace_id or None, parent_id, table=table
            )
        start = time.perf_counter()
        try:
            reply = self._dispatch(request, auth)
        finally:
            obs.finish_span(span_obj)
        elapsed = span_obj.seconds if span_obj is not None else time.perf_counter() - start
        requests, request_seconds, _, _ = self._kind_handles(kind)
        requests.inc()
        request_seconds.observe(elapsed)
        if isinstance(reply, ErrorReply):
            self._note_error(
                reply,
                kind=kind,
                trace_id=span_obj.trace_id if span_obj is not None else trace_id,
            )
        if self.slow_queries.enabled:
            self.slow_queries.maybe_record(
                span_obj, kind=kind, table=table, tenant=auth.tenant_id
            )
        return reply

    def _dispatch(self, request: Message, auth: _AuthContext) -> Message:
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            return ErrorReply(
                error="ProtocolError",
                message=f"{self.name} cannot handle message kind {request.kind!r}",
                code=ErrorCode.BAD_REQUEST.value,
            )
        if type(request) in self._OWNER_ONLY and auth.capability != CAPABILITY_OWNER:
            return ErrorReply(
                error="AuthError",
                message=f"capability {auth.capability!r} may not send "
                f"{request.kind!r} (owner capability required)",
                code=ErrorCode.FORBIDDEN.value,
            )
        try:
            return handler(self, request, auth)
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            return _error_reply(exc)

    # -- the authenticated session layer --------------------------------
    def _handle_hello(self, request: Hello) -> Message:
        if self.tenants is None:
            raise AuthError(
                f"{self.name} has no tenant registry; authenticated sessions "
                "are not available",
                code=ErrorCode.AUTH_UNKNOWN_TENANT.value,
            )
        if PROTOCOL_VERSION not in request.versions:
            raise AuthError(
                f"no shared protocol version: client speaks {list(request.versions)}, "
                f"server speaks {PROTOCOL_VERSION}",
                code=ErrorCode.VERSION_UNSUPPORTED.value,
            )
        if request.tenant_id == DEFAULT_TENANT:
            # The local tenant is the anonymous namespace; a session for it
            # (e.g. via a hand-edited registry) would alias the legacy
            # tables under an authenticated identity.
            raise AuthError(
                f"tenant id {DEFAULT_TENANT!r} is reserved for "
                "unauthenticated local access",
                code=ErrorCode.AUTH_UNKNOWN_TENANT.value,
            )
        if not self.tenants.has_tenant(request.tenant_id):
            raise AuthError(
                f"unknown tenant {request.tenant_id!r}",
                code=ErrorCode.AUTH_UNKNOWN_TENANT.value,
            )
        self._live_key(request.tenant_id, request.capability)
        session = _SessionState(
            # repro: allow(entropy-discipline): session ids are transport-layer, never touch ciphertext bytes
            session_id=os.urandom(16).hex(),
            tenant_id=request.tenant_id,
            capability=request.capability,
            token_id=request.token_id,
            last_used=time.monotonic(),
        )
        with self._lock:
            # Bound the session table: handshakes are cheap for anyone who
            # knows a valid tenant id, so evict the least-recently-verified
            # session on overflow (its holder simply re-handshakes).
            while len(self._sessions) >= self.MAX_SESSIONS:
                oldest = min(self._sessions.values(), key=lambda s: s.last_used)
                del self._sessions[oldest.session_id]
            self._sessions[session.session_id] = session
        return HelloAck(
            session_id=session.session_id,
            version=PROTOCOL_VERSION,
            server_name=self.name,
        )

    def _live_key(self, tenant_id: str, capability: str) -> TenantKey:
        """The registry's current key of one tenant/capability.

        Raises ``AUTH_FAILED`` when the tenant holds no such key and
        ``AUTH_REVOKED`` when it was revoked — checked on the handshake and
        on every signed frame, so revocation bites on the very next one.
        """
        registry = self.tenants
        assert registry is not None  # sessions only exist with a registry
        key = registry.key_for(tenant_id, capability)
        if key is None:
            raise AuthError(
                f"tenant {tenant_id!r} has no {capability!r} key",
                code=ErrorCode.AUTH_FAILED.value,
            )
        if key.revoked:
            raise AuthError(
                f"the {capability!r} key of tenant {tenant_id!r} has been revoked",
                code=ErrorCode.AUTH_REVOKED.value,
            )
        return key

    def _handle_signed(self, request: SignedEnvelope) -> Message:
        """Verify one signed frame, then dispatch its inner message.

        Verification order: session, signature, sequence.  The signature is
        checked against the registry's *current* key for the session's
        tenant/capability, so rotation and revocation bite on the very next
        frame.  The sequence number only advances after both checks pass —
        a replayed frame (old sequence, valid old signature) and a forged
        frame (fresh sequence, bad signature) are both rejected without
        moving the window.
        """
        trace_id, parent_id = request.trace_context()
        with obs.span(
            "server.signed_dispatch", trace_id or None, parent_id
        ):
            return self._handle_signed_traced(request)

    def _handle_signed_traced(self, request: SignedEnvelope) -> Message:
        with self._lock:
            session = self._sessions.get(request.session_id)
        if session is None:
            raise AuthError(
                "unknown session (handshake again)",
                code=ErrorCode.AUTH_UNKNOWN_SESSION.value,
            )
        with session.lock:
            key = self._live_key(session.tenant_id, session.capability)
            secret = bytes.fromhex(key.secret_hex)
            if not verify_frame(
                secret,
                request.session_id,
                request.sequence,
                request.payload,
                request.signature,
            ):
                raise AuthError(
                    "request signature does not verify against the tenant's "
                    "current key",
                    code=ErrorCode.AUTH_FAILED.value,
                )
            if request.sequence != session.next_sequence:
                raise AuthError(
                    f"bad sequence number {request.sequence} (expected "
                    f"{session.next_sequence}): replayed, duplicated, or "
                    "reordered frame",
                    code=ErrorCode.BAD_SEQUENCE.value,
                )
            session.next_sequence += 1
            session.last_used = time.monotonic()
            try:
                inner = Message.decode(request.payload)
            except Exception as exc:  # noqa: BLE001 - malformed payloads reply
                raise WireError(f"signed payload is not a protocol message: {exc}") from exc
            if isinstance(inner, (Hello, SignedEnvelope)):
                raise ProtocolError(
                    f"a signed frame cannot carry a {inner.kind!r} message",
                    code=ErrorCode.BAD_REQUEST.value,
                )
            auth = _AuthContext(
                tenant_id=session.tenant_id,
                capability=session.capability,
                session_id=session.session_id,
            )
            # Dispatch while still holding the session lock: one session is
            # one logical command stream (the client serializes its signed
            # calls anyway), and releasing earlier would let a later frame
            # overtake this one inside the handlers.
            reply = self.handle(inner, auth)
            if isinstance(reply, ErrorReply):
                # Error replies stay unsigned (some are raised before any
                # session is even resolved); clients therefore treat them
                # as advisory — a forged error can deny service, never
                # fake data.
                return reply
            # Every *successful* reply is authenticated, bound to the
            # request's sequence number.
            with obs.span("server.sign_reply", kind=reply.kind):
                payload = reply.encode()
                signature = sign_reply(
                    secret, session.session_id, request.sequence, payload
                )
            return SignedReply(
                session_id=session.session_id,
                sequence=request.sequence,
                signature=signature,
                payload=payload,
            )

    # -- handlers ------------------------------------------------------
    def _get_or_create_store(self, store_key: str) -> TableStore:
        """The table's store, creating an (empty) engine store on first use.

        Called under the table's *write* lock, so two concurrent receives
        for one key cannot both create: the second finds the first's store
        registered.  The store is registered only after its first
        successful write (see the callers) — a failed receive must not
        leave an empty table behind.
        """
        with self._lock:
            store = self._stores.get(store_key)
        if store is not None:
            return store
        if self._storage_dir is not None:
            segment = _segment_store_module()
            return segment.SegmentTableStore(
                self._store_dir(store_key), self._compute_backend(), create=True
            )
        return _memory_store_cls()(self._compute_backend())

    def _receive_store(
        self, store_key: str, relation: Relation, with_root: bool = False
    ) -> dict[str, Any]:
        """Adopt a full view; returns the ack's integrity fields.

        The returned ``version`` (and ``merkle_root`` when asked for) is
        read under the same write lock as the replace, so it names exactly
        the commit this request produced.
        """
        with self._table_lock(store_key).write():
            store = self._get_or_create_store(store_key)
            store.replace(relation)
            with self._lock:
                self._stores[store_key] = store
                # A new ciphertext invalidates any cached discovery result.
                self._discoveries.pop(store_key, None)
            fields: dict[str, Any] = {"version": store.commit_version}
            if with_root:
                fields["merkle_root"] = store.merkle_root()
            return fields

    def _handle_outsource(self, request: OutsourceRequest, auth: _AuthContext) -> Message:
        fields = self._receive_store(
            self._store_key(auth.tenant_id, request.table_id),
            request.relation,
            with_root=request.with_root,
        )
        fields.update(table_id=request.table_id, num_rows=request.relation.num_rows)
        return Ack(fields=fields)

    def _handle_insert_delta(self, request: InsertDelta, auth: _AuthContext) -> Message:
        """Splice a view delta into the stored base under the write lock.

        The base check — commit-version CAS here, row count inside
        :meth:`TableStore.apply_delta` — runs under the same write lock as
        the splice, so the base it verifies is exactly the base it applies
        to: an interleaved writer or a rolled-back store yields a clean
        ``VERSION_CONFLICT`` (the owner then falls back to a full
        :class:`OutsourceRequest` or rebases), never a corrupted store.  On
        the segment engine the splice itself is the persistence (an
        O(delta) append).
        """
        if request.base_version < 0:
            raise ProtocolError(
                "insert_delta needs the commit version it was computed "
                "against (base_version)",
                code=ErrorCode.BAD_REQUEST.value,
            )
        store_key = self._store_key(auth.tenant_id, request.table_id)
        self._require_known_table(store_key, request.table_id)
        with self._table_lock(store_key).write():
            with self._lock:
                store = self._stores[store_key]
            if store.commit_version != request.base_version:
                # The delta's base check: it was computed against a commit
                # version that is no longer current — another writer landed
                # in between, or the store was rolled back to an older
                # generation.  Reject before touching the store;
                # the owner rebases onto the acknowledged view or re-ships
                # the full one.
                raise ProtocolError(
                    f"table {request.table_id!r} is at commit version "
                    f"{store.commit_version}, the delta was computed against "
                    f"version {request.base_version}: rebase and retry",
                    code=ErrorCode.VERSION_CONFLICT.value,
                )
            num_rows = store.apply_delta(request.delta)
            with self._lock:
                self._discoveries.pop(store_key, None)
            fields: dict[str, Any] = {
                "table_id": request.table_id,
                "num_rows": num_rows,
                "batch_rows": request.batch_rows,
                "literal_rows": request.delta.literal_rows,
                "version": store.commit_version,
            }
            if request.with_root:
                fields["merkle_root"] = store.merkle_root()
        return Ack(fields=fields)

    def _handle_discover(self, request: DiscoverRequest, auth: _AuthContext) -> Message:
        # Discovery runs on a materialised relation without any table lock:
        # TANE can take seconds (holding the read lock would block every
        # mutation), and a writer-preferring read acquire would stall
        # discovery behind an in-flight write for no consistency gain.  A
        # receive landing mid-run simply advances the store's version; the
        # (identity, version) check below keeps the stale result out of the
        # cache.
        store_key = self._store_key(auth.tenant_id, request.table_id)
        store = self.table_store(request.table_id, tenant_id=auth.tenant_id)
        version = store.version
        relation = store.relation()
        result = tane_with_stats(
            relation, max_lhs_size=request.max_lhs_size, backend=self.backend
        )
        with self._lock:
            # Cache only if no concurrent write touched the table while
            # TANE ran — a result computed on the old ciphertext must not
            # resurface as the "last discovery" of the new one.
            if self._stores.get(store_key) is store and store.version == version:
                self._discoveries[store_key] = result
        return DiscoverResult(table_id=request.table_id, result=result)

    def _handle_plan_query(self, request: PlanQueryRequest, auth: _AuthContext) -> Message:
        store_key = self._store_key(auth.tenant_id, request.table_id)
        self._require_known_table(store_key, request.table_id)
        with self._table_lock(store_key).read():
            store = self.table_store(request.table_id, tenant_id=auth.tenant_id)
            attributes = store.attributes
            for leaf in collect_leaves(request.expr):
                if leaf.attribute not in attributes:
                    raise _unknown_attribute(request.table_id, leaf.attribute)
            # A TableStore exposes exactly the executor's surface (backend,
            # num_rows, match_mask), so the plan runs against the store
            # directly — on the segment engine the leaf scans read the
            # memory-mapped code arrays, cached per token.
            with obs.span(
                "store.execute_expr", table=request.table_id, engine=store.engine
            ):
                indexes, leaf_counts = execute_server_expr(store, request.expr)
            version, root = -1, ""
            if request.with_root:
                version, root = store.commit_version, store.merkle_root()
            return PlanQueryResult(
                table_id=request.table_id,
                row_indexes=tuple(indexes),
                leaf_match_counts=tuple(leaf_counts),
                num_rows=store.num_rows,
                version=version,
                merkle_root=root,
            )

    # -- the stats surface ---------------------------------------------
    def collect_store_gauges(self) -> None:
        """Refresh the pull-style per-table gauges from live store state.

        Cache hit/miss/splice/invalidation totals, row counts, segment counts,
        mmap'd bytes, and decode counts are *read* from the stores here —
        at snapshot time — instead of being pushed on the hot path, so
        the per-event cost of store observability is zero.
        """
        if not obs.REGISTRY.enabled:
            return
        with self._lock:
            stores = dict(self._stores)
        for store_key, store in stores.items():
            try:
                stats = store.store_stats()
            except (ReproError, OSError):
                # A broken store must not break the stats of healthy ones;
                # anything outside the expected failure types is a bug and
                # propagates. stats_doc() reports the table as unavailable.
                continue
            for name, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    # repro: allow(metrics-discipline): pull-path with a dynamic per-table label set; runs at snapshot time, not per-event
                    obs.gauge(f"store.{name}", table=store_key).set(value)
            for name, value in (stats.get("cache") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    # repro: allow(metrics-discipline): pull-path with a dynamic per-table label set; runs at snapshot time, not per-event
                    obs.gauge(f"store.cache_{name}", table=store_key).set(value)

    def stats_doc(
        self,
        include_metrics: bool = True,
        include_traces: bool = True,
        trace_id: str = "",
        max_traces: int = 20,
    ) -> dict[str, Any]:
        """The :class:`StatsReply` document: one JSON-safe view of the
        server's metrics, per-table store stats, errors, slow queries, and
        recent traces."""
        self.collect_store_gauges()
        with self._lock:
            stores = dict(self._stores)
        tables: dict[str, Any] = {}
        for store_key, store in sorted(stores.items()):
            try:
                tables[store_key] = store.store_stats()
            except (ReproError, OSError) as exc:
                # Keep serving stats for the healthy tables, but say *why*
                # this one is out instead of swallowing the failure.
                tables[store_key] = {"error": "unavailable", "detail": str(exc)}
        doc: dict[str, Any] = {
            "server": self.name,
            "storage_engine": (
                "memory" if self._storage_dir is None else STORAGE_ENGINE_SEGMENT
            ),
            "uptime_seconds": time.time() - self.started_at,
            "metrics_enabled": obs.REGISTRY.enabled,
            "tracing_enabled": obs.tracing_active(),
            "tables": tables,
            "errors": {"total": self.errors.total, "recent": self.errors.snapshot()},
            "slow_queries": {
                "threshold_ms": self.slow_queries.threshold_ms,
                "total": self.slow_queries.total,
                "recent": self.slow_queries.snapshot(),
            },
        }
        if include_metrics:
            doc["metrics"] = obs.snapshot()
        if include_traces:
            if trace_id:
                doc["traces"] = [obs.TRACES.spans_for(trace_id)]
            else:
                doc["traces"] = obs.TRACES.latest(max(0, int(max_traces)))
        return doc

    def _handle_stats(self, request: StatsRequest, auth: _AuthContext) -> Message:
        return StatsReply(
            stats=sanitize_json(
                self.stats_doc(
                    include_metrics=request.include_metrics,
                    include_traces=request.include_traces,
                    trace_id=request.trace_id,
                    max_traces=request.max_traces,
                )
            )
        )

    _HANDLERS: dict[type, Any] = {}
    #: Upper bound on concurrently established sessions; the least recently
    #: verified session is evicted on overflow (it can re-handshake).
    MAX_SESSIONS: ClassVar[int] = 4096
    #: Message types only an owner-capability session (or an anonymous local
    #: request) may send; analyst sessions are read-only by construction.
    #: ``StatsRequest`` is owner-only too: the stats surface names tables,
    #: error messages, and traffic shapes across the whole process.
    _OWNER_ONLY: ClassVar[frozenset] = frozenset(
        {
            OutsourceRequest,
            InsertDelta,
            StatsRequest,
        }
    )

    # -- persistence -----------------------------------------------------
    def _store_dir(self, store_key: str) -> Path:
        """The segment-store directory of one table."""
        assert self._storage_dir is not None
        if "/" in store_key:
            tenant_id, table_id = store_key.split("/", 1)
            return (
                self._storage_dir
                / check_tenant_id(tenant_id)
                / f"{check_table_id(table_id)}{STORE_SUFFIX}"
            )
        return self._storage_dir / f"{check_table_id(store_key)}{STORE_SUFFIX}"

    def _load_all_segment_stores(self) -> None:
        assert self._storage_dir is not None
        for directory in sorted(self._storage_dir.glob(f"*{STORE_SUFFIX}")):
            table_id = directory.name[: -len(STORE_SUFFIX)]
            if directory.is_dir() and _TABLE_ID_RE.match(table_id):
                self._load_one_segment_store(table_id, directory)
        for subdir in sorted(self._storage_dir.iterdir()):
            if not subdir.is_dir() or not _TENANT_DIR_RE.match(subdir.name):
                continue
            for directory in sorted(subdir.glob(f"*{STORE_SUFFIX}")):
                table_id = directory.name[: -len(STORE_SUFFIX)]
                if directory.is_dir() and _TABLE_ID_RE.match(table_id):
                    self._load_one_segment_store(
                        f"{subdir.name}/{table_id}", directory
                    )

    def _load_one_segment_store(self, store_key: str, directory: Path) -> None:
        """Open one segment store; skip (and warn about) unrecoverable ones.

        Opening replays the table log and checks data-file lengths (flat
        in the data size); recovery inside may itself warn when it drops a
        torn tail or falls back to an older log.  One broken table must
        never take the whole server down.
        """
        segment = _segment_store_module()
        try:
            store = segment.SegmentTableStore(directory, self._compute_backend())
        except (StoreError, OSError) as exc:
            warnings.warn(
                f"skipping corrupt table store {directory}: {exc}; the table "
                f"{store_key!r} needs a re-outsource",
                StoreIntegrityWarning,
                stacklevel=2,
            )
            return
        self._stores[store_key] = store

    # -- storage verification ------------------------------------------
    def verify_stores(self, table: "str | None" = None):
        """Offline-verify every table persisted under the storage directory.

        Runs the same walk as ``f2-repro verify``: the engine's own
        consistency pass plus a full Merkle-root recomputation per table.
        Returns the list of :class:`repro.integrity.verify.TableReport`
        (empty when the server has no storage directory).
        """
        if self._storage_dir is None:
            return []
        from repro.integrity.verify import verify_storage_dir

        return verify_storage_dir(
            self._storage_dir, table=table, backend=self._compute_backend()
        )


ProtocolServer._HANDLERS = {
    OutsourceRequest: ProtocolServer._handle_outsource,
    InsertDelta: ProtocolServer._handle_insert_delta,
    DiscoverRequest: ProtocolServer._handle_discover,
    PlanQueryRequest: ProtocolServer._handle_plan_query,
    StatsRequest: ProtocolServer._handle_stats,
}


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class LoopbackTransport:
    """In-memory transport: requests go straight to a server instance.

    Every request still round-trips through the full wire codec, so the
    loopback path exercises exactly the bytes a socket would carry — the
    session facades rely on this to stay behaviourally identical to a
    remote deployment.
    """

    def __init__(self, server: ProtocolServer):
        self.server = server

    def request(self, data: bytes) -> bytes:
        return self.server.handle_bytes(data)

    def close(self) -> None:
        """Nothing to release."""


def _send_frame(sock: socket.socket, data: bytes) -> None:
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the protocol maximum")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"incoming frame of {length} bytes exceeds the protocol maximum")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return body


class SocketTransport:
    """TCP client transport: one persistent connection, framed messages.

    Frames are ``4-byte big-endian length || message bytes`` in both
    directions.  The connection opens lazily on the first request and is
    re-established once per request on failure (a restarted server with a
    storage directory is transparent to the caller: every acknowledged
    write was durable).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(self, data: bytes) -> bytes:
        with self._lock:
            for attempt in (0, 1):
                if self._sock is None:
                    try:
                        self._sock = self._connect()
                    except OSError as exc:
                        raise ProtocolError(
                            f"cannot connect to {self.host}:{self.port}: {exc}"
                        ) from exc
                try:
                    _send_frame(self._sock, data)
                    reply = _recv_frame(self._sock)
                    if reply is None:
                        raise ProtocolError("server closed the connection")
                    return reply
                except (OSError, ProtocolError):
                    self._close_locked()
                    if attempt:
                        raise
            raise ProtocolError("unreachable")  # pragma: no cover

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        self.request.settimeout(IDLE_TIMEOUT_SECONDS)
        while True:
            try:
                data = _recv_frame(self.request)
            except (ProtocolError, OSError):
                # OSError covers socket.timeout: an idle client is closed.
                return
            if data is None:
                return
            reply = self.server.protocol_server.handle_bytes(data)  # type: ignore[attr-defined]
            try:
                _send_frame(self.request, reply)
            except OSError:
                return


class _ThreadingTcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class SocketProtocolServer:
    """A :class:`ProtocolServer` listening on a localhost TCP socket.

    Binds immediately (``port=0`` picks a free port; read :attr:`port`),
    serves each connection on its own thread, and can run either blocking
    (:meth:`serve_forever`, the CLI ``serve`` command) or in the background
    (:meth:`serve_in_background`, tests and examples).  Also usable as a
    context manager.
    """

    def __init__(
        self,
        server: ProtocolServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.protocol_server = server
        self._tcp = _ThreadingTcpServer((host, port), _FrameHandler, bind_and_activate=True)
        self._tcp.protocol_server = server  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._tcp.server_address[0]

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    def serve_forever(self) -> None:
        self._serving = True
        self._tcp.serve_forever(poll_interval=0.1)

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="f2-protocol-server", daemon=True
        )
        self._thread = thread
        thread.start()
        return thread

    def shutdown(self) -> None:
        # BaseServer.shutdown() blocks on an event that only serve_forever()
        # sets; calling it on a server whose loop never started would hang
        # forever (e.g. a `with` body raising before serve_in_background()).
        if self._serving:
            self._tcp.shutdown()
            self._serving = False
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "SocketProtocolServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Client endpoint
# ----------------------------------------------------------------------
#: Error codes that invalidate the client's session state when received.
_SESSION_FATAL_CODES = frozenset(
    {
        ErrorCode.AUTH_REQUIRED.value,
        ErrorCode.AUTH_UNKNOWN_TENANT.value,
        ErrorCode.AUTH_UNKNOWN_SESSION.value,
        ErrorCode.AUTH_FAILED.value,
        ErrorCode.AUTH_REVOKED.value,
        ErrorCode.BAD_SEQUENCE.value,
    }
)

#: Codes raised client-side as :class:`~repro.exceptions.AuthError`.
_AUTH_CODES = _SESSION_FATAL_CODES | {
    ErrorCode.FORBIDDEN.value,
    ErrorCode.VERSION_UNSUPPORTED.value,
}


def _client_error(reply: "ErrorReply") -> ProtocolError:
    """The exception a client raises for an error reply (typed by code)."""
    message = f"{reply.error}: {reply.message}"
    if reply.code in _AUTH_CODES:
        return AuthError(message, code=reply.code)
    return ProtocolError(message, code=reply.code)


class ProtocolClient:
    """The owner-side endpoint over any transport.

    Encodes requests, decodes replies, and raises
    :class:`~repro.exceptions.ProtocolError` (or ``AuthError`` for the
    ``AUTH_*``/``FORBIDDEN``/``BAD_SEQUENCE`` family, with ``exc.code`` set)
    when the server answers with an error reply.

    Calling :meth:`authenticate` with a :class:`~repro.api.auth.Credential`
    runs the ``Hello`` handshake; from then on every request is wrapped in a
    signed envelope carrying the session id and a monotonic sequence number.
    Signed calls are serialized by an internal lock — the sequence window is
    a per-session total order, so one authenticated client is one logical
    command stream (use one client per thread for parallelism).  A fatal
    auth error (bad signature, lost session, sequence desync after a
    transport retry) clears the local session; call :meth:`authenticate`
    again for a new one.
    """

    def __init__(self, transport):
        self.transport = transport
        self._credential: Credential | None = None
        self._session_id: str | None = None
        self._next_sequence = 1
        self._session_lock = threading.Lock()
        #: The last :class:`Ack` a typed operation received — the way
        #: callers of the int-returning operations (outsource / insert /
        #: insert_delta) read the ack's integrity fields (``version``,
        #: ``merkle_root``) without re-plumbing every return type.
        self.last_ack: "Ack | None" = None
        #: Trace id minted for the most recent :meth:`call` — the handle
        #: for fetching the server half of the trace tree via :meth:`stats`.
        self.last_trace_id: str = ""

    # -- authenticated sessions ----------------------------------------
    @property
    def session_id(self) -> "str | None":
        """The established session id, or ``None`` when unauthenticated."""
        return self._session_id

    def authenticate(
        self,
        credential: "Credential | str",
        versions: tuple[int, ...] = (PROTOCOL_VERSION,),
    ) -> HelloAck:
        """Run the ``Hello`` handshake and switch to signed requests.

        ``credential`` is a :class:`~repro.api.auth.Credential` or its
        ``f2tok1.`` token-string form.
        """
        if isinstance(credential, str):
            credential = Credential.from_token(credential)
        hello = Hello(
            tenant_id=credential.tenant_id,
            capability=credential.capability,
            token_id=credential.token_id,
            versions=tuple(versions),
        )
        with self._session_lock:
            self._session_id = None
            reply = self._roundtrip(hello)
            if not isinstance(reply, HelloAck):
                raise ProtocolError(
                    f"expected a HelloAck reply to the handshake, got {reply.kind!r}"
                )
            self._credential = credential
            self._session_id = reply.session_id
            self._next_sequence = 1
        return reply

    def _roundtrip(self, request: Message) -> Message:
        reply = Message.decode(self.transport.request(request.encode()))
        if isinstance(reply, ErrorReply):
            raise _client_error(reply)
        return reply

    def call(self, request: Message) -> Message:
        """Send one request and return the decoded (non-error) reply.

        Unauthenticated clients send the request as-is; authenticated ones
        sign it into an envelope under the session lock (sequence numbers
        must reach the server in issue order).

        Every call runs under a ``client.<kind>`` span whose trace id is
        attached to the request (and its envelope) over the wire — the
        server adopts it, so both halves of the round trip share one
        trace tree, retrievable by :attr:`last_trace_id`.
        """
        if not obs.tracing_active():
            return self._call_traced(request)
        with obs.span(
            f"client.{request.kind}", table=getattr(request, "table_id", "")
        ) as span_obj:
            if span_obj is not None:
                request.with_trace(span_obj.trace_id, span_obj.span_id)
                self.last_trace_id = span_obj.trace_id
            return self._call_traced(request)

    def _call_traced(self, request: Message) -> Message:
        if self._session_id is None:
            return self._roundtrip(request)
        with self._session_lock:
            if self._session_id is None:  # lost the session while waiting
                return self._roundtrip(request)
            assert self._credential is not None
            payload = request.encode()
            sequence = self._next_sequence
            envelope = SignedEnvelope(
                session_id=self._session_id,
                sequence=sequence,
                signature=sign_frame(
                    self._credential.secret, self._session_id, sequence, payload
                ),
                payload=payload,
            )
            trace_ctx = request.trace_context()
            if trace_ctx[0]:
                # The envelope carries the same context in its own (unsigned)
                # meta so auth-layer failures still correlate; the inner
                # request's copy is the one under the signature.
                envelope.with_trace(*trace_ctx)
            try:
                reply = Message.decode(
                    self.transport.request(envelope.encode())
                )
            except (ProtocolError, OSError):
                # The transport failed mid-request (SocketTransport re-raises
                # raw OSError on its retry attempt); whether the server
                # consumed the sequence number is unknowable.  Drop the
                # session rather than risk a silent desync.
                self._session_id = None
                raise
            try:
                reply = self._unwrap_reply(reply, sequence)
            except IntegrityError:
                # A reply that fails authentication says the channel (or the
                # server) is hostile; the local session state can no longer
                # be trusted to be in sync.
                self._session_id = None
                raise
            if isinstance(reply, ErrorReply):
                if reply.code in _SESSION_FATAL_CODES:
                    self._session_id = None
                else:
                    # The frame was verified and consumed (the server only
                    # reports handler-level errors after advancing the
                    # sequence window), so the stream stays in sync.
                    self._next_sequence = sequence + 1
                raise _client_error(reply)
            self._next_sequence = sequence + 1
            return reply

    def _unwrap_reply(self, reply: Message, sequence: int) -> Message:
        """Authenticate (and unwrap) one reply of a signed session.

        On an authenticated session every successful reply must arrive as
        a :class:`SignedReply` bound to this request's sequence number;
        anything else — a bad signature, a reply replayed from another
        request, a bare unsigned success — raises
        :class:`~repro.exceptions.IntegrityError`.  Unsigned *error* replies
        pass through: several are raised before the server can resolve a
        session key, so they are inherently unauthenticated (an in-path
        forger can deny service with one, never fake data).
        """
        if isinstance(reply, SignedReply):
            assert self._credential is not None and self._session_id is not None
            with obs.span("client.verify_reply", bytes=len(reply.payload)):
                if reply.session_id != self._session_id or reply.sequence != sequence:
                    raise IntegrityError(
                        f"signed reply is bound to request {reply.sequence} of "
                        f"session {reply.session_id!r}, not this request"
                    )
                if not verify_reply(
                    self._credential.secret,
                    self._session_id,
                    sequence,
                    reply.payload,
                    reply.signature,
                ):
                    raise IntegrityError(
                        "server reply signature does not verify (tampered reply "
                        "or wrong key)"
                    )
                try:
                    return Message.decode(reply.payload)
                except Exception as exc:  # noqa: BLE001 - verified bytes, still hostile once
                    raise IntegrityError(
                        f"signed reply payload does not decode: {exc}"
                    ) from exc
        if not isinstance(reply, ErrorReply):
            raise IntegrityError(
                f"expected a signed reply on an authenticated session, got an "
                f"unsigned {reply.kind!r} (stripped signature?)"
            )
        return reply

    def _expect(self, request: Message, reply_type: type) -> Any:
        reply = self.call(request)
        if isinstance(reply, Ack):
            self.last_ack = reply
        if not isinstance(reply, reply_type):
            raise ProtocolError(
                f"expected a {reply_type.__name__} reply to {request.kind!r}, "
                f"got {reply.kind!r}"
            )
        return reply

    # -- typed operations ----------------------------------------------
    def outsource(
        self, table_id: str, relation: Relation, with_root: bool = False
    ) -> int:
        """Ship a ciphertext relation; returns the provider's row count.

        ``with_root=True`` asks the ack for the server's Merkle root over
        what it stored (read it from :attr:`last_ack`).
        """
        ack = self._expect(
            OutsourceRequest(
                table_id=check_table_id(table_id),
                relation=relation,
                with_root=with_root,
            ),
            Ack,
        )
        return int(ack.fields.get("num_rows", relation.num_rows))

    def insert_delta(
        self,
        table_id: str,
        delta: ViewDelta,
        batch_rows: int = 0,
        *,
        base_version: int,
        with_root: bool = False,
    ) -> int:
        """Splice an incremental insert's view delta into the stored table.

        ``base_version`` is the commit version the delta was computed
        against (the last acknowledged write's ``version``).  A store whose
        commit version moved answers ``VERSION_CONFLICT``, one whose row
        count differs from the delta's base ``DELTA_MISMATCH``; callers then
        fall back to :meth:`outsource` with the full view, or rebase and retry
        (see :class:`repro.integrity.writers.WriteCoordinator`).
        """
        ack = self._expect(
            InsertDelta(
                table_id=check_table_id(table_id),
                delta=delta,
                batch_rows=batch_rows,
                base_version=base_version,
                with_root=with_root,
            ),
            Ack,
        )
        return int(ack.fields.get("num_rows", 0))

    def discover(self, table_id: str, max_lhs_size: int | None = None) -> TaneResult:
        """Run FD discovery on the provider and return its TANE result."""
        reply = self._expect(
            DiscoverRequest(table_id=check_table_id(table_id), max_lhs_size=max_lhs_size),
            DiscoverResult,
        )
        return reply.result

    def plan_query(
        self,
        table_id: str,
        expr: ServerExpr,
        with_root: bool = False,
    ) -> PlanQueryResult:
        """Execute a planned boolean selection server-side.

        ``expr`` is the server part of a :class:`~repro.query.planner.QueryPlan`;
        the reply carries the matched row indexes plus the per-leaf match
        cardinalities for leakage accounting.  ``with_root=True`` also ships
        the commit version and Merkle root.
        """
        return self._expect(
            PlanQueryRequest(
                table_id=check_table_id(table_id),
                expr=expr,
                with_root=with_root,
            ),
            PlanQueryResult,
        )

    def stats(
        self,
        include_metrics: bool = True,
        include_traces: bool = True,
        trace_id: str = "",
        max_traces: int = 20,
    ) -> dict[str, Any]:
        """Fetch the server's observability snapshot (owner capability).

        ``trace_id`` narrows the reply's traces to one id — pass
        :attr:`last_trace_id` right after a query to fetch the server half
        of that query's trace tree and merge it with the local half from
        :data:`repro.obs.TRACES`.
        """
        reply = self._expect(
            StatsRequest(
                include_metrics=include_metrics,
                include_traces=include_traces,
                trace_id=trace_id,
                max_traces=max_traces,
            ),
            StatsReply,
        )
        return reply.stats

    def close(self) -> None:
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()
