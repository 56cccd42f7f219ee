"""Tenancy, capability handles, and signed-frame authentication.

PR 5 turns the anonymous single-tenant protocol into a multi-tenant service:

* **Tenants** — every table lives in a tenant namespace; the server keeps a
  :class:`TenantRegistry` (persisted as ``tenants.json`` alongside the
  table stores) mapping each tenant to one HMAC secret per *capability*.
* **Capabilities** — a secret is minted for either the ``owner`` capability
  (outsource / insert / stats / everything) or the read-only ``analyst``
  capability (discover / query only), so a query-serving replica can hold a
  key that cannot mutate anything.  The pair ``(tenant, capability, secret)``
  is a :class:`Credential` — the *capability handle* clients present.
* **Signed frames** — after a ``Hello`` handshake establishes a session, the
  client wraps every request in a signed envelope: an HMAC-SHA256 over the
  session id, a monotonic per-session sequence number, and the encoded
  payload, keyed by the tenant secret.  The server verifies the signature
  against the registry's *current* secret (so rotation and revocation take
  effect immediately), and requires the sequence number it expects — a
  replayed or reordered frame is rejected with ``BAD_SEQUENCE`` before any
  handler runs.

Failures are reported with the stable :class:`ErrorCode` values below, which
travel on the wire in :class:`repro.api.protocol.ErrorReply` and surface
client-side as :class:`repro.exceptions.ProtocolError` / ``AuthError`` with
``exc.code`` set — callers (and the CLI's exit codes) branch on codes, never
on message substrings.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import hmac
import json
import os
import re
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.durable import replace_file
from repro.exceptions import AuthError, ProtocolError, StoreIntegrityWarning


class ErrorCode(str, enum.Enum):
    """Stable error categories carried on the wire.

    The *values* are the wire form; they are append-only across protocol
    versions (a renamed or removed code would break deployed clients).
    """

    #: The server requires authenticated sessions and the request was plain.
    AUTH_REQUIRED = "AUTH_REQUIRED"
    #: The handshake named a tenant the registry does not know.
    AUTH_UNKNOWN_TENANT = "AUTH_UNKNOWN_TENANT"
    #: A signed frame referenced a session this server does not hold.
    AUTH_UNKNOWN_SESSION = "AUTH_UNKNOWN_SESSION"
    #: The frame signature did not verify against the tenant's current key.
    AUTH_FAILED = "AUTH_FAILED"
    #: The tenant's key for the requested capability has been revoked.
    AUTH_REVOKED = "AUTH_REVOKED"
    #: The session's capability does not permit this message type.
    FORBIDDEN = "FORBIDDEN"
    #: The frame's sequence number was not the one the session expects
    #: (a replayed, reordered, or duplicated request).
    BAD_SEQUENCE = "BAD_SEQUENCE"
    #: Client and server share no protocol version (or wire form).
    VERSION_UNSUPPORTED = "VERSION_UNSUPPORTED"
    #: The request referenced a table this tenant does not have.
    UNKNOWN_TABLE = "UNKNOWN_TABLE"
    #: The request referenced an attribute outside the table's schema.
    UNKNOWN_ATTRIBUTE = "UNKNOWN_ATTRIBUTE"
    #: An ``InsertDelta`` did not match the server's current base view.
    DELTA_MISMATCH = "DELTA_MISMATCH"
    #: The request bytes could not be decoded as a protocol message.
    WIRE_MALFORMED = "WIRE_MALFORMED"
    #: The request decoded but is semantically invalid.
    BAD_REQUEST = "BAD_REQUEST"
    #: Anything else (an unexpected server-side failure).
    INTERNAL = "INTERNAL"
    #: An optimistic write named a base version the table has moved past.
    VERSION_CONFLICT = "VERSION_CONFLICT"
    #: A store or Merkle root failed integrity verification.
    INTEGRITY_VIOLATION = "INTEGRITY_VIOLATION"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Capabilities a credential can be minted for.
CAPABILITY_OWNER = "owner"
CAPABILITY_ANALYST = "analyst"
CAPABILITIES = (CAPABILITY_OWNER, CAPABILITY_ANALYST)

#: The implicit tenant of unauthenticated (legacy single-tenant) requests.
DEFAULT_TENANT = "local"

#: Tenant ids share the table-id grammar (they become storage directories).
_TENANT_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Token-string prefix (versioned so the format can evolve).
_TOKEN_PREFIX = "f2tok1"

#: Domain separator of the frame signature (versioned with the scheme).
_SIG_DOMAIN = b"f2-signed-frame/1"

#: Domain separator of the *reply* signature (a distinct key, see below).
_REPLY_SIG_DOMAIN = b"f2-signed-reply/1"

#: Key-derivation domains: reply signing and ticket sealing use keys
#: *derived* from the tenant secret rather than the secret itself, so a
#: component that only ever signs replies can hold the derived key without
#: being able to forge client requests (and vice versa).
_REPLY_KEY_DOMAIN = b"f2-reply-key/1"
_TICKET_KEY_DOMAIN = b"f2-resume-ticket/1"

#: Printable prefix of a sealed session-resumption ticket.
_TICKET_PREFIX = "f2tkt1"


def check_tenant_id(tenant_id: str) -> str:
    """Validate a tenant id (storage-directory safe, no path separators)."""
    if not isinstance(tenant_id, str) or not _TENANT_ID_RE.match(tenant_id):
        raise ProtocolError(
            f"invalid tenant id {tenant_id!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit",
            code=ErrorCode.BAD_REQUEST.value,
        )
    return tenant_id


def check_capability(capability: str) -> str:
    """Validate a capability name."""
    if capability not in CAPABILITIES:
        raise ProtocolError(
            f"unknown capability {capability!r}: expected one of {CAPABILITIES}",
            code=ErrorCode.BAD_REQUEST.value,
        )
    return capability


# ----------------------------------------------------------------------
# Credentials (the client-side capability handle)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Credential:
    """What a client holds: a tenant identity, a capability, and its secret.

    The compact string form (:meth:`to_token`) is what ``f2-repro admin
    mint`` prints and what ``f2-repro query --token`` consumes::

        f2tok1.<tenant>.<capability>.<token_id>.<secret-hex>
    """

    tenant_id: str
    capability: str
    secret: bytes
    token_id: str = ""

    def to_token(self) -> str:
        """The printable single-string form of this credential."""
        return ".".join(
            (_TOKEN_PREFIX, self.tenant_id, self.capability, self.token_id, self.secret.hex())
        )

    @classmethod
    def from_token(cls, token: str) -> "Credential":
        """Parse the ``f2tok1.`` string form back into a credential."""
        parts = token.strip().split(".")
        if len(parts) != 5 or parts[0] != _TOKEN_PREFIX:
            raise AuthError(
                "malformed credential token (expected "
                "'f2tok1.<tenant>.<capability>.<token-id>.<secret-hex>')",
                code=ErrorCode.AUTH_FAILED.value,
            )
        _, tenant_id, capability, token_id, secret_hex = parts
        check_tenant_id(tenant_id)
        check_capability(capability)
        try:
            secret = bytes.fromhex(secret_hex)
        except ValueError as exc:
            raise AuthError(
                "malformed credential token (secret is not hex)",
                code=ErrorCode.AUTH_FAILED.value,
            ) from exc
        if not secret:
            raise AuthError(
                "malformed credential token (empty secret)",
                code=ErrorCode.AUTH_FAILED.value,
            )
        return cls(tenant_id=tenant_id, capability=capability, secret=secret, token_id=token_id)


# ----------------------------------------------------------------------
# Frame signatures
# ----------------------------------------------------------------------
def sign_frame(secret: bytes, session_id: str, sequence: int, payload: bytes) -> str:
    """HMAC-SHA256 request signature over ``(session, sequence, payload)``.

    The sequence number is part of the MAC input, so a captured frame cannot
    be replayed under a later sequence number, and the session id binds the
    signature to one handshake (a frame for session A is meaningless in
    session B even within the same tenant).
    """
    mac = hmac.new(secret, _SIG_DOMAIN, hashlib.sha256)
    mac.update(session_id.encode("utf-8"))
    mac.update(b"|")
    mac.update(str(int(sequence)).encode("ascii"))
    mac.update(b"|")
    mac.update(payload)
    return mac.hexdigest()


def verify_frame(
    secret: bytes, session_id: str, sequence: int, payload: bytes, signature: str
) -> bool:
    """Constant-time check of a frame signature."""
    expected = sign_frame(secret, session_id, sequence, payload)
    return hmac.compare_digest(expected, str(signature))


# ----------------------------------------------------------------------
# Reply signatures (the server authenticating itself to the client)
# ----------------------------------------------------------------------
def derive_reply_key(secret: bytes) -> bytes:
    """The reply-signing key derived from a tenant secret.

    Derivation (HMAC with a fixed domain) rather than reuse means the reply
    key cannot forge client *request* frames: a compromised query replica
    holding only the derived key still cannot impersonate the owner.
    Rotating the tenant secret rotates the reply key with it.
    """
    return hmac.new(secret, _REPLY_KEY_DOMAIN, hashlib.sha256).digest()


def sign_reply(secret: bytes, session_id: str, sequence: int, payload: bytes) -> str:
    """HMAC-SHA256 reply signature over ``(session, request sequence, payload)``.

    Binding the *request's* sequence number into the MAC pins each reply to
    the exact request it answers — a recorded reply cannot be replayed
    against a later request of the same session.
    """
    mac = hmac.new(derive_reply_key(secret), _REPLY_SIG_DOMAIN, hashlib.sha256)
    mac.update(session_id.encode("utf-8"))
    mac.update(b"|")
    mac.update(str(int(sequence)).encode("ascii"))
    mac.update(b"|")
    mac.update(payload)
    return mac.hexdigest()


def verify_reply(
    secret: bytes, session_id: str, sequence: int, payload: bytes, signature: str
) -> bool:
    """Constant-time check of a reply signature."""
    expected = sign_reply(secret, session_id, sequence, payload)
    return hmac.compare_digest(expected, str(signature))


# ----------------------------------------------------------------------
# Session-resumption tickets
# ----------------------------------------------------------------------
def _ticket_key(secret: bytes) -> bytes:
    return hmac.new(secret, _TICKET_KEY_DOMAIN, hashlib.sha256).digest()


def seal_ticket(secret: bytes, doc: dict[str, Any]) -> str:
    """Seal a session-state document into a printable resumption ticket.

    The ticket is ``f2tkt1.<b64url(json)>.<hmac-hex>`` with the MAC keyed by
    a key derived from the tenant's *current* secret — rotating or revoking
    the credential invalidates every outstanding ticket by construction,
    with no server-side ticket store to purge.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = base64.urlsafe_b64encode(blob).decode("ascii").rstrip("=")
    mac = hmac.new(_ticket_key(secret), body.encode("ascii"), hashlib.sha256)
    return ".".join((_TICKET_PREFIX, body, mac.hexdigest()))


def open_ticket(secret: bytes, ticket: str) -> dict[str, Any]:
    """Verify and decode a resumption ticket sealed by :func:`seal_ticket`.

    Raises :class:`AuthError` (``AUTH_FAILED``) on any malformed or
    wrongly-MAC'd ticket — including every ticket sealed under a secret that
    has since been rotated.
    """
    parts = str(ticket).strip().split(".")
    if len(parts) != 3 or parts[0] != _TICKET_PREFIX:
        raise AuthError(
            "malformed resumption ticket", code=ErrorCode.AUTH_FAILED.value
        )
    _, body, signature = parts
    mac = hmac.new(_ticket_key(secret), body.encode("ascii"), hashlib.sha256)
    if not hmac.compare_digest(mac.hexdigest(), signature):
        raise AuthError(
            "resumption ticket does not verify (stale key or tampered ticket)",
            code=ErrorCode.AUTH_FAILED.value,
        )
    try:
        padded = body + "=" * (-len(body) % 4)
        doc = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (ValueError, UnicodeDecodeError) as exc:
        raise AuthError(
            "malformed resumption ticket body", code=ErrorCode.AUTH_FAILED.value
        ) from exc
    if not isinstance(doc, dict):
        raise AuthError(
            "malformed resumption ticket body", code=ErrorCode.AUTH_FAILED.value
        )
    return doc


# ----------------------------------------------------------------------
# The server-side tenant registry
# ----------------------------------------------------------------------
@dataclass
class TenantKey:
    """One capability key of one tenant (the registry's unit of rotation)."""

    token_id: str
    capability: str
    secret_hex: str
    revoked: bool = False

    def to_doc(self) -> dict[str, Any]:
        return {
            "token_id": self.token_id,
            "capability": self.capability,
            "secret_hex": self.secret_hex,
            "revoked": self.revoked,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "TenantKey":
        return cls(
            token_id=str(doc.get("token_id", "")),
            capability=check_capability(str(doc.get("capability", ""))),
            secret_hex=str(doc.get("secret_hex", "")),
            revoked=bool(doc.get("revoked", False)),
        )


class TenantRegistry:
    """Per-tenant capability keys, persisted as a JSON document.

    The registry is the server's source of truth for *who can sign frames*:
    one :class:`TenantKey` per ``(tenant, capability)``, replaced wholesale
    on rotation and flagged on revocation.  Signature verification always
    reads the current key, so rotating or revoking takes effect on the very
    next frame of every live session (there is no grace window to exploit).

    ``path=None`` keeps the registry in memory (tests, embedded servers);
    with a path every mutation is saved write-then-rename, so a crash never
    leaves a torn registry next to valid table stores.  A file-backed registry
    also *watches its file*: every read re-stats the path and reloads when
    another process changed it — so ``f2-repro admin rotate``/``revoke``
    against the file takes effect on a running server's very next frame,
    without a restart.
    """

    FORMAT = "f2-tenants/1"

    def __init__(self, path: "str | Path | None" = None):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._keys: dict[str, dict[str, TenantKey]] = {}
        self._token_counter = 0
        self._file_stat: "tuple[int, int] | None" = None
        if self._path is not None and self._path.exists():
            self._load()
            self._file_stat = self._stat_file()

    # -- queries --------------------------------------------------------
    @property
    def path(self) -> "Path | None":
        return self._path

    def tenant_ids(self) -> list[str]:
        with self._lock:
            self._maybe_reload_locked()
            return sorted(self._keys)

    def has_tenant(self, tenant_id: str) -> bool:
        with self._lock:
            self._maybe_reload_locked()
            return tenant_id in self._keys

    def key_for(self, tenant_id: str, capability: str) -> "TenantKey | None":
        """The current key of ``(tenant, capability)``, revoked or not."""
        with self._lock:
            self._maybe_reload_locked()
            return self._keys.get(tenant_id, {}).get(capability)

    def describe(self) -> list[dict[str, Any]]:
        """Secret-free listing for the CLI (`admin list`)."""
        with self._lock:
            self._maybe_reload_locked()
            return [
                {
                    "tenant_id": tenant_id,
                    "capability": key.capability,
                    "token_id": key.token_id,
                    "revoked": key.revoked,
                }
                for tenant_id in sorted(self._keys)
                for key in self._keys[tenant_id].values()
            ]

    # -- mutations ------------------------------------------------------
    def mint(self, tenant_id: str, capability: str) -> Credential:
        """Create (or replace) the key of ``(tenant, capability)``.

        Returns the full credential — the only moment the secret leaves the
        registry in credential form; hand it to the tenant out of band.
        """
        check_tenant_id(tenant_id)
        check_capability(capability)
        if tenant_id == DEFAULT_TENANT:
            # The local tenant is the *anonymous* namespace (bare store keys,
            # top-level stores); a credential for it would hand an
            # authenticated customer the legacy tables — refuse outright.
            raise ProtocolError(
                f"tenant id {DEFAULT_TENANT!r} is reserved for unauthenticated "
                "local access; pick another tenant id",
                code=ErrorCode.BAD_REQUEST.value,
            )
        # repro: allow(entropy-discipline): credential minting must be unpredictable; secrets are never part of the deterministic ciphertext contract
        secret = os.urandom(32)
        with self._lock:
            # Pick up concurrent admin edits before mutating, so a mint in
            # one process does not clobber a revoke from another.
            self._maybe_reload_locked()
            self._token_counter += 1
            token_id = f"k{self._token_counter:04d}"
            self._keys.setdefault(tenant_id, {})[capability] = TenantKey(
                token_id=token_id,
                capability=capability,
                secret_hex=secret.hex(),
            )
            self._save_locked()
        return Credential(
            tenant_id=tenant_id, capability=capability, secret=secret, token_id=token_id
        )

    def rotate(self, tenant_id: str, capability: str) -> Credential:
        """Replace the secret of an existing key; old signatures die instantly."""
        if self.key_for(tenant_id, capability) is None:
            raise ProtocolError(
                f"tenant {tenant_id!r} has no {capability!r} key to rotate",
                code=ErrorCode.AUTH_UNKNOWN_TENANT.value,
            )
        return self.mint(tenant_id, capability)

    def revoke(self, tenant_id: str, capability: "str | None" = None) -> int:
        """Revoke one capability key (or every key) of a tenant.

        Returns the number of keys revoked.  Revoked keys stay listed (their
        token ids remain auditable) but no longer verify any frame.
        """
        check_tenant_id(tenant_id)
        if capability is not None:
            check_capability(capability)
        with self._lock:
            self._maybe_reload_locked()
            keys = self._keys.get(tenant_id)
            if not keys:
                raise ProtocolError(
                    f"unknown tenant {tenant_id!r}",
                    code=ErrorCode.AUTH_UNKNOWN_TENANT.value,
                )
            revoked = 0
            for key in keys.values():
                if capability is not None and key.capability != capability:
                    continue
                if not key.revoked:
                    key.revoked = True
                    revoked += 1
            self._save_locked()
            return revoked

    # -- persistence ----------------------------------------------------
    def _iter_keys(self) -> Iterator[tuple[str, TenantKey]]:
        for tenant_id, keys in self._keys.items():
            for key in keys.values():
                yield tenant_id, key

    def _stat_file(self) -> "tuple[int, int] | None":
        assert self._path is not None
        try:
            stat = os.stat(self._path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _maybe_reload_locked(self) -> None:
        """Re-read the backing file if another process changed it.

        One ``stat`` per read keeps a running server's view of rotations
        and revocations current without restarts.  A transient read failure
        keeps the previous in-memory state (and warns) rather than taking
        authentication down.
        """
        if self._path is None:
            return
        current = self._stat_file()
        if current == self._file_stat:
            return
        previous_keys = self._keys
        previous_counter = self._token_counter
        self._keys = {}
        self._token_counter = 0
        try:
            if current is not None:
                self._load()
        except ProtocolError as exc:
            self._keys = previous_keys
            self._token_counter = previous_counter
            warnings.warn(
                f"tenant registry {self._path} changed but cannot be "
                f"reloaded ({exc}); keeping the previous keys",
                StoreIntegrityWarning,
                stacklevel=3,
            )
            return
        self._file_stat = current

    def _save_locked(self) -> None:
        if self._path is None:
            return
        doc = {
            "format": self.FORMAT,
            "token_counter": self._token_counter,
            "tenants": {
                tenant_id: [key.to_doc() for key in keys.values()]
                for tenant_id, keys in sorted(self._keys.items())
            },
        }
        self._path.parent.mkdir(parents=True, exist_ok=True)
        replace_file(self._path, json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))
        # Our own write must not look like a foreign edit on next read.
        self._file_stat = self._stat_file()

    def _load(self) -> None:
        assert self._path is not None
        try:
            doc = json.loads(self._path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"cannot read tenant registry {self._path}: {exc}",
                code=ErrorCode.INTERNAL.value,
            ) from exc
        if not isinstance(doc, dict) or doc.get("format") != self.FORMAT:
            raise ProtocolError(
                f"tenant registry {self._path} has an unsupported format",
                code=ErrorCode.INTERNAL.value,
            )
        self._token_counter = int(doc.get("token_counter", 0))
        tenants = doc.get("tenants") or {}
        for tenant_id, key_docs in tenants.items():
            check_tenant_id(tenant_id)
            for key_doc in key_docs:
                key = TenantKey.from_doc(key_doc)
                self._keys.setdefault(tenant_id, {})[key.capability] = key
