"""Exception hierarchy for the F2 reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so a
caller embedding the library can catch a single base class.  Narrow subclasses
exist for the distinct failure domains (schema handling, encryption,
decryption, configuration, and dataset generation) because each one is
actionable in a different way by the data owner.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(ReproError):
    """A relation/schema operation referenced unknown or duplicate attributes."""


class RelationError(ReproError):
    """A relation was constructed or manipulated inconsistently."""


class ConfigurationError(ReproError):
    """An :class:`repro.core.config.F2Config` value is out of its legal range."""


class EncryptionError(ReproError):
    """The F2 encryption pipeline could not produce a valid ciphertext table."""


class DecryptionError(ReproError):
    """A ciphertext value could not be decrypted (wrong key or corrupted data)."""


class SecurityViolation(ReproError):
    """An encrypted table failed an alpha-security or collision-freeness check."""


class DiscoveryError(ReproError):
    """FD or MAS discovery was invoked on an unsupported input."""


class DatasetError(ReproError):
    """A dataset generator received inconsistent parameters."""


class BackendError(ReproError):
    """A compute backend was misused or produced inconsistent results."""


class BackendUnavailableError(BackendError):
    """The requested compute backend is not installed in this environment.

    Raised when ``numpy`` is requested (via ``--backend numpy`` or
    ``REPRO_BACKEND=numpy``) but the ``[perf]`` extra is not installed.
    """


class WireError(ReproError):
    """A wire-codec payload could not be encoded or decoded.

    Raised for unsupported cell types, truncated or corrupted binary frames,
    unknown format versions, and JSON documents that do not match the
    documented message schemas.
    """


class StoreError(ReproError):
    """A storage-engine operation failed or found an inconsistent table dir.

    Raised by :mod:`repro.store` for unrecoverable states — no committed
    manifest generation survives, a checksum verification fails, or a write
    is attempted against a closed store.  *Recoverable* damage (a torn
    segment tail, a corrupt latest manifest with an older good generation)
    never raises; recovery falls back and warns instead.
    """


class ProtocolError(ReproError):
    """A protocol endpoint rejected a request or returned an error reply.

    The server maps internal failures (unknown table ids, malformed
    payloads) onto error replies; :class:`repro.api.protocol.ProtocolClient`
    re-raises them as this exception on the caller's side.

    ``code`` is the stable :class:`repro.api.auth.ErrorCode` value carried on
    the wire (``"INTERNAL"`` when the failure has no more specific code), so
    callers branch on codes instead of matching message substrings.
    """

    def __init__(self, message: str, code: str = "INTERNAL"):
        super().__init__(message)
        self.code = code


class AuthError(ProtocolError):
    """An authentication or authorization failure at a protocol endpoint.

    Covers the whole ``AUTH_*`` / ``FORBIDDEN`` / ``BAD_SEQUENCE`` family of
    :class:`repro.api.auth.ErrorCode` values: unknown tenants or sessions,
    bad signatures, revoked keys, capability violations, and replayed
    frames.  The specific code is available as ``exc.code``.
    """

    def __init__(self, message: str, code: str = "AUTH_FAILED"):
        super().__init__(message, code=code)


class QueryError(ReproError):
    """A token-based equality query could not be served or derived.

    Raised by the owner when a search token is requested for an attribute
    that no retained split plan covers (the attribute lies outside every
    MAS, so its ciphertexts are pure probabilistic encryptions the owner
    cannot re-derive), and by the server for queries against unknown tables
    or attributes.
    """


class QuerySyntaxError(QueryError):
    """A predicate expression could not be parsed.

    Raised by :func:`repro.query.parser.parse_predicate` with the offending
    position in the message; the CLI maps it to a clean usage error.
    """


class IntegrityError(ReproError):
    """Owner-side verification of the untrusted server failed.

    Raised by :mod:`repro.integrity` when a reply signature does not verify,
    a select's answer differs from the one the owner's replica gives, the
    server's root disagrees with the owner's replica, or the ``(version,
    root)`` freshness chain regresses (a provider rolled back to an older
    generation).  This is a *security* failure, not an I/O failure: the
    response must not be trusted or decrypted.

    ``table_id`` names the affected table when known (``""`` otherwise).
    """

    def __init__(self, message: str, table_id: str = ""):
        super().__init__(message)
        self.table_id = table_id


class StoreIntegrityWarning(RuntimeWarning):
    """On-disk table state was damaged but recovery continued.

    Emitted (instead of failing) wherever the server can keep serving after
    finding corrupt persisted state: a torn log tail or a corrupt log that
    forces recovery to fall back, a table store that does not open skipped
    at startup, or a tenant registry file that cannot be re-read.  Filter
    with ``warnings.simplefilter("error", StoreIntegrityWarning)`` to turn
    any such degradation into a hard failure.
    """


class FdPreservationWarning(UserWarning):
    """A plaintext FD is absent from the ciphertext (a false *negative*).

    Theorem 3.7 promises FD preservation, but conflict resolution across
    overlapping MASs can lose the violation witnesses the theorem needs (see
    ROADMAP "Known algorithmic bug").  The verify/repair stage emits this
    warning when it detects a lost FD; repairing false negatives is not yet
    implemented.
    """
