"""The two-party protocol surface: :class:`DataOwner` and :class:`ServiceProvider`.

The paper's workflow (Section 1, Figure 2) is a protocol between two
parties, not a function call:

1. the **data owner** encrypts her relation with F2 and ships only the
   ciphertext relation (the *server view*) to the provider,
2. the **service provider** runs FD discovery (TANE) on the ciphertext and
   returns the dependencies it found,
3. the owner validates the returned dependencies against her plaintext and
   decrypts locally whenever she needs her records back.

These session objects model exactly that: the owner retains the key, the
plaintext, and the pipeline context (plans + fresh-value factory) as local
state, which is also what makes *incremental* updates possible —
:meth:`DataOwner.insert_rows` appends a batch to the outsourced relation by
reusing the retained plans (see :mod:`repro.api.incremental`).

::

    owner = DataOwner(key=KeyGen.symmetric_from_seed(1))
    provider = ServiceProvider()
    encrypted = owner.outsource(relation)
    provider.receive(encrypted.server_view())
    discovery = provider.discover_fds()
    assert owner.validate_fds(discovery.fds)
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.api.auth import Credential, ErrorCode
from repro.api.delta import ViewDelta, compute_view_delta
from repro.api.incremental import IncrementalReport, insert_rows as _insert_rows
from repro.api.pipeline import EncryptionContext, EncryptionPipeline, StageHook
from repro.api.protocol import (
    DEFAULT_TABLE_ID,
    LoopbackTransport,
    PlanQueryResult,
    ProtocolClient,
    ProtocolServer,
)
from repro.core.config import F2Config
from repro.core.encrypted import EncryptedTable
from repro.core.security import SecurityReport, verify_alpha_security
from repro.crypto.keys import KeyGen, SymmetricKey
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    ProtocolError,
    QueryError,
)
from repro.integrity.state import TableIntegrityState
from repro.integrity.writers import WriteCoordinator
from repro.fd.fd import FDSet
from repro.fd.tane import TaneResult, tane
from repro.query.ast import Predicate, check_attributes, evaluate_predicate
from repro.query.leakage import QueryLeakageReport, build_leakage_report
from repro.query.parser import parse_predicate
from repro.query.planner import QueryPlan, plan_predicate
from repro.query.server import ServerExpr
from repro.relational.table import Relation
from repro.store.cache import TokenBitsetCache

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.relational.coded import CodedRelation


# ----------------------------------------------------------------------
# Decryption helpers (the inverse of materialisation; shared with the
# legacy F2Scheme facade)
# ----------------------------------------------------------------------
def decrypt_cell(cell: object, cipher: ProbabilisticCipher) -> str:
    """Decrypt a single authentic ciphertext cell."""
    if not isinstance(cell, Ciphertext):
        raise DecryptionError(f"cell is not a ciphertext: {cell!r}")
    return cipher.decrypt(cell)


def _decrypt_records(
    encrypted: EncryptedTable, sources: Sequence[int], cipher: ProbabilisticCipher
) -> list[list[str]]:
    """Reassemble and decrypt the original records ``sources``, in order.

    A record replaced by conflict resolution is spread over two ciphertext
    rows; each contributes the attributes it carries authentically.  The
    distinct cells are collected first and decrypted as one batch (one PRF
    key schedule, one XOR over the concatenated pads) — the inverse of the
    batched materialiser.  Instance ciphertexts repeat across every row of
    an equivalence class, so a result decrypts each of them once.
    """
    index = encrypted.provenance_index()
    columns = [encrypted.relation.column(attr) for attr in index.attributes]
    # Repeated cells are the same objects (the materialiser encrypts each
    # instance once), so identity finds them without hashing ciphertexts.
    slots: dict[int, int] = {}
    distinct: list[Ciphertext] = []
    cell_slots: list[int] = []
    for source in sources:
        for column, row in zip(columns, index.cell_rows(source)):
            cell = column[row]
            slot = slots.get(id(cell))
            if slot is None:
                if not isinstance(cell, Ciphertext):
                    raise DecryptionError(f"cell is not a ciphertext: {cell!r}")
                slot = slots[id(cell)] = len(distinct)
                distinct.append(cell)
            cell_slots.append(slot)
    if not distinct:
        return []
    texts = cipher.decrypt_batch(distinct)
    width = len(columns)
    return [
        [texts[slot] for slot in cell_slots[start : start + width]]
        for start in range(0, len(cell_slots), width)
    ]


def _check_row_bounds(row_indexes: Iterable[int], num_rows: int, what: str) -> None:
    """Reject provider-reported rows outside the owner's outsourced table."""
    for index in row_indexes:
        if not 0 <= index < num_rows:
            raise QueryError(
                f"{what} row {index} is outside the outsourced table "
                f"(0..{num_rows - 1}); owner and provider are out of sync"
            )


def decrypt_table(encrypted: EncryptedTable, cipher: ProbabilisticCipher) -> Relation:
    """Reconstruct the original plaintext relation from an F2 output.

    Artificial rows are dropped; original records are reassembled from the
    authentic cells of the rows derived from them (:func:`_decrypt_records`).
    """
    sources = encrypted.provenance_index().sources()
    if not sources:
        raise DecryptionError("the encrypted table contains no original rows")
    return Relation(
        encrypted.relation.schema,
        _decrypt_records(encrypted, sources, cipher),
        name=f"{encrypted.relation.name}-decrypted",
    )


class ReplicaMasks:
    """The owner's cache of leaf masks over her replica of the server view.

    A verified select recomputes its answer over the replica
    (:meth:`~repro.integrity.state.TableIntegrityState.verify_proofs`), and
    hot queries repeat their token leaves, so the owner caches leaf masks
    as the provider does, in a :class:`~repro.store.cache.TokenBitsetCache`
    keyed by ``(attribute, token)``.  The cache belongs to one version of
    the replica: a new replica, or a write to it, has a new coded form, and
    the first lookup against that drops every entry.  The coded form is
    held weakly, so a replaced replica is freed with its table.  A
    :class:`DataOwner` holds one instance for all of her sessions.
    """

    def __init__(self, backend: "str | None" = None):
        self._backend = backend
        self._lock = threading.Lock()
        self._cache = TokenBitsetCache()
        self._coded: "weakref.ref[CodedRelation] | None" = None

    def over(self, replica: Relation) -> "CachedReplica":
        """The executor surface of ``replica``, fronted by this cache."""
        return CachedReplica(replica.coded(self._backend), self)

    def mask(self, coded: "CodedRelation", attribute: str, token: Sequence[Any]) -> Any:
        """The row mask of one token leaf over ``coded``, cached."""
        key = TokenBitsetCache.key(attribute, token)
        with self._lock:
            if self._coded is None or self._coded() is not coded:
                self._cache.invalidate()
                self._coded = weakref.ref(coded)
            mask = self._cache.get_mask(key)
            if mask is None:
                mask = coded.match_mask(attribute, token)
                self._cache.put_mask(key, mask)
            return mask

    def stats(self) -> dict[str, int]:
        """Hit, miss, entry and invalidation counts."""
        with self._lock:
            return self._cache.stats()


class CachedReplica:
    """``backend`` / ``num_rows`` / ``match_mask`` of one coded replica,
    with leaf masks from a :class:`ReplicaMasks` cache."""

    __slots__ = ("backend", "num_rows", "_coded", "_masks")

    def __init__(self, coded: "CodedRelation", masks: ReplicaMasks):
        self.backend = coded.backend
        self.num_rows = coded.num_rows
        self._coded = coded
        self._masks = masks

    def match_mask(self, attribute: str, token: Sequence[Any]) -> Any:
        return self._masks.mask(self._coded, attribute, token)


class DataOwner:
    """The owner side of the outsourcing protocol.

    Holds the symmetric key, the configuration, and — once a relation has
    been outsourced — the plaintext and the pipeline context needed to
    decrypt, audit, and incrementally extend the encrypted table.

    Parameters
    ----------
    key:
        The owner's symmetric key (``None`` generates a fresh random key).
    config:
        The :class:`F2Config`; defaults are the paper's common setting.
    hooks:
        Optional extra :class:`StageHook` instances attached to every
        pipeline run (e.g. a :class:`repro.api.pipeline.StageRecorder`).
    """

    def __init__(
        self,
        key: SymmetricKey | None = None,
        config: F2Config | None = None,
        hooks: list[StageHook] | None = None,
    ):
        self.pipeline = EncryptionPipeline(key=key, config=config, hooks=hooks)
        self._context: EncryptionContext | None = None
        self._encrypted: EncryptedTable | None = None
        self._last_report: IncrementalReport | None = None
        #: Search tokens by ``(attribute, value text)`` for the current
        #: encrypted table.  Replaced, not cleared, whenever the table is:
        #: a derivation racing a replacement stores into the dict it
        #: started with, which is then unreachable.
        self._tokens: dict[tuple[str, str], tuple[Ciphertext, ...]] = {}
        #: Leaf masks over the replica, for verified selects' answer checks.
        self.replica_masks = ReplicaMasks(self.config.backend)

    #: Most search tokens kept before the cache starts over.
    TOKEN_CACHE_SIZE = 1024

    # ------------------------------------------------------------------
    # Key material / configuration
    # ------------------------------------------------------------------
    @property
    def key(self) -> SymmetricKey:
        return self.pipeline.key

    @property
    def config(self) -> F2Config:
        return self.pipeline.config

    @classmethod
    def from_seed(cls, seed: int, config: F2Config | None = None, **kwargs) -> "DataOwner":
        """An owner with a key derived from ``seed`` (reproducible runs)."""
        return cls(key=KeyGen.symmetric_from_seed(seed), config=config, **kwargs)

    # ------------------------------------------------------------------
    # Outsourcing
    # ------------------------------------------------------------------
    def outsource(self, relation: Relation) -> EncryptedTable:
        """Encrypt ``relation`` and retain the owner-side state.

        Returns the full :class:`EncryptedTable`; ship only
        ``table.server_view()`` to the provider.
        """
        ctx = self.pipeline.new_context(relation.copy())
        encrypted = self.pipeline.execute(ctx)
        self._context = ctx
        self._encrypted = encrypted
        self._last_report = None
        self._tokens = {}
        return encrypted

    def insert_rows(
        self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> EncryptedTable:
        """Append a batch of plaintext rows to the outsourced relation.

        Re-encrypts incrementally by reusing the retained ECG plans and
        re-running split-and-scale only where equivalence-class frequencies
        changed; falls back to a full run when the batch changes the MAS
        structure.  The per-call report is available as
        :attr:`last_update_report` and in ``table.metadata['update']``.
        """
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        ctx, encrypted, report = _insert_rows(self.pipeline, self._context, list(rows))
        self._context = ctx
        self._encrypted = encrypted
        self._last_report = report
        self._tokens = {}
        return encrypted

    @property
    def last_update_report(self) -> IncrementalReport | None:
        """The report of the most recent :meth:`insert_rows` call, if any."""
        return self._last_report

    @property
    def last_view_delta(self) -> ViewDelta | None:
        """The server-view delta of the most recent insert, from the previous
        table's view to the current one — ``None`` unless the incremental
        tail spliced it (see :func:`repro.api.delta.splice_view_delta`)."""
        return self._context.view_delta if self._context is not None else None

    # ------------------------------------------------------------------
    # Owner-side state
    # ------------------------------------------------------------------
    @property
    def encrypted(self) -> EncryptedTable:
        if self._encrypted is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        return self._encrypted

    @property
    def plaintext(self) -> Relation:
        """The owner's current plaintext (original rows plus inserted batches)."""
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        return self._context.relation

    def server_view(self) -> Relation:
        """The ciphertext relation to ship to the provider."""
        return self.encrypted.server_view()

    # ------------------------------------------------------------------
    # Validation / audit / decryption
    # ------------------------------------------------------------------
    def expected_fds(self, max_lhs_size: int | None = None) -> FDSet:
        """The FDs of the owner's plaintext (what the provider should find)."""
        return tane(self.plaintext, max_lhs_size=max_lhs_size, backend=self.config.backend)

    def validate_fds(self, fds: FDSet, max_lhs_size: int | None = None) -> bool:
        """True iff the provider's dependencies match the plaintext's exactly."""
        return self.expected_fds(max_lhs_size=max_lhs_size).equivalent_to(fds)

    def audit_security(self, alpha: float | None = None) -> SecurityReport:
        """Structural alpha-security check of the current encrypted table."""
        return verify_alpha_security(self.encrypted, alpha=alpha)

    def decrypt(self, encrypted: EncryptedTable | None = None) -> Relation:
        """Decrypt ``encrypted`` (default: the owner's current table)."""
        return decrypt_table(encrypted or self.encrypted, self.pipeline.cipher)

    def decrypt_cell(self, cell: object) -> str:
        """Decrypt a single authentic ciphertext cell."""
        return decrypt_cell(cell, self.pipeline.cipher)

    # ------------------------------------------------------------------
    # Search tokens (the leaves of a planned query)
    # ------------------------------------------------------------------
    def queryable_attributes(self) -> frozenset[str]:
        """Attributes whose equality queries the provider can serve.

        These are the attributes covered by at least one MAS: their
        authentic cells are *instance* ciphertexts whose variants live in
        the owner's retained split plans, so the owner can re-derive every
        ciphertext a value materialised to.  Attributes outside every MAS
        carry only unique values encrypted with fresh random nonces — the
        owner cannot re-derive those, and :meth:`select_plaintext` answers
        such queries locally instead.
        """
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        return frozenset(
            attr for plan in self._context.mas_plans for attr in plan.attributes
        )

    def derive_search_token(self, attribute: str, value: Any) -> tuple[Ciphertext, ...]:
        """The full set of instance ciphertexts for ``value`` on ``attribute``.

        Walks the retained split plans: every ciphertext instance of an
        equivalence class whose representative carries ``value`` on
        ``attribute`` contributes one deterministic re-encryption
        ``Encrypt(value, variant)``.  The resulting tuple is the search
        token of the standard searchable-encryption interaction — the
        keyless provider can filter rows against it but learns nothing
        about the plaintext beyond the (frequency-homogenised) matches.

        An empty token is legal (the value does not occur); a
        :class:`~repro.exceptions.QueryError` means the attribute's
        ciphertexts are not derivable at all (outside every MAS).
        """
        tokens = self._tokens
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        if attribute not in self.plaintext.schema:
            raise QueryError(f"unknown attribute {attribute!r}")
        if attribute not in self.queryable_attributes():
            raise QueryError(
                f"attribute {attribute!r} lies outside every MAS; its ciphertexts "
                "are fresh-nonce encryptions the owner cannot re-derive — answer "
                "the query locally via select_plaintext()"
            )
        text = value if isinstance(value, str) else str(value)
        if len(tokens) >= self.TOKEN_CACHE_SIZE:
            tokens.clear()
        cached = tokens.get((attribute, text))
        if cached is not None:
            return cached
        encrypt = self.pipeline.cipher.encrypt
        token: dict[Ciphertext, None] = {}
        for plan in self._context.mas_plans:
            if attribute not in plan.attributes:
                continue
            position = plan.attributes.index(attribute)
            for ecg_plan in plan.ecg_plans:
                for member_plan in ecg_plan.member_plans:
                    member = member_plan.member
                    if member.is_fake:
                        continue
                    if str(member.representative[position]) != text:
                        continue
                    for instance in member_plan.instances:
                        token[encrypt(member.representative[position], instance.variant)] = None
        result = tokens[(attribute, text)] = tuple(token)
        return result

    def select_plaintext(self, attribute: str, value: Any) -> Relation:
        """The plaintext equality selection ``sigma_{attribute=value}``.

        The ground truth a served query must reproduce — and the local
        answer for attributes outside every MAS (their values are unique,
        so the owner loses nothing by not asking the server).
        """
        plaintext = self.plaintext
        if attribute not in plaintext.schema:
            raise QueryError(f"unknown attribute {attribute!r}")
        text = value if isinstance(value, str) else str(value)
        matches = [
            index
            for index, cell in enumerate(plaintext.column(attribute))
            if (cell if isinstance(cell, str) else str(cell)) == text
        ]
        return plaintext.select_rows(matches, name=f"{plaintext.name}-select")

    # ------------------------------------------------------------------
    # Planned boolean-predicate queries (the repro.query engine)
    # ------------------------------------------------------------------
    def _as_predicate(self, predicate: Predicate | str) -> Predicate:
        if isinstance(predicate, str):
            predicate = parse_predicate(predicate)
        if not isinstance(predicate, Predicate):
            raise QueryError(
                f"expected a Predicate or an expression string, got {predicate!r}"
            )
        check_attributes(predicate, self.plaintext.schema)
        return predicate

    def plan_query(self, predicate: Predicate | str) -> QueryPlan:
        """Plan a boolean selection (an AST node or an expression string).

        Splits the predicate into the server-evaluable part (token leaves
        over MAS-covered attributes, derived from the retained split plans)
        and the owner-local residual — see :mod:`repro.query.planner`.
        """
        return plan_predicate(self, self._as_predicate(predicate))

    def select_plaintext_where(self, predicate: Predicate | str) -> Relation:
        """The plaintext selection ``sigma_predicate`` — the ground truth."""
        predicate = self._as_predicate(predicate)
        plaintext = self.plaintext
        rows = evaluate_predicate(plaintext, predicate)
        return plaintext.select_rows(rows, name=f"{plaintext.name}-select")

    def decrypt_plan_result(
        self, plan: QueryPlan, result: PlanQueryResult | Sequence[int]
    ) -> Relation:
        """Resolve a provider's plan-query result into the exact selection.

        The server's bitset runs over *ciphertext rows*; the owner's retained
        provenance turns it into the plaintext selection:

        * artificial rows (scaling copies, fake ECs, FP records) never map to
          a source record and drop out;
        * a source record counts as a server match iff one of its ciphertext
          rows that carries **all** the server-predicate attributes
          authentically is in the match set — on such a row every token
          leaf's truth value equals the plaintext leaf's, so the boolean
          combination is equal too;
        * a conflicted record whose predicate attributes ended up spread
          over multiple ciphertext rows (no single row carries them all
          authentically) cannot be judged from the bitset at all — its
          server part is re-evaluated locally on the decrypted record;
        * the owner-local residual then filters the candidates.

        The decrypted result therefore equals ``select_plaintext_where``
        exactly, in original row order.
        """
        if isinstance(result, PlanQueryResult):
            row_indexes: Sequence[int] = result.row_indexes
            server_rows: int | None = result.num_rows
        else:
            row_indexes, server_rows = tuple(result), None
        if plan.server is None:
            # Nothing was (or could be) asked of the server.
            return self.select_plaintext_where(plan.predicate)
        encrypted = self.encrypted
        index = encrypted.provenance_index()
        if server_rows is not None and server_rows != index.num_rows:
            # A stale store (e.g. local inserts never pushed) would return
            # in-bounds indexes of the wrong ciphertext — silently wrong
            # results.  The reply's row count makes the desync detectable.
            raise QueryError(
                f"provider filtered {server_rows} rows but the owner's "
                f"outsourced table has {index.num_rows}; owner and provider "
                "are out of sync (push the current server view first)"
            )
        _check_row_bounds(row_indexes, index.num_rows, "plan query result")
        server_attrs = plan.server_attributes
        server_predicate = plan.server_predicate
        assert server_predicate is not None  # plan.server is not None here
        # Membership comes from the bitset and the cached index, so a
        # selective query costs O(matches), not O(table): a record is a
        # server match iff a matched row carries the server attributes
        # authentically.  The rare conflict-split records no single row
        # carries them for are judged on their decrypted values instead.
        matched = index.covering_sources(row_indexes, server_attrs)
        judged = set(index.split_sources(server_attrs))
        candidates = sorted(matched | judged)
        schema = encrypted.relation.schema
        recovered = Relation(schema, name=f"{encrypted.relation.name}-query")
        records = _decrypt_records(encrypted, candidates, self.pipeline.cipher)
        for source, values in zip(candidates, records):
            if source in judged or plan.residual is not None:
                record = dict(zip(schema.attributes, values))
                if source in judged and not server_predicate.matches(record):
                    continue
                if plan.residual is not None and not plan.residual.matches(record):
                    continue
            recovered.append(values)
        return recovered

    def query_leakage_report(
        self, plan: QueryPlan, result: PlanQueryResult | None = None
    ) -> QueryLeakageReport:
        """Account what serving ``plan`` showed the provider.

        Computed entirely owner-side against her replica of the server view
        (byte-identical to the provider's store) — see
        :mod:`repro.query.leakage`.  For a fully local plan (``result`` is
        ``None``) the report records that the server saw nothing.
        """
        replica = self.encrypted.relation
        if result is None:
            if plan.server is not None:
                raise QueryError(
                    "a plan with a server part needs the provider's "
                    "PlanQueryResult to account its leakage"
                )
            return build_leakage_report(plan, replica, (), (), 0, self.config.alpha)
        return build_leakage_report(
            plan,
            replica,
            result.row_indexes,
            result.leaf_match_counts,
            result.num_rows,
            self.config.alpha,
        )


class ServiceProvider:
    """The untrusted server side of the outsourcing protocol.

    Only ever sees ciphertext relations; offers FD discovery and planned
    selections over search tokens as its services.  Since the protocol redesign this is a
    thin facade over a :class:`repro.api.protocol.ProtocolServer` driven
    through a :class:`~repro.api.protocol.LoopbackTransport` — every call
    round-trips through the full wire codec, so in-process sessions exercise
    exactly the bytes a remote deployment would carry, and the results are
    byte-identical to the pre-protocol implementation.

    Parameters
    ----------
    name:
        Display name used in error messages.
    backend:
        Compute backend for FD discovery and query filtering (``"python"``,
        ``"numpy"``, or ``None`` for the environment default) — the provider
        is the party with the big hardware, so it benefits most from the
        ``[perf]`` extra.
    storage_dir:
        Optional storage directory handed to the underlying server; when
        set, received stores persist there as segment stores and are
        reloaded when a new provider is constructed over the same
        directory.
    """

    def __init__(
        self,
        name: str = "service-provider",
        backend: str | None = None,
        storage_dir: str | None = None,
        table_id: str = DEFAULT_TABLE_ID,
    ):
        self.name = name
        self.backend = backend
        self.table_id = table_id
        self.server = ProtocolServer(
            name=name,
            backend=backend,
            storage_dir=storage_dir,
        )
        self.client = ProtocolClient(LoopbackTransport(self.server))

    def receive(self, relation: Relation) -> int:
        """Accept an outsourced (ciphertext) relation; returns its row count.

        Each call replaces the previously received table — the owner ships a
        fresh server view after every (batch of) update(s) — and discards
        any cached discovery result, which described the old ciphertext.
        """
        return self.client.outsource(self.table_id, relation)

    def _require_table(self) -> None:
        if not self.server.has_table(self.table_id):
            raise EncryptionError(f"{self.name} has not received a table yet")

    @property
    def table(self) -> Relation:
        self._require_table()
        return self.server.store(self.table_id)

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    def discover_fds(self, max_lhs_size: int | None = None) -> TaneResult:
        """Run TANE on the received ciphertext and return FDs plus counters."""
        self._require_table()
        return self.client.discover(self.table_id, max_lhs_size=max_lhs_size)

    def answer_plan_query(self, expr: ServerExpr) -> PlanQueryResult:
        """Execute a server expression as bitset algebra over the stored rows."""
        self._require_table()
        return self.client.plan_query(self.table_id, expr)

    @property
    def last_discovery(self) -> TaneResult | None:
        """The latest discovery for the current table (``None`` after receive)."""
        return self.server.last_discovery(self.table_id)


def run_protocol(
    owner: DataOwner,
    provider: ServiceProvider,
    relation: Relation,
    max_lhs_size: int | None = None,
) -> TaneResult:
    """Drive one full outsourcing round trip and return the discovery result.

    Convenience for examples and tests: the owner outsources ``relation``,
    the provider discovers FDs on the server view, and the owner's validation
    result is attached to ``result.parameters['validated']``.
    """
    owner.outsource(relation)
    provider.receive(owner.server_view())
    result = provider.discover_fds(max_lhs_size=max_lhs_size)
    result.parameters["validated"] = owner.validate_fds(result.fds, max_lhs_size=max_lhs_size)
    return result


class RemoteOwnerSession:
    """A :class:`DataOwner` driving a provider through a protocol client.

    This is the remote counterpart of handing ``owner.server_view()`` to an
    in-process :class:`ServiceProvider`: the same owner-side state (key,
    plaintext, retained plans), but every interaction becomes a protocol
    message over the client's transport — loopback, TCP socket, or anything
    else with a ``request(bytes) -> bytes`` method.

    Authenticated deployments pass a :class:`~repro.api.auth.Credential` (or
    its ``f2tok1.`` token string): the session runs the handshake up front
    and every message travels as a signed frame under the credential's
    tenant namespace and capability.  An ``owner`` credential is required
    for outsourcing and inserts; a read-only ``analyst`` credential still
    serves ``discover_fds``/``select``/``query`` (the server rejects
    anything else with ``FORBIDDEN``).

    Incremental inserts ship as view *deltas* whenever they can: the owner's
    incremental tail splices the new view from the previous one and builds
    the delta from that splice, and the session sends it as an
    ``InsertDelta`` carrying only the changed rows, CAS-armed with the last
    acknowledged commit version.  When the acknowledged base is not the
    owner's previous table (the last push's reply was lost), the session
    aligns the new view against the last view it knows the server stored
    instead.  A MAS-change fallback, a poor delta, or a server-side base
    mismatch silently degrades to a full ``OutsourceRequest`` of the new
    view (with the root check of ``verify`` mode, like any full push).

    ``verify=True`` (or the ``REPRO_VERIFY`` environment variable) turns on
    owner-side integrity verification: the session mirrors the server's
    Merkle tree in a :class:`~repro.integrity.state.TableIntegrityState`,
    and every query reply is checked before decryption — root agreement,
    ``(version, root)`` freshness, and the answer itself: the owner runs
    the plan's server part over the view her tree vouches for and requires
    the same matched rows and per-leaf counts.
    Passing a shared :class:`~repro.integrity.writers.WriteCoordinator`
    additionally lets several sessions (each with its own client/thread)
    write one table concurrently through optimistic CAS with rebase.

    ::

        owner = DataOwner.from_seed(42)
        client = ProtocolClient(SocketTransport("127.0.0.1", port))
        session = RemoteOwnerSession(owner, client, table_id="orders",
                                     credential="f2tok1.acme.owner.k0001.9f...")
        session.outsource(relation)
        discovery = session.discover_fds()       # validated against plaintext
        matches = session.select(Eq("City", "Hoboken"))  # decrypted Relation
    """

    #: Ship a delta only when it reuses at least this share of the new view;
    #: below that a full ``OutsourceRequest`` is smaller or comparable on the
    #: wire.
    MIN_DELTA_REUSE = 0.5

    def __init__(
        self,
        owner: DataOwner,
        client: ProtocolClient,
        table_id: str = DEFAULT_TABLE_ID,
        credential: "Credential | str | None" = None,
        verify: "bool | None" = None,
        coordinator: "WriteCoordinator | None" = None,
    ):
        self.owner = owner
        self.client = client
        self.table_id = table_id
        if verify is None:
            verify = os.environ.get("REPRO_VERIFY", "").lower() not in ("", "0", "false", "no")
        #: When set, every write asks the ack for the server's Merkle root,
        #: every query carries ``with_root``, and replies are checked against
        #: :attr:`integrity` and the owner's replica before any decryption —
        #: a wrong answer, tampering, rollback, or a forked table raises
        #: :class:`~repro.exceptions.IntegrityError`.
        self.verify = bool(verify)
        #: Shared multi-writer coordinator; when present, inserts go through
        #: the optimistic CAS/rebase loop instead of the single-writer path.
        self.coordinator = coordinator
        if coordinator is not None:
            if self.verify and coordinator.integrity is None:
                coordinator.integrity = TableIntegrityState(table_id)
            self.integrity: "TableIntegrityState | None" = coordinator.integrity
        else:
            self.integrity = TableIntegrityState(table_id) if self.verify else None
        #: The server view this session last shipped (the delta base), and
        #: the owner's table it came from.
        self._last_view: Relation | None = None
        self._last_pushed: EncryptedTable | None = None
        #: The server commit version of the last acknowledged push; armed as
        #: the CAS base of the next ``InsertDelta``.
        self._last_version = -1
        #: The :class:`~repro.api.delta.ViewDelta` of the most recent
        #: delta-shipped insert (``None`` when the full view was sent).
        self.last_delta: ViewDelta | None = None
        if credential is not None:
            self.client.authenticate(credential)

    def _ack_state(self) -> tuple[int, str]:
        """``(commit version, merkle root)`` of the client's last ack."""
        ack = self.client.last_ack
        if ack is None:
            return -1, ""
        return int(ack.fields.get("version", -1)), str(ack.fields.get("merkle_root", ""))

    def outsource(self, relation: Relation) -> int:
        """Encrypt locally and ship the server view; returns stored rows."""
        encrypted = self.owner.outsource(relation)
        return self._push_full(encrypted, encrypted.server_view())

    def _push_full(self, encrypted: EncryptedTable, view: Relation) -> int:
        """Ship ``encrypted``'s whole server ``view`` and adopt the ack.

        In ``verify`` mode the ack carries the server's root, which
        :meth:`TableIntegrityState.record_push` checks against the owner's
        own tree before this returns.
        """
        count = self.client.outsource(self.table_id, view, with_root=self.verify)
        version, root = self._ack_state()
        self._last_view = view
        self._last_pushed = encrypted
        self._last_version = version
        self.last_delta = None
        if self.coordinator is not None:
            self.coordinator.record_push(view, version, root)
        elif self.integrity is not None:
            self.integrity.record_push(view, version, root)
        return count

    def insert_rows(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Incrementally insert locally, then update the remote view.

        Ships an ``InsertDelta`` when the local update ran incrementally and
        the delta reuses enough rows; otherwise (MAS-change fallback, first
        push unseen, degenerate delta, or a server-side
        ``VERSION_CONFLICT``/``DELTA_MISMATCH``) ships the full view.  When
        the last acknowledged push carried the owner's previous table, the
        delta is the one the incremental tail built from its splice
        (:attr:`DataOwner.last_view_delta`); otherwise — the outcome of the
        last push was never learned — the new view is aligned against the
        last acknowledged one.  The delta is armed with the last
        acknowledged commit version as its CAS base, so a write the owner
        never made — another writer's, or a rollback of the store — is
        caught before it can be built upon.

        With a shared :attr:`coordinator`, concurrent writers instead push
        optimistically and rebase on ``VERSION_CONFLICT`` — never falling
        back to a full-view rewrite.
        """
        rows = list(rows)
        if self.coordinator is not None:
            return self._insert_rows_coordinated(rows)
        base_is_previous = (
            self._last_pushed is not None and self._last_pushed is self.owner.encrypted
        )
        encrypted = self.owner.insert_rows(rows)
        view = encrypted.server_view()
        report = self.owner.last_update_report
        self.last_delta = None
        if (
            self._last_view is not None
            and report is not None
            and report.mode == "incremental"
        ):
            delta = self.owner.last_view_delta if base_is_previous else None
            if delta is None:
                delta = compute_view_delta(self._last_view, view)
            if delta.reuse_fraction >= self.MIN_DELTA_REUSE:
                try:
                    count = self.client.insert_delta(
                        self.table_id,
                        delta,
                        batch_rows=len(rows),
                        base_version=self._last_version,
                        with_root=self.verify,
                    )
                except ProtocolError as exc:
                    if exc.code not in (
                        ErrorCode.DELTA_MISMATCH.value,
                        ErrorCode.VERSION_CONFLICT.value,
                    ):
                        raise
                    # The server's base is not the view we think we pushed
                    # (e.g. a restart restored an older generation, or
                    # another writer advanced the table);
                    # re-ship the full view and realign from there.
                else:
                    version, root = self._ack_state()
                    self._last_view = view
                    self._last_pushed = encrypted
                    self._last_version = version
                    self.last_delta = delta
                    if self.integrity is not None:
                        if self.integrity.expected_root:
                            self.integrity.record_delta(delta, version, root)
                        else:
                            self.integrity.record_push(view, version, root)
                    return count
        return self._push_full(encrypted, view)

    def _insert_rows_coordinated(self, rows: list) -> int:
        """One writer's turn of the optimistic multi-writer protocol.

        Encryption runs under the coordinator's owner lock (the F2 pipeline
        is serial); the push races other writers against the server's
        per-table version CAS.  A ``VERSION_CONFLICT`` loser waits for the
        winner's ack, then either discovers its rows already landed inside a
        later writer's view (no-op) or rebases its delta onto the new
        acknowledged base and retries.  No path falls back to a full-view
        rewrite.
        """
        coord = self.coordinator
        assert coord is not None
        with coord.owner_lock:
            seq = coord.next_sequence()
            encrypted = self.owner.insert_rows(rows)
            view = encrypted.server_view()
        self.last_delta = None
        while True:
            base_view, base_version, acked_seq, generation = coord.snapshot_base()
            if acked_seq >= seq:
                # A later writer's acknowledged view already contains this
                # writer's rows (owner views are cumulative).
                coord.stats.noop_pushes += 1
                return base_view.num_rows if base_view is not None else view.num_rows
            if base_view is None:
                raise ProtocolError(
                    f"table {self.table_id!r}: coordinated insert before any "
                    "acknowledged outsource"
                )
            delta = compute_view_delta(base_view, view)
            try:
                count = self.client.insert_delta(
                    self.table_id,
                    delta,
                    batch_rows=len(rows),
                    base_version=base_version,
                    with_root=self.verify,
                )
            except ProtocolError as exc:
                if exc.code != ErrorCode.VERSION_CONFLICT.value:
                    raise
                coord.stats.cas_conflicts += 1
                coord.wait_past(generation)
                coord.stats.rebases += 1
                continue
            version, root = self._ack_state()
            coord.stats.delta_pushes += 1
            coord.record_delta_ack(seq, view, delta, version, root)
            self.last_delta = delta
            self._last_view = view
            self._last_version = version
            return count

    def discover_fds(self, max_lhs_size: int | None = None) -> TaneResult:
        """Remote FD discovery, validated against the owner's plaintext.

        The validation verdict lands in ``result.parameters['validated']``,
        mirroring :func:`run_protocol`.
        """
        result = self.client.discover(self.table_id, max_lhs_size=max_lhs_size)
        result.parameters["validated"] = self.owner.validate_fds(
            result.fds, max_lhs_size=max_lhs_size
        )
        return result

    def select(self, predicate: "Predicate | str") -> Relation:
        """Boolean selection served by the provider, decrypted locally.

        ``predicate`` is an AST node or an expression string (see
        :mod:`repro.query.parser`), e.g. ``"City = Hoboken and Side != N"``.
        The owner plans it (:meth:`DataOwner.plan_query`), the provider
        executes the server part as bitset algebra, and the owner resolves
        the matches through her provenance plus the owner-local residual —
        the result equals the plaintext selection exactly.  A plan with no
        server part is answered locally without a round trip.
        """
        return self.select_with_report(predicate)[0]

    def select_with_report(
        self, predicate: "Predicate | str"
    ) -> tuple[Relation, QueryLeakageReport]:
        """Like :meth:`select`, plus the query's :class:`QueryLeakageReport`."""
        plan = self.owner.plan_query(predicate)
        if plan.server is None:
            matches = self.owner.select_plaintext_where(plan.predicate)
            return matches, self.owner.query_leakage_report(plan)
        result = self.client.plan_query(self.table_id, plan.server, with_root=self.verify)
        if self.verify and self.integrity is not None:
            # All checks run BEFORE any decryption: the reply's (version,
            # root, row count) claims first, then its answer.
            self.integrity.check_reply(result.version, result.merkle_root, result.num_rows)
            replica = self._vouched_view()
            if replica is not None:
                self.integrity.verify_proofs(
                    plan.server,
                    result.row_indexes,
                    result.leaf_match_counts,
                    self.owner.replica_masks.over(replica),
                )
        matches = self.owner.decrypt_plan_result(plan, result)
        return matches, self.owner.query_leakage_report(plan, result)

    def _vouched_view(self) -> "Relation | None":
        """The view :attr:`integrity`'s tree was built from, if any.

        That is the owner's own replica while her last acknowledged push
        carried her current table (its coded form is shared with the leakage
        report); otherwise the acknowledged view itself — never a table the
        server has not acknowledged.  A session that never pushed (the
        ``--no-push`` pattern: F2 re-encryption is randomised, so the view
        cannot be recomputed locally) has none, and its verification is the
        ``(version, root)`` freshness chain alone.
        """
        if self.integrity is None or not self.integrity.expected_root:
            return None
        if self.coordinator is not None:
            return self.coordinator.snapshot_base()[0]
        if self._last_pushed is not None and self._last_pushed is self.owner.encrypted:
            return self.owner.encrypted.relation
        return self._last_view

    def explain(self, predicate: "Predicate | str") -> str:
        """The plan description for ``predicate`` (no server round trip)."""
        return self.owner.plan_query(predicate).explain()

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteOwnerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
