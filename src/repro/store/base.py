"""The :class:`TableStore` contract the protocol server stores tables behind.

A :class:`TableStore` pulls the per-table state — the data, its coded query
surface, and the hot-token cache — behind one interface so the server does
not care *how* a table is held:

* :class:`repro.store.segment.SegmentTableStore` — the one durable engine:
  coded columns live in on-disk segment files and an append-only table
  log (one fsync'd record per commit); queries read the codes straight off disk
  (memory-mapped) without rebuilding the full relation.  The server runs
  every table on it whenever a storage directory is set.
* :class:`repro.store.memory.MemoryTableStore` — a plain, non-durable
  store: the relation lives in memory only (a server without a storage
  directory, the in-process facades).

The query plane is deliberately shaped like the coded view: a store exposes
``backend`` / ``num_rows`` / ``match_mask`` — exactly the surface
:func:`repro.query.server.execute_server_expr` consumes — so a store can be
handed to the plan executor directly, and both stores front their scans
with the same :class:`~repro.store.cache.TokenBitsetCache`: a delta write
carries its masks forward (spliced on their next hit), a replace empties it.

Thread model: the server serialises writes against reads per table with its
read/write locks, but `store()` accessors and FD discovery read without a
table lock, so every store also guards its own lazy materialisation and
caches with an internal re-entrant mutex.  ``version`` increments on every
write — the server's discovery cache uses ``(identity, version)`` to detect
a table that changed while TANE ran.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Iterable, TYPE_CHECKING

from repro.backend import ComputeBackend
from repro.obs import metrics as _metrics
from repro.relational.table import Relation
from repro.store.cache import DEFAULT_CACHE_ENTRIES, TokenBitsetCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (delta -> api)
    from repro.api.delta import ViewDelta
    from repro.integrity.merkle import MerkleTree, Multiproof

# Process-wide Merkle upkeep across every store: splices on the write
# path, and full builds when a store holds no tree; per-store counts live
# on the instances (``store_stats``).
_TREE_SPLICES = _metrics.counter("integrity.tree_splices")
_TREE_REBUILDS = _metrics.counter("integrity.tree_rebuilds")

#: The durable storage engine's name (``ProtocolServer(storage_engine=)``).
STORAGE_ENGINE_SEGMENT = "segment"

#: Suffix of a segment table directory.
#: Lives here (not in :mod:`.segment`) so the protocol server can import it
#: without touching the engine modules at import time — they reach back into
#: :mod:`repro.api` and would close an import cycle.
STORE_SUFFIX = ".f2s"


class TableStore(ABC):
    """One tenant-namespaced table behind the protocol server."""

    #: Which engine this store is (``"segment"`` or ``"memory"``).
    engine: str = "abstract"

    def __init__(self, backend: ComputeBackend, cache_entries: int = DEFAULT_CACHE_ENTRIES):
        self._backend = backend
        self._cache = TokenBitsetCache(backend, max_entries=cache_entries)
        self._mutex = threading.RLock()
        self._version = 0
        self._commit_version = 0
        self._merkle: "MerkleTree | None" = None
        #: Observability: delta splices of the cached tree, and full builds
        #: of a missing one.
        self.tree_splices = 0
        self.tree_rebuilds = 0

    # -- identity ------------------------------------------------------
    @property
    def backend(self) -> ComputeBackend:
        """The resolved compute backend queries run on."""
        return self._backend

    @property
    def version(self) -> int:
        """Monotonic write counter (bumped by every mutation)."""
        return self._version

    @property
    def cache(self) -> TokenBitsetCache:
        return self._cache

    def cache_stats(self) -> dict[str, int]:
        return self._cache.stats()

    def store_stats(self) -> dict[str, Any]:
        """JSON-safe live stats of this store (the ``StatsReply`` surface).

        Engines extend the document with their own fields (segment counts,
        mmap'd bytes, decode counts).  Read at stats-snapshot time only —
        store observability costs nothing on the query hot path.
        """
        with self._mutex:
            return {
                "engine": self.engine,
                "num_rows": self.num_rows,
                "num_attributes": len(self.attributes),
                "version": self._version,
                "commit_version": self.commit_version,
                "cache": self._cache.stats(),
                "tree_splices": self.tree_splices,
                "tree_rebuilds": self.tree_rebuilds,
            }

    # -- integrity plane -----------------------------------------------
    @property
    def commit_version(self) -> int:
        """Monotonic *committed-write* counter, the CAS base for deltas.

        Unlike :attr:`version` (a process-local cache-invalidation counter
        that restarts at zero), the commit version survives restarts on the
        durable engine — the segment engine maps it to the version of its
        last log record — so the owner's ``(version, root)`` freshness
        chain can tell an honest restart from a rollback.
        """
        return self._commit_version

    def merkle_tree(self) -> "MerkleTree":
        """The table's Merkle tree, built lazily from the stored relation.

        The build is the fallback when no tree is cached (after a restart,
        or a write that could not splice one) and is counted as a rebuild.
        """
        from repro.integrity.merkle import MerkleTree, relation_leaves

        with self._mutex:
            if self._merkle is None:
                if self.num_rows == 0 and not self.attributes:
                    tree = MerkleTree()
                else:
                    tree = MerkleTree(relation_leaves(self.relation()))
                self._merkle = tree
                self.tree_rebuilds += 1
                _TREE_REBUILDS.inc()
            return self._merkle

    def merkle_root(self) -> str:
        """Hex root over the rows the store holds, never a recorded one.

        A root read back from metadata would vouch for rows the store may
        no longer hold (a corrupted segment after a restart); the lazy tree
        is built from the stored rows themselves.
        """
        return self.merkle_tree().root

    def merkle_proofs(self, indexes: Iterable[int]) -> "Multiproof":
        """One multiproof for the given strictly ascending row indexes.

        No reply carries one: a verified owner recomputes the answer over
        her replica instead.  Kept for offline checks.
        """
        return self.merkle_tree().multiproof(list(indexes))

    def _merkle_candidate(self, delta: "ViewDelta") -> "MerkleTree | None":
        """The tree a (structurally validated) delta produces, or ``None``.

        Never touches the cached tree — engines commit the data write first
        and only then adopt the candidate, so a failed commit leaves the
        committed tree in step.  ``None`` when no tree is cached: the lazy
        rebuild (:meth:`merkle_tree`) covers it later.
        """
        if self._merkle is None:
            return None
        candidate = self._merkle.splice(delta)
        self.tree_splices += 1
        _TREE_SPLICES.inc()
        return candidate

    # -- data plane ----------------------------------------------------
    @property
    @abstractmethod
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in schema order (empty before the first write)."""

    @property
    @abstractmethod
    def num_rows(self) -> int:
        """Committed row count."""

    @abstractmethod
    def relation(self) -> Relation:
        """The full stored relation, materialised (and cached) on demand."""

    @abstractmethod
    def replace(self, relation: Relation) -> None:
        """Replace the whole table (outsource / full insert)."""

    @abstractmethod
    def apply_delta(self, delta: "ViewDelta") -> int:
        """Splice a :class:`~repro.api.delta.ViewDelta` in; return the new row count.

        Raises :class:`~repro.exceptions.ProtocolError` with
        ``DELTA_MISMATCH`` / ``BAD_REQUEST`` codes exactly like
        :func:`repro.api.delta.apply_view_delta` — the server's error
        contract does not depend on the engine.
        """

    # -- query plane (cache-fronted) -----------------------------------
    def match_mask(self, attribute: str, token: Iterable[Any]) -> Any:
        """The backend row mask of the rows whose ``attribute`` cell is in
        ``token`` (one leaf of a plan execution)."""
        with self._mutex:
            key = self._cache_key(attribute, token)
            if key is not None:
                hit = self._cache.get_mask(key)
                if hit is not None:
                    return hit
            mask = self._match_mask_uncached(attribute, token)
            if key is not None:
                self._cache.put_mask(key, mask)
            return mask

    @abstractmethod
    def _match_mask_uncached(self, attribute: str, token: Iterable[Any]) -> Any:
        """Engine-specific mask scan (called under the store mutex)."""

    def _cache_key(self, attribute: str, token: Iterable[Any]) -> Any:
        try:
            return self._cache.key(attribute, token)
        except TypeError:
            # Unhashable token cells: legal for a one-off query, just not
            # cacheable.
            return None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release any OS resources (mmaps, file handles).  Idempotent."""

    def _wrote(self, delta: "ViewDelta | None" = None) -> None:
        """Post-write bookkeeping shared by the engines (under the mutex).

        A write that applied ``delta`` keeps the cached masks (they splice
        through it on their next hit); any other write drops them.
        """
        self._version += 1
        if delta is None:
            self._cache.invalidate()
        else:
            self._cache.advance(delta.row_map(), delta.literals)

    def _committed(self) -> None:
        """Advance the committed version (one durable write landed)."""
        self._commit_version += 1
