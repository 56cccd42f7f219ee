"""The snapshot engine's store: the relation in memory, decoded lazily.

This is the PR 5 behaviour factored behind :class:`TableStore`: the table
is a plain :class:`~repro.relational.table.Relation`, the protocol server
persists it by writing whole ``.f2t`` snapshot frames beside the store.

The one new capability is **lazy loading**.  At server start every snapshot
used to be fully decoded — dictionaries, cells, code arrays — even for
tables nobody queries.  Now the snapshot bytes are only *skimmed*
(:func:`repro.wire.skim_relation` walks the frame structure, validating
framing and extracting name/schema/row count without materialising a cell)
and kept pending; the full decode runs on the first access that needs rows.
Corrupt snapshots still fail at construction time — skimming detects
truncation and framing damage, which is exactly what the server's
"skipping corrupt snapshot" warning contract covers.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.api.delta import ViewDelta, apply_view_delta
from repro.backend import ComputeBackend
from repro.exceptions import StoreError
from repro.relational.table import Relation
from repro.store.base import TableStore

# Imported as module attributes (not from-imports inside methods) so tests
# can observe / stub the lazy decode.
from repro.wire import decode_relation, skim_relation

from repro.obs import metrics as _metrics

_SNAPSHOT_DECODES = _metrics.counter("store.snapshot_decodes")


class MemoryTableStore(TableStore):
    """One table held in memory, optionally pending in encoded form."""

    engine = "snapshot"

    def __init__(self, backend: ComputeBackend):
        super().__init__(backend)
        self._relation: "Relation | None" = None
        self._pending: "bytes | None" = None
        self._name = ""
        self._attributes: tuple[str, ...] = ()
        self._num_rows = 0
        #: How many times pending snapshot bytes were decoded into a
        #: relation (observability: the cost lazy loading deferred).
        self.decodes = 0

    @classmethod
    def from_snapshot(cls, backend: ComputeBackend, data: bytes) -> "MemoryTableStore":
        """A store over encoded snapshot bytes, decoded on first access.

        Raises :class:`~repro.exceptions.WireError` immediately when the
        frame is structurally damaged (truncated, bad magic, bad tags).
        """
        store = cls(backend)
        store.load_snapshot(data)
        return store

    # -- identity ------------------------------------------------------
    @property
    def loaded(self) -> bool:
        """False while the snapshot bytes have not been decoded yet."""
        return self._pending is None

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def num_rows(self) -> int:
        return self._num_rows

    # -- data plane ----------------------------------------------------
    def relation(self) -> Relation:
        with self._mutex:
            if self._relation is None:
                if self._pending is None:
                    raise StoreError("memory store holds no table yet")
                pending, self._pending = self._pending, None
                self._relation = decode_relation(pending)
                self.decodes += 1
                _SNAPSHOT_DECODES.inc()
            return self._relation

    def replace(self, relation: Relation) -> None:
        with self._mutex:
            self._relation = relation
            self._pending = None
            self._name = relation.name
            self._attributes = tuple(relation.attributes)
            self._num_rows = relation.num_rows
            self._merkle = None
            self._wrote()
            self._committed()

    def load_snapshot(self, data: bytes) -> int:
        """Adopt encoded snapshot bytes (decode deferred); returns row count.

        A load restores persisted state rather than committing a new write,
        so the caller (the server's startup path) re-seats the committed
        version from the ``.f2i`` sidecar afterwards.
        """
        name, attributes, num_rows = skim_relation(data)
        with self._mutex:
            self._relation = None
            self._pending = data
            self._name = name
            self._attributes = tuple(attributes)
            self._num_rows = num_rows
            self._merkle = None
            self._wrote()
            return num_rows

    def apply_delta(self, delta: ViewDelta) -> int:
        with self._mutex:
            base_rows = self.num_rows
            updated = apply_view_delta(self.relation(), delta)
            candidate = self._merkle_candidate(delta, base_rows)
            self.replace(updated)  # drops the cached tree; re-seat it below
            self._merkle = candidate
            return updated.num_rows

    # -- query plane ---------------------------------------------------
    def _coded(self) -> Any:
        return self.relation().coded(self._backend)

    def _match_mask_uncached(self, attribute: str, token: Iterable[Any]) -> Any:
        return self._coded().match_mask(attribute, token)

    # -- observability -------------------------------------------------
    def store_stats(self) -> dict[str, Any]:
        stats = super().store_stats()
        with self._mutex:
            stats["loaded"] = self.loaded
            stats["decodes"] = self.decodes
            stats["pending_bytes"] = len(self._pending) if self._pending else 0
        return stats
