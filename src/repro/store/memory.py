"""The non-durable store: one relation held in memory.

A server without a storage directory (and every in-process facade) keeps
each table as a :class:`~repro.relational.table.Relation` behind the
:class:`TableStore` interface.  A delta splices the next version from the
stored one's chunks (:func:`~repro.api.delta.apply_view_delta`), so it
costs O(delta + seams), not O(view).  Nothing is written to disk; a
restart starts empty.  The durable engine is :mod:`repro.store.segment`.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.api.delta import ViewDelta, apply_view_delta
from repro.backend import ComputeBackend
from repro.exceptions import StoreError
from repro.relational.table import Relation
from repro.store.base import TableStore


class MemoryTableStore(TableStore):
    """One table held in memory."""

    engine = "memory"

    def __init__(self, backend: ComputeBackend):
        super().__init__(backend)
        self._relation: "Relation | None" = None

    # -- identity ------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        relation = self._relation
        return () if relation is None else tuple(relation.attributes)

    @property
    def num_rows(self) -> int:
        relation = self._relation
        return 0 if relation is None else relation.num_rows

    # -- data plane ----------------------------------------------------
    def relation(self) -> Relation:
        with self._mutex:
            if self._relation is None:
                raise StoreError("memory store holds no table yet")
            return self._relation

    def replace(self, relation: Relation) -> None:
        with self._mutex:
            self._relation = relation
            self._merkle = None
            self._wrote()
            self._committed()

    def apply_delta(self, delta: ViewDelta) -> int:
        with self._mutex:
            updated = apply_view_delta(self.relation(), delta)
            self._merkle = self._merkle_candidate(delta)
            self._relation = updated
            self._wrote(delta)
            self._committed()
            return updated.num_rows

    # -- query plane ---------------------------------------------------
    def _match_mask_uncached(self, attribute: str, token: Iterable[Any]) -> Any:
        return self.relation().coded(self._backend).match_mask(attribute, token)
