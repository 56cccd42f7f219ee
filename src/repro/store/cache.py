"""The hot-token bitset cache (the caching hook named in the query engine).

Token-based queries are highly repetitive in practice: an analyst re-issues
the same boolean plan over the same token leaves against a table that
changes only when the owner inserts.  The server-side
cost of such a query is one membership scan over a dense code array — cheap,
but linear in the table — so the store front-ends it with a small LRU cache
keyed by ``(attribute, token)``.

A cached result is the backend's row *mask* of one leaf (a python int
bitset or a NumPy boolean array), so that ``rows_and``/``rows_or`` algebra
never re-materialises leaves.  Masks are immutable-by-convention: python
masks are ints, and the NumPy mask algebra always allocates fresh output
arrays.

Correctness rests on one rule: **a cached mask is served only at the
table's current version.**  A delta write does not empty the cache; it
appends its row map and literal rows to a bounded backlog and bumps the
version (:meth:`TokenBitsetCache.advance`).  A hit on an older entry is
spliced forward through the deltas it missed: copy runs move its bits into
place, and literal runs contribute the literal rows' membership in the
token (:meth:`~repro.backend.ComputeBackend.splice_mask`) — exact, because
a row's membership depends on its own cell only.  An entry older than the
backlog is a miss.  Any other write (a replace, a reload) drops everything
(:meth:`TokenBitsetCache.invalidate`).  The stores call both under the same
mutex that serialises the write, so a stale mask is never observed.
Splicing happens on a hit, not on the write: an insert costs one append
however many entries are cached.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Iterable, Sequence, TYPE_CHECKING

from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.backend import ComputeBackend
    from repro.relational.table import Relation

#: Default bound on cached entries per table.
DEFAULT_CACHE_ENTRIES = 256

#: Deltas an entry can be spliced through before it counts as a miss.  A
#: hot token on ``perfbench``'s ``update-2k`` (an insert after every 9
#: selects) is asked again within a few inserts; with 16 its traced run
#: (seed 901) served 0.74 of all leaves from the cache, against 0.11 when
#: every write emptied it.  The backlog holds each delta's literal rows, so
#: it is bounded.
BACKLOG_DELTAS = 16

# Process-wide rates across every table's cache; the per-store counters on
# each instance stay the exact per-table numbers (``stats()``).  These are
# no-ops under the REPRO_METRICS=0 kill switch.
_CACHE_HITS = _metrics.counter("store.cache_hits")
_CACHE_MISSES = _metrics.counter("store.cache_misses")
_CACHE_SPLICES = _metrics.counter("store.cache_splices")
_CACHE_INVALIDATIONS = _metrics.counter("store.cache_invalidations")


class TokenBitsetCache:
    """A bounded LRU cache of per-token match results for one table, whose
    masks are ``backend``'s (it splices them forward across deltas)."""

    __slots__ = (
        "max_entries", "hits", "misses", "splices", "backlog_misses",
        "invalidations", "version", "_backend", "_masks", "_backlog",
    )

    def __init__(self, backend: "ComputeBackend", max_entries: int = DEFAULT_CACHE_ENTRIES):
        self.max_entries = max(1, int(max_entries))
        self.hits = 0
        self.misses = 0
        #: Hits served by splicing an older entry forward (counted in hits).
        self.splices = 0
        #: Entries older than the backlog (counted in misses).
        self.backlog_misses = 0
        self.invalidations = 0
        #: Deltas advanced through so far; entries carry the version they
        #: describe.
        self.version = 0
        self._backend = backend
        self._masks: "OrderedDict[Any, tuple[int, Any]]" = OrderedDict()
        self._backlog: "deque[tuple[Sequence[tuple[int, int]], Relation | None]]" = deque(
            maxlen=BACKLOG_DELTAS
        )

    @staticmethod
    def key(attribute: str, token: Iterable[Any]) -> Any:
        """The cache key of one query leaf.

        Token cells are hashable by the relation contract (strings, ints,
        frozen ciphertext dataclasses); callers catch ``TypeError`` and skip
        the cache for anything exotic.
        """
        return (attribute, tuple(token))

    def get_mask(self, key: Any) -> Any:
        """The cached mask for ``key`` at the current version, or ``None``.

        (A mask is never ``None``: empty matches are ``0`` or an all-False
        array, so the sentinel is unambiguous.)
        """
        found = self._masks.get(key)
        if found is not None:
            version, mask = found
            behind = self.version - version
            if behind > len(self._backlog):
                del self._masks[key]
                self.backlog_misses += 1
                found = None
            elif behind:
                mask = self._splice(key, mask, behind)
                self._masks[key] = (self.version, mask)
                self.splices += 1
                _CACHE_SPLICES.inc()
        if found is None:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self._masks.move_to_end(key)
        self.hits += 1
        _CACHE_HITS.inc()
        return mask

    def put_mask(self, key: Any, mask: Any) -> None:
        """Cache ``mask`` as ``key``'s result at the current version."""
        self._masks[key] = (self.version, mask)
        self._masks.move_to_end(key)
        while len(self._masks) > self.max_entries:
            self._masks.popitem(last=False)

    # -- write path ----------------------------------------------------
    def advance(self, row_map: Sequence[tuple[int, int]], literals: "Relation | None") -> None:
        """Move to the next version: the view a delta produced.

        ``row_map`` is the delta's :meth:`~repro.api.delta.ViewDelta.row_map`
        and ``literals`` its literal rows.  O(1): entries are spliced when
        next hit.
        """
        self._backlog.append((row_map, literals))
        self.version += 1

    def invalidate(self) -> None:
        """Drop every cached result (a replace or reload of the table)."""
        if self._masks:
            self.invalidations += 1
            _CACHE_INVALIDATIONS.inc()
        self._masks.clear()
        self._backlog.clear()

    def _splice(self, key: Any, mask: Any, behind: int) -> Any:
        """``mask`` carried through the last ``behind`` deltas."""
        backend = self._backend
        attribute, token = key
        backlog = self._backlog
        for index in range(len(backlog) - behind, len(backlog)):
            row_map, literals = backlog[index]
            literal_mask = (
                None if literals is None
                else literals.coded(backend).match_mask(attribute, token)
            )
            mask = backend.splice_mask(mask, literal_mask, row_map)
        return mask

    @property
    def entries(self) -> int:
        return len(self._masks)

    def stats(self) -> dict[str, int]:
        """Counters for tests and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "splices": self.splices,
            "backlog_misses": self.backlog_misses,
            "invalidations": self.invalidations,
        }
