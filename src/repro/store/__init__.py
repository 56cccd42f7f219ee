"""Per-table stores behind the protocol server.

The package splits into the store contract (:mod:`.base`, the
:class:`TableStore` ABC), the hot-token cache every store shares
(:mod:`.cache`), the one durable engine (:mod:`.segment`, the on-disk
columnar store with its :mod:`.manifest` table log — one fsync'd record
per commit, a checkpoint at a replace or fold), and the non-durable
in-memory store (:mod:`.memory`).
"""

from repro.store.base import (
    STORAGE_ENGINE_SEGMENT,
    STORE_SUFFIX,
    TableStore,
)
from repro.store.cache import DEFAULT_CACHE_ENTRIES, TokenBitsetCache
from repro.store.manifest import CURRENT_NAME, Manifest, recover_log
from repro.store.memory import MemoryTableStore
from repro.store.segment import (
    FOLD_LOG_RECORDS,
    FOLD_VIEW_SLICES,
    SEGMENT_MAGIC,
    SegmentTableStore,
    is_segment_store,
)

__all__ = [
    "CURRENT_NAME",
    "DEFAULT_CACHE_ENTRIES",
    "FOLD_LOG_RECORDS",
    "FOLD_VIEW_SLICES",
    "Manifest",
    "MemoryTableStore",
    "SEGMENT_MAGIC",
    "STORAGE_ENGINE_SEGMENT",
    "STORE_SUFFIX",
    "SegmentTableStore",
    "TableStore",
    "TokenBitsetCache",
    "is_segment_store",
    "recover_log",
]
