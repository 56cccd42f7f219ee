"""Per-table stores behind the protocol server.

The package splits into the store contract (:mod:`.base`, the
:class:`TableStore` ABC), the hot-token cache every store shares
(:mod:`.cache`), the one durable engine (:mod:`.segment`, the on-disk
columnar store with its :mod:`.manifest` commit protocol, which folds a
long delta history into one segment), the non-durable in-memory store
(:mod:`.memory`), and the one-way importer of legacy ``.f2t`` snapshot
files (:mod:`.migrate`).
"""

from repro.store.base import (
    STORAGE_ENGINE_SEGMENT,
    STORE_SUFFIX,
    TableStore,
)
from repro.store.cache import DEFAULT_CACHE_ENTRIES, TokenBitsetCache
from repro.store.manifest import (
    CURRENT_NAME,
    KEEP_GENERATIONS,
    Manifest,
    list_generations,
    load_manifest,
    recover_manifest,
    write_manifest,
)
from repro.store.memory import MemoryTableStore
from repro.store.migrate import leftover_snapshots, migrate_storage_dir
from repro.store.segment import (
    FOLD_SEGMENT_FILES,
    SEGMENT_MAGIC,
    SegmentTableStore,
    is_segment_store,
)

__all__ = [
    "CURRENT_NAME",
    "DEFAULT_CACHE_ENTRIES",
    "FOLD_SEGMENT_FILES",
    "KEEP_GENERATIONS",
    "Manifest",
    "MemoryTableStore",
    "SEGMENT_MAGIC",
    "STORAGE_ENGINE_SEGMENT",
    "STORE_SUFFIX",
    "SegmentTableStore",
    "TableStore",
    "TokenBitsetCache",
    "is_segment_store",
    "leftover_snapshots",
    "list_generations",
    "load_manifest",
    "migrate_storage_dir",
    "recover_manifest",
    "write_manifest",
]
