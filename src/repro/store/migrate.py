"""One-way import of legacy ``.f2t`` snapshots (``f2-repro store migrate``).

Older servers persisted each table as one whole-table ``<table>.f2t``
binary relation frame.  The server now persists only segment stores, so
this module is the one place that still reads those files: it walks a
storage directory the same way the server does at start — top-level
entries plus one directory level of tenant namespaces — and rebuilds each
table as a segment store directory (``<table>.f2s``) next to its snapshot.
The conversion is verified (full CRC + decode pass) before it is reported,
and the original snapshot is kept unless the caller asks for removal, so a
failed or interrupted migration never loses the authoritative copy.

It also holds :func:`legacy_binary_root`, the root of the binary Merkle
tree older stores recorded, which a segment store re-checks once when it
opens such a manifest.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from pathlib import Path
from typing import Any

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import StoreError, WireError
from repro.integrity.merkle import EMPTY_ROOT
from repro.store.segment import STORE_SUFFIX, SegmentTableStore
from repro.wire import decode_relation

#: Mirrors the protocol server's table-id / tenant-dir shape (kept local:
#: repro.store must not import repro.api.protocol, which imports it).
_SAFE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

SNAPSHOT_SUFFIX = ".f2t"


def legacy_binary_root(leaves: list[bytes]) -> str:
    """Root of the legacy binary Merkle tree over ``leaves`` (hex).

    Pairs ``sha256(0x01 || left || right)`` level by level, promoting an
    odd tail unchanged; the empty tree has ``EMPTY_ROOT``.  Root only — it
    exists to re-check roots recorded in that format, nothing proves
    against it.
    """
    level = list(leaves)
    if not level:
        return EMPTY_ROOT
    while len(level) > 1:
        level = [
            hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
            if i + 1 < len(level)
            else level[i]
            for i in range(0, len(level), 2)
        ]
    return level[0].hex()


def _snapshot_paths(storage_dir: Path) -> list[Path]:
    paths = sorted(storage_dir.glob(f"*{SNAPSHOT_SUFFIX}"))
    for subdir in sorted(storage_dir.iterdir()):
        if subdir.is_dir() and _SAFE_NAME_RE.match(subdir.name):
            paths.extend(sorted(subdir.glob(f"*{SNAPSHOT_SUFFIX}")))
    return [p for p in paths if _SAFE_NAME_RE.match(p.stem)]


def leftover_snapshots(storage_dir: Path) -> list[Path]:
    """The ``.f2t`` snapshots under ``storage_dir`` with no ``.f2s`` beside them.

    The server never reads these; they are tables that still need
    ``f2-repro store migrate``.
    """
    return [
        path
        for path in _snapshot_paths(storage_dir)
        if not path.with_suffix(STORE_SUFFIX).exists()
    ]


def migrate_storage_dir(
    storage_dir: "Path | str",
    backend: "ComputeBackend | str | None" = None,
    remove_snapshots: bool = False,
) -> list[dict[str, Any]]:
    """Convert every ``.f2t`` snapshot under ``storage_dir`` to a segment store.

    Returns one record per converted table:
    ``{"table": str, "tenant": str, "rows": int, "snapshot": Path, "store": Path}``.
    Corrupt snapshots are skipped with a :class:`RuntimeWarning`, so one
    bad file never stops the other tables' migration.
    """
    storage_dir = Path(storage_dir)
    if not storage_dir.is_dir():
        raise StoreError(f"storage directory {storage_dir} does not exist")
    resolved = get_backend(backend)
    converted: list[dict[str, Any]] = []
    for path in _snapshot_paths(storage_dir):
        tenant = "" if path.parent == storage_dir else path.parent.name
        try:
            relation = decode_relation(path.read_bytes())
        except (WireError, OSError) as exc:
            warnings.warn(
                f"skipping corrupt snapshot {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        target = path.with_suffix(STORE_SUFFIX)
        store = SegmentTableStore(target, resolved, create=True)
        try:
            store.replace(relation)
            store.verify()
        finally:
            store.close()
        if remove_snapshots:
            path.unlink()
        converted.append(
            {
                "table": path.stem,
                "tenant": tenant,
                "rows": relation.num_rows,
                "snapshot": path,
                "store": target,
            }
        )
    return converted
