"""One-way imports of legacy on-disk formats.

``.f2t`` snapshots (``f2-repro store migrate``):

Older servers persisted each table as one whole-table ``<table>.f2t``
binary relation frame.  The server now persists only segment stores, so
this module is the one place that still reads those files: it walks a
storage directory the same way the server does at start — top-level
entries plus one directory level of tenant namespaces — and rebuilds each
table as a segment store directory (``<table>.f2s``) next to its snapshot.
The conversion is verified (full CRC + decode pass) before it is reported,
and the original snapshot is kept unless the caller asks for removal, so a
failed or interrupted migration never loses the authoritative copy.

JSON manifests: segment stores written before the table log committed
each write as a ``MANIFEST-<generation>.json`` generation plus a
``CURRENT`` pointer.  :func:`read_legacy_manifest` is the only reader of
that format left; a segment store that opens one rewrites it once as a
table log (see :class:`~repro.store.segment.SegmentTableStore`).

It also holds :func:`legacy_binary_root`, the root of the binary Merkle
tree older stores recorded, which a segment store re-checks once when it
opens such a manifest.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from pathlib import Path
from typing import Any

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import StoreError, StoreIntegrityWarning, WireError
from repro.integrity.merkle import EMPTY_ROOT
from repro.store.manifest import (
    LEGACY_MANIFEST_RE,
    DictionaryBlob,
    Manifest,
    SegmentFile,
    missing_data,
    read_current,
)
from repro.store.segment import STORE_SUFFIX, SegmentTableStore
from repro.wire import decode_relation

#: Mirrors the protocol server's table-id / tenant-dir shape (kept local:
#: repro.store must not import repro.api.protocol, which imports it).
_SAFE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

SNAPSHOT_SUFFIX = ".f2t"

#: Root format of a JSON manifest written before the field existed (the
#: binary Merkle tree with promoted odd tails).
LEGACY_ROOT_FORMAT = 1


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


def _manifest_from_doc(doc: Any) -> Manifest:
    """One JSON manifest document as a (not yet logged) committed state.

    Documents carry a ``generation`` (the commit version) and may carry a
    ``view_digest`` field, which is ignored.
    """
    try:
        if not isinstance(doc, dict) or doc.get("format") != "f2-segment-store":
            raise StoreError("not a segment-store manifest document")
        if int(doc.get("version", 0)) != 1:
            raise StoreError(f"unsupported manifest version {doc.get('version')!r}")
        manifest = Manifest(
            version=int(doc["generation"]),
            table_name=str(doc.get("table_name", "")),
            attributes=[str(attr) for attr in doc["attributes"]],
            num_rows=int(doc["num_rows"]),
            merkle_root=str(doc.get("merkle_root", "")),
            merkle_root_format=int(doc.get("merkle_root_format", LEGACY_ROOT_FORMAT)),
            files=[
                SegmentFile(
                    name=str(entry["name"]),
                    rows=int(entry["rows"]),
                    length=int(entry["length"]),
                    crc=int(entry["crc"]),
                    columns=[
                        {"offset": int(col["offset"]), "width": int(col["width"])}
                        for col in entry["columns"]
                    ],
                )
                for entry in doc["files"]
            ],
            view=[(int(a), int(b), int(c)) for a, b, c in doc["view"] if int(c)],
            dictionaries=[
                DictionaryBlob(
                    name=str(entry["name"]),
                    values=int(entry["values"]),
                    length=int(entry["length"]),
                    crc=int(entry["crc"]),
                )
                for entry in doc["dictionaries"]
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed manifest document: {exc}") from exc
    manifest.check_consistency()
    return manifest


def read_legacy_manifest(directory: Path) -> Manifest:
    """The newest usable JSON manifest generation of a table directory.

    Tries the generation ``CURRENT`` names first, then every other one
    newest-first, warning (:class:`~repro.exceptions.StoreIntegrityWarning`)
    whenever it has to fall back; usable means the document parses and
    every data file it references holds at least its committed bytes.
    Raises :class:`~repro.exceptions.StoreError` when none is usable.
    Reads only.
    """
    current = read_current(directory)
    generations = sorted(
        (
            (int(match.group(1)), path.name)
            for path in directory.iterdir()
            if (match := LEGACY_MANIFEST_RE.match(path.name))
        ),
        reverse=True,
    )
    candidates = [current] if LEGACY_MANIFEST_RE.match(current) else []
    candidates += [name for _, name in generations if name != current]
    failures: list[str] = []
    for name in candidates:
        try:
            manifest = _manifest_from_doc(json.loads((directory / name).read_text("utf-8")))
            reason = missing_data(directory, manifest)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            reason = f"unreadable manifest: {exc}"
        except StoreError as exc:
            reason = str(exc)
        if reason is None:
            if failures:
                warnings.warn(
                    f"segment store {directory}: falling back to committed "
                    f"generation {manifest.version} ({'; '.join(failures)})",
                    StoreIntegrityWarning,
                    stacklevel=3,
                )
            return manifest
        failures.append(f"{name}: {reason}")
    raise StoreError(
        f"no usable manifest generation in {directory} ({'; '.join(failures)})"
    )


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
