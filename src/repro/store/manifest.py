"""Generation-numbered manifests: the commit protocol of a segment store.

A segment table directory holds three kinds of files:

* ``seg-<generation>.seg`` — immutable columnar segment files (written once,
  never modified);
* ``dict-<generation>-<column>.blob`` — per-column dictionary blobs
  (append-only: a delta extends them at the tail);
* ``MANIFEST-<generation>.json`` + ``CURRENT`` — the commit record.

A **manifest** is one committed state of the table: which segment files
exist, how the logical row order is composed from slices of them, how many
dictionary values (and blob bytes) are committed per column, and the
Merkle root of the view with its format (``merkle_root_format``: a
manifest without the field holds a legacy binary-tree root, which the store
re-checks and replaces once at open — see
:meth:`~repro.store.segment.SegmentTableStore.__init__`).  The generation number doubles as the table's
commit version, the delta protocol's compare-and-swap base; manifests
written before that carry a ``view_digest`` field, which loading ignores.
Committing a write is therefore:
write the new data files, ``fsync`` them, write ``MANIFEST-<g+1>.json``
(temp file + ``os.replace``), and finally point ``CURRENT`` at it with
another atomic rename.  A crash at any point leaves the previous generation
fully intact — at worst with torn bytes *beyond* the committed lengths,
which recovery truncates away.

Recovery (:func:`recover_manifest`) trusts lengths, not checksums: a
generation is usable when its manifest parses and every referenced file
exists with at least the committed byte count.  That keeps restart cost flat
in the data size (no full-file reads); the recorded CRCs are verified by the
explicit :meth:`~repro.store.segment.SegmentTableStore.verify` pass (used by
``store migrate`` and the tests).  When the ``CURRENT`` generation is
unusable, recovery walks older generations newest-first and warns — the
same degrade-with-a-warning posture as the server's skip of a corrupt
table at startup.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import StoreError, StoreIntegrityWarning
from repro.integrity.merkle import ROOT_FORMAT

#: Root format of a manifest written before the field existed (the binary
#: Merkle tree with promoted odd tails).
LEGACY_ROOT_FORMAT = 1

#: File-name grammar of the three store file kinds.
CURRENT_NAME = "CURRENT"
MANIFEST_RE = re.compile(r"^MANIFEST-(\d{6,})\.json$")
SEGMENT_FILE_RE = re.compile(r"^seg-\d{6,}\.seg$")
DICT_FILE_RE = re.compile(r"^dict-\d{6,}-\d{3,}\.blob$")

#: Committed generations kept for recovery fallback (current + one older).
KEEP_GENERATIONS = 2


def manifest_name(generation: int) -> str:
    return f"MANIFEST-{generation:06d}.json"


@dataclass
class SegmentFile:
    """One committed segment file: per-column code arrays, back to back."""

    name: str
    rows: int
    length: int  # committed byte count (a torn tail may extend beyond it)
    crc: int  # zlib.crc32 over the committed bytes
    #: Per column (schema order): byte offset of the code array and its
    #: fixed code width in bytes.  The array holds ``rows`` codes.
    columns: list[dict[str, int]] = field(default_factory=list)


@dataclass
class DictionaryBlob:
    """One column's append-only dictionary blob."""

    name: str
    values: int  # committed dictionary size
    length: int  # committed byte count
    crc: int  # running crc32 over the committed bytes (resumable on append)


@dataclass
class Manifest:
    """One committed generation of a segment table."""

    generation: int
    table_name: str
    attributes: list[str]
    num_rows: int
    files: list[SegmentFile] = field(default_factory=list)
    #: Logical row order: ``[file_index, start, count]`` slices into
    #: ``files``, concatenated.  A delta's copy opcodes re-slice this list;
    #: its literal rows arrive as one fresh segment file — so an insert
    #: never rewrites committed rows.
    view: list[list[int]] = field(default_factory=list)
    dictionaries: list[DictionaryBlob] = field(default_factory=list)
    #: Merkle root (hex) over the committed view's rows.  Empty when the
    #: committing writer did not track one (pre-integrity deltas);
    #: ``verify()`` then reports the root as unrecorded instead of failing.
    merkle_root: str = ""
    #: Which tree :attr:`merkle_root` is the root of (see ``ROOT_FORMAT``).
    merkle_root_format: int = ROOT_FORMAT

    def referenced_files(self) -> set[str]:
        names = {entry.name for entry in self.files}
        names.update(entry.name for entry in self.dictionaries)
        return names

    def to_doc(self) -> dict[str, Any]:
        return {
            "format": "f2-segment-store",
            "version": 1,
            "generation": self.generation,
            "table_name": self.table_name,
            "attributes": list(self.attributes),
            "num_rows": self.num_rows,
            "merkle_root": self.merkle_root,
            "merkle_root_format": self.merkle_root_format,
            "files": [
                {
                    "name": entry.name,
                    "rows": entry.rows,
                    "length": entry.length,
                    "crc": entry.crc,
                    "columns": [dict(column) for column in entry.columns],
                }
                for entry in self.files
            ],
            "view": [list(piece) for piece in self.view],
            "dictionaries": [
                {
                    "name": entry.name,
                    "values": entry.values,
                    "length": entry.length,
                    "crc": entry.crc,
                }
                for entry in self.dictionaries
            ],
        }

    @classmethod
    def from_doc(cls, doc: Any) -> "Manifest":
        try:
            if not isinstance(doc, dict) or doc.get("format") != "f2-segment-store":
                raise StoreError("not a segment-store manifest document")
            if int(doc.get("version", 0)) != 1:
                raise StoreError(f"unsupported manifest version {doc.get('version')!r}")
            attributes = [str(attr) for attr in doc["attributes"]]
            files = [
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
            ]
            view = [[int(a), int(b), int(c)] for a, b, c in doc["view"]]
            dictionaries = [
                DictionaryBlob(
                    name=str(entry["name"]),
                    values=int(entry["values"]),
                    length=int(entry["length"]),
                    crc=int(entry["crc"]),
                )
                for entry in doc["dictionaries"]
            ]
            manifest = cls(
                generation=int(doc["generation"]),
                table_name=str(doc.get("table_name", "")),
                attributes=attributes,
                num_rows=int(doc["num_rows"]),
                merkle_root=str(doc.get("merkle_root", "")),
                merkle_root_format=int(
                    doc.get("merkle_root_format", LEGACY_ROOT_FORMAT)
                ),
                files=files,
                view=view,
                dictionaries=dictionaries,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed manifest document: {exc}") from exc
        manifest._check_consistency()
        return manifest

    def _check_consistency(self) -> None:
        if len(self.dictionaries) != len(self.attributes):
            raise StoreError("manifest: one dictionary blob per attribute required")
        total = 0
        for piece in self.view:
            index, start, count = piece
            if not 0 <= index < len(self.files):
                raise StoreError(f"manifest: view references unknown file {index}")
            entry = self.files[index]
            if start < 0 or count < 0 or start + count > entry.rows:
                raise StoreError(
                    f"manifest: view slice {start}+{count} outside segment "
                    f"{entry.name} ({entry.rows} rows)"
                )
            total += count
        if total != self.num_rows:
            raise StoreError(
                f"manifest: view covers {total} rows, header says {self.num_rows}"
            )
        for entry in self.files:
            if len(entry.columns) != len(self.attributes):
                raise StoreError(
                    f"manifest: segment {entry.name} has {len(entry.columns)} "
                    f"columns, schema has {len(self.attributes)}"
                )


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_manifest(directory: Path, manifest: Manifest) -> Path:
    """Commit one generation: manifest file first, then the CURRENT pointer.

    Ordering is what makes the commit atomic: until the ``CURRENT`` rename
    lands, recovery still resolves the previous generation; after it, the
    new one (whose data files were already fsynced by the caller).
    """
    path = directory / manifest_name(manifest.generation)
    doc = json.dumps(manifest.to_doc(), indent=0, sort_keys=True).encode("utf-8")
    _atomic_write(path, doc)
    _atomic_write(directory / CURRENT_NAME, (path.name + "\n").encode("utf-8"))
    return path


def load_manifest(path: Path) -> Manifest:
    try:
        doc = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"unreadable manifest {path.name}: {exc}") from exc
    return Manifest.from_doc(doc)


def list_generations(directory: Path) -> list[tuple[int, Path]]:
    """All manifest files present, newest generation first."""
    found = []
    for path in directory.iterdir():
        match = MANIFEST_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort(reverse=True)
    return found


def next_generation(directory: Path) -> int:
    """One past the highest generation number present (usable or not).

    Scanning file names — not the recovered manifest — means a commit after
    a fallback never collides with the corrupt generation it skipped.
    """
    generations = list_generations(directory)
    return (generations[0][0] + 1) if generations else 1


def _usable(directory: Path, manifest: Manifest) -> "str | None":
    """Why a manifest is unusable (``None`` when it is usable).

    Length checks only — every referenced file must exist with at least the
    committed byte count.  Content checksums are deliberately *not* read
    here (that would make every restart O(data)); :meth:`verify` does.
    """
    for name, length in [(e.name, e.length) for e in manifest.files] + [
        (e.name, e.length) for e in manifest.dictionaries
    ]:
        path = directory / name
        try:
            size = path.stat().st_size
        except OSError:
            return f"missing data file {name}"
        if size < length:
            return f"data file {name} is {size} bytes, manifest committed {length}"
    return None


def _truncate_torn_tails(directory: Path, manifest: Manifest) -> None:
    """Cut referenced files back to their committed lengths.

    Bytes beyond the committed length are the normal residue of a crash
    mid-append (a blob append or segment write that never reached its
    manifest commit); dropping them re-aligns the files with the recovered
    generation so the next append resumes from a clean tail.
    """
    for name, length in [(e.name, e.length) for e in manifest.files] + [
        (e.name, e.length) for e in manifest.dictionaries
    ]:
        path = directory / name
        try:
            if path.stat().st_size > length:
                os.truncate(path, length)
        except OSError:  # pragma: no cover - truncation is best-effort
            pass


def recover_manifest(directory: Path) -> Manifest:
    """Resolve the newest usable committed generation of a table directory.

    Tries the ``CURRENT`` pointer first, then every other generation
    newest-first, warning (:class:`~repro.exceptions.StoreIntegrityWarning`)
    whenever it has to fall back.  Raises :class:`~repro.exceptions.StoreError` when no generation
    is usable.
    """
    candidates: list[Path] = []
    current_target: "Path | None" = None
    try:
        current_name = (directory / CURRENT_NAME).read_text("utf-8").strip()
        if MANIFEST_RE.match(current_name):
            current_target = directory / current_name
            candidates.append(current_target)
    except OSError:
        pass
    for _, path in list_generations(directory):
        if current_target is None or path.name != current_target.name:
            candidates.append(path)
    if not candidates:
        raise StoreError(f"no manifest generation in {directory}")
    failures: list[str] = []
    for path in candidates:
        try:
            manifest = load_manifest(path)
            reason = _usable(directory, manifest)
        except StoreError as exc:
            reason = str(exc)
        if reason is None:
            if failures:
                warnings.warn(
                    f"segment store {directory}: falling back to committed "
                    f"generation {manifest.generation} ({'; '.join(failures)})",
                    StoreIntegrityWarning,
                    stacklevel=2,
                )
            _truncate_torn_tails(directory, manifest)
            return manifest
        failures.append(f"{path.name}: {reason}")
    raise StoreError(
        f"no usable manifest generation in {directory} ({'; '.join(failures)})"
    )


def prune(directory: Path, keep: int = KEEP_GENERATIONS) -> None:
    """Garbage-collect superseded generations and unreferenced data files.

    Keeps the newest ``keep`` *loadable* manifests plus every data file any
    of them references; everything else matching the store's file grammar —
    older manifests, unparseable manifest files, and orphan segments or
    blobs from commits that never landed — is deleted.  Runs after a
    successful commit, so failure to delete is never worth failing a write
    over (deletion errors are swallowed; the next prune retries).
    """
    kept: list[Manifest] = []
    doomed: list[Path] = []
    for _, path in list_generations(directory):
        if len(kept) < keep:
            try:
                kept.append(load_manifest(path))
                continue
            except StoreError:
                pass
        doomed.append(path)
    referenced: set[str] = set()
    for manifest in kept:
        referenced.update(manifest.referenced_files())
    for path in directory.iterdir():
        name = path.name
        if (SEGMENT_FILE_RE.match(name) or DICT_FILE_RE.match(name)) and (
            name not in referenced
        ):
            doomed.append(path)
    for path in doomed:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - best-effort GC
            pass
