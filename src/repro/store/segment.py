"""The columnar segment engine: append-only on-disk coded columns.

A :class:`SegmentTableStore` keeps one table as the storage-side mirror of
the wire codec's columnar form — per-column dictionaries plus dense integer
code arrays — but split across *segment files* so a PR 5 ``InsertDelta``
becomes an O(delta) disk append instead of a full-view rewrite:

* a **segment file** (``seg-<g>.seg``) holds, after a 5-byte header, one
  packed little-endian code array per column at the smallest fixed width
  that held the column's dictionary when the segment was written.  Segment
  files are immutable once committed;
* a **dictionary blob** (``dict-<g>-<col>.blob``) holds a column's distinct
  cell values as a bare run of wire cells.  Blobs are append-only: a delta
  appends its genuinely new values at the tail and the manifest's committed
  value count moves forward;
* the **manifest** (:mod:`repro.store.manifest`) composes the logical row
  order as slices into segment files, so a delta's copy opcodes re-slice
  and only its literal rows are written (as one fresh segment).

Queries never rebuild the full relation: the store resolves token cells
against the column dictionary, then scans code arrays that memory-map
straight out of the segment files — a zero-copy ``np.frombuffer`` view on
the NumPy backend, a stdlib ``array`` copy on the pure-Python backend
(:meth:`ComputeBackend.from_code_bytes`).  One subtlety is pinned by test:
a segment written while the dictionary was small stores narrow codes, and a
*wanted* code larger than that width can exist after the dictionary grows —
such codes are filtered out per narrow array before the backend ``isin``
call, because casting them into the array's dtype would wrap around and
match the wrong rows.

Durability: every mutation is a new manifest generation committed by
:func:`~repro.store.manifest.write_manifest` (data files fsynced first);
recovery at open falls back across generations and truncates torn tails.
CRCs recorded at write time are checked only by the explicit
:meth:`verify` pass, keeping restart cost flat in the table size.
"""

from __future__ import annotations

import mmap
import os
import sys
import zlib
from array import array
from pathlib import Path
from typing import Any, Iterable

from repro.api.auth import ErrorCode
from repro.api.delta import OP_COPY, OP_LITERAL, ViewDelta
from repro.backend import ComputeBackend
from repro.exceptions import ProtocolError, StoreError, WireError
from repro.relational.table import Relation
from repro.store.base import STORE_SUFFIX, TableStore
from repro.store.manifest import (
    DictionaryBlob,
    Manifest,
    SegmentFile,
    list_generations,
    next_generation,
    prune,
    recover_manifest,
    write_manifest,
)
from repro.wire.binary import code_width
from repro.wire.codec import decode_cell_run, encode_cell_run

from repro.obs import metrics as _metrics

# Process-wide lazy-decode rates across every segment store; per-store
# counts live on the instances (``store_stats``).
_DICT_DECODES = _metrics.counter("store.dict_decodes")
_CODE_LOADS = _metrics.counter("store.code_loads")

#: Magic + version header of every segment file.
SEGMENT_MAGIC = b"F2SG"
SEGMENT_VERSION = 1
SEGMENT_HEADER = SEGMENT_MAGIC + bytes([SEGMENT_VERSION])

_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack_codes(codes: Iterable[int], width: int) -> bytes:
    """Codes as ``width``-byte little-endian unsigned integers."""
    if not isinstance(codes, list):
        tolist = getattr(codes, "tolist", None)
        codes = tolist() if tolist is not None else list(codes)
    packed = array(_TYPECODES[width], codes)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI/dev hosts
        packed.byteswap()
    return packed.tobytes()


def is_segment_store(directory: "Path | str") -> bool:
    """True when ``directory`` holds at least one manifest generation."""
    directory = Path(directory)
    return directory.is_dir() and bool(list_generations(directory))


class SegmentTableStore(TableStore):
    """One table as an on-disk segment store (see the module docstring)."""

    engine = "segment"

    def __init__(
        self,
        directory: "Path | str",
        backend: ComputeBackend,
        create: bool = False,
    ):
        super().__init__(backend)
        self._directory = Path(directory)
        self._manifest: "Manifest | None" = None
        self._closed = False
        # Lazy state, all dropped on any write:
        self._buffers: dict[str, memoryview] = {}
        self._mmaps: list[tuple[Any, Any]] = []  # (file handle, mmap)
        self._columns: dict[int, tuple[Any, "int | None"]] = {}  # codes, code bound
        self._relation: "Relation | None" = None
        # Persists across deltas (extended in place after each commit), so
        # coding a delta's literal rows is O(delta), not O(distinct values):
        self._dicts: dict[int, tuple[list[Any], dict[Any, int]]] = {}
        #: Observability: how often the lazy views were (re)built.
        self.dict_decodes = 0
        self.code_loads = 0
        if create:
            self._directory.mkdir(parents=True, exist_ok=True)
        has_generations = is_segment_store(self._directory)
        if has_generations:
            self._manifest = recover_manifest(self._directory)
        elif not create:
            raise StoreError(f"{self._directory} is not a segment store")

    # -- identity ------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def generation(self) -> int:
        return 0 if self._manifest is None else self._manifest.generation

    @property
    def commit_version(self) -> int:
        """The manifest generation *is* the committed version.

        Persisted and strictly increasing (``next_generation`` scans file
        names, so even a fallback never reuses a number) — which is what
        lets the owner's freshness chain distinguish an honest restart
        (generation resumes where it was) from a rollback (it regresses).
        """
        return self.generation

    @property
    def attributes(self) -> tuple[str, ...]:
        manifest = self._manifest
        return () if manifest is None else tuple(manifest.attributes)

    @property
    def num_rows(self) -> int:
        manifest = self._manifest
        return 0 if manifest is None else manifest.num_rows

    # -- data plane ----------------------------------------------------
    def relation(self) -> Relation:
        with self._mutex:
            manifest = self._require_manifest()
            if self._relation is None:
                columns: dict[str, list[Any]] = {}
                for index, attr in enumerate(manifest.attributes):
                    values, _ = self._dictionary(index)
                    codes, _ = self._codes(index)
                    columns[attr] = [values[int(code)] for code in codes]
                self._relation = Relation.from_columns(
                    columns, name=manifest.table_name or "relation"
                )
            return self._relation

    def replace(self, relation: Relation) -> None:
        """Rewrite the table as one fresh segment + dictionaries + manifest."""
        with self._mutex:
            self._check_open()
            coded = relation.coded(self._backend)
            columns = [coded.column(attr) for attr in relation.attributes]
            generation = next_generation(self._directory)
            dictionaries = []
            new_dicts: dict[int, tuple[list[Any], dict[Any, int]]] = {}
            for index, column in enumerate(columns):
                name = f"dict-{generation:06d}-{index:03d}.blob"
                data = encode_cell_run(column.dictionary)
                self._write_file(name, data)
                dictionaries.append(
                    DictionaryBlob(
                        name=name,
                        values=column.num_values,
                        length=len(data),
                        crc=zlib.crc32(data),
                    )
                )
                values = list(column.dictionary)
                new_dicts[index] = (values, {v: c for c, v in enumerate(values)})
            segment = self._write_segment(
                generation, [(col.codes, col.num_values) for col in columns],
                relation.num_rows,
            )
            # A replace ships the full relation, so the O(n) tree build here
            # rides on an already-O(n) write; deltas stay incremental.
            from repro.integrity.merkle import MerkleTree, relation_leaves

            tree = MerkleTree(relation_leaves(relation))
            manifest = Manifest(
                generation=generation,
                table_name=relation.name,
                attributes=list(relation.attributes),
                num_rows=relation.num_rows,
                merkle_root=tree.root,
                files=[segment],
                view=[[0, 0, relation.num_rows]] if relation.num_rows else [],
                dictionaries=dictionaries,
            )
            write_manifest(self._directory, manifest)
            self._manifest = manifest
            self._invalidate_data()
            self._dicts = new_dicts
            self._relation = relation
            self._merkle = tree
            prune(self._directory)
            self._wrote()

    def apply_delta(self, delta: ViewDelta) -> int:
        """Splice a view delta in: O(delta) appends + one manifest commit.

        Copy opcodes re-slice the committed view (no row bytes move);
        literal rows become one new segment file and their genuinely new
        dictionary values are appended to the blobs — so nothing here is
        proportional to the table size.  The base check is the row count;
        the server's commit-version CAS (the generation) ran before.
        """
        with self._mutex:
            self._check_open()
            manifest = self._require_manifest()
            if manifest.num_rows != delta.base_rows:
                raise ProtocolError(
                    f"delta base mismatch: the stored view ({manifest.num_rows} "
                    "rows) is not the one the delta was computed against "
                    f"({delta.base_rows} rows expected); re-send a full view",
                    code=ErrorCode.DELTA_MISMATCH.value,
                )
            literals = delta.literals
            if literals is not None and list(literals.attributes) != manifest.attributes:
                raise ProtocolError(
                    "delta literal rows do not match the stored schema",
                    code=ErrorCode.BAD_REQUEST.value,
                )
            pieces = self._translate_segments(manifest, delta)
            generation = next_generation(self._directory)
            new_segment, dictionaries, dict_additions = self._write_literals(
                generation, manifest, literals
            )
            files: list[SegmentFile] = []
            file_index: dict[int, int] = {}  # old index (or -1 for new) -> new
            view: list[list[int]] = []
            for source, start, count in pieces:
                if source == -1:
                    entry = new_segment
                else:
                    entry = manifest.files[source]
                index = file_index.get(source)
                if index is None:
                    index = file_index[source] = len(files)
                    files.append(entry)
                if view and view[-1][0] == index and view[-1][1] + view[-1][2] == start:
                    view[-1][2] += count
                else:
                    view.append([index, start, count])
            num_rows = sum(count for _, _, count in pieces)
            # New root, by cost: incrementally from the cached tree when one
            # exists; else recorded from the owner's `new_root`; else left
            # empty and rebuilt lazily on the first root request.
            candidate = self._merkle_candidate(delta, manifest.num_rows)
            root = candidate.root if candidate is not None else delta.new_root
            new_manifest = Manifest(
                generation=generation,
                table_name=delta.table_name or manifest.table_name,
                attributes=list(manifest.attributes),
                num_rows=num_rows,
                merkle_root=root,
                files=files,
                view=view,
                dictionaries=dictionaries,
            )
            write_manifest(self._directory, new_manifest)
            self._manifest = new_manifest
            self._invalidate_data()
            for index, (values, code_of) in dict_additions.items():
                cached = self._dicts.get(index)
                if cached is not None:
                    cached[0].extend(values)
                    cached[1].update(code_of)
            self._merkle = candidate
            prune(self._directory)
            self._wrote()
            return num_rows

    def merkle_root(self) -> str:
        """Committed root: cached tree, else the manifest's recorded root.

        Falls back to the base class's lazy full rebuild only when neither
        exists (a store whose last writes predate root tracking).
        """
        with self._mutex:
            if self._merkle is not None:
                return self._merkle.root
            manifest = self._manifest
            if manifest is not None and manifest.merkle_root:
                return manifest.merkle_root
            return super().merkle_root()

    def recorded_merkle_root(self) -> str:
        """The manifest's recorded root (may be empty), without rebuilding."""
        with self._mutex:
            return "" if self._manifest is None else self._manifest.merkle_root

    # -- query plane ---------------------------------------------------
    def _rows_matching_uncached(self, attribute: str, token: Iterable[Any]) -> list[int]:
        index = self._attribute_index(attribute)
        wanted, codes = self._wanted(index, token)
        if not wanted:
            return []
        return self._backend.membership_rows(codes, wanted)

    def _match_mask_uncached(self, attribute: str, token: Iterable[Any]) -> Any:
        index = self._attribute_index(attribute)
        wanted, codes = self._wanted(index, token)
        return self._backend.membership_mask(codes, wanted)

    def _attribute_index(self, attribute: str) -> int:
        manifest = self._require_manifest()
        try:
            return manifest.attributes.index(attribute)
        except ValueError:
            raise StoreError(
                f"table {manifest.table_name!r} has no attribute {attribute!r}"
            ) from None

    def _wanted(self, index: int, token: Iterable[Any]) -> tuple[list[int], Any]:
        _, code_of = self._dictionary(index)
        wanted = sorted({code_of[value] for value in token if value in code_of})
        codes, bound = self._codes(index)
        if bound is not None and wanted and wanted[-1] >= bound:
            # A single narrow array cannot hold codes >= 2**(8*width); a
            # wider wanted code would wrap under the dtype cast in the
            # backend's isin — and physically cannot occur in this array.
            wanted = [code for code in wanted if code < bound]
        return wanted, codes

    # -- lazy on-disk views --------------------------------------------
    def _dictionary(self, index: int) -> tuple[list[Any], dict[Any, int]]:
        cached = self._dicts.get(index)
        if cached is None:
            manifest = self._require_manifest()
            entry = manifest.dictionaries[index]
            data = bytes(self._buffer(entry.name)[: entry.length])
            try:
                values = decode_cell_run(data, entry.values)
            except WireError as exc:
                raise StoreError(
                    f"corrupt dictionary blob {entry.name}: {exc}"
                ) from exc
            cached = self._dicts[index] = (
                values,
                {value: code for code, value in enumerate(values)},
            )
            self.dict_decodes += 1
            _DICT_DECODES.inc()
        return cached

    def _codes(self, index: int) -> tuple[Any, "int | None"]:
        """The column's logical code array and its representable-code bound.

        A single-slice view stays a zero-copy window over one mmap'd
        segment (bound = ``2**(8*width)``); a multi-slice view is widened
        and concatenated once (bound ``None`` — exact int64 comparisons
        need no filtering) and cached until the next write.
        """
        cached = self._columns.get(index)
        if cached is None:
            manifest = self._require_manifest()
            parts = []
            for file_index, start, count in manifest.view:
                entry = manifest.files[file_index]
                column = entry.columns[index]
                width = column["width"]
                offset = column["offset"] + start * width
                buffer = self._buffer(entry.name)
                parts.append(
                    (
                        self._backend.from_code_bytes(
                            buffer[offset : offset + count * width], width, count
                        ),
                        width,
                    )
                )
            if not parts:
                cached = (self._backend.as_code_array([]), None)
            elif len(parts) == 1:
                cached = (parts[0][0], 1 << (8 * parts[0][1]))
            else:
                cached = (
                    self._backend.concat_code_arrays([part for part, _ in parts]),
                    None,
                )
            self._columns[index] = cached
            self.code_loads += 1
            _CODE_LOADS.inc()
        return cached

    def _buffer(self, name: str) -> memoryview:
        buffer = self._buffers.get(name)
        if buffer is None:
            path = self._directory / name
            if path.stat().st_size == 0:
                buffer = memoryview(b"")
            else:
                handle = open(path, "rb")
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                self._mmaps.append((handle, mapped))
                buffer = memoryview(mapped)
            self._buffers[name] = buffer
        return buffer

    # -- write helpers -------------------------------------------------
    def _write_file(self, name: str, data: bytes) -> None:
        path = self._directory / name
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _append_file(self, name: str, committed: int, data: bytes) -> None:
        path = self._directory / name
        # Defensive: a tail beyond the committed length (torn by a crash
        # whose recovery has not run here) must not end up *inside* the
        # newly committed range.
        if path.stat().st_size != committed:
            os.truncate(path, committed)
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _write_segment(
        self,
        generation: int,
        columns: list[tuple[Any, int]],
        rows: int,
    ) -> SegmentFile:
        """Write ``seg-<generation>.seg`` from per-column (codes, num_values)."""
        name = f"seg-{generation:06d}.seg"
        chunks = [SEGMENT_HEADER]
        offset = len(SEGMENT_HEADER)
        column_meta: list[dict[str, int]] = []
        for codes, num_values in columns:
            width = code_width(num_values)
            packed = _pack_codes(codes, width)
            column_meta.append({"offset": offset, "width": width})
            chunks.append(packed)
            offset += len(packed)
        data = b"".join(chunks)
        self._write_file(name, data)
        return SegmentFile(
            name=name, rows=rows, length=len(data), crc=zlib.crc32(data),
            columns=column_meta,
        )

    def _write_literals(
        self,
        generation: int,
        manifest: Manifest,
        literals: "Relation | None",
    ) -> tuple[
        "SegmentFile | None",
        list[DictionaryBlob],
        dict[int, tuple[list[Any], dict[Any, int]]],
    ]:
        """Append a delta's literal rows: new blob values + one new segment.

        Returns the new segment entry (``None`` when the delta carries no
        literals), the updated dictionary entries, and the per-column new
        values to merge into the in-memory dictionary caches *after* the
        manifest commits (never before — a failed commit must not poison
        them).
        """
        dictionaries = list(manifest.dictionaries)
        additions: dict[int, tuple[list[Any], dict[Any, int]]] = {}
        if literals is None or not literals.num_rows:
            return None, dictionaries, additions
        column_codes: list[tuple[list[int], int]] = []
        for index, attr in enumerate(manifest.attributes):
            values, code_of = self._dictionary(index)
            new_values: list[Any] = []
            new_code_of: dict[Any, int] = {}
            codes: list[int] = []
            base = len(values)
            for value in literals.column(attr):
                code = code_of.get(value)
                if code is None:
                    code = new_code_of.get(value)
                if code is None:
                    code = base + len(new_values)
                    new_code_of[value] = code
                    new_values.append(value)
                codes.append(code)
            num_values = base + len(new_values)
            column_codes.append((codes, num_values))
            if new_values:
                entry = dictionaries[index]
                data = encode_cell_run(new_values)
                self._append_file(entry.name, entry.length, data)
                dictionaries[index] = DictionaryBlob(
                    name=entry.name,
                    values=num_values,
                    length=entry.length + len(data),
                    crc=zlib.crc32(data, entry.crc),
                )
                additions[index] = (new_values, new_code_of)
        segment = self._write_segment(generation, column_codes, literals.num_rows)
        return segment, dictionaries, additions

    @staticmethod
    def _translate_segments(
        manifest: Manifest, delta: ViewDelta
    ) -> list[tuple[int, int, int]]:
        """Delta opcodes -> physical slices ``(file index | -1, start, count)``.

        ``-1`` stands for the literal segment this delta will create (its
        starts index into the literal rows).  Validation mirrors
        :func:`repro.api.delta.apply_view_delta` — every check hostile-safe,
        same error codes.
        """
        pieces: list[tuple[int, int, int]] = []
        literal_cursor = 0
        available = 0 if delta.literals is None else delta.literals.num_rows
        for segment in delta.segments:
            if not isinstance(segment, (list, tuple)) or not segment:
                raise ProtocolError(
                    "malformed delta segment", code=ErrorCode.BAD_REQUEST.value
                )
            op = segment[0]
            if op == OP_COPY:
                if len(segment) != 3:
                    raise ProtocolError(
                        "malformed copy segment", code=ErrorCode.BAD_REQUEST.value
                    )
                start, count = int(segment[1]), int(segment[2])
                if count < 0 or start < 0 or start + count > manifest.num_rows:
                    raise ProtocolError(
                        f"copy segment {start}+{count} is outside the base view "
                        f"(0..{manifest.num_rows})",
                        code=ErrorCode.BAD_REQUEST.value,
                    )
                end = start + count
                position = 0
                for file_index, piece_start, piece_count in manifest.view:
                    low = max(start, position)
                    high = min(end, position + piece_count)
                    if low < high:
                        pieces.append(
                            (file_index, piece_start + (low - position), high - low)
                        )
                    position += piece_count
                    if position >= end:
                        break
            elif op == OP_LITERAL:
                if len(segment) != 2:
                    raise ProtocolError(
                        "malformed literal segment", code=ErrorCode.BAD_REQUEST.value
                    )
                count = int(segment[1])
                if count < 0 or literal_cursor + count > available:
                    raise ProtocolError(
                        "literal segment overruns the shipped literal rows",
                        code=ErrorCode.BAD_REQUEST.value,
                    )
                if count:
                    pieces.append((-1, literal_cursor, count))
                literal_cursor += count
            else:
                raise ProtocolError(
                    f"unknown delta opcode {op!r}", code=ErrorCode.BAD_REQUEST.value
                )
        if literal_cursor != available:
            raise ProtocolError(
                "delta shipped more literal rows than its segments consume",
                code=ErrorCode.BAD_REQUEST.value,
            )
        return pieces

    # -- observability -------------------------------------------------
    def store_stats(self) -> dict[str, Any]:
        stats = super().store_stats()
        with self._mutex:
            manifest = self._manifest
            stats["generation"] = self.generation
            stats["segments"] = 0 if manifest is None else len(manifest.files)
            stats["mapped_bytes"] = sum(
                len(buffer) for buffer in self._buffers.values()
            )
            stats["dict_decodes"] = self.dict_decodes
            stats["code_loads"] = self.code_loads
        return stats

    # -- maintenance ---------------------------------------------------
    def verify(self) -> bool:
        """Full-content integrity check of the committed generation.

        Reads every referenced byte: segment headers, recorded CRCs, and
        dictionary blob decodability.  This is the deliberate O(data)
        counterpart to the O(1) length checks at open — ``store migrate``
        runs it after converting, and tests use it to prove round-trips.
        """
        with self._mutex:
            manifest = self._require_manifest()
            for entry in manifest.files:
                data = self._read_committed(entry.name, entry.length)
                if not data.startswith(SEGMENT_HEADER):
                    raise StoreError(f"segment {entry.name} has a bad header")
                if zlib.crc32(data) != entry.crc:
                    raise StoreError(f"segment {entry.name} fails its checksum")
            for index, entry in enumerate(manifest.dictionaries):
                data = self._read_committed(entry.name, entry.length)
                if zlib.crc32(data) != entry.crc:
                    raise StoreError(
                        f"dictionary blob {entry.name} fails its checksum"
                    )
                try:
                    decode_cell_run(data, entry.values)
                except WireError as exc:
                    raise StoreError(
                        f"dictionary blob {entry.name} does not decode: {exc}"
                    ) from exc
            return True

    def _read_committed(self, name: str, length: int) -> bytes:
        try:
            with open(self._directory / name, "rb") as handle:
                data = handle.read(length)
        except OSError as exc:
            raise StoreError(f"cannot read {name}: {exc}") from exc
        if len(data) < length:
            raise StoreError(
                f"data file {name} is shorter than its committed {length} bytes"
            )
        return data

    def save(self) -> Path:
        """The engine's ``SaveSnapshot`` answer: segments are always durable."""
        return self._directory

    def reload(self) -> int:
        """Re-open from disk (the engine's ``LoadSnapshot``); returns rows."""
        with self._mutex:
            self._check_open()
            self._manifest = recover_manifest(self._directory)
            self._invalidate_data()
            self._dicts = {}
            self._relation = None
            self._merkle = None
            self._wrote()
            return self._manifest.num_rows

    def close(self) -> None:
        with self._mutex:
            if not self._closed:
                self._invalidate_data()
                self._dicts = {}
                self._closed = True

    # -- internals -----------------------------------------------------
    def _require_manifest(self) -> Manifest:
        self._check_open()
        if self._manifest is None:
            raise StoreError(
                f"segment store {self._directory} holds no committed table yet"
            )
        return self._manifest

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"segment store {self._directory} is closed")

    def _invalidate_data(self) -> None:
        """Drop all lazy views (columns, relation, mmaps) after a mutation.

        Dictionary caches are managed by the callers (extended in place on
        delta, replaced on full rewrite) to keep inserts O(delta).
        """
        self._columns = {}
        self._relation = None
        self._buffers = {}
        mmaps, self._mmaps = self._mmaps, []
        for handle, mapped in mmaps:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - an exported view is live
                pass  # the map is reclaimed when its last consumer drops
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass
