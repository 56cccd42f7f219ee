"""The columnar segment engine: append-only on-disk coded columns.

A :class:`SegmentTableStore` keeps one table as the storage-side mirror of
the wire codec's columnar form — per-column dictionaries plus dense integer
code arrays — split across *segment files* and the *table log* so an
``InsertDelta`` becomes one O(delta) log append instead of a full-view
rewrite:

* a **segment file** (``seg-<v>.seg``) holds, after a 5-byte header, one
  packed little-endian code array per column at the smallest fixed width
  that held the column's dictionary when the segment was written.  Segment
  files are written whole at a checkpoint and never modified;
* a **dictionary blob** (``dict-<v>-<col>.blob``) holds a column's distinct
  cell values as of the last checkpoint, as a bare run of wire cells;
* the **table log** (:mod:`repro.store.manifest`) starts with a snapshot
  record that composes the logical row order as slices into segment files;
  each commit since appends one delta record whose copy opcodes re-slice
  that order and whose literal rows (packed in the segment column layout)
  and new dictionary values live inside the record itself.

A long delta history leaves the view cut into ever more slices and the log
holding ever more records, and every commit, query load and restart pays
for them.  So a delta whose view would hold more than
:data:`FOLD_VIEW_SLICES` slices, or whose log would hold more than
:data:`FOLD_LOG_RECORDS` records, *folds*: the same commit writes the whole
spliced view as one fresh segment, each column's dictionary as one fresh
blob (code arrays copied at the current dictionary widths; rows and Merkle
root unchanged) and starts a new log — the log-structured merge of O'Neil
et al. (1996) in one level.  A full replace is the same checkpoint.

Queries never rebuild the full relation: the store resolves token cells
against the column dictionary, then scans code arrays that memory-map
straight out of the segment files and the log — a zero-copy
``np.frombuffer`` view on the NumPy backend, a stdlib ``array`` copy on the
pure-Python backend (:meth:`ComputeBackend.from_code_bytes`).  One
subtlety is pinned by test: a segment written while the dictionary was
small stores narrow codes, and a *wanted* code larger than that width can
exist after the dictionary grows — such codes are filtered out per narrow
array before the backend ``isin`` call, because casting them into the
array's dtype would wrap around and match the wrong rows.

Durability: a delta commit is one log append and one ``fsync``, and the
store acknowledges only after it; a checkpoint fsyncs its files and the
directory before and after flipping ``CURRENT``.  Opening replays the log
(checking every record's CRC) and leaves a torn tail out.
Segment and blob CRCs are checked only by the explicit :meth:`verify` pass,
keeping restart cost flat in the table size.
"""

from __future__ import annotations

import mmap
import warnings
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.api.auth import ErrorCode
from repro.api.delta import ViewDelta
from repro.backend import ComputeBackend
from repro.exceptions import (
    ProtocolError,
    StoreError,
    StoreIntegrityWarning,
    WireError,
)
from repro.relational.table import Relation
from repro.store.base import STORE_SUFFIX, TableStore
from repro.store.manifest import (
    CURRENT_NAME,
    DictionaryBlob,
    Manifest,
    SegmentFile,
    append_record,
    blob_name,
    close_fd,
    create_directory,
    decode_delta,
    encode_delta,
    frame,
    fsync_dir,
    open_log,
    recover_log,
    remove_unreferenced,
    scan_log,
    segment_name,
    switch_current,
    translate_segments,
    write_file,
    write_log,
)
from repro.wire.binary import code_width, pack_codes
from repro.wire.codec import column_codes, column_run, decode_cell_run, encode_cell_run

from repro.obs import metrics as _metrics

# Process-wide rates across every segment store; per-store counts live on
# the instances (``store_stats``).
_DICT_DECODES = _metrics.counter("store.dict_decodes")
_CODE_LOADS = _metrics.counter("store.code_loads")
_LOG_RECORDS = _metrics.counter("store.log_records")
_LOG_BYTES = _metrics.counter("store.log_bytes")
_CHECKPOINTS = _metrics.counter("store.checkpoints")
_RECORDS_REPLAYED = _metrics.counter("store.records_replayed")
_TORN_TAILS = _metrics.counter("store.torn_tails_truncated")
#: View slices after each delta commit (what the fold bounds).
_VIEW_SLICES = _metrics.histogram("store.view_slices", buckets=(1, 4, 16, 64, 256, 1024))

#: Magic + version header of every segment file.
SEGMENT_MAGIC = b"F2SG"
SEGMENT_VERSION = 1
SEGMENT_HEADER = SEGMENT_MAGIC + bytes([SEGMENT_VERSION])

#: A delta whose view would hold more slices than this, or whose log would
#: hold more delta records than :data:`FOLD_LOG_RECORDS`, folds the spliced
#: view into one fresh segment and starts a new log in the same commit.
#: Chosen on ``benchmarks/bench_store.py``'s long history (240 deltas over
#: a 2k-row table, each adding ~4 slices) on a 2-vCPU host: folding past
#: 128/32, 256/32, 256/64 or 512/64 slices/records gave the same amortized
#: commit (0.72–0.96 ms per delta, run-to-run noise; a single-segment copy
#: takes 0.46–0.70 ms), 512/128 and 1024/256 cost 0.91 and 1.20 ms and
#: their restart + first query reached 18 and 77 ms.  A fold costs
#: 3.3–5.2 ms at that size.
FOLD_VIEW_SLICES = 256
FOLD_LOG_RECORDS = 64


def is_segment_store(directory: "Path | str") -> bool:
    """True when ``directory`` holds a committed table: a ``CURRENT`` file
    (the first checkpoint's commit point; logs without one are a first
    checkpoint that never landed)."""
    return (Path(directory) / CURRENT_NAME).is_file()


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
        self._log_fd: "int | None" = None
        # Lazy state: columns and the relation are dropped on any write, the
        # log's mapping on an append, every mapping on a checkpoint.
        self._buffers: dict[str, memoryview] = {}
        self._mmaps: dict[str, tuple[Any, Any]] = {}  # name -> (file handle, mmap)
        self._columns: dict[int, tuple[Any, "int | None"]] = {}  # codes, code bound
        self._relation: "Relation | None" = None
        # Persists across deltas (extended in place after each commit), so
        # coding a delta's literal rows is O(delta), not O(distinct values):
        self._dicts: dict[int, tuple[list[Any], dict[Any, int]]] = {}
        #: Observability: how often the lazy views were (re)built, and what
        #: the log did.
        self.dict_decodes = 0
        self.code_loads = 0
        self.checkpoints = 0
        self.records_replayed = 0
        self.torn_tails_truncated = 0
        if create:
            create_directory(self._directory)
        if is_segment_store(self._directory):
            self._recover()
        elif not create:
            raise StoreError(f"{self._directory} is not a segment store")

    def _recover(self) -> None:
        manifest, torn = recover_log(self._directory)
        self._manifest = manifest
        self.records_replayed = manifest.records
        _RECORDS_REPLAYED.inc(manifest.records)
        if torn:
            # The next append cuts these bytes off; opening writes nothing.
            self.torn_tails_truncated += 1
            _TORN_TAILS.inc()
            warnings.warn(
                f"segment store {self._directory}: dropped a torn {torn}-byte tail "
                f"of {manifest.log_name}; serving committed version {manifest.version}",
                StoreIntegrityWarning,
                stacklevel=3,
            )

    # -- identity ------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def commit_version(self) -> int:
        """The committed version: the last record's (or snapshot's) version.

        Persisted and strictly increasing across acknowledged commits —
        which is what lets the owner's freshness chain distinguish an
        honest restart (the version resumes where it was) from a rollback
        (it regresses).  Only an unacknowledged commit's number (a torn
        record) is ever reused.
        """
        return 0 if self._manifest is None else self._manifest.version

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
        """Rewrite the table as one fresh segment + dictionaries, checkpointed.

        Everything comes from the relation's coded view, never from its
        cells: each dictionary blob is the column's serialized cell run and
        each segment column its packed codes — for a relation decoded off
        the wire, the bytes as received, with no factorisation and no
        re-serialisation — and the Merkle leaves hash each distinct value
        once (:func:`~repro.integrity.merkle.relation_leaves`).
        """
        with self._mutex:
            self._check_open()
            coded = relation.coded(self._backend)
            columns = [coded.column(attr) for attr in relation.attributes]
            version = self.commit_version + 1
            dictionaries = self._write_blobs(
                version, [(column_run(column), column.num_values) for column in columns]
            )
            # Copies: a delta extends the store's dictionaries in place.
            new_dicts = {
                index: (list(column.dictionary), dict(column.code_of()))
                for index, column in enumerate(columns)
            }
            segment = self._write_segment(
                version,
                [(column_codes(column), code_width(column.num_values)) for column in columns],
                relation.num_rows,
            )
            # A replace ships the full relation, so the O(n) tree build here
            # rides on an already-O(n) write; deltas stay incremental.
            from repro.integrity.merkle import MerkleTree, relation_leaves

            tree = MerkleTree(relation_leaves(relation))
            manifest = Manifest(
                version=version,
                table_name=relation.name,
                attributes=list(relation.attributes),
                num_rows=relation.num_rows,
                merkle_root=tree.root,
                files=[segment],
                view=[(0, 0, relation.num_rows)] if relation.num_rows else [],
                dictionaries=dictionaries,
            )

            def adopt() -> None:
                self._dicts = new_dicts
                self._relation = relation
                self._merkle = tree

            self._checkpoint(manifest, adopt)

    def apply_delta(self, delta: ViewDelta) -> int:
        """Splice a view delta in: one log record, one fsync.

        Copy opcodes re-slice the committed view (no row bytes move); the
        literal rows' codes and their genuinely new dictionary values ride
        in the record itself — so nothing here is proportional to the table
        size, except a fold: when the new view would hold more than
        :data:`FOLD_VIEW_SLICES` slices or the log more than
        :data:`FOLD_LOG_RECORDS` records, the same commit checkpoints the
        whole spliced view instead.  The base check is the row count; the
        server's commit-version CAS ran before.
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
            literal_rows = 0 if literals is None else literals.num_rows
            pieces = translate_segments(manifest, delta.segments, literal_rows)
            literal_codes, additions = self._code_literals(manifest, literals)
            new_values = [
                (encode_cell_run(additions[index][0]), len(additions[index][0]))
                if index in additions
                else (b"", 0)
                for index in range(len(manifest.attributes))
            ]
            widths = [
                code_width(manifest.num_values(index) + count)
                for index, (_, count) in enumerate(new_values)
            ]
            # New root, by cost: incrementally from the cached tree when one
            # exists; else recorded from the owner's `new_root`; else left
            # empty and rebuilt lazily on the first root request.  A fold
            # keeps the rows, so it keeps the root.
            candidate = self._merkle_candidate(delta)
            root = candidate.root if candidate is not None else delta.new_root
            payload = encode_delta(
                version=manifest.version + 1,
                num_rows=sum(count for _, _, count in pieces),
                table_name=delta.table_name or manifest.table_name,
                merkle_root=root,
                segments=delta.segments,
                literal_rows=literal_rows,
                code_columns=[
                    (pack_codes(codes, width), width)
                    for codes, width in zip(literal_codes, widths)
                ],
                new_values=new_values,
            )
            advanced = manifest.apply_record(
                decode_delta(payload, len(manifest.attributes)), pieces
            )
            _VIEW_SLICES.observe(len(advanced.view))

            def adopt() -> None:
                for index, (values, code_of) in additions.items():
                    cached = self._dicts.get(index)
                    if cached is not None:
                        cached[0].extend(values)
                        cached[1].update(code_of)
                self._merkle = candidate

            if (
                len(advanced.view) > FOLD_VIEW_SLICES
                or advanced.records > FOLD_LOG_RECORDS
            ):
                self._fold(
                    manifest, advanced, pieces, literal_codes, new_values, widths, adopt, delta
                )
            else:
                data = frame(payload)
                if self._log_fd is None:
                    self._log_fd = open_log(self._directory / manifest.log_name)
                append_record(self._log_fd, manifest.log_length, data)
                self._manifest = advanced
                # The log's mapping predates this record; segments and blobs
                # are immutable, so their mappings stay.
                self._release_buffers([advanced.log_name])
                adopt()
                self._wrote(delta)
                _LOG_RECORDS.inc()
                _LOG_BYTES.inc(len(data))
            return advanced.num_rows

    def recorded_merkle_root(self) -> str:
        """The committed state's recorded root (may be empty), without rebuilding."""
        with self._mutex:
            return "" if self._manifest is None else self._manifest.merkle_root

    # -- query plane ---------------------------------------------------
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
    def _dictionary_bytes(self, manifest: Manifest, index: int) -> bytes:
        """One column's committed values as one cell run: blob, then log runs."""
        entry = manifest.dictionaries[index]
        parts = [self._buffer(entry.name)[: entry.length]]
        runs = manifest.extents[index]
        if runs:
            log = self._buffer(manifest.log_name)
            parts += [log[offset : offset + length] for offset, length, _ in runs]
        return b"".join(parts)

    def _dictionary(self, index: int) -> tuple[list[Any], dict[Any, int]]:
        cached = self._dicts.get(index)
        if cached is None:
            manifest = self._require_manifest()
            data = self._dictionary_bytes(manifest, index)
            try:
                values = decode_cell_run(data, manifest.num_values(index))
            except WireError as exc:
                raise StoreError(
                    f"corrupt dictionary blob {manifest.dictionaries[index].name}: {exc}"
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
                self._mmaps[name] = (handle, mapped)
                buffer = memoryview(mapped)
            self._buffers[name] = buffer
        return buffer

    # -- write helpers -------------------------------------------------
    def _write_segment(
        self,
        version: int,
        columns: list[tuple[bytes, int]],
        rows: int,
    ) -> SegmentFile:
        """Write ``seg-<version>.seg`` from per-column (packed codes, width)."""
        name = segment_name(version)
        chunks = [SEGMENT_HEADER]
        offset = len(SEGMENT_HEADER)
        column_meta: list[dict[str, int]] = []
        for packed, width in columns:
            column_meta.append({"offset": offset, "width": width})
            chunks.append(packed)
            offset += len(packed)
        data = b"".join(chunks)
        write_file(self._directory / name, data)
        return SegmentFile(
            name=name, rows=rows, length=len(data), crc=zlib.crc32(data),
            columns=column_meta,
        )

    def _write_blobs(
        self, version: int, runs: list[tuple[bytes, int]]
    ) -> list[DictionaryBlob]:
        """Write ``dict-<version>-<col>.blob`` per column from (cell run, value count)."""
        blobs = []
        for index, (data, values) in enumerate(runs):
            name = blob_name(version, index)
            write_file(self._directory / name, data)
            blobs.append(
                DictionaryBlob(name=name, values=values, length=len(data), crc=zlib.crc32(data))
            )
        return blobs

    def _checkpoint(
        self,
        manifest: Manifest,
        adopt: Callable[[], None] = lambda: None,
        delta: "ViewDelta | None" = None,
    ) -> None:
        """Commit ``manifest`` — its data files written and fsynced — as a new log.

        Once the ``CURRENT`` rename lands the disk names the new log, so the
        store adopts the state (``adopt`` updates the caller's caches) before
        the final directory fsync: a failure after the rename still leaves
        memory and disk in step.  A fold passes the ``delta`` it applied:
        it keeps the rows, so it keeps the cached masks.
        """
        committed = write_log(self._directory, manifest)
        switch_current(self._directory, committed.log_name)
        self._close_log()
        self._manifest = committed
        self._release_buffers()
        adopt()
        self._wrote(delta)
        self.checkpoints += 1
        _CHECKPOINTS.inc()
        fsync_dir(self._directory)
        remove_unreferenced(self._directory, committed)

    def _fold(
        self,
        manifest: Manifest,
        advanced: Manifest,
        pieces: list[tuple[int, int, int]],
        literal_codes: list[list[int]],
        new_values: list[tuple[bytes, int]],
        widths: list[int],
        adopt: Callable[[], None],
        delta: ViewDelta,
    ) -> None:
        """Checkpoint ``advanced`` as one fresh segment, fresh blobs and a new log."""
        version = advanced.version
        folded = self._fold_columns(manifest, pieces, literal_codes, widths)
        segment = self._write_segment(version, folded, advanced.num_rows)
        dictionaries = self._write_blobs(
            version,
            [
                (self._dictionary_bytes(manifest, index) + data, manifest.num_values(index) + count)
                for index, (data, count) in enumerate(new_values)
            ],
        )
        self._checkpoint(
            Manifest(
                version=version,
                table_name=advanced.table_name,
                attributes=advanced.attributes,
                num_rows=advanced.num_rows,
                files=[segment],
                view=[(0, 0, advanced.num_rows)] if advanced.num_rows else [],
                dictionaries=dictionaries,
                merkle_root=advanced.merkle_root,
            ),
            adopt,
            delta,
        )

    def _fold_columns(
        self,
        manifest: Manifest,
        pieces: list[tuple[int, int, int]],
        literal_codes: list[list[int]],
        widths: list[int],
    ) -> list[tuple[bytes, int]]:
        """The spliced view as one packed code array per column.

        Copies the committed code bytes slice by slice, widening a slice
        only when its column's dictionary outgrew the width it was written
        at.  Cells are never re-encoded: codes index the same dictionary
        values before and after the fold.
        """
        columns: list[tuple[bytes, int]] = []
        for index, width in enumerate(widths):
            chunks: list[Any] = []
            for source, start, count in pieces:
                if source == -1:
                    chunks.append(
                        pack_codes(literal_codes[index][start : start + count], width)
                    )
                    continue
                entry = manifest.files[source]
                column = entry.columns[index]
                old_width = column["width"]
                offset = column["offset"] + start * old_width
                data = self._buffer(entry.name)[offset : offset + count * old_width]
                if old_width == width:
                    chunks.append(data)
                else:
                    codes = self._backend.from_code_bytes(data, old_width, count)
                    chunks.append(pack_codes(codes, width))
            columns.append((b"".join(chunks), width))
        return columns

    def _code_literals(
        self,
        manifest: Manifest,
        literals: "Relation | None",
    ) -> tuple[list[list[int]], dict[int, tuple[list[Any], dict[Any, int]]]]:
        """Code a delta's literal rows against the committed dictionaries.

        Works from the literals' coded view (the one the wire decoder
        handed over): each distinct literal value is looked up once.
        Returns the literal rows' per-column codes (empty lists when the
        delta carries no literals) and the per-column genuinely new values with
        their codes, to merge into the in-memory dictionary caches *after*
        the commit (never before — a failed commit must not poison them).
        """
        additions: dict[int, tuple[list[Any], dict[Any, int]]] = {}
        if literals is None or not literals.num_rows:
            return [[] for _ in manifest.attributes], additions
        coded = literals.coded(self._backend)
        literal_codes: list[list[int]] = []
        for index, attr in enumerate(manifest.attributes):
            values, code_of = self._dictionary(index)
            column = coded.column(attr)
            new_values: list[Any] = []
            new_code_of: dict[Any, int] = {}
            # The literal dictionary is in first-occurrence order, so new
            # values get their store codes in the order the rows show them.
            store_code: list[int] = []
            for value in column.dictionary:
                code = code_of.get(value)
                if code is None:
                    code = new_code_of[value] = len(values) + len(new_values)
                    new_values.append(value)
                store_code.append(code)
            literal_codes.append(list(map(store_code.__getitem__, column.code_list())))
            if new_values:
                additions[index] = (new_values, new_code_of)
        return literal_codes, additions

    # -- observability -------------------------------------------------
    def store_stats(self) -> dict[str, Any]:
        stats = super().store_stats()
        with self._mutex:
            manifest = self._manifest
            stats["segments"] = 0 if manifest is None else len(manifest.files)
            stats["view_slices"] = 0 if manifest is None else len(manifest.view)
            stats["log_records"] = 0 if manifest is None else manifest.records
            stats["log_bytes"] = 0 if manifest is None else manifest.log_length
            stats["checkpoints"] = self.checkpoints
            stats["records_replayed"] = self.records_replayed
            stats["torn_tails_truncated"] = self.torn_tails_truncated
            stats["mapped_bytes"] = sum(
                len(buffer) for buffer in self._buffers.values()
            )
            stats["dict_decodes"] = self.dict_decodes
            stats["code_loads"] = self.code_loads
        return stats

    # -- maintenance ---------------------------------------------------
    def verify(self) -> bool:
        """Full-content integrity check of the committed state.

        Reads every referenced byte: segment headers and recorded CRCs, the
        CRC of every committed log record, and the decodability of every
        column's dictionary.  This is the deliberate O(data) counterpart to
        the length checks at open — ``f2-repro verify`` runs it on every
        table.
        """
        with self._mutex:
            manifest = self._require_manifest()
            for entry in manifest.files:
                if entry.in_log:
                    continue
                data = self._read_committed(entry.name, entry.length)
                if not data.startswith(SEGMENT_HEADER):
                    raise StoreError(f"segment {entry.name} has a bad header")
                if zlib.crc32(data) != entry.crc:
                    raise StoreError(f"segment {entry.name} fails its checksum")
            log = self._read_committed(manifest.log_name, manifest.log_length)
            records, end = scan_log(log, manifest.log_name)
            if len(records) != manifest.records + 1 or end != manifest.log_length:
                raise StoreError(
                    f"log {manifest.log_name} no longer holds its "
                    f"{manifest.records + 1} committed records"
                )
            for index, entry in enumerate(manifest.dictionaries):
                data = self._read_committed(entry.name, entry.length)
                if zlib.crc32(data) != entry.crc:
                    raise StoreError(
                        f"dictionary blob {entry.name} fails its checksum"
                    )
                runs = [log[offset : offset + length] for offset, length, _ in manifest.extents[index]]
                try:
                    decode_cell_run(b"".join([data] + runs), manifest.num_values(index))
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

    def close(self) -> None:
        with self._mutex:
            if not self._closed:
                self._close_log()
                self._release_buffers()
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

    def _close_log(self) -> None:
        fd, self._log_fd = self._log_fd, None
        if fd is not None:
            close_fd(fd)

    def _release_buffers(self, names: "Iterable[str] | None" = None) -> None:
        """Drop lazy views after a mutation: code columns and the relation
        always, and the mappings of ``names`` (every mapping when ``None``).

        Dictionary caches are managed by the callers (extended in place on
        a delta, replaced on a full rewrite) to keep inserts O(delta).
        """
        self._columns = {}
        self._relation = None
        for name in list(self._mmaps) if names is None else names:
            self._buffers.pop(name, None)
            handle, mapped = self._mmaps.pop(name, (None, None))
            if mapped is None:
                continue
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - an exported view is live
                pass  # the map is reclaimed when its last consumer drops
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass
        if names is None:
            self._buffers = {}
