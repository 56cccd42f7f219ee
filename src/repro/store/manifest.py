"""The table log: the commit protocol of a segment store.

A segment table directory holds four kinds of files:

* ``seg-<version>.seg`` — immutable columnar segment files;
* ``dict-<version>-<column>.blob`` — per-column dictionary blobs (a bare
  run of wire cells);
* ``LOG-<version>.log`` — the **table log**: a 5-byte header, one
  *snapshot record* holding the committed state as of the checkpoint that
  started the log, then one *delta record* per commit since;
* ``CURRENT`` — the name of the live log.

Every record is framed as ``length | crc32(payload) | crc32(length,
crc)`` (three little-endian u32) plus its payload: LevelDB's manifest as a
log of version edits (``doc/impl.md``), with a checksummed header so that a
flipped bit anywhere in a committed record is told apart from a torn tail.

**Committing a delta** appends one delta record and fsyncs the log once —
no new file, no rename.  The record carries the commit version, the row
count and Merkle root, the delta's opcodes (replayed through
:func:`translate_segments`), the literal rows' code arrays in the segment
file's column layout — so the read path maps them straight out of the log
like any segment slice — and each column's genuinely new dictionary values.

**A checkpoint** (a full replace, a fold or log rotation) writes its
data files, then a new log whose snapshot record references them.  It
fsyncs the data files, the log and the directory, renames a fsynced
temporary file over ``CURRENT`` and fsyncs the directory again
(:func:`write_log`, :func:`switch_current`); only then are superseded files
deleted, by the new state's in-memory references
(:func:`remove_unreferenced`).

**Recovery** (:func:`recover_log`) reads ``CURRENT``'s log, checks every
record's CRC and replays the delta records onto the snapshot.  Data files
are checked by length only (their CRCs by the explicit ``verify`` pass), so
restart cost is flat in the table size.  A torn tail — an incomplete last
frame, or zero fill — is what a crash during an append leaves; it is
reported and left out of the replay, and the next append cuts it off.  A
record that fails its checksum with all its bytes present is corruption:
that log is unusable.  When ``CURRENT``'s log is missing or unusable,
recovery falls back to the newest other log, warning
(:class:`~repro.exceptions.StoreIntegrityWarning`).  A ``CURRENT`` that
names anything but a table log, or a snapshot record whose root is not a
:data:`~repro.integrity.merkle.ROOT_FORMAT` root, is a store this code
cannot read: opening it raises :class:`~repro.exceptions.StoreError`.

All file mutation of a segment store goes through this module's ``os``
calls, so one seam sees every write, fsync, rename, truncate and unlink.
"""

from __future__ import annotations

import dataclasses
import os
import re
import struct
import warnings
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.api.delta import OP_COPY, OP_LITERAL, delta_runs
from repro.exceptions import ProtocolError, StoreError, StoreIntegrityWarning, WireError
from repro.integrity.merkle import ROOT_FORMAT
from repro.wire.binary import ByteReader, ByteWriter, pack_codes, unpack_codes

#: File-name grammar of a table directory.
CURRENT_NAME = "CURRENT"
CURRENT_TEMP = ".CURRENT.tmp"
LOG_FILE_RE = re.compile(r"^LOG-(\d{6,})\.log$")
#: Every file a table directory may hold besides ``CURRENT``; the ones the
#: committed state does not reference are deleted after a checkpoint
#: (temporaries included).
STORE_FILE_RE = re.compile(
    r"^(seg-\d{6,}\.seg|dict-\d{6,}-\d{3,}\.blob|LOG-\d{6,}\.log|\..+\.tmp)$"
)

#: Magic + version header of every log file.
LOG_MAGIC = b"F2LG"
LOG_HEADER = LOG_MAGIC + bytes([1])
#: ``length | crc32(payload) | crc32(first eight header bytes)``.
FRAME = struct.Struct("<III")
_FRAME_PREFIX = struct.Struct("<II")

RECORD_SNAPSHOT = 1
RECORD_DELTA = 2

#: Opcode kinds inside a record's packed opcode array.
_KIND_COPY = 0
_KIND_LITERAL = 1


def log_name(version: int) -> str:
    return f"LOG-{version:06d}.log"


def segment_name(version: int) -> str:
    return f"seg-{version:06d}.seg"


def blob_name(version: int, column: int) -> str:
    return f"dict-{version:06d}-{column:03d}.blob"


@dataclass
class SegmentFile:
    """One source of code arrays: a segment file, or one record's block in the log."""

    name: str
    rows: int
    length: int  # committed byte count of a segment file (0 for a log block)
    crc: int  # zlib.crc32 over the committed bytes (0 for a log block)
    #: Per column (schema order): byte offset of the code array in the file
    #: and its fixed code width in bytes.  The array holds ``rows`` codes.
    columns: list[dict[str, int]] = field(default_factory=list)

    @property
    def in_log(self) -> bool:
        """True for a delta record's literal rows (the record's CRC covers them)."""
        return bool(LOG_FILE_RE.match(self.name))


@dataclass
class DictionaryBlob:
    """One column's dictionary blob as of the last checkpoint."""

    name: str
    values: int  # committed dictionary size
    length: int  # committed byte count
    crc: int  # crc32 over the committed bytes


@dataclass
class DeltaRecord:
    """One decoded delta record; offsets are relative to its payload."""

    version: int
    num_rows: int
    table_name: str
    merkle_root: str
    segments: list[list[Any]]
    literal_rows: int
    widths: list[int]
    code_offsets: list[int]
    #: Per column: ``(offset, length, count)`` of its new dictionary values.
    value_runs: list[tuple[int, int, int]]
    size: int  # payload byte count


@dataclass
class Manifest:
    """The committed state of a segment table: its snapshot plus replayed records."""

    version: int
    table_name: str
    attributes: list[str]
    num_rows: int
    files: list[SegmentFile] = field(default_factory=list)
    #: Logical row order: ``[file_index, start, count]`` slices into
    #: ``files``, concatenated.  A delta's copy opcodes re-slice this list;
    #: its literal rows are one block inside its log record — so an insert
    #: never rewrites committed rows.
    view: list[tuple[int, int, int]] = field(default_factory=list)
    dictionaries: list[DictionaryBlob] = field(default_factory=list)
    #: Merkle root (hex) over the committed view's rows.  Empty when the
    #: committing writer did not track one (pre-integrity deltas);
    #: ``verify()`` then reports the root as unrecorded instead of failing.
    merkle_root: str = ""
    #: Per column: ``(offset, length, count)`` runs of dictionary values
    #: that delta records appended to the log since the snapshot, in order.
    extents: list[list[tuple[int, int, int]]] = field(default_factory=list)
    log_name: str = ""  # empty until the state is committed to a log
    log_length: int = 0  # committed byte count of the log
    records: int = 0  # delta records after the snapshot record

    def __post_init__(self) -> None:
        if not self.extents:
            self.extents = [[] for _ in self.attributes]

    @cached_property
    def slice_starts(self) -> list[int]:
        """Logical start row of every view slice (bisected by copy opcodes)."""
        starts = []
        position = 0
        for _, _, count in self.view:
            starts.append(position)
            position += count
        return starts

    def num_values(self, column: int) -> int:
        """Committed dictionary size of one column (blob plus log runs)."""
        return self.dictionaries[column].values + sum(
            count for _, _, count in self.extents[column]
        )

    def referenced_files(self) -> set[str]:
        names = {entry.name for entry in self.files}
        names.update(entry.name for entry in self.dictionaries)
        if self.log_name:
            names.add(self.log_name)
        return names

    def check_consistency(self) -> None:
        if len(self.dictionaries) != len(self.attributes):
            raise StoreError("manifest: one dictionary blob per attribute required")
        total = 0
        for index, start, count in self.view:
            if not 0 <= index < len(self.files):
                raise StoreError(f"manifest: view references unknown file {index}")
            entry = self.files[index]
            if start < 0 or count <= 0 or start + count > entry.rows:
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

    def apply_record(
        self, record: DeltaRecord, pieces: list[tuple[int, int, int]]
    ) -> "Manifest":
        """The state after ``record``, appended at :attr:`log_length`.

        ``pieces`` is :func:`translate_segments` of the record's opcodes
        against this state.  Shared by the live commit and the replay at
        open, so both derive the same view, files and value runs.
        """
        base = self.log_length + FRAME.size
        files = list(self.files)
        if record.literal_rows:
            files.append(
                SegmentFile(
                    name=self.log_name,
                    rows=record.literal_rows,
                    length=0,
                    crc=0,
                    columns=[
                        {"offset": base + offset, "width": width}
                        for offset, width in zip(record.code_offsets, record.widths)
                    ],
                )
            )
        literal = len(files) - 1
        view: list[tuple[int, int, int]] = []
        starts: list[int] = []
        position = 0
        last = (-2, 0, 0)
        for source, start, count in pieces:
            if source == -1:
                source = literal
            if last[0] == source and last[1] + last[2] == start:
                last = view[-1] = (source, last[1], last[2] + count)
            else:
                last = (source, start, count)
                view.append(last)
                starts.append(position)
            position += count
        used = {source for source, _, _ in view}
        if len(used) < len(files):
            # Drop the sources no slice references any more.
            remap = {old: new for new, old in enumerate(sorted(used))}
            files = [files[old] for old in sorted(used)]
            view = [(remap[source], start, count) for source, start, count in view]
        extents = [
            runs + [(base + offset, length, count)] if count else runs
            for runs, (offset, length, count) in zip(self.extents, record.value_runs)
        ]
        advanced = Manifest(
            version=record.version,
            table_name=record.table_name,
            attributes=self.attributes,
            num_rows=position,
            files=files,
            view=view,
            dictionaries=self.dictionaries,
            merkle_root=record.merkle_root,
            extents=extents,
            log_name=self.log_name,
            log_length=base + record.size,
            records=self.records + 1,
        )
        advanced.__dict__["slice_starts"] = starts  # the loop built them
        return advanced


# ----------------------------------------------------------------------
# Opcode translation
# ----------------------------------------------------------------------
def translate_segments(
    manifest: Manifest, segments: Sequence[Any], literal_rows: int
) -> list[tuple[int, int, int]]:
    """Delta opcodes -> physical slices ``(file index | -1, start, count)``.

    ``-1`` stands for the delta's own literal rows (its starts index into
    them).  A copy opcode bisects :attr:`Manifest.slice_starts` for the
    first and last view slice it overlaps and copies the ones between
    whole, so the translation costs O(opcodes · log(view slices)) plus a
    C-speed copy of its output.  The opcodes are checked by
    :func:`repro.api.delta.delta_runs` — every check hostile-safe, the
    same error codes on every engine.
    """
    view = manifest.view
    starts = manifest.slice_starts
    pieces: list[tuple[int, int, int]] = []
    literal_cursor = 0
    for start, count in delta_runs(segments, manifest.num_rows, literal_rows):
        if start < 0:
            pieces.append((-1, literal_cursor, count))
            literal_cursor += count
            continue
        end = start + count
        first = bisect_right(starts, start) - 1
        last = bisect_left(starts, end) - 1
        source, piece_start, _ = view[first]
        skip = start - starts[first]
        if first == last:
            pieces.append((source, piece_start + skip, count))
            continue
        pieces.append((source, piece_start + skip, starts[first + 1] - start))
        pieces.extend(view[first + 1 : last])
        source, piece_start, _ = view[last]
        pieces.append((source, piece_start, end - starts[last]))
    return pieces


# ----------------------------------------------------------------------
# Record codecs
# ----------------------------------------------------------------------
def _unpack_u64(data: bytes) -> list[int]:
    if len(data) % 8:
        raise StoreError("truncated integer array in a log record")
    return unpack_codes(data, 8).tolist()


def encode_delta(
    version: int,
    num_rows: int,
    table_name: str,
    merkle_root: str,
    segments: Sequence[Any],
    literal_rows: int,
    code_columns: list[tuple[bytes, int]],
    new_values: list[tuple[bytes, int]],
) -> bytes:
    """One delta record's payload (the live commit adopts its decoding, as
    replay does).

    ``segments`` must already have passed :func:`translate_segments`;
    ``code_columns`` is per column ``(packed codes, width)`` and
    ``new_values`` per column ``(encoded cell run, value count)``.
    """
    flat: list[int] = []
    for segment in segments:
        if segment[0] == OP_COPY:
            flat += (_KIND_COPY, int(segment[1]), int(segment[2]))
        else:
            flat += (_KIND_LITERAL, int(segment[1]), 0)
    writer = ByteWriter()
    writer.raw(bytes([RECORD_DELTA]))
    writer.uvarint(version)
    writer.uvarint(num_rows)
    writer.lp_str(table_name)
    writer.lp_str(merkle_root)
    writer.lp_bytes(pack_codes(flat, 8))
    writer.uvarint(literal_rows)
    for (_, width), (data, count) in zip(code_columns, new_values):
        writer.raw(bytes([width]))
        writer.uvarint(count)
        writer.uvarint(len(data))
    writer.raw(b"".join(packed for packed, _ in code_columns))
    writer.raw(b"".join(data for data, _ in new_values))
    return writer.getvalue()


def decode_delta(payload: bytes, num_columns: int) -> DeltaRecord:
    reader = ByteReader(payload)
    try:
        if reader.u8() != RECORD_DELTA:
            raise StoreError("expected a delta record")
        version = reader.uvarint()
        num_rows = reader.uvarint()
        table_name = reader.lp_str()
        merkle_root = reader.lp_str()
        flat = _unpack_u64(reader.lp_bytes())
        literal_rows = reader.uvarint()
        table = [(reader.u8(), reader.uvarint(), reader.uvarint()) for _ in range(num_columns)]
    except WireError as exc:
        raise StoreError(f"malformed delta record: {exc}") from exc
    if len(flat) % 3:
        raise StoreError("malformed delta record: opcode array")
    segments: list[list[Any]] = []
    for i in range(0, len(flat), 3):
        kind = flat[i]
        if kind == _KIND_COPY:
            segments.append([OP_COPY, flat[i + 1], flat[i + 2]])
        elif kind == _KIND_LITERAL:
            segments.append([OP_LITERAL, flat[i + 1]])
        else:
            raise StoreError(f"malformed delta record: opcode kind {kind}")
    offset = len(payload) - reader.remaining
    code_offsets = []
    for width, _, _ in table:
        if width not in (1, 2, 4, 8):
            raise StoreError(f"malformed delta record: code width {width}")
        code_offsets.append(offset)
        offset += literal_rows * width
    value_runs = []
    for _, count, length in table:
        value_runs.append((offset, length, count))
        offset += length
    if offset != len(payload):
        raise StoreError("malformed delta record: its arrays do not fill the payload")
    return DeltaRecord(
        version=version,
        num_rows=num_rows,
        table_name=table_name,
        merkle_root=merkle_root,
        segments=segments,
        literal_rows=literal_rows,
        widths=[width for width, _, _ in table],
        code_offsets=code_offsets,
        value_runs=value_runs,
        size=len(payload),
    )


def encode_snapshot(manifest: Manifest) -> bytes:
    """The snapshot record of a state whose data all lives in segment files and blobs."""
    if any(entry.in_log for entry in manifest.files) or any(manifest.extents):
        raise StoreError("a snapshot cannot reference rows or values inside a log")
    writer = ByteWriter()
    writer.raw(bytes([RECORD_SNAPSHOT]))
    writer.uvarint(manifest.version)
    writer.uvarint(manifest.num_rows)
    writer.lp_str(manifest.table_name)
    writer.uvarint(len(manifest.attributes))
    for attribute in manifest.attributes:
        writer.lp_str(attribute)
    writer.lp_str(manifest.merkle_root)
    writer.uvarint(ROOT_FORMAT)
    writer.uvarint(len(manifest.files))
    for entry in manifest.files:
        writer.lp_str(entry.name)
        writer.uvarint(entry.rows)
        writer.uvarint(entry.length)
        writer.uvarint(entry.crc)
        for column in entry.columns:
            writer.uvarint(column["offset"])
            writer.raw(bytes([column["width"]]))
    writer.lp_bytes(pack_codes([value for piece in manifest.view for value in piece], 8))
    for blob in manifest.dictionaries:
        writer.lp_str(blob.name)
        writer.uvarint(blob.values)
        writer.uvarint(blob.length)
        writer.uvarint(blob.crc)
    return writer.getvalue()


def decode_snapshot(payload: bytes) -> Manifest:
    reader = ByteReader(payload)
    try:
        if reader.u8() != RECORD_SNAPSHOT:
            raise StoreError("the log does not start with a snapshot record")
        version = reader.uvarint()
        num_rows = reader.uvarint()
        table_name = reader.lp_str()
        attributes = [reader.lp_str() for _ in range(reader.uvarint())]
        merkle_root = reader.lp_str()
        root_format = reader.uvarint()
        files = []
        for _ in range(reader.uvarint()):
            name, rows, length, crc = (
                reader.lp_str(), reader.uvarint(), reader.uvarint(), reader.uvarint()
            )
            columns = [
                {"offset": reader.uvarint(), "width": reader.u8()} for _ in attributes
            ]
            files.append(SegmentFile(name, rows, length, crc, columns))
        flat = _unpack_u64(reader.lp_bytes())
        dictionaries = [
            DictionaryBlob(reader.lp_str(), reader.uvarint(), reader.uvarint(), reader.uvarint())
            for _ in attributes
        ]
        reader.expect_end()
    except WireError as exc:
        raise StoreError(f"malformed snapshot record: {exc}") from exc
    if len(flat) % 3:
        raise StoreError("malformed snapshot record: view array")
    if root_format != ROOT_FORMAT:
        raise StoreError(
            f"the snapshot record's merkle root has format {root_format}, not "
            f"{ROOT_FORMAT}: remove the table and re-outsource it"
        )
    manifest = Manifest(
        version=version,
        table_name=table_name,
        attributes=attributes,
        num_rows=num_rows,
        files=files,
        view=[tuple(flat[i : i + 3]) for i in range(0, len(flat), 3)],
        dictionaries=dictionaries,
        merkle_root=merkle_root,
    )
    manifest.check_consistency()
    return manifest


def frame(payload: bytes) -> bytes:
    """One record as it lands in the log: checksummed header plus payload."""
    prefix = _FRAME_PREFIX.pack(len(payload), zlib.crc32(payload))
    return prefix + struct.pack("<I", zlib.crc32(prefix)) + payload


def scan_log(data: bytes, name: str) -> tuple[list[tuple[int, bytes]], int]:
    """Every intact record of a log as ``(payload offset, payload)``, and
    where the intact prefix ends.

    Stops quietly at a torn tail (an incomplete frame, or zero fill from
    there to the end); raises :class:`StoreError` for a record whose header
    or payload fails its checksum with its bytes present.
    """
    if data[: len(LOG_HEADER)] != LOG_HEADER:
        raise StoreError(f"log {name} has a bad header")
    records = []
    offset = len(LOG_HEADER)
    while len(data) - offset >= FRAME.size:
        length, crc, header_crc = FRAME.unpack_from(data, offset)
        if zlib.crc32(data[offset : offset + _FRAME_PREFIX.size]) != header_crc:
            if not data[offset:].strip(b"\x00"):
                break  # zero fill: an append the crash cut short
            raise StoreError(
                f"log {name}: the record header at offset {offset} fails its checksum"
            )
        start = offset + FRAME.size
        if start + length > len(data):
            break  # torn: the frame runs past the end of the file
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            raise StoreError(
                f"log {name}: the record at offset {offset} fails its checksum"
            )
        records.append((start, payload))
        offset = start + length
    return records, offset


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def read_current(directory: Path) -> str:
    """The file ``CURRENT`` names (empty when it is missing or unreadable)."""
    try:
        return (directory / CURRENT_NAME).read_text("utf-8").strip()
    except (OSError, UnicodeDecodeError):
        return ""


def list_logs(directory: Path) -> list[str]:
    """Every log file present, newest checkpoint first."""
    found = []
    for name in os.listdir(directory):
        match = LOG_FILE_RE.match(name)
        if match:
            found.append((int(match.group(1)), name))
    return [name for _, name in sorted(found, reverse=True)]


def missing_data(directory: Path, manifest: Manifest) -> "str | None":
    """Why a state's data files are unusable (``None`` when they are usable).

    Length checks only — every referenced segment file and blob must exist
    with at least its committed byte count.  Content checksums are not read
    here (that would make every restart O(data)); ``verify()`` does.
    """
    for name, length in [(e.name, e.length) for e in manifest.files if not e.in_log] + [
        (e.name, e.length) for e in manifest.dictionaries
    ]:
        try:
            size = (directory / name).stat().st_size
        except OSError:
            return f"missing data file {name}"
        if size < length:
            return f"data file {name} is {size} bytes, the state committed {length}"
    return None


def replay_log(directory: Path, name: str) -> tuple[Manifest, int]:
    """Replay one log: its snapshot plus every intact delta record.

    Returns the state and the byte count of its torn tail (0 when none).
    Raises :class:`StoreError` when the log is missing or corrupt.
    """
    try:
        data = (directory / name).read_bytes()
    except OSError as exc:
        raise StoreError(f"cannot read log {name}: {exc}") from exc
    records, end = scan_log(data, name)
    if not records:
        raise StoreError(f"log {name} holds no snapshot record")
    (offset, payload), deltas = records[0], records[1:]
    manifest = decode_snapshot(payload)
    manifest.log_name = name
    manifest.log_length = offset + len(payload)
    reason = missing_data(directory, manifest)
    if reason is not None:
        raise StoreError(reason)
    columns = len(manifest.attributes)
    for offset, payload in deltas:
        record = decode_delta(payload, columns)
        if record.version != manifest.version + 1:
            raise StoreError(
                f"log {name}: record version {record.version} does not follow "
                f"{manifest.version}"
            )
        try:
            pieces = translate_segments(manifest, record.segments, record.literal_rows)
        except ProtocolError as exc:
            raise StoreError(f"log {name}: record {record.version}: {exc}") from exc
        manifest = manifest.apply_record(record, pieces)
        if manifest.num_rows != record.num_rows:
            raise StoreError(
                f"log {name}: record {record.version} replays to {manifest.num_rows} "
                f"rows, it recorded {record.num_rows}"
            )
    return manifest, len(data) - end


def recover_log(directory: "Path | str") -> tuple[Manifest, int]:
    """Resolve the committed state of a table directory from its logs.

    Tries the log ``CURRENT`` names first, then every other log newest
    first, warning (:class:`~repro.exceptions.StoreIntegrityWarning`)
    whenever it has to fall back.  Returns the state and the byte count of
    the log's torn tail; raises :class:`~repro.exceptions.StoreError` when
    ``CURRENT`` names anything but a table log, or when no log is usable.
    Writes nothing.
    """
    directory = Path(directory)
    current = read_current(directory)
    if not LOG_FILE_RE.match(current):
        raise StoreError(
            f"{directory}: CURRENT names {current!r}, not a table log; remove "
            "the table and re-outsource it"
        )
    candidates = [current] + [name for name in list_logs(directory) if name != current]
    failures: list[str] = []
    for name in candidates:
        try:
            manifest, torn = replay_log(directory, name)
        except StoreError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if failures:
            warnings.warn(
                f"segment store {directory}: falling back to log {name} at "
                f"committed version {manifest.version} ({'; '.join(failures)})",
                StoreIntegrityWarning,
                stacklevel=2,
            )
        return manifest, torn
    detail = "; ".join(failures) if failures else "no log file"
    raise StoreError(f"no usable table log in {directory} ({detail})")


# ----------------------------------------------------------------------
# File mutation (the one seam every store write goes through)
# ----------------------------------------------------------------------
def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def fsync_dir(directory: Path) -> None:
    """Make the directory's entries (creations, renames) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def create_directory(directory: Path) -> None:
    """``mkdir -p`` that fsyncs each new entry into its parent."""
    missing = []
    path = directory
    while not path.exists():
        missing.append(path)
        path = path.parent
    for path in reversed(missing):
        path.mkdir(exist_ok=True)
        fsync_dir(path.parent)


def write_file(path: Path, data: bytes) -> None:
    """Create (or overwrite) a file with ``data`` and fsync it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def open_log(path: Path) -> int:
    """A write descriptor for appending to an existing log (creates nothing)."""
    return os.open(path, os.O_WRONLY | os.O_APPEND)


def close_fd(fd: int) -> None:
    os.close(fd)


def append_record(fd: int, committed: int, data: bytes) -> None:
    """Append one framed record at ``committed`` and fsync: a delta commit.

    Bytes beyond the committed length — a torn tail left by a crash, or a
    failed append — are cut off first, so they never end up inside the
    committed range.  A failed append is cut off again before re-raising.
    """
    size = os.fstat(fd).st_size
    if size < committed:
        raise StoreError(
            f"the table log is {size} bytes, shorter than its committed {committed}"
        )
    if size > committed:
        os.ftruncate(fd, committed)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    except BaseException:
        try:
            os.ftruncate(fd, committed)
        except OSError:
            pass
        raise


def write_log(directory: Path, manifest: Manifest) -> Manifest:
    """Start a new log with ``manifest`` as its snapshot record.

    The caller has written and fsynced every data file ``manifest``
    references; this writes ``LOG-<version>.log``, fsyncs it and then the
    directory, so every new entry is durable before ``CURRENT`` may name
    it.  Returns ``manifest`` as committed to that log.
    """
    name = log_name(manifest.version)
    data = LOG_HEADER + frame(encode_snapshot(manifest))
    write_file(directory / name, data)
    fsync_dir(directory)
    return dataclasses.replace(
        manifest, log_name=name, log_length=len(data), records=0, extents=[]
    )


def switch_current(directory: Path, name: str) -> None:
    """Point ``CURRENT`` at log ``name``: temp file, fsync, atomic rename.

    The rename is the commit point of a checkpoint; the caller fsyncs the
    directory after it (and before acknowledging).
    """
    temp = directory / CURRENT_TEMP
    write_file(temp, (name + "\n").encode("utf-8"))
    os.replace(temp, directory / CURRENT_NAME)


def remove_unreferenced(directory: Path, manifest: Manifest) -> None:
    """Delete every store file the committed state does not reference.

    Runs after a checkpoint's last directory fsync, so a failed deletion
    is never worth failing a write over (the next checkpoint retries).
    """
    keep = manifest.referenced_files()
    for name in os.listdir(directory):
        if name not in keep and STORE_FILE_RE.match(name):
            try:
                os.unlink(directory / name)
            except OSError:  # pragma: no cover - best-effort GC
                pass
