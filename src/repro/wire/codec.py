"""Wire codec: the binary serialization of the protocol's payloads.

Every object the two parties exchange — ciphertext cells, relations, TANE
results — round-trips through one length-prefixed frame built on the
primitives of :mod:`repro.wire.binary`: a magic, a version byte and an
object-type tag, then the object's body.

Relations are serialized *columnar and dictionary-encoded*: the codec
reuses the coded view of :meth:`repro.relational.table.Relation.coded`, so
each distinct cell value — in particular each distinct ciphertext — is
serialized exactly once per column, as one *cell run*, and the row body is
just an integer code array.  For F2 ciphertext tables, where
splitting-and-scaling deliberately repeats ciphertext values to homogenise
frequencies, this is also a large size win over per-cell serialization.

The decoder does not throw that form away.  It checks that each column's
dictionary and codes are exactly what factorising the decoded cells would
build (distinct values, codes in first-occurrence order, every entry used,
the canonical code width) and hands them to the :class:`Relation` as its
coded view, together with the dictionary run and the packed code bytes as
received.  The provider's store writes those bytes to disk unchanged and
hashes its Merkle leaves from the codes; nothing on the receive path
re-factorises a column or formats a cell per row.  Cell runs are read and
written in one pass over one buffer.  A malformed frame — truncated, an
unknown tag, a ciphertext cell too short for its nonce, a column that
breaks the rules above — raises :class:`WireError`.

The decoded objects compare equal to the originals (``Ciphertext`` is a
frozen dataclass, relations compare by schema + columns), which is what
lets the session facades in :mod:`repro.api.session` stay byte-identical
to the pre-protocol in-process objects.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Sequence

from repro.backend import ComputeBackend, get_backend
from repro.crypto.probabilistic import Ciphertext
from repro.exceptions import RelationError, SchemaError, WireError
from repro.fd.fd import FDSet, FunctionalDependency
from repro.fd.tane import TaneResult
from repro.relational.coded import CodedColumn
from repro.relational.schema import Schema
from repro.relational.table import Relation
from repro.wire.binary import (
    ByteReader,
    ByteWriter,
    code_width,
    pack_codes,
    unpack_codes,
    uvarint_at,
    uvarint_bytes,
)

#: Magic + version prefix of every binary frame.
BINARY_MAGIC = b"F2WB"
BINARY_VERSION = 1

# Binary cell tags.
_CELL_STR = 0
_CELL_INT = 1
_CELL_CIPHERTEXT = 2
_CELL_FLOAT = 3
_CELL_TRUE = 4
_CELL_FALSE = 5
_CELL_NONE = 6


# ----------------------------------------------------------------------
# Cell values
# ----------------------------------------------------------------------
_TAG_BYTES = [bytes([tag]) for tag in range(_CELL_NONE + 1)]


def encode_cell_run(values: Sequence[Any]) -> bytes:
    """Serialize a bare run of cells (no frame header, no count prefix).

    A relation frame holds each column's dictionary as one such run, and the
    segment store's dictionary blobs are append-only concatenations of them
    — appending a delta's new dictionary values is a file append, and the
    committed value count lives in the table log instead of a header that
    would have to be rewritten in place.  Each cell is a tag byte and its
    body; the run is written in one pass into one buffer.
    """
    chunks: list[bytes] = []
    append = chunks.append
    tags = _TAG_BYTES
    for value in values:
        if isinstance(value, Ciphertext):
            body = value.to_bytes()
            append(tags[_CELL_CIPHERTEXT])
            append(uvarint_bytes(len(body)))
            append(body)
        elif isinstance(value, bool):  # before int: bool is an int subclass
            append(tags[_CELL_TRUE if value else _CELL_FALSE])
        elif isinstance(value, str):
            body = value.encode("utf-8")
            append(tags[_CELL_STR])
            append(uvarint_bytes(len(body)))
            append(body)
        elif isinstance(value, int):
            append(tags[_CELL_INT])
            append(uvarint_bytes((value << 1) if value >= 0 else ((-value << 1) - 1)))
        elif isinstance(value, float):
            append(tags[_CELL_FLOAT])
            append(struct.pack(">d", value))
        elif value is None:
            append(tags[_CELL_NONE])
        else:
            raise WireError(f"unsupported cell type for the wire: {type(value).__name__}")
    return b"".join(chunks)


def _decode_run_at(data: bytes, pos: int, count: int) -> tuple[list[Any], int]:
    """``count`` cells of the run starting at ``data[pos]``, and where it ends.

    One pass over the buffer with the varints inlined; every malformed cell
    — truncated, an unknown tag, bad UTF-8, a ciphertext body too short for
    its nonce — raises :class:`WireError`.
    """
    values: list[Any] = []
    append = values.append
    size = len(data)
    try:
        for _ in range(count):
            tag = data[pos]
            pos += 1
            if tag == _CELL_CIPHERTEXT or tag == _CELL_STR:
                length = data[pos]
                pos += 1
                if length & 0x80:
                    length, pos = uvarint_at(data, pos - 1)
                end = pos + length
                if end > size:
                    raise WireError("truncated cell in binary frame")
                if tag == _CELL_STR:
                    append(data[pos:end].decode("utf-8"))
                else:
                    if not length or data[pos] >= length:
                        raise WireError("malformed ciphertext cell in binary frame")
                    nonce_end = pos + 1 + data[pos]
                    append(Ciphertext(data[pos + 1 : nonce_end], data[nonce_end:end]))
                pos = end
            elif tag == _CELL_INT:
                raw, pos = uvarint_at(data, pos)
                append((raw >> 1) if not raw & 1 else -((raw + 1) >> 1))
            elif tag == _CELL_FLOAT:
                if pos + 8 > size:
                    raise WireError("truncated float cell in binary frame")
                append(struct.unpack_from(">d", data, pos)[0])
                pos += 8
            elif tag == _CELL_TRUE:
                append(True)
            elif tag == _CELL_FALSE:
                append(False)
            elif tag == _CELL_NONE:
                append(None)
            else:
                raise WireError(f"unknown cell tag {tag} in binary frame")
    except IndexError as exc:
        raise WireError("truncated cell run in binary frame") from exc
    except UnicodeDecodeError as exc:
        raise WireError("invalid UTF-8 in binary frame") from exc
    return values, pos


def _read_run(reader: ByteReader, count: int) -> tuple[list[Any], bytes]:
    """Read a cell run off ``reader``: its values and its bytes as received."""
    start = reader.position
    values, end = _decode_run_at(reader.buffer, start, count)
    return values, reader.raw(end - start)


def decode_cell_run(data: bytes, count: int) -> list[Any]:
    """Inverse of :func:`encode_cell_run`; ``data`` must hold exactly ``count`` cells."""
    values, end = _decode_run_at(bytes(data), 0, count)
    if end != len(data):
        raise WireError(f"{len(data) - end} trailing bytes after binary frame")
    return values


def encode_cells(cells: Sequence[Any]) -> bytes:
    """Serialize a flat list of cell values (e.g. a query token)."""
    writer = _binary_frame("cells")
    writer.uvarint(len(cells))
    writer.raw(encode_cell_run(cells))
    return writer.getvalue()


def decode_cells(data: bytes) -> list[Any]:
    """Inverse of :func:`encode_cells`."""
    reader = _binary_load(data, "cells")
    cells, _ = _read_run(reader, reader.uvarint())
    reader.expect_end()
    return cells


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------
def column_run(column: CodedColumn) -> bytes:
    """A coded column's dictionary as one cell run (kept on the column)."""
    if column.run is None:
        column.run = encode_cell_run(column.dictionary)
    return column.run


def column_codes(column: CodedColumn) -> bytes:
    """A coded column's codes packed at :func:`code_width` of its dictionary
    (kept on the column): the wire's code array and a segment column alike."""
    if column.packed is None:
        column.packed = pack_codes(column.codes, code_width(column.num_values))
    return column.packed


def encode_relation(
    relation: Relation, backend: "ComputeBackend | str | None" = None
) -> bytes:
    """Serialize a relation, dictionary-encoded per column.

    The per-column ``(codes, dictionary)`` pairs come straight from the
    cached coded view (``relation.coded(backend)``), so repeated encodes of
    an unchanged relation never re-factorize, and each distinct ciphertext
    is written once per column regardless of its frequency.  Each column
    keeps its serialized dictionary run and packed codes for a later encode
    or a store write, and the owner's Merkle leaves reuse the coded view.
    """
    coded = relation.coded(backend)
    writer = _binary_frame("relation")
    writer.lp_str(relation.name)
    writer.uvarint(len(relation.attributes))
    writer.uvarint(relation.num_rows)
    for attr in relation.attributes:
        column = coded.column(attr)
        writer.lp_str(attr)
        writer.uvarint(column.num_values)
        writer.raw(column_run(column))
        writer.packed_code_array(column_codes(column), code_width(column.num_values))
    return writer.getvalue()


def decode_relation(data: bytes) -> Relation:
    """Inverse of :func:`encode_relation`, coded view included.

    Each column's dictionary and codes are validated to be exactly what
    factorising the decoded column would build — distinct values, codes in
    first-occurrence order using every entry, at the width the dictionary
    size implies — and then handed to the relation as its coded view, with
    the run and code bytes as received.  Whichever backend asks for the
    view gets it without a factorisation pass; a frame that breaks any of
    these rules raises :class:`WireError`.
    """
    reader = _binary_load(data, "relation")
    name = reader.lp_str()
    num_columns = reader.uvarint()
    num_rows = reader.uvarint()
    backend = get_backend("python")
    attributes: list[str] = []
    coded_columns: list[CodedColumn] = []
    for _ in range(num_columns):
        attribute = reader.lp_str()
        dictionary, run = _read_run(reader, reader.uvarint())
        packed, width = reader.packed_code_array()
        codes, code_of = _check_column(
            dictionary, unpack_codes(packed, width), width, num_rows
        )
        column = CodedColumn(attribute, codes, dictionary, backend, code_of)
        column.run = run
        column.packed = packed
        attributes.append(attribute)
        coded_columns.append(column)
    reader.expect_end()
    try:
        relation = Relation.adopt_columns(
            Schema(attributes),
            [list(map(column.dictionary.__getitem__, column.codes)) for column in coded_columns],
            name=name,
        )
    except (RelationError, SchemaError) as exc:
        raise WireError(f"relation payload: {exc}") from exc
    view = relation.coded(backend)
    for column in coded_columns:
        view.adopt_column(column)
    return relation


def _check_column(
    dictionary: list[Any], packed_codes: Sequence[int], width: int, num_rows: int
) -> tuple[list[int], dict[Any, int]]:
    """Refuse a column that factorising its cells would not reproduce;
    returns its codes and its ``value -> code`` map."""
    if len(packed_codes) != num_rows:
        raise WireError(
            f"relation payload: column has {len(packed_codes)} rows, header says {num_rows}"
        )
    if width != code_width(len(dictionary)):
        raise WireError(
            f"relation payload: {width}-byte codes for a {len(dictionary)}-value dictionary"
        )
    # One int object per code, shared by every row that carries it.
    canonical = list(range(len(dictionary)))
    code_of = dict(zip(dictionary, canonical))
    if len(code_of) != len(dictionary):
        raise WireError("relation payload: the dictionary repeats a value")
    try:
        codes = list(map(canonical.__getitem__, packed_codes))
    except IndexError:
        raise WireError("relation payload: code outside its dictionary") from None
    first_seen = list(dict.fromkeys(codes))
    if first_seen != canonical:
        if len(first_seen) < len(canonical):
            raise WireError("relation payload: a dictionary value no row uses")
        raise WireError("relation payload: codes not in first-occurrence order")
    return codes, code_of


# ----------------------------------------------------------------------
# TANE results (FD sets travel inside them)
# ----------------------------------------------------------------------
def _write_fdset(writer: ByteWriter, fds: FDSet) -> None:
    writer.uvarint(len(fds))
    for fd in fds:
        writer.uvarint(len(fd.lhs))
        for attr in fd.lhs:
            writer.lp_str(attr)
        writer.lp_str(fd.rhs)


def _read_fdset(reader: ByteReader) -> FDSet:
    fds = FDSet()
    for _ in range(reader.uvarint()):
        lhs = [reader.lp_str() for _ in range(reader.uvarint())]
        fds.add(FunctionalDependency(lhs, reader.lp_str()))
    return fds


def encode_tane_result(result: TaneResult) -> bytes:
    """Serialize a TANE discovery result (FDs + profiling counters)."""
    writer = _binary_frame("tane_result")
    _write_fdset(writer, result.fds)
    writer.double(result.elapsed_seconds)
    writer.uvarint(result.levels_processed)
    writer.uvarint(result.candidates_examined)
    writer.uvarint(result.partitions_computed)
    parameters = sanitize_json(result.parameters)
    writer.lp_bytes(json.dumps(parameters, sort_keys=True).encode("utf-8"))
    return writer.getvalue()


def decode_tane_result(data: bytes) -> TaneResult:
    """Inverse of :func:`encode_tane_result`."""
    reader = _binary_load(data, "tane_result")
    fds = _read_fdset(reader)
    elapsed = reader.double()
    levels = reader.uvarint()
    candidates = reader.uvarint()
    partitions = reader.uvarint()
    parameters = json_blob(reader.lp_bytes())
    reader.expect_end()
    return TaneResult(
        fds=fds,
        elapsed_seconds=elapsed,
        levels_processed=levels,
        candidates_examined=candidates,
        partitions_computed=partitions,
        parameters=parameters,
    )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def json_blob(data: bytes) -> Any:
    """Parse an embedded JSON blob, mapping any failure to :class:`WireError`.

    Keeps the codec's error contract: corrupted payload bytes never escape
    as raw ``UnicodeDecodeError``/``JSONDecodeError``.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("malformed JSON blob in wire payload") from exc


def sanitize_json(value: Any) -> Any:
    """Coerce a metadata value into JSON-native types (stringify the rest).

    Protocol metadata (TANE parameters, table metadata) is open-ended; the
    wire keeps the JSON-native values exact and degrades anything exotic to
    its ``str`` form rather than refusing to serialize the message.
    """
    if isinstance(value, dict):
        return {str(key): sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(item) for item in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    return str(value)


def _binary_frame(obj_type: str) -> ByteWriter:
    writer = ByteWriter()
    writer.raw(BINARY_MAGIC)
    writer.raw(bytes([BINARY_VERSION]))
    writer.lp_str(obj_type)
    return writer


def _binary_load(data: bytes, obj_type: str) -> ByteReader:
    reader = ByteReader(bytes(data))  # cell runs are sliced as bytes
    if bytes(reader.u8() for _ in range(len(BINARY_MAGIC))) != BINARY_MAGIC:
        raise WireError("binary frame missing the F2WB magic")
    version = reader.u8()
    if version != BINARY_VERSION:
        raise WireError(f"unsupported binary frame version {version}")
    found = reader.lp_str()
    if found != obj_type:
        raise WireError(f"expected a {obj_type!r} binary frame, got {found!r}")
    return reader

