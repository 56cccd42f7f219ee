"""Wire codec: the binary serialization of the protocol's payloads.

Every object the two parties exchange — ciphertext cells, relations, TANE
results — round-trips through one length-prefixed frame built on the
primitives of :mod:`repro.wire.binary`: a magic, a version byte and an
object-type tag, then the object's body.

Relations are serialized *columnar and dictionary-encoded*: the codec
reuses the coded view of :meth:`repro.relational.table.Relation.coded`
(PR 2's compute engine), so each distinct cell value — in particular each
distinct ciphertext — is serialized exactly once per column and the row
body is just an integer code array.  For F2 ciphertext tables, where
splitting-and-scaling deliberately repeats ciphertext values to homogenise
frequencies, this is also a large size win over per-cell serialization.

The decoded objects compare equal to the originals (``Ciphertext`` is a
frozen dataclass, relations compare by schema + columns), which is what
lets the session facades in :mod:`repro.api.session` stay byte-identical
to the pre-protocol in-process objects.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.backend import ComputeBackend
from repro.crypto.probabilistic import Ciphertext
from repro.exceptions import WireError
from repro.fd.fd import FDSet, FunctionalDependency
from repro.fd.tane import TaneResult
from repro.relational.schema import Schema
from repro.relational.table import Relation
from repro.wire.binary import ByteReader, ByteWriter

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
def _write_cell(writer: ByteWriter, value: Any) -> None:
    if isinstance(value, Ciphertext):
        writer.raw(bytes([_CELL_CIPHERTEXT]))
        writer.lp_bytes(value.to_bytes())
    elif isinstance(value, bool):  # before int: bool is an int subclass
        writer.raw(bytes([_CELL_TRUE if value else _CELL_FALSE]))
    elif isinstance(value, str):
        writer.raw(bytes([_CELL_STR]))
        writer.lp_str(value)
    elif isinstance(value, int):
        writer.raw(bytes([_CELL_INT]))
        writer.svarint(value)
    elif isinstance(value, float):
        writer.raw(bytes([_CELL_FLOAT]))
        writer.double(value)
    elif value is None:
        writer.raw(bytes([_CELL_NONE]))
    else:
        raise WireError(f"unsupported cell type for the wire: {type(value).__name__}")


def _read_cell(reader: ByteReader) -> Any:
    tag = reader.u8()
    if tag == _CELL_STR:
        return reader.lp_str()
    if tag == _CELL_INT:
        return reader.svarint()
    if tag == _CELL_CIPHERTEXT:
        return Ciphertext.from_bytes(reader.lp_bytes())
    if tag == _CELL_FLOAT:
        return reader.double()
    if tag == _CELL_TRUE:
        return True
    if tag == _CELL_FALSE:
        return False
    if tag == _CELL_NONE:
        return None
    raise WireError(f"unknown cell tag {tag} in binary frame")


def encode_cell_run(values: Sequence[Any]) -> bytes:
    """Serialize a bare run of cells (no frame header, no count prefix).

    The segment store's dictionary blobs are append-only concatenations of
    these runs — appending a delta's new dictionary values is a file append,
    and the committed value count lives in the manifest instead of a header
    that would have to be rewritten in place.
    """
    writer = ByteWriter()
    for value in values:
        _write_cell(writer, value)
    return writer.getvalue()


def decode_cell_run(data: bytes, count: int) -> list[Any]:
    """Inverse of :func:`encode_cell_run`; ``data`` must hold exactly ``count`` cells."""
    reader = ByteReader(data)
    values = [_read_cell(reader) for _ in range(count)]
    reader.expect_end()
    return values


def encode_cells(cells: Sequence[Any]) -> bytes:
    """Serialize a flat list of cell values (e.g. a query token)."""
    writer = _binary_frame("cells")
    writer.uvarint(len(cells))
    for cell in cells:
        _write_cell(writer, cell)
    return writer.getvalue()


def decode_cells(data: bytes) -> list[Any]:
    """Inverse of :func:`encode_cells`."""
    reader = _binary_load(data, "cells")
    cells = [_read_cell(reader) for _ in range(reader.uvarint())]
    reader.expect_end()
    return cells


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------
def encode_relation(
    relation: Relation, backend: "ComputeBackend | str | None" = None
) -> bytes:
    """Serialize a relation, dictionary-encoded per column.

    The per-column ``(codes, dictionary)`` pairs come straight from the
    cached coded view (``relation.coded(backend)``), so repeated encodes of
    an unchanged relation never re-factorize, and each distinct ciphertext
    is written once per column regardless of its frequency.
    """
    coded = relation.coded(backend)
    columns = [coded.column(attr) for attr in relation.attributes]
    writer = _binary_frame("relation")
    writer.lp_str(relation.name)
    writer.uvarint(len(columns))
    writer.uvarint(relation.num_rows)
    for attr, column in zip(relation.attributes, columns):
        writer.lp_str(attr)
        writer.uvarint(column.num_values)
        for value in column.dictionary:
            _write_cell(writer, value)
        writer.code_array(column.codes, column.num_values)
    return writer.getvalue()


def decode_relation(data: bytes) -> Relation:
    """Inverse of :func:`encode_relation`."""
    reader = _binary_load(data, "relation")
    name = reader.lp_str()
    num_columns = reader.uvarint()
    num_rows = reader.uvarint()
    attributes: list[str] = []
    columns = []
    for _ in range(num_columns):
        attributes.append(reader.lp_str())
        dictionary = [_read_cell(reader) for _ in range(reader.uvarint())]
        codes = reader.code_array()
        columns.append(_expand_column(dictionary, codes, num_rows))
    reader.expect_end()
    return _build_relation(name, attributes, columns)


def _expand_column(dictionary: list[Any], codes: Iterable[int], num_rows: int) -> list[Any]:
    try:
        column = [dictionary[code] for code in codes]
    except (IndexError, TypeError) as exc:
        raise WireError("relation payload: code outside its dictionary") from exc
    if len(column) != num_rows:
        raise WireError(
            f"relation payload: column has {len(column)} rows, header says {num_rows}"
        )
    return column


def _build_relation(name: str, attributes: list[str], columns: list[list[Any]]) -> Relation:
    relation = Relation(Schema(attributes), name=name)
    relation._columns = columns  # noqa: SLF001 - avoids a per-row append pass
    return relation


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
    reader = ByteReader(data)
    if bytes(reader.u8() for _ in range(len(BINARY_MAGIC))) != BINARY_MAGIC:
        raise WireError("binary frame missing the F2WB magic")
    version = reader.u8()
    if version != BINARY_VERSION:
        raise WireError(f"unsupported binary frame version {version}")
    found = reader.lp_str()
    if found != obj_type:
        raise WireError(f"expected a {obj_type!r} binary frame, got {found!r}")
    return reader

