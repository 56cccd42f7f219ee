"""Server-view deltas: ship only what an incremental insert changed.

``InsertBatch`` replaces the provider's whole stored relation.  With the
materialiser's fresh-nonce retention and instance-ciphertext cache an
incremental insert leaves the overwhelming majority of ciphertext rows
byte-identical to the previous view, so the update is better expressed as
a *delta*:

* the owner aligns the new server view against the previous one she shipped
  (:func:`compute_view_delta`) into **copy segments** ("rows ``start..start+n``
  of the base, verbatim") and **literal runs** ("the next ``n`` rows travel
  on the wire") — an alignment, not a positional diff, because re-planned
  groups shift the artificial tail around without changing most row bytes;
* the provider checks the base and splices the new view together
  (:func:`apply_view_delta`) under the table's write lock.  The base check
  is the delta's ``base_rows`` against the stored row count plus the
  commit-version compare-and-swap every ``InsertDelta`` carries: the
  server's commit version advances on every write and survives restarts,
  so an interleaved writer, a store reopened at an older generation, or a
  restored older snapshot all fail the CAS (``VERSION_CONFLICT``) instead
  of being spliced into.  Neither side hashes the whole view.

The result is byte-identical to shipping the full view; only the bytes on
the wire shrink.  When the alignment finds little to reuse (or the base
check fails server-side) the owner simply falls back to a full
``InsertBatch`` — exactly like the incremental encryptor falls back to a
full pipeline run on a MAS change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ProtocolError
from repro.api.auth import ErrorCode
from repro.relational.table import Relation

#: Segment opcodes (the wire form in ``InsertDelta`` meta documents).
OP_COPY = "c"
OP_LITERAL = "l"


@dataclass
class ViewDelta:
    """An edit script turning one server view into the next.

    ``segments`` is a list of ``["c", start, count]`` (copy ``count`` base
    rows beginning at ``start``) and ``["l", count]`` (take the next
    ``count`` rows from ``literals``) opcodes; applied in order they produce
    the new view exactly.
    """

    base_rows: int
    segments: list[list[Any]] = field(default_factory=list)
    literals: "Relation | None" = None
    table_name: str = ""
    #: Merkle root (hex) of the view the delta produces, when the owner
    #: tracks integrity state (see :mod:`repro.integrity`).  Owner-computed
    #: and recorded — a storage engine without the cached leaf hashes
    #: records it instead of re-hashing.  Empty when the sender does not
    #: verify.
    new_root: str = ""

    @property
    def literal_rows(self) -> int:
        return 0 if self.literals is None else self.literals.num_rows

    @property
    def new_rows(self) -> int:
        total = 0
        for segment in self.segments:
            total += int(segment[2]) if segment[0] == OP_COPY else int(segment[1])
        return total

    @property
    def reuse_fraction(self) -> float:
        """Share of the new view served by copy segments (1.0 = all reused)."""
        new_rows = self.new_rows
        if not new_rows:
            return 0.0
        return 1.0 - self.literal_rows / new_rows


def compute_view_delta(old: Relation, new: Relation) -> ViewDelta:
    """Align ``new`` against ``old`` into copy segments and literal runs.

    Greedy single pass: a new row equal to the base row under the cursor
    extends the current copy run; a row found elsewhere in the base starts a
    new run there; an unseen row becomes a literal.  Identical base rows are
    interchangeable (any index with equal bytes serves), so duplicates need
    no special handling.
    """
    if old.schema != new.schema:
        raise ProtocolError(
            "cannot delta between views with different schemas",
            code=ErrorCode.BAD_REQUEST.value,
        )
    old_rows = [tuple(row) for row in old.rows()]
    first_index: dict[tuple, int] = {}
    for index, row in enumerate(old_rows):
        first_index.setdefault(row, index)

    segments: list[list[Any]] = []
    literals = Relation(new.schema, name=f"{new.name}-delta")
    cursor = 0  # the base row the next copy would extend from

    def extend_copy(index: int) -> None:
        if (
            segments
            and segments[-1][0] == OP_COPY
            and segments[-1][1] + segments[-1][2] == index
        ):
            segments[-1][2] += 1
        else:
            segments.append([OP_COPY, index, 1])

    for row in new.rows():
        key = tuple(row)
        if cursor < len(old_rows) and old_rows[cursor] == key:
            extend_copy(cursor)
            cursor += 1
            continue
        found = first_index.get(key)
        if found is not None:
            extend_copy(found)
            cursor = found + 1
            continue
        if segments and segments[-1][0] == OP_LITERAL:
            segments[-1][1] += 1
        else:
            segments.append([OP_LITERAL, 1])
        literals.append(list(row))

    return ViewDelta(
        base_rows=old.num_rows,
        segments=segments,
        literals=literals if literals.num_rows else None,
        table_name=new.name,
    )


def apply_view_delta(base: Relation, delta: ViewDelta) -> Relation:
    """Replay a delta over the stored base view; every check is hostile-safe.

    Raises :class:`~repro.exceptions.ProtocolError` with
    ``ErrorCode.DELTA_MISMATCH`` when the base row count does not match —
    the sender computed the delta against a different view — and with
    ``BAD_REQUEST`` for structurally invalid segments.  Same-sized bases
    with different bytes are the commit-version CAS's job (the server
    checks it before calling in here).
    """
    if base.num_rows != delta.base_rows:
        raise ProtocolError(
            f"delta base mismatch: the stored view ({base.num_rows} rows) is "
            f"not the one the delta was computed against ({delta.base_rows} "
            "rows expected); re-send a full view",
            code=ErrorCode.DELTA_MISMATCH.value,
        )
    literals = delta.literals
    if literals is not None and literals.schema != base.schema:
        raise ProtocolError(
            "delta literal rows do not match the stored schema",
            code=ErrorCode.BAD_REQUEST.value,
        )
    result = Relation(base.schema, name=delta.table_name or base.name)
    literal_cursor = 0
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
            if count < 0 or start < 0 or start + count > base.num_rows:
                raise ProtocolError(
                    f"copy segment {start}+{count} is outside the base view "
                    f"(0..{base.num_rows})",
                    code=ErrorCode.BAD_REQUEST.value,
                )
            for index in range(start, start + count):
                result.append(list(base.row(index)))
        elif op == OP_LITERAL:
            if len(segment) != 2:
                raise ProtocolError(
                    "malformed literal segment", code=ErrorCode.BAD_REQUEST.value
                )
            count = int(segment[1])
            available = 0 if literals is None else literals.num_rows
            if count < 0 or literal_cursor + count > available:
                raise ProtocolError(
                    "literal segment overruns the shipped literal rows",
                    code=ErrorCode.BAD_REQUEST.value,
                )
            for index in range(literal_cursor, literal_cursor + count):
                result.append(list(literals.row(index)))  # type: ignore[union-attr]
            literal_cursor += count
        else:
            raise ProtocolError(
                f"unknown delta opcode {op!r}", code=ErrorCode.BAD_REQUEST.value
            )
    if literals is not None and literal_cursor != literals.num_rows:
        raise ProtocolError(
            "delta shipped more literal rows than its segments consume",
            code=ErrorCode.BAD_REQUEST.value,
        )
    return result
