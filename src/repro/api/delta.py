"""Server-view deltas: ship only what an incremental insert changed.

``OutsourceRequest`` replaces the provider's whole stored relation.  An
incremental insert leaves the overwhelming majority of ciphertext rows
byte-identical to the previous view, so the update is better expressed as a
*delta* of **copy segments** ("rows ``start..start+n`` of the base,
verbatim") and **literal runs** ("the next ``n`` rows travel on the wire").

Two owner-side builders produce one:

* :func:`splice_view_delta` — the common case.  The incremental tail
  splices the new view from the previous one block by block (see
  :class:`repro.core.conflict.ViewLayout`), so it already knows which old
  row every kept new row came from; the delta is that map, with each
  rebuilt row looked up among the few old rows it can repeat.  No
  alignment, and nothing proportional to the view.
* :func:`compute_view_delta` — a greedy alignment of two arbitrary views,
  for when the base on the server is not the view the owner's previous
  table produced: after a push whose outcome the owner never learned
  (the acknowledged base is then older than the owner's table), and in the
  coordinated multi-writer rebase, where the base is another writer's
  view.  It must align, not diff by position, because re-planned groups
  shift the artificial tail around without changing most row bytes.

The provider checks the base and splices the new view together
(:func:`apply_view_delta`) under the table's write lock.  The base check is
the delta's ``base_rows`` against the stored row count plus the
commit-version compare-and-swap every ``InsertDelta`` carries: the server's
commit version advances on every write and survives restarts, so an
interleaved writer or a store reopened at an older generation both fail
the CAS (``VERSION_CONFLICT``) instead of being
spliced into.  Neither side hashes the whole view.

The result is byte-identical to shipping the full view; only the bytes on
the wire shrink.  When a delta reuses little (or the base check fails
server-side) the owner simply falls back to a full ``OutsourceRequest`` —
exactly like the incremental encryptor falls back to a full pipeline run
on a MAS change.
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

    def row_map(self) -> list[tuple[int, int]]:
        """The new view as runs of its sources, in order: ``(start, count)``
        for base rows, ``(-1, count)`` for the next literal rows (the form
        :meth:`~repro.backend.ComputeBackend.splice_mask` takes).  Call it
        on a delta that has been applied, so its opcodes are well-formed."""
        return [
            (int(segment[1]), int(segment[2])) if segment[0] == OP_COPY else (-1, int(segment[1]))
            for segment in self.segments
        ]

    @property
    def reuse_fraction(self) -> float:
        """Share of the new view served by copy segments (1.0 = all reused)."""
        new_rows = self.new_rows
        if not new_rows:
            return 0.0
        return 1.0 - self.literal_rows / new_rows


class _DeltaBuilder:
    """Accumulates copy and literal opcodes, merging adjacent ones."""

    def __init__(self, new: Relation):
        self.segments: list[list[Any]] = []
        self.literals = Relation(new.schema, name=f"{new.name}-delta")
        self.name = new.name

    def copy(self, start: int, count: int = 1) -> None:
        segments = self.segments
        if segments and segments[-1][0] == OP_COPY and segments[-1][1] + segments[-1][2] == start:
            segments[-1][2] += count
        else:
            segments.append([OP_COPY, start, count])

    def literal(self, row) -> None:
        segments = self.segments
        if segments and segments[-1][0] == OP_LITERAL:
            segments[-1][1] += 1
        else:
            segments.append([OP_LITERAL, 1])
        self.literals.append(list(row))

    def delta(self, base: Relation) -> ViewDelta:
        return ViewDelta(
            base_rows=base.num_rows,
            segments=self.segments,
            literals=self.literals if self.literals.num_rows else None,
            table_name=self.name,
        )


def compute_view_delta(old: Relation, new: Relation) -> ViewDelta:
    """Align ``new`` against ``old`` into copy segments and literal runs.

    Greedy single pass: a new row equal to the base row under the cursor
    extends the current copy run; a row found elsewhere in the base starts a
    new run there; an unseen row becomes a literal.  Identical base rows are
    interchangeable (any index with equal bytes serves), so duplicates need
    no special handling.
    """
    _check_schemas(old, new)
    old_rows = [tuple(row) for row in old.rows()]
    first_index: dict[tuple, int] = {}
    for index, row in enumerate(old_rows):
        first_index.setdefault(row, index)

    builder = _DeltaBuilder(new)
    cursor = 0  # the base row the next copy would extend from
    for row in new.rows():
        key = tuple(row)
        if cursor < len(old_rows) and old_rows[cursor] == key:
            builder.copy(cursor)
            cursor += 1
            continue
        found = first_index.get(key)
        if found is not None:
            builder.copy(found)
            cursor = found + 1
            continue
        builder.literal(row)
    return builder.delta(old)


def splice_view_delta(
    old: Relation, new: Relation, segments: list[list[int]], candidates: list[list[int]]
) -> ViewDelta:
    """The delta of a view the incremental tail spliced from ``old``.

    ``segments`` is the splice's map (:class:`repro.core.conflict.Splice`):
    ``[start, count]`` for ``count`` rows of ``old`` reused verbatim from
    ``start``, ``[-1, count]`` for ``count`` rebuilt rows, in the order of
    ``new``.  Reused runs become copy segments as they are.  A rebuilt row
    may still equal a base row — a re-planned group re-creates most of its
    artificial rows byte for byte — so each one is looked up among the
    ``candidates`` runs of ``old``, and only the rest travel as literals.

    The splice names as candidates every base row a rebuilt row can repeat:
    equal bytes need equal instance variants (or artificial tokens, which
    name their row, group or lattice node), so the repeated row is bound by
    the same re-planned ECG, sits in the block the rebuilt one replaces, or
    is a false-positive row of a re-run Step 4.  The delta therefore ships
    no more literal rows than :func:`compute_view_delta` would, at a cost of
    O(rebuilt + candidate rows) instead of O(view).
    """
    _check_schemas(old, new)
    old_columns = [old.column(attr) for attr in old.attributes]
    new_columns = [new.column(attr) for attr in new.attributes]
    repeats: dict[tuple, int] = {}
    for start, count in candidates:
        for index in range(start, start + count):
            repeats.setdefault(tuple(column[index] for column in old_columns), index)

    builder = _DeltaBuilder(new)
    position = 0
    for start, count in segments:
        if start >= 0:
            builder.copy(start, count)
        else:
            for index in range(position, position + count):
                row = tuple(column[index] for column in new_columns)
                found = repeats.get(row)
                if found is None:
                    builder.literal(row)
                else:
                    builder.copy(found)
        position += count
    return builder.delta(old)


def _check_schemas(old: Relation, new: Relation) -> None:
    if old.schema != new.schema:
        raise ProtocolError(
            "cannot delta between views with different schemas",
            code=ErrorCode.BAD_REQUEST.value,
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
