"""Column-oriented in-memory relations.

The :class:`Relation` is the single data container shared by the whole
library: FD/MAS discovery, the F2 encryption pipeline, the attack module, and
the benchmark harness all consume and produce relations.  Cells are arbitrary
hashable Python values (strings, ints, or :class:`repro.crypto` ciphertext
objects), because the paper's scheme encrypts at *cell* granularity and the
server-side algorithms only ever compare cells for equality.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import repeat
from operator import getitem, sub
from typing import TYPE_CHECKING, Any

from repro.exceptions import RelationError, SchemaError
from repro.relational.persistent import Chunks, splice
from repro.relational.schema import AttributeSet, Schema

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.backend import ComputeBackend
    from repro.relational.coded import CodedColumn, CodedRelation

Row = tuple[Any, ...]


class Relation:
    """An immutable-schema, append-only relational table.

    Data is stored column-oriented (one list per attribute) because the
    dominant access patterns — building partitions over attribute sets,
    projecting attribute sets, counting value frequencies — are columnar.

    A relation can also hold its columns as shared, immutable
    :class:`~repro.relational.persistent.Chunks` (:meth:`adopt_chunks`,
    :meth:`extended`): the data owner's plaintext and server view, whose
    next version after an insert shares every chunk the insert left alone.
    ``num_rows``, ``row``, ``value`` and ``select_rows`` read through the
    chunks (or the lists, once there are lists).  The first whole-column
    read (``column``, ``rows``, ``coded`` and everything built on them)
    flattens that column once and caches the list; a mutation flattens
    every column and drops the chunks.  Either way every method returns
    exactly what it would on list storage.

    Parameters
    ----------
    schema:
        The relation schema, or a sequence of attribute names.
    rows:
        Optional initial rows; each row must have exactly one value per
        attribute.
    name:
        Optional human-readable name used in reports and benchmark output.
    """

    __slots__ = ("_schema", "_columns", "_chunks", "_name", "_version", "_coded_cache")

    def __init__(
        self,
        schema: Schema | Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        name: str = "relation",
    ):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self._schema = schema
        self._name = name
        #: One list per attribute; ``None`` for a column of a chunked
        #: relation not yet read whole.
        self._columns: list[list[Any] | None] = [[] for _ in schema]
        #: The same columns as chunks sharing one ``ends`` list, or ``None``.
        self._chunks: list[Chunks] | None = None
        self._version = 0
        self._coded_cache: dict[str, "CodedRelation"] = {}
        self.extend(rows)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        records: Iterable[Mapping[str, Any]],
        schema: Schema | Sequence[str] | None = None,
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from an iterable of ``{attribute: value}`` mappings.

        When ``schema`` is omitted it is inferred from the first record (in
        insertion order of its keys).
        """
        records = list(records)
        if schema is None:
            if not records:
                raise RelationError("cannot infer a schema from zero records")
            schema = Schema(list(records[0].keys()))
        elif not isinstance(schema, Schema):
            schema = Schema(schema)
        rows = []
        for record in records:
            try:
                rows.append(tuple(record[attr] for attr in schema))
            except KeyError as exc:
                raise RelationError(f"record missing attribute {exc.args[0]!r}") from None
        return cls(schema, rows, name=name)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[Any]],
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from a mapping of attribute name to column values."""
        schema = Schema(list(columns.keys()))
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise RelationError(f"columns have inconsistent lengths: {sorted(lengths)}")
        relation = cls(schema, name=name)
        n = lengths.pop() if lengths else 0
        relation._columns = [list(columns[attr]) for attr in schema]
        if n and any(len(col) != n for col in relation._columns):
            raise RelationError("internal column-length mismatch")
        return relation

    @classmethod
    def adopt_columns(
        cls, schema: Schema, columns: list[list[Any]], name: str = "relation"
    ) -> "Relation":
        """A relation over ``columns`` (schema order) without copying them.

        The caller hands the lists over and must not touch them again.
        """
        if len(columns) != len(schema) or len({len(column) for column in columns}) > 1:
            raise RelationError("columns do not match the schema or each other")
        relation = cls(schema, name=name)
        relation._columns = columns
        return relation

    @classmethod
    def adopt_chunks(
        cls, schema: Schema, columns: list[Chunks], name: str = "relation"
    ) -> "Relation":
        """A relation over chunked ``columns`` (schema order, one ``ends``
        list), shared as they are."""
        if len(columns) != len(schema) or any(
            column.ends is not columns[0].ends and column.ends != columns[0].ends
            for column in columns
        ):
            raise RelationError("chunked columns do not match the schema or each other")
        relation = cls(schema, name=name)
        relation._columns = [None] * len(columns)
        relation._chunks = columns
        return relation

    def chunked(self) -> list[Chunks]:
        """The columns as chunks (schema order), built and kept on first call
        for a relation stored as lists.  Never mutate them."""
        chunks = self._chunks
        if chunks is None:
            chunks = self._chunks = splice(None, self._flat_columns())
        return chunks

    def extended(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> "Relation":
        """A new relation: this one's rows, then ``rows``.

        This relation is left as it is, and the new one shares every chunk
        of it but the last (see :func:`repro.relational.persistent.splice`).
        """
        values = [self._row_values(row) for row in rows]
        if not values:
            return self.copy()
        base = self.chunked()
        segments = [[0, self.num_rows], [-1, len(values)]]
        return Relation.adopt_chunks(
            self._schema, splice(base, list(zip(*values)), segments), name=self._name
        )

    def empty_like(self, name: str | None = None) -> "Relation":
        """Return a new empty relation with the same schema."""
        return Relation(self._schema, name=name or self._name)

    def copy(self, name: str | None = None) -> "Relation":
        """Return a deep-enough copy (fresh column lists, shared cell objects).

        A chunked relation's copy shares its chunks, which nothing mutates.
        """
        clone = Relation(self._schema, name=name or self._name)
        if self._chunks is not None:
            clone._columns = [None] * len(self._chunks)
            clone._chunks = self._chunks
        else:
            clone._columns = [list(col) for col in self._columns]  # type: ignore[arg-type]
        return clone

    def _column_at(self, position: int) -> list[Any]:
        """Column ``position`` as a list, flattened from the chunks once."""
        column = self._columns[position]
        if column is None:
            chunks = self._chunks
            assert chunks is not None
            column = self._columns[position] = list(chunks[position])
        return column

    def _flat_columns(self) -> list[list[Any]]:
        return [self._column_at(position) for position in range(len(self._columns))]

    def _read_chunks(self) -> "list[Chunks] | None":
        """The chunks to read rows through: ``None`` once every column is a
        list (flat reads are cheaper)."""
        chunks = self._chunks
        return chunks if chunks is not None and None in self._columns else None

    def _own(self) -> None:
        """Before a mutation: flatten every column and drop the chunks."""
        if self._chunks is not None:
            self._flat_columns()
            self._chunks = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def name(self) -> str:
        return self._name

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._schema.attributes

    @property
    def num_attributes(self) -> int:
        return len(self._schema)

    @property
    def num_rows(self) -> int:
        chunks = self._chunks
        if chunks is not None:
            return len(chunks[0])
        return len(self._columns[0]) if self._columns else 0  # type: ignore[arg-type]

    @property
    def version(self) -> int:
        """Mutation counter; bumps on append/overwrite (coded-cache key)."""
        return self._version

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"Relation(name={self._name!r}, attributes={self.num_attributes}, "
            f"rows={self.num_rows})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._flat_columns() == other._flat_columns()

    # ------------------------------------------------------------------
    # Row access and mutation
    # ------------------------------------------------------------------
    def _row_values(self, row: Sequence[Any] | Mapping[str, Any]) -> list[Any]:
        """One row's values in schema order (a sequence or a mapping)."""
        if isinstance(row, Mapping):
            try:
                return [row[attr] for attr in self._schema]
            except KeyError as exc:
                raise RelationError(f"record missing attribute {exc.args[0]!r}") from None
        values = list(row)
        if len(values) != len(self._schema):
            raise RelationError(
                f"row has {len(values)} values, schema has {len(self._schema)} attributes"
            )
        return values

    def append(self, row: Sequence[Any] | Mapping[str, Any]) -> None:
        """Append one row (a sequence in schema order or a mapping)."""
        values = self._row_values(row)
        self._own()
        for column, value in zip(self._columns, values):
            column.append(value)  # type: ignore[union-attr]
        self._version += 1

    def extend(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    def row(self, index: int) -> Row:
        """Return the row at ``index`` as a tuple in schema order."""
        if not 0 <= index < self.num_rows:
            raise RelationError(f"row index {index} out of range [0, {self.num_rows})")
        chunks = self._read_chunks()
        if chunks is not None:
            k, offset = chunks[0].locate(index)
            return tuple(column.chunks[k][offset] for column in chunks)
        return tuple(column[index] for column in self._columns)  # type: ignore[index]

    def rows(self) -> Iterator[Row]:
        """Iterate over all rows as tuples in schema order."""
        return iter(zip(*self._flat_columns())) if self.num_rows else iter(())

    def row_dict(self, index: int) -> dict[str, Any]:
        """Return the row at ``index`` as an ``{attribute: value}`` dict."""
        return dict(zip(self._schema.attributes, self.row(index)))

    def value(self, index: int, attribute: str) -> Any:
        """Return a single cell value."""
        position = self._schema.index_of(attribute)
        column = self._columns[position]
        if column is None:
            return self._chunks[position][index]  # type: ignore[index]
        return column[index]

    def set_value(self, index: int, attribute: str, value: Any) -> None:
        """Overwrite a single cell value (used by the encryption pipeline)."""
        if not 0 <= index < self.num_rows:
            raise RelationError(f"row index {index} out of range [0, {self.num_rows})")
        self._own()
        self._columns[self._schema.index_of(attribute)][index] = value  # type: ignore[index]
        self._version += 1

    def column(self, attribute: str) -> list[Any]:
        """Return the column for ``attribute`` (a live list — do not mutate)."""
        return self._column_at(self._schema.index_of(attribute))

    # ------------------------------------------------------------------
    # Relational operations used by the algorithms
    # ------------------------------------------------------------------
    def project_row(self, index: int, attributes: Iterable[str]) -> Row:
        """Return the values of one row restricted to ``attributes``.

        Values are returned in schema order so that the same attribute set
        always yields comparable tuples.
        """
        ordered = self._schema.ordered(attributes)
        return tuple(self.value(index, attr) for attr in ordered)

    def project(self, attributes: Iterable[str], name: str | None = None) -> "Relation":
        """Return a new relation containing only ``attributes``."""
        ordered = self._schema.ordered(attributes)
        if not ordered:
            raise SchemaError("cannot project onto zero attributes")
        projected = Relation(Schema(ordered), name=name or f"{self._name}[{','.join(ordered)}]")
        projected._columns = [list(self.column(attr)) for attr in ordered]
        return projected

    def select_rows(self, indexes: Iterable[int], name: str | None = None) -> "Relation":
        """Return a new relation with the rows at ``indexes`` (in given order)."""
        selected = Relation(self._schema, name=name or self._name)
        index_list = list(indexes)
        if not index_list:
            return selected
        chunks = self._read_chunks()
        if chunks is None:
            for column, target in zip(self._columns, selected._columns):
                target.extend(map(column.__getitem__, index_list))  # type: ignore[union-attr]
            return selected
        size = self.num_rows
        low, high = min(index_list), max(index_list)
        if low < -size or high >= size:
            raise IndexError("row index out of range")
        if low < 0:
            index_list = [index % size for index in index_list]
        # Every column has the same chunk boundaries: locate each row once.
        ends = chunks[0].ends
        places = list(map(bisect_right, repeat(ends), index_list))
        starts = [0, *ends[:-1]]
        offsets = list(map(sub, index_list, map(starts.__getitem__, places)))
        for column, target in zip(chunks, selected._columns):
            target.extend(map(getitem, map(column.chunks.__getitem__, places), offsets))  # type: ignore[union-attr]
        return selected

    def coded(self, backend: "ComputeBackend | str | None" = None) -> "CodedRelation":
        """The dictionary-encoded columnar view of this relation.

        The view is built once per (relation contents, backend) and cached:
        repeated calls return the same object until a row is appended or a
        cell overwritten, at which point the next call re-encodes.  All
        pipeline stages, FD discovery, and the attack module share this one
        encoding instead of re-hashing cell objects per algorithm, and a
        view under a second backend converts the first one's codes rather
        than factorising again.
        """
        from repro.backend import get_backend
        from repro.relational.coded import CodedRelation

        resolved = get_backend(backend)
        cached = self._coded_cache.get(resolved.name)
        if cached is None or cached.version != self._version:
            cached = CodedRelation(self, resolved)
            self._coded_cache[resolved.name] = cached
        return cached

    def _coded_sibling(self, view: "CodedRelation", attribute: str) -> "CodedColumn | None":
        """A current coded view's column of ``attribute`` other than ``view``'s."""
        for other in tuple(self._coded_cache.values()):  # one atomic copy
            if other is not view and other.version == self._version:
                column = other.cached_column(attribute)
                if column is not None:
                    return column
        return None

    def value_frequencies(self, attributes: Iterable[str]) -> dict[Row, int]:
        """Frequency of each distinct value combination of ``attributes``.

        This is ``|sigma_{A=r[A]}(D)|`` of the paper for every distinct
        ``r[A]`` at once.
        """
        ordered = self._schema.ordered(attributes)
        columns = [self.column(attr) for attr in ordered]
        counts: dict[Row, int] = {}
        for combo in zip(*columns):
            counts[combo] = counts.get(combo, 0) + 1
        return counts

    def distinct_values(self, attribute: str) -> set[Any]:
        """The set of distinct values of one attribute."""
        return set(self.column(attribute))

    def domain_sizes(self) -> dict[str, int]:
        """Distinct-value count per attribute (the paper's 'domain size')."""
        return {attr: len(set(self.column(attr))) for attr in self._schema}

    def concat(self, other: "Relation", name: str | None = None) -> "Relation":
        """Return a new relation containing the rows of ``self`` then ``other``."""
        if other.schema != self._schema:
            raise RelationError("cannot concatenate relations with different schemas")
        return Relation.adopt_columns(
            self._schema,
            [self.column(attr) + other.column(attr) for attr in self._schema],
            name=name or self._name,
        )

    def approximate_size_bytes(self) -> int:
        """A rough serialized size estimate used for 'dataset size' reporting.

        The paper reports dataset sizes in MB/GB; we estimate the size of the
        CSV serialization (cell text length + separators) without writing it.
        """
        total = 0
        for column in self._flat_columns():
            for value in column:
                total += len(str(value)) + 1
        return total

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialise the relation as a list of per-row dicts."""
        return [self.row_dict(i) for i in range(self.num_rows)]
