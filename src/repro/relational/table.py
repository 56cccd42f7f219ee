"""Column-oriented in-memory relations.

The :class:`Relation` is the single data container shared by the whole
library: FD/MAS discovery, the F2 encryption pipeline, the attack module, and
the benchmark harness all consume and produce relations.  Cells are arbitrary
hashable Python values (strings, ints, or :class:`repro.crypto` ciphertext
objects), because the paper's scheme encrypts at *cell* granularity and the
server-side algorithms only ever compare cells for equality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.exceptions import RelationError, SchemaError
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

    __slots__ = ("_schema", "_columns", "_name", "_version", "_coded_cache")

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
        self._columns: list[list[Any]] = [[] for _ in schema]
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

    def empty_like(self, name: str | None = None) -> "Relation":
        """Return a new empty relation with the same schema."""
        return Relation(self._schema, name=name or self._name)

    def copy(self, name: str | None = None) -> "Relation":
        """Return a deep-enough copy (fresh column lists, shared cell objects)."""
        clone = Relation(self._schema, name=name or self._name)
        clone._columns = [list(col) for col in self._columns]
        return clone

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
        return len(self._columns[0]) if self._columns else 0

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
        return self._schema == other._schema and self._columns == other._columns

    # ------------------------------------------------------------------
    # Row access and mutation
    # ------------------------------------------------------------------
    def append(self, row: Sequence[Any] | Mapping[str, Any]) -> None:
        """Append one row (a sequence in schema order or a mapping)."""
        if isinstance(row, Mapping):
            try:
                values = [row[attr] for attr in self._schema]
            except KeyError as exc:
                raise RelationError(f"record missing attribute {exc.args[0]!r}") from None
        else:
            values = list(row)
            if len(values) != len(self._schema):
                raise RelationError(
                    f"row has {len(values)} values, schema has {len(self._schema)} attributes"
                )
        for column, value in zip(self._columns, values):
            column.append(value)
        self._version += 1

    def extend(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    def row(self, index: int) -> Row:
        """Return the row at ``index`` as a tuple in schema order."""
        if not 0 <= index < self.num_rows:
            raise RelationError(f"row index {index} out of range [0, {self.num_rows})")
        return tuple(column[index] for column in self._columns)

    def rows(self) -> Iterator[Row]:
        """Iterate over all rows as tuples in schema order."""
        return iter(zip(*self._columns)) if self.num_rows else iter(())

    def row_dict(self, index: int) -> dict[str, Any]:
        """Return the row at ``index`` as an ``{attribute: value}`` dict."""
        return dict(zip(self._schema.attributes, self.row(index)))

    def value(self, index: int, attribute: str) -> Any:
        """Return a single cell value."""
        return self._columns[self._schema.index_of(attribute)][index]

    def set_value(self, index: int, attribute: str, value: Any) -> None:
        """Overwrite a single cell value (used by the encryption pipeline)."""
        if not 0 <= index < self.num_rows:
            raise RelationError(f"row index {index} out of range [0, {self.num_rows})")
        self._columns[self._schema.index_of(attribute)][index] = value
        self._version += 1

    def column(self, attribute: str) -> list[Any]:
        """Return the column for ``attribute`` (a live list — do not mutate)."""
        return self._columns[self._schema.index_of(attribute)]

    # ------------------------------------------------------------------
    # Relational operations used by the algorithms
    # ------------------------------------------------------------------
    def project_row(self, index: int, attributes: Iterable[str]) -> Row:
        """Return the values of one row restricted to ``attributes``.

        Values are returned in schema order so that the same attribute set
        always yields comparable tuples.
        """
        ordered = self._schema.ordered(attributes)
        return tuple(self._columns[self._schema.index_of(attr)][index] for attr in ordered)

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
        for column, target in zip(self._columns, selected._columns):
            target.extend(column[i] for i in index_list)
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
        merged = self.copy(name=name or self._name)
        for attr in self._schema:
            merged.column(attr).extend(other.column(attr))
        merged._version += 1
        return merged

    def approximate_size_bytes(self) -> int:
        """A rough serialized size estimate used for 'dataset size' reporting.

        The paper reports dataset sizes in MB/GB; we estimate the size of the
        CSV serialization (cell text length + separators) without writing it.
        """
        total = 0
        for column in self._columns:
            for value in column:
                total += len(str(value)) + 1
        return total

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialise the relation as a list of per-row dicts."""
        return [self.row_dict(i) for i in range(self.num_rows)]
