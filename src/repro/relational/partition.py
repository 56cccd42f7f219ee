"""Partitions and equivalence classes (Definition 3.3 of the paper).

Given a relation ``D`` and an attribute set ``X``, the *partition* ``pi_X`` is
the set of *equivalence classes* (ECs): maximal sets of row indexes that agree
on every attribute of ``X``.  Partitions are the shared currency of the whole
system:

* TANE discovers FDs by testing partition refinement (``X -> A`` holds iff
  ``pi_X`` refines ``pi_{A}``);
* MAS discovery asks whether a partition contains any EC of size > 1;
* F2's ECG grouping, splitting-and-scaling, and false-positive elimination all
  operate directly on ECs.

The implementation keeps both the EC objects (row indexes + representative
value) and a row-to-class index, and supports the *stripped partition product*
used by TANE so that multi-attribute partitions can be built incrementally.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.backend import ComputeBackend
from repro.exceptions import RelationError
from repro.relational.schema import AttributeSet
from repro.relational.table import Relation, Row


@dataclass(frozen=True)
class EquivalenceClass:
    """One equivalence class of a partition ``pi_X``.

    Attributes
    ----------
    attributes:
        The attribute set ``X`` (in schema order) the class belongs to.
    representative:
        ``r[X]`` — the common value tuple of every member row, in the same
        order as ``attributes``.
    rows:
        The member row indexes, sorted ascending.
    """

    attributes: tuple[str, ...]
    representative: Row
    rows: tuple[int, ...]
    #: Dictionary codes of the representative (one per attribute, from the
    #: relation's coded view); ``None`` for classes built without one.
    codes: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        """Number of member rows (the paper's EC frequency ``f``)."""
        return len(self.rows)

    def value_of(self, attribute: str) -> Any:
        """The representative value of one attribute of ``X``."""
        try:
            return self.representative[self.attributes.index(attribute)]
        except ValueError:
            raise RelationError(
                f"attribute {attribute!r} is not part of this equivalence class"
            ) from None

    def collides_with(self, other: "EquivalenceClass") -> bool:
        """Definition 3.4: two ECs collide if they share a value on any attribute.

        Both classes must be over the same attribute set; collision is checked
        attribute by attribute on the representative values.
        """
        if self.attributes != other.attributes:
            raise RelationError("collision is only defined for ECs of the same attribute set")
        return any(a == b for a, b in zip(self.representative, other.representative))

    def __len__(self) -> int:
        return len(self.rows)


class Partition:
    """The partition ``pi_X`` of a relation under an attribute set ``X``."""

    __slots__ = ("_attributes", "_classes", "_row_to_class", "_num_rows", "backend")

    def __init__(
        self,
        attributes: Sequence[str],
        classes: Sequence[EquivalenceClass],
        num_rows: int,
        backend: ComputeBackend | None = None,
    ):
        self._attributes = tuple(attributes)
        self._classes = list(classes)
        self._num_rows = num_rows
        self.backend = backend
        self._row_to_class: dict[int, int] = {}
        for class_index, ec in enumerate(self._classes):
            for row in ec.rows:
                self._row_to_class[row] = class_index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        relation: Relation,
        attributes: Iterable[str],
        backend: ComputeBackend | str | None = None,
    ) -> "Partition":
        """Compute ``pi_X`` for ``relation`` and attribute set ``X``.

        Runs on the relation's dictionary-encoded columnar view: rows are
        grouped by integer code instead of hashing cell objects, and each
        class keeps the code tuple of its representative for downstream
        collision tests.
        """
        ordered = relation.schema.ordered(attributes)
        if not ordered:
            raise RelationError("a partition requires at least one attribute")
        coded = relation.coded(backend)
        groups = coded.group_rows(ordered)
        code_matrix = coded.class_code_matrix(ordered, groups)
        columns = [relation.column(attr) for attr in ordered]
        classes = [
            EquivalenceClass(
                attributes=ordered,
                representative=tuple(column[rows[0]] for column in columns),
                rows=tuple(rows),
                codes=codes,
            )
            for rows, codes in zip(groups, code_matrix)
        ]
        return cls(ordered, classes, relation.num_rows, backend=coded.backend)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def classes(self) -> list[EquivalenceClass]:
        return list(self._classes)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        """Number of equivalence classes."""
        return len(self._classes)

    def __iter__(self) -> Iterator[EquivalenceClass]:
        return iter(self._classes)

    def __repr__(self) -> str:
        return (
            f"Partition(attributes={list(self._attributes)!r}, "
            f"classes={len(self._classes)}, rows={self._num_rows})"
        )

    def class_of_row(self, row_index: int) -> EquivalenceClass:
        """Return the equivalence class containing ``row_index``."""
        try:
            return self._classes[self._row_to_class[row_index]]
        except KeyError:
            raise RelationError(f"row {row_index} is not covered by this partition") from None

    def non_singleton_classes(self) -> list[EquivalenceClass]:
        """All ECs of size > 1 — the classes that matter for MASs and F2."""
        return [ec for ec in self._classes if ec.size > 1]

    def has_duplicates(self) -> bool:
        """True iff at least one EC has size > 1 (MAS condition (1))."""
        return any(ec.size > 1 for ec in self._classes)

    def error_count(self) -> int:
        """TANE's e(X): rows minus number of classes (0 means X is a key)."""
        return self._num_rows - len(self._classes)

    # ------------------------------------------------------------------
    # Refinement and products
    # ------------------------------------------------------------------
    def refines(self, other: "Partition") -> bool:
        """True iff every EC of ``self`` is contained in one EC of ``other``.

        ``X -> A`` holds iff ``pi_X`` refines ``pi_{A}`` (Huhtala et al.,
        cited as [16] in the paper).
        """
        if other.num_rows != self._num_rows:
            raise RelationError("cannot compare partitions over different relations")
        for ec in self._classes:
            first_class = other._row_to_class.get(ec.rows[0])
            if any(other._row_to_class.get(row) != first_class for row in ec.rows[1:]):
                return False
        return True

    def product(self, other: "Partition") -> "Partition":
        """The partition ``pi_{X union Y}`` obtained from ``pi_X * pi_Y``.

        Rows belong to the same product class iff they belong to the same
        class in both inputs.  The attribute tuple of the result is the sorted
        union of both attribute tuples; representatives are rebuilt from the
        two inputs.
        """
        if other.num_rows != self._num_rows:
            raise RelationError("cannot multiply partitions over different relations")
        merged_attrs = tuple(sorted(set(self._attributes) | set(other._attributes)))
        groups: dict[tuple[int, int], list[int]] = {}
        for row in range(self._num_rows):
            key = (self._row_to_class[row], other._row_to_class[row])
            groups.setdefault(key, []).append(row)

        def representative_for(row: int) -> Row:
            values: dict[str, Any] = {}
            own = self.class_of_row(row)
            for attr, value in zip(own.attributes, own.representative):
                values[attr] = value
            theirs = other.class_of_row(row)
            for attr, value in zip(theirs.attributes, theirs.representative):
                values[attr] = value
            return tuple(values[attr] for attr in merged_attrs)

        classes = [
            EquivalenceClass(
                attributes=merged_attrs,
                representative=representative_for(rows[0]),
                rows=tuple(rows),
            )
            for rows in groups.values()
        ]
        classes.sort(key=lambda ec: ec.rows[0])
        return Partition(merged_attrs, classes, self._num_rows)

    def average_class_size(self) -> float:
        """Mean EC size; reported in the paper's scalability discussion."""
        if not self._classes:
            return 0.0
        return self._num_rows / len(self._classes)


class StrippedPartition:
    """TANE's stripped partition: singleton classes removed.

    Only row-class membership is kept because TANE never needs the
    representative values — it compares partition errors.  The partition is
    held in the compute backend's *flat* array form (see
    :class:`repro.backend.ComputeBackend`) and products chain flat-to-flat
    in the backend; the ``groups`` lists are materialised lazily (in
    canonical order: sorted by first row, rows ascending) only when a caller
    reads them.  Discovery results are identical on every backend.
    """

    __slots__ = ("attributes", "num_rows", "backend", "flat", "_groups")

    def __init__(
        self,
        attributes: tuple[str, ...],
        num_rows: int,
        backend: ComputeBackend,
        flat: tuple,
    ):
        self.attributes = tuple(attributes)
        self.num_rows = num_rows
        self.backend = backend
        self.flat = flat
        self._groups: list[list[int]] | None = None

    def __repr__(self) -> str:
        return (
            f"StrippedPartition(attributes={list(self.attributes)!r}, "
            f"groups={len(self.groups)}, rows={self.num_rows})"
        )

    @property
    def groups(self) -> list[list[int]]:
        """The row-index groups in canonical order (materialised on demand)."""
        if self._groups is None:
            self._groups = self.backend.materialize_groups(self.flat)
        return self._groups

    @classmethod
    def build(
        cls,
        relation: Relation,
        attributes: Iterable[str],
        backend: ComputeBackend | str | None = None,
    ) -> "StrippedPartition":
        """Build directly from the coded view (no full partition needed)."""
        ordered = relation.schema.ordered(attributes)
        if not ordered:
            raise RelationError("a partition requires at least one attribute")
        coded = relation.coded(backend)
        codes, num_groups = coded.codes_for(ordered)
        return cls(
            attributes=ordered,
            num_rows=relation.num_rows,
            backend=coded.backend,
            flat=coded.backend.stripped_from_codes(codes, num_groups),
        )

    @property
    def error(self) -> int:
        """``||pi|| - |pi||`` in TANE terms: rows in groups minus group count."""
        return self.backend.stripped_error(self.flat)

    def product(self, other: "StrippedPartition") -> "StrippedPartition":
        """Stripped-partition product (the linear-time TANE procedure)."""
        if other.num_rows != self.num_rows:
            raise RelationError("cannot multiply partitions over different relations")
        if other.backend.name != self.backend.name:
            raise RelationError("cannot multiply partitions held by different backends")
        return StrippedPartition(
            attributes=tuple(sorted(set(self.attributes) | set(other.attributes))),
            num_rows=self.num_rows,
            backend=self.backend,
            flat=self.backend.stripped_product_flat(self.flat, other.flat, self.num_rows),
        )
