"""Dictionary-encoded columnar view of a relation.

Every hot algorithm in the system — stripped-partition refinement (TANE),
MAS non-uniqueness tests, equivalence-class grouping, false-positive witness
search, frequency analysis — only ever compares cells for *equality*.  The
:class:`CodedRelation` therefore encodes each column once into a dense
integer code array plus a value dictionary (``dictionary[code] -> value``,
codes in first-occurrence order) and lets those algorithms run on machine
integers instead of hashing arbitrary cell objects over and over.

The coded view is built lazily per column, cached on the owning
:class:`~repro.relational.table.Relation` (one cache entry per backend), and
invalidated automatically when rows are appended or cells overwritten — see
:meth:`Relation.coded`.  All array work is delegated to a pluggable
:class:`repro.backend.ComputeBackend`, so the same view powers both the
pure-Python reference path and the NumPy path.

A column is factorised at most once per relation contents: a view under a
second backend converts the first view's codes (:meth:`CodedColumn.on`),
and a relation decoded off the wire arrives with its columns already coded
(:meth:`CodedRelation.adopt_column`, validated by the codec).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import RelationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.relational.table import Relation


class CodedColumn:
    """One dictionary-encoded column: codes + value dictionary.

    ``run`` and ``packed`` hold the column's wire form once it has one: the
    dictionary as one serialized cell run and the codes packed at the
    smallest fixed width (see :mod:`repro.wire.codec`).  The codec fills
    them, on either side of the wire, and the segment store writes them to
    disk as they are.
    """

    __slots__ = (
        "attribute",
        "codes",
        "dictionary",
        "run",
        "packed",
        "_backend",
        "_counts",
        "_histogram",
        "_code_of",
    )

    def __init__(
        self,
        attribute: str,
        codes: Any,
        dictionary: list[Any],
        backend: ComputeBackend,
        code_of: "dict[Any, int] | None" = None,
    ):
        self.attribute = attribute
        self.codes = codes
        self.dictionary = dictionary
        self.run: bytes | None = None
        self.packed: bytes | None = None
        self._backend = backend
        self._counts: list[int] | None = None
        self._histogram: Counter | None = None
        self._code_of = code_of

    @property
    def num_values(self) -> int:
        """Number of distinct values (the paper's per-attribute domain size)."""
        return len(self.dictionary)

    def __len__(self) -> int:
        return len(self.codes)

    def value_of(self, code: int) -> Any:
        """The original value behind ``code``."""
        return self.dictionary[code]

    def code_of(self) -> dict[Any, int]:
        """The inverse dictionary, ``value -> code`` (cached)."""
        if self._code_of is None:
            self._code_of = {value: code for code, value in enumerate(self.dictionary)}
        return self._code_of

    def counts(self) -> list[int]:
        """Occurrences of each code, indexed by code (cached)."""
        if self._counts is None:
            self._counts = self._backend.counts(self.codes, self.num_values)
        return self._counts

    def histogram(self) -> Counter:
        """How many distinct values occur with each frequency (cached).

        ``Counter(self.counts())``: the candidate-set sizes a frequency
        adversary works with, read by every select's leakage report.
        """
        if self._histogram is None:
            self._histogram = Counter(self.counts())
        return self._histogram

    def frequencies(self) -> Counter:
        """Value-frequency table straight from the dictionary.

        Equivalent to ``Counter(relation.column(attribute))`` — including the
        first-occurrence insertion order ``most_common`` tie-breaks on — but
        computed from the code histogram.
        """
        return Counter(dict(zip(self.dictionary, self.counts())))

    def code_list(self) -> list[int]:
        """The codes as a plain list of ints, whatever array type holds them."""
        tolist = getattr(self.codes, "tolist", None)
        return tolist() if tolist is not None else self.codes

    def on(self, backend: ComputeBackend) -> "CodedColumn":
        """This column under another backend: the same dictionary, its codes
        in that backend's array type (no re-factorisation)."""
        column = CodedColumn(
            self.attribute,
            backend.as_code_array(self.code_list()),
            self.dictionary,
            backend,
            self._code_of,
        )
        column.run = self.run
        column.packed = self.packed
        return column


class CodedRelation:
    """The coded-columnar view of one relation under one backend.

    Obtain instances through :meth:`repro.relational.table.Relation.coded`,
    which caches them per backend and rebuilds on mutation; constructing one
    directly pins it to the relation's current contents.
    """

    # Weak-referenceable: the owner's leaf-mask cache (``ReplicaMasks``)
    # must not keep a replaced replica alive.
    __slots__ = ("_relation", "backend", "version", "_columns", "__weakref__")

    def __init__(self, relation: "Relation", backend: ComputeBackend):
        self._relation = relation
        self.backend = backend
        self.version = relation.version
        self._columns: dict[str, CodedColumn] = {}

    @property
    def relation(self) -> "Relation":
        return self._relation

    @property
    def num_rows(self) -> int:
        return self._relation.num_rows

    def column(self, attribute: str) -> CodedColumn:
        """The coded column for ``attribute`` (encoded on first access)."""
        if self._relation.version != self.version:
            # Columns encode lazily from the live relation; a view held
            # across a mutation would otherwise serve stale (or mixed) code
            # arrays with no error.  Fetch a fresh view instead.
            raise RelationError(
                "stale coded view: the relation was mutated after this view "
                "was built; call relation.coded() again"
            )
        cached = self._columns.get(attribute)
        if cached is None:
            sibling = self._relation._coded_sibling(self, attribute)  # noqa: SLF001
            if sibling is not None:
                # Every view codes in first-occurrence order, so another
                # backend's column of the same contents is this one's too.
                cached = sibling.on(self.backend)
            else:
                codes, dictionary = self.backend.factorize(self._relation.column(attribute))
                cached = CodedColumn(attribute, codes, dictionary, self.backend)
            self._columns[attribute] = cached
        return cached

    def cached_column(self, attribute: str) -> "CodedColumn | None":
        """The column of ``attribute`` if this view has coded it already."""
        return self._columns.get(attribute)

    def adopt_column(self, column: CodedColumn) -> None:
        """Install an already coded column (the wire decoder's).

        The caller vouches that ``column`` is exactly what factorising the
        relation's column would build: distinct dictionary values, codes in
        first-occurrence order, under this view's backend.
        """
        self._columns[column.attribute] = column

    # ------------------------------------------------------------------
    # Multi-attribute operations
    # ------------------------------------------------------------------
    def _ordered(self, attributes: Iterable[str]) -> tuple[str, ...]:
        ordered = self._relation.schema.ordered(attributes)
        if not ordered:
            raise RelationError("at least one attribute is required")
        return ordered

    def codes_for(self, attributes: Iterable[str]) -> tuple[Any, int]:
        """Row codes over an attribute set: equal codes iff rows agree on it.

        Returns ``(codes, num_groups)``.  Single-attribute requests reuse the
        cached column encoding directly.
        """
        ordered = self._ordered(attributes)
        columns = [self.column(attr) for attr in ordered]
        if len(columns) == 1:
            return columns[0].codes, columns[0].num_values
        return self.backend.combine_codes(
            [column.codes for column in columns],
            [column.num_values for column in columns],
        )

    def group_rows(self, attributes: Iterable[str], min_size: int = 1) -> list[list[int]]:
        """Equivalence-class row groups over ``attributes``.

        Groups are ordered by smallest row index with rows ascending inside
        each group — the canonical order of :class:`Partition` classes.
        """
        codes, num_groups = self.codes_for(attributes)
        return self.backend.group_rows(codes, num_groups, min_size=min_size)

    def has_duplicates(self, attributes: Iterable[str]) -> bool:
        """True iff some instance of ``attributes`` occurs more than once.

        This is the MAS non-uniqueness test (Definition 3.2 condition (1))
        without materialising any groups.
        """
        codes, num_groups = self.codes_for(attributes)
        if num_groups == self.num_rows:
            return False
        return self.backend.has_duplicates(codes, num_groups)

    def class_code_matrix(
        self, attributes: Iterable[str], groups: list[list[int]]
    ) -> list[tuple[int, ...]]:
        """Per-class code tuples (one per group, in group order).

        Row ``i`` of the matrix is the code tuple of ``groups[i]``'s
        representative over ``attributes`` — the integer form of the class
        representative, used for collision tests and witness search.
        """
        ordered = self._ordered(attributes)
        columns = [self.column(attr) for attr in ordered]
        return [
            tuple(int(column.codes[group[0]]) for column in columns) for group in groups
        ]

    def frequencies(self, attribute: str) -> Counter:
        """Shorthand for ``self.column(attribute).frequencies()``."""
        return self.column(attribute).frequencies()

    def match_mask(self, attribute: str, values: Iterable[Any]) -> Any:
        """Backend row mask of the rows whose ``attribute`` cell is in ``values``.

        The equality-selection primitive behind token-based queries: the
        candidate values (e.g. the ciphertexts of a search token) are first
        resolved against the column dictionary — each distinct cell value is
        hashed once, however many rows carry it — and the row scan runs on
        the integer code array through the backend.  The result stays a
        mask so that the server-side query executor combines token leaves in
        the backend's bitset algebra (``rows_and`` / ``rows_or`` /
        ``rows_not``) instead of materialising index lists per leaf.
        """
        column = self.column(attribute)
        return self.backend.membership_mask(
            column.codes, self._wanted_codes(column, values)
        )

    @staticmethod
    def _wanted_codes(column: CodedColumn, values: Iterable[Any]) -> list[int]:
        code_of = column.code_of()
        return sorted({code_of[value] for value in values if value in code_of})
