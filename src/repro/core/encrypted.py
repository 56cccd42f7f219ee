"""The output artifact of F2: the encrypted table plus owner-side metadata.

What the *server* receives is only the ciphertext relation
(:meth:`EncryptedTable.server_view`).  Everything else — row provenance, the
ECG summaries, the configuration — stays with the data owner and is what
allows her to decrypt, to strip artificial records, and to audit the
alpha-security invariants.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable

from repro.core.config import F2Config
from repro.core.stats import EncryptionStats
from repro.exceptions import DecryptionError
from repro.fd.mas import MaximalAttributeSet
from repro.relational.table import Relation


@dataclass(frozen=True, slots=True)
class RowProvenance:
    """Owner-side provenance of one ciphertext row (never sent to the server).

    ``kind`` is one of ``"original"`` (carries an original record),
    ``"conflict"`` (one of the replacements of a conflicting record),
    ``"scaling"`` (a copy added by splitting-and-scaling), ``"fake_ec"``
    (member of a fake EC added by grouping), ``"false_positive"``
    (artificial record of Step 4), or ``"repair"``.  ``source_row`` is the
    original row the row derives from, if any; ``authentic_attributes`` are
    the attributes whose cell is a genuine encryption of that row's value
    (decryption reassembles original records from them).
    ``unsearchable_attributes`` are the authentic ones a MAS covers but
    whose cell is a fresh-nonce encryption, because conflict resolution
    dropped the binding: no search token matches them, so select
    resolution must not count the row as carrying them.  Row plans carry
    the same object the encrypted table ends up with.
    """

    kind: str
    source_row: int | None = None
    authentic_attributes: frozenset[str] = frozenset()
    unsearchable_attributes: frozenset[str] = frozenset()

    def carries_searchably(self, attributes: frozenset[str]) -> bool:
        """True when every one of ``attributes`` is authentic here and a
        search token for the row's value matches it (the server only ever
        searches attributes a MAS covers)."""
        return attributes <= self.authentic_attributes and attributes.isdisjoint(
            self.unsearchable_attributes
        )

    @property
    def is_artificial(self) -> bool:
        """True for rows that carry no original record."""
        return self.kind in {"scaling", "fake_ec", "false_positive", "repair"}


class ProvenanceIndex:
    """Owner-side lookups over one table's row provenance, built in one pass.

    Answers the questions select resolution asks per query in time
    proportional to the rows involved, not to the table:

    * :meth:`covering_sources` — the records some matched row carries a
      given attribute set for, searchably (authentic cells a search token
      matches);
    * :meth:`split_sources` — the records *no* single row carries that set
      for (conflict replacements spread attributes over several rows, and
      may carry some of them under fresh nonces); only records without a
      fully searchable row can be split, and those are collected once here;
    * :meth:`cell_rows` — the row each attribute of a record is read from.

    Rows and records map through flat integer arrays (``-1`` for none), so
    the index adds about one machine word per row and one per record.
    """

    __slots__ = (
        "provenance", "attributes", "_source", "_first", "_extra", "_partial", "_split"
    )

    def __init__(self, provenance: list[RowProvenance], attributes: tuple[str, ...]):
        self.provenance = provenance
        self.attributes = attributes
        #: Ciphertext row -> its original record.
        self._source = array("q", [-1]) * len(provenance)
        #: Original record -> its first ciphertext row.
        self._first = array("q")
        #: Original record -> its further rows (conflict replacements only).
        self._extra: dict[int, list[int]] = {}
        for index, row in enumerate(provenance):
            source = row.source_row
            if source is None or row.is_artificial:
                continue
            self._source[index] = source
            if source >= len(self._first):
                self._first.extend(repeat(-1, source + 1 - len(self._first)))
            if self._first[source] < 0:
                self._first[source] = index
            else:
                self._extra.setdefault(source, []).append(index)
        full = frozenset(attributes)
        #: Records no single row carries in full (conflict replacements).
        self._partial = frozenset(
            source
            for source in self.sources()
            if not any(
                provenance[index].carries_searchably(full)
                for index in self.rows(source)
            )
        )
        self._split: dict[frozenset[str], tuple[int, ...]] = {}

    @property
    def num_rows(self) -> int:
        return len(self._source)

    def sources(self) -> list[int]:
        """Every original record, ascending."""
        return [source for source, first in enumerate(self._first) if first >= 0]

    def rows(self, source: int) -> list[int]:
        """The ciphertext rows derived from record ``source``, ascending."""
        first = self._first[source] if 0 <= source < len(self._first) else -1
        if first < 0:
            raise KeyError(source)
        return [first, *self._extra.get(source, ())]

    def groups(self) -> dict[int, list[int]]:
        """Original record -> its ciphertext rows, in order of first row."""
        return {
            source: self.rows(source)
            for source in sorted(self.sources(), key=self._first.__getitem__)
        }

    def covering_sources(self, rows: Iterable[int], attributes: frozenset[str]) -> set[int]:
        """Records for which some row in ``rows`` carries all of ``attributes``
        searchably."""
        provenance, sources = self.provenance, self._source
        found: set[int] = set()
        for index in rows:
            source = sources[index]
            if source >= 0 and provenance[index].carries_searchably(attributes):
                found.add(source)
        return found

    def split_sources(self, attributes: frozenset[str]) -> tuple[int, ...]:
        """Records none of whose rows carries all of ``attributes`` (cached)."""
        cached = self._split.get(attributes)
        if cached is None:
            provenance = self.provenance
            cached = self._split[attributes] = tuple(
                source
                for source in self._partial
                if not any(
                    provenance[index].carries_searchably(attributes)
                    for index in self.rows(source)
                )
            )
        return cached

    def cell_rows(self, source: int) -> list[int]:
        """The row each attribute of record ``source`` is read from, in
        schema order: the first of its rows carrying it authentically."""
        rows = self.rows(source)
        if len(rows) == 1 and source not in self._partial:
            return rows * len(self.attributes)
        provenance = self.provenance
        located: list[int] = []
        missing: list[str] = []
        for attr in self.attributes:
            for index in rows:
                if attr in provenance[index].authentic_attributes:
                    located.append(index)
                    break
            else:
                missing.append(attr)
        if missing:
            raise DecryptionError(
                f"original row {source} cannot be reconstructed; "
                f"missing attributes {missing}"
            )
        return located


@dataclass(frozen=True)
class EcgSummary:
    """Owner-side summary of one equivalence-class group (for auditing)."""

    mas_attributes: tuple[str, ...]
    group_index: int
    num_members: int
    num_fake_members: int
    target_frequency: int
    instance_frequencies: tuple[int, ...]
    member_sizes: tuple[int, ...]


@dataclass
class EncryptedTable:
    """The F2 encryption of one relation."""

    relation: Relation
    provenance: list[RowProvenance]
    config: F2Config
    stats: EncryptionStats
    masses: list[MaximalAttributeSet] = field(default_factory=list)
    ecg_summaries: list[EcgSummary] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    _index: ProvenanceIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.provenance) != self.relation.num_rows:
            raise DecryptionError(
                "provenance length does not match the number of ciphertext rows"
            )

    def provenance_index(self) -> ProvenanceIndex:
        """The :class:`ProvenanceIndex` of this table, built on first use.

        Rows are never rewritten in place: inserts and repairs produce a new
        table, whose index is built afresh.  A provenance list replaced or
        grown on this object is still noticed and re-indexed.
        """
        index = self._index
        if (
            index is None
            or index.provenance is not self.provenance
            or index.num_rows != len(self.provenance)
        ):
            index = self._index = ProvenanceIndex(
                self.provenance, self.relation.schema.attributes
            )
        return index

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    @property
    def num_original_rows(self) -> int:
        return self.stats.rows_original

    def server_view(self) -> Relation:
        """The relation the server receives (no provenance, no metadata)."""
        return self.relation.copy(name=f"{self.relation.name}")

    def artificial_row_indexes(self) -> list[int]:
        """Indexes of rows that carry no original record."""
        return [index for index, row in enumerate(self.provenance) if row.is_artificial]

    def original_row_groups(self) -> dict[int, list[int]]:
        """Map from original row index to the ciphertext rows derived from it."""
        return self.provenance_index().groups()

    def artificial_fraction(self) -> float:
        """Fraction of ciphertext rows that are artificial (space overhead)."""
        if self.num_rows == 0:
            return 0.0
        return len(self.artificial_row_indexes()) / self.num_rows

    def rows_by_kind(self) -> dict[str, int]:
        """Row counts per provenance kind (reported in EXPERIMENTS.md)."""
        counts: dict[str, int] = {}
        for row in self.provenance:
            counts[row.kind] = counts.get(row.kind, 0) + 1
        return counts

    def describe(self) -> dict[str, Any]:
        """A compact description used by the CLI and the examples."""
        return {
            "name": self.relation.name,
            "attributes": self.relation.num_attributes,
            "ciphertext_rows": self.num_rows,
            "original_rows": self.num_original_rows,
            "artificial_rows": len(self.artificial_row_indexes()),
            "masses": [str(mas) for mas in self.masses],
            "rows_by_kind": self.rows_by_kind(),
            "config": self.config.to_dict(),
        }
