"""Step 1 of F2: discovery of Maximal Attribute Sets (MASs).

Definition 3.2 of the paper: an attribute set ``A`` is a *maximum attribute
set* if (1) at least one instance of ``A`` occurs more than once in the table
and (2) no proper superset of ``A`` has that property.  The paper observes
that MASs are exactly the *maximal non-unique column combinations* of Heise
et al. (DUCC, PVLDB 2013) and adapts that algorithm.

There is one algorithm, exact and deterministic: a DUCC lattice walk.  Each
seed set is grown (if non-unique) or shrunk (if unique) greedily, attributes
taken in sorted order, until it sits on the unique/non-unique boundary, with
subset/superset pruning against every set already classified.  Hole
detection then enumerates every minimal hitting set of the complements of
the maximal non-unique sets found so far; one that contains no known
minimal unique set is unclassified and seeds the next round.  Each such
hole yields a boundary set not seen before (a new maximal non-unique set
containing it, or a new minimal unique set inside it), and the boundary is
finite, so the walk terminates.  When no hole is left, every maximal
non-unique set has been found: a missing one would contain a minimal hitting
set that is non-unique, hence a hole.  The cost depends on the size of the
solution (number of MASs and minimal uniques), not on ``2^m`` — the
property the paper relies on to make Step 1 affordable for the data owner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import DiscoveryError
from repro.relational.partition import Partition
from repro.relational.table import Relation

AttrSet = frozenset[str]


@dataclass(frozen=True)
class MaximalAttributeSet:
    """One MAS: the attribute set plus its partition statistics.

    Attributes
    ----------
    attributes:
        The attributes of the MAS, in schema order.
    num_equivalence_classes:
        Number of ECs of ``pi_MAS`` (the paper's ``t``).
    num_duplicate_classes:
        Number of ECs of size greater than one.
    """

    attributes: tuple[str, ...]
    num_equivalence_classes: int
    num_duplicate_classes: int

    @property
    def as_set(self) -> AttrSet:
        return frozenset(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def overlaps(self, other: "MaximalAttributeSet") -> bool:
        """True iff the two MASs share at least one attribute (Section 3.3)."""
        return bool(self.as_set & other.as_set)

    def __str__(self) -> str:
        return "{" + ", ".join(self.attributes) + "}"


@dataclass
class MasResult:
    """Output of MAS discovery with profiling counters."""

    masses: list[MaximalAttributeSet]
    elapsed_seconds: float
    partitions_computed: int
    parameters: dict[str, object] = field(default_factory=dict)

    def overlapping_pairs(self) -> list[tuple[MaximalAttributeSet, MaximalAttributeSet]]:
        """All pairs of MASs that share at least one attribute (the paper's ``h``)."""
        pairs = []
        for first, second in combinations(self.masses, 2):
            if first.overlaps(second):
                pairs.append((first, second))
        return pairs


def find_maximal_attribute_sets(
    relation: Relation,
    backend: ComputeBackend | str | None = None,
) -> list[MaximalAttributeSet]:
    """Find every MAS of ``relation`` (Definition 3.2).

    Convenience wrapper around :func:`find_mas_with_stats`.
    """
    return find_mas_with_stats(relation, backend=backend).masses


def find_mas_with_stats(
    relation: Relation,
    backend: ComputeBackend | str | None = None,
) -> MasResult:
    """Find every MAS and return profiling counters.

    Parameters
    ----------
    relation:
        The table to analyse (at least one row).
    backend:
        Compute backend for the non-uniqueness tests (name, instance, or
        ``None`` for the environment default).
    """
    if relation.num_rows == 0:
        raise DiscoveryError("cannot discover MASs of an empty relation")
    start = time.perf_counter()
    finder = _MasFinder(relation, backend=backend)
    masses = [finder.describe(attrs) for attrs in sorted(finder.ducc(), key=_canonical)]
    elapsed = time.perf_counter() - start
    return MasResult(
        masses=masses,
        elapsed_seconds=elapsed,
        partitions_computed=finder.partitions_computed,
        parameters={
            "rows": relation.num_rows,
            "attributes": relation.num_attributes,
            "backend": finder.backend.name,
        },
    )


def _canonical(attrs: AttrSet) -> tuple[str, ...]:
    return tuple(sorted(attrs))


class _MasFinder:
    """The DUCC walk over one relation, with its classification caches."""

    def __init__(self, relation: Relation, backend: ComputeBackend | str | None = None):
        self.relation = relation
        self.backend = get_backend(backend)
        self.coded = relation.coded(self.backend)
        self.all_attributes: AttrSet = frozenset(relation.attributes)
        self.partitions_computed = 0
        self._non_unique_cache: dict[AttrSet, bool] = {}
        # Boundary knowledge for pruning: known non-unique and unique sets.
        self._known_non_unique: set[AttrSet] = set()
        self._known_unique: set[AttrSet] = set()

    # ------------------------------------------------------------------
    # Classification with pruning
    # ------------------------------------------------------------------
    def is_non_unique(self, attrs: AttrSet) -> bool:
        """True iff some instance of ``attrs`` occurs more than once.

        Uses monotonicity for pruning: subsets of non-unique sets are
        non-unique, supersets of unique sets are unique.
        """
        if not attrs:
            return self.relation.num_rows > 1
        cached = self._non_unique_cache.get(attrs)
        if cached is not None:
            return cached
        for known in self._known_non_unique:
            if attrs <= known:
                self._non_unique_cache[attrs] = True
                return True
        for known in self._known_unique:
            if attrs >= known:
                self._non_unique_cache[attrs] = False
                return False
        result = self._compute_non_unique(attrs)
        self._non_unique_cache[attrs] = result
        if result:
            self._known_non_unique.add(attrs)
        else:
            self._known_unique.add(attrs)
        return result

    def _compute_non_unique(self, attrs: AttrSet) -> bool:
        self.partitions_computed += 1
        return self.coded.has_duplicates(attrs)

    def describe(self, attrs: AttrSet) -> MaximalAttributeSet:
        """Build the MAS descriptor (with partition statistics) for ``attrs``."""
        partition = Partition.build(self.relation, attrs, backend=self.backend)
        return MaximalAttributeSet(
            attributes=self.relation.schema.ordered(attrs),
            num_equivalence_classes=len(partition),
            num_duplicate_classes=len(partition.non_singleton_classes()),
        )

    # ------------------------------------------------------------------
    # The DUCC walk with hole detection
    # ------------------------------------------------------------------
    def ducc(self) -> set[AttrSet]:
        """Every maximal non-unique set, by boundary walks and hole detection.

        The walk maximises non-unique seeds (adding attributes while the set
        stays non-unique) and minimises unique seeds (removing attributes
        while the set stays unique), recording the boundary sets.  After
        each round, hole detection returns the unclassified minimal hitting
        sets of the maximal non-unique sets' complements as the next seeds;
        the walk ends when there are none (see the module docstring).
        """
        maximal_non_unique: set[AttrSet] = set()
        minimal_unique: set[AttrSet] = set()
        seeds = sorted((frozenset([attr]) for attr in self.all_attributes), key=_canonical)
        if not any(self.is_non_unique(single) for single in seeds):
            return set()
        while seeds:
            for seed_set in seeds:
                if self.is_non_unique(seed_set):
                    maximal_non_unique.add(self._maximise(seed_set))
                else:
                    minimal_unique.add(self._minimise(seed_set))
            seeds = self._find_holes(maximal_non_unique, minimal_unique)
        return maximal_non_unique

    def _maximise(self, attrs: AttrSet) -> AttrSet:
        """Grow a non-unique set until every one-attribute extension is unique.

        Adding the first non-unique extension in sorted order, repeatedly, is
        one sorted pass: an extension that was unique stays unique once the
        set grows.
        """
        current = attrs
        for extra in sorted(self.all_attributes - attrs):
            if self.is_non_unique(current | {extra}):
                current = current | {extra}
        return current

    def _minimise(self, attrs: AttrSet) -> AttrSet:
        """Shrink a unique set until every one-attribute reduction is non-unique.

        One sorted pass, as in :meth:`_maximise`: a reduction that was
        non-unique stays non-unique once the set shrinks.  The walk only
        runs on two or more rows, where the empty set is non-unique, so the
        result is never empty.
        """
        current = attrs
        for attr in sorted(attrs):
            if not self.is_non_unique(current - {attr}):
                current = current - {attr}
        return current

    def _find_holes(
        self,
        maximal_non_unique: set[AttrSet],
        minimal_unique: set[AttrSet],
    ) -> list[AttrSet]:
        """Hole detection: the unclassified sets implied by duality.

        Every minimal unique column combination is a minimal hitting set of
        the complements of the maximal non-unique sets.  A minimal hitting
        set that contains no known minimal unique set is an unexplored part
        of the boundary and is returned (sorted) as a new seed.
        """
        complements = [self.all_attributes - attrs for attrs in maximal_non_unique]
        return sorted(
            (
                hitting_set
                for hitting_set in _minimal_hitting_sets(complements)
                if not any(hitting_set >= unique for unique in minimal_unique)
            ),
            key=_canonical,
        )


def minimal_unique_sets(
    mas_sets: Iterable[AttrSet], attributes: Iterable[str]
) -> list[AttrSet]:
    """The non-empty attribute sets contained in no MAS, minimal ones only.

    On a relation whose MASs are ``mas_sets`` these are exactly its minimal
    unique column combinations (a set outside every MAS is unique): the
    minimal hitting sets of the MAS complements, or every single attribute
    when there is no MAS.  A schema that is itself a MAS has none.
    """
    universe = frozenset(attributes)
    complements = [universe - frozenset(attrs) for attrs in mas_sets]
    if not complements:
        return sorted((frozenset([attr]) for attr in universe), key=_canonical)
    return sorted(_minimal_hitting_sets(complements), key=_canonical)


class MasBorder:
    """Every row's projection onto each minimal unique attribute set.

    Appending rows only ever adds duplicates, so an append changes the MAS
    family iff some set outside every MAS stops being unique — and then so
    does one of the *minimal* such sets (:func:`minimal_unique_sets`).  One
    projection set per border set therefore decides MAS stability for an
    appended batch in O(batch × border) lookups, independent of the table
    size.  Instances are never mutated: :meth:`extended` returns a new
    border, so a context carrying one stays valid.
    """

    __slots__ = ("_getters", "_seen")

    def __init__(self, getters: list, seen: list[set]):
        self._getters = getters
        self._seen = seen

    @classmethod
    def build(cls, relation: Relation, mas_sets: Iterable[AttrSet]) -> "MasBorder | None":
        """The border of ``relation`` given its MASs (``None`` if they are wrong).

        A border set with a duplicate projection means ``mas_sets`` is not
        the MAS family of ``relation``; callers then fall back to a full
        rediscovery.
        """
        schema = relation.schema
        getters: list = []
        seen: list[set] = []
        for attrs in minimal_unique_sets(mas_sets, relation.attributes):
            ordered = schema.ordered(attrs)
            columns = [relation.column(attr) for attr in ordered]
            # itemgetter yields a bare value for one position and a tuple
            # otherwise — the same shapes as the column / zip below.
            getters.append(itemgetter(*(schema.index_of(attr) for attr in ordered)))
            projections = set(columns[0]) if len(columns) == 1 else set(zip(*columns))
            if len(projections) != relation.num_rows:
                return None
            seen.append(projections)
        return cls(getters, seen)

    def extended(self, rows: Iterable[Sequence]) -> "MasBorder | None":
        """The border after appending ``rows``; ``None`` when the MASs change.

        ``rows`` are full schema-ordered tuples.  A projection colliding with
        an earlier row — or with another row of the batch — makes that border
        set non-unique, which is exactly a MAS change.
        """
        rows = list(rows)
        seen: list[set] = []
        for getter, previous in zip(self._getters, self._seen):
            grown = previous.copy()
            for row in rows:
                projection = getter(row)
                if projection in grown:
                    return None
                grown.add(projection)
            seen.append(grown)
        return MasBorder(self._getters, seen)


def _minimal_hitting_sets(sets: list[AttrSet]) -> list[AttrSet]:
    """Enumerate every minimal hitting set of ``sets``.

    Incremental construction: process the input sets one by one, extending
    each partial hitting set that misses the new input set with every element
    of that set, then discarding non-minimal results.  An empty input set
    cannot be hit, so it leaves no hitting set at all.
    """
    frontier: list[AttrSet] = [frozenset()]
    for target in sets:
        next_frontier: list[AttrSet] = []
        for partial in frontier:
            if partial & target:
                next_frontier.append(partial)
                continue
            for element in target:
                candidate = partial | {element}
                next_frontier.append(candidate)
        frontier = _drop_supersets(next_frontier)
    return frontier


def _drop_supersets(candidates: list[AttrSet]) -> list[AttrSet]:
    """Remove candidates that are strict supersets of another candidate."""
    unique_candidates = list(dict.fromkeys(candidates))
    unique_candidates.sort(key=len)
    kept: list[AttrSet] = []
    for candidate in unique_candidates:
        if not any(existing <= candidate for existing in kept):
            kept.append(candidate)
    return kept
