"""TANE: level-wise discovery of minimal functional dependencies.

This is the algorithm the paper cites as [16] (Huhtala, Karkkainen, Porkka,
Toivonen, *The Computer Journal* 1999) and uses in two places:

* the *server* runs FD discovery on the encrypted table it receives, and
* Section 5.4 compares the data owner's cost of discovering FDs locally
  against the cost of encrypting with F2 and outsourcing.

The implementation follows the published algorithm: a level-wise walk of the
attribute-set lattice with stripped partitions, candidate right-hand-side sets
``C+(X)``, minimality pruning, and key pruning.  Approximate dependencies are
not needed by the paper and are not implemented.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import DiscoveryError
from repro.fd.fd import FDSet, FunctionalDependency
from repro.relational.partition import StrippedPartition
from repro.relational.table import Relation

AttrSet = frozenset[str]


@dataclass
class TaneResult:
    """Output of a TANE run: the FDs plus profiling counters.

    The counters feed the Section 5.4 benchmarks (discovery-time overhead on
    encrypted vs. plaintext data) and several ablation tests.
    ``partitions_computed`` counts the partitions TANE actually built: one
    per attribute from the relation, plus every product it ran.  A lattice
    node whose partition a discovered FD proves equal to a subset's shares
    that partition and is not counted.  The count is the same on every
    backend.
    """

    fds: FDSet
    elapsed_seconds: float
    levels_processed: int
    candidates_examined: int
    partitions_computed: int
    parameters: dict[str, object] = field(default_factory=dict)


def tane(
    relation: Relation,
    max_lhs_size: int | None = None,
    backend: ComputeBackend | str | None = None,
) -> FDSet:
    """Discover all minimal, non-trivial FDs of ``relation``.

    Convenience wrapper around :func:`tane_with_stats` returning only the FD
    set.
    """
    return tane_with_stats(relation, max_lhs_size=max_lhs_size, backend=backend).fds


def tane_with_stats(
    relation: Relation,
    max_lhs_size: int | None = None,
    backend: ComputeBackend | str | None = None,
) -> TaneResult:
    """Run TANE and return both the FDs and profiling counters.

    Parameters
    ----------
    relation:
        The table to analyse.  Must have at least one row.
    max_lhs_size:
        Optional cap on the LHS size (level cap); ``None`` explores the whole
        lattice.
    backend:
        Compute backend for partition work (name, instance, or ``None`` for
        the environment default).  The discovered FD set is identical on
        every backend.

    Returns
    -------
    TaneResult
        Discovered minimal FDs and counters.
    """
    if relation.num_rows == 0:
        raise DiscoveryError("cannot run TANE on an empty relation")
    backend = get_backend(backend)
    start = time.perf_counter()
    attributes = tuple(relation.attributes)
    all_attrs: AttrSet = frozenset(attributes)
    level_cap = len(attributes) if max_lhs_size is None else max(1, max_lhs_size + 1)

    # Level 1: single-attribute stripped partitions, over the shared coded
    # view (one dictionary encoding reused for every level's products).
    partitions: dict[AttrSet, StrippedPartition] = {}
    partitions_computed = 0
    for attr in attributes:
        partitions[frozenset([attr])] = StrippedPartition.build(relation, [attr], backend=backend)
        partitions_computed += 1

    # C+ candidate sets.  C+({}) = R.
    cplus: dict[AttrSet, AttrSet] = {frozenset(): all_attrs}
    current_level: list[AttrSet] = [frozenset([attr]) for attr in attributes]
    for subset in current_level:
        cplus[subset] = all_attrs

    discovered = FDSet()
    # Discovered LHSs by RHS: the index that finds partitions known equal.
    lhs_by_rhs: dict[str, list[AttrSet]] = {attr: [] for attr in attributes}

    def add_fd(lhs: AttrSet, rhs: str) -> None:
        discovered.add(FunctionalDependency(sorted(lhs), rhs))
        lhs_by_rhs[rhs].append(lhs)

    def known_equal(candidate: AttrSet) -> AttrSet | None:
        """A subset ``C - {c}`` whose partition equals ``pi_C``, if an FD shows one.

        A discovered ``L -> c`` with ``c in C`` and ``L <= C - {c}`` gives
        ``C - {c} -> c`` by augmentation, so ``pi_{C-c}`` already refines
        ``pi_c`` and multiplying by it changes nothing.
        """
        for c in candidate:
            rest = candidate - {c}
            if any(map(rest.issuperset, lhs_by_rhs[c])):
                return rest
        return None

    candidates_examined = 0
    levels_processed = 0
    num_rows = relation.num_rows

    def is_superkey(attr_set: AttrSet) -> bool:
        return partitions[attr_set].error == 0

    level = 1
    while current_level and level < level_cap + 1:
        levels_processed += 1
        # --- compute_dependencies(level) -------------------------------
        for x in current_level:
            candidate_rhs = cplus.get(x, frozenset())
            for a in sorted(x & candidate_rhs):
                candidates_examined += 1
                x_minus_a = x - {a}
                if not x_minus_a:
                    continue
                if _fd_valid(partitions, x_minus_a, x, num_rows):
                    add_fd(x_minus_a, a)
                    cplus[x] = cplus[x] - {a}
                    # Remove every attribute of R \ X from C+(X).
                    cplus[x] = cplus[x] - (all_attrs - x)
        # --- prune(level) ----------------------------------------------
        pruned_level = []
        for x in current_level:
            if not cplus.get(x):
                continue
            if is_superkey(x):
                # Key pruning: X is a superkey, so X -> A holds for every A
                # outside X.  Emit the ones still allowed by the C+ sets (the
                # others are non-minimal) and by the LHS cap, which a key
                # at the last level exceeds; a final minimality filter below
                # removes any stragglers.
                if len(x) < level_cap:
                    for a in sorted(cplus[x] - x):
                        rhs_candidates = [cplus.get((x | {a}) - {b}, all_attrs) for b in x]
                        if rhs_candidates and a in frozenset.intersection(*rhs_candidates):
                            add_fd(x, a)
                continue
            pruned_level.append(x)
        # --- generate_next_level ---------------------------------------
        next_level: list[AttrSet] = []
        if level < level_cap:
            next_sets = _generate_next_level(pruned_level)
            for candidate in next_sets:
                subsets = [candidate - {attr} for attr in candidate]
                if any(subset not in cplus for subset in subsets):
                    continue
                cplus[candidate] = frozenset.intersection(*(cplus[s] for s in subsets))
                equal = known_equal(candidate)
                if equal is not None:
                    # Shared, not copied: the dict is internal and only the
                    # partition's classes are ever read.
                    partitions[candidate] = partitions[equal]
                else:
                    first, second = subsets[0], subsets[1]
                    partitions[candidate] = partitions[first].product(partitions[second])
                    partitions_computed += 1
                next_level.append(candidate)
        # Free partitions two levels back: they are no longer needed either as
        # product inputs or as LHS partitions of validity checks.
        if level >= 2:
            stale = [attrs for attrs in partitions if len(attrs) == level - 2 and len(attrs) > 1]
            for attrs in stale:
                partitions.pop(attrs, None)
        current_level = next_level
        level += 1

    elapsed = time.perf_counter() - start
    discovered = _minimal_only(discovered)
    return TaneResult(
        fds=discovered,
        elapsed_seconds=elapsed,
        levels_processed=levels_processed,
        candidates_examined=candidates_examined,
        partitions_computed=partitions_computed,
        parameters={
            "max_lhs_size": max_lhs_size,
            "rows": num_rows,
            "attributes": len(attributes),
            "backend": backend.name,
        },
    )


def _minimal_only(fds: FDSet) -> FDSet:
    """Drop any FD whose LHS strictly contains the LHS of another FD with the same RHS."""
    lhs_by_rhs: dict[str, list[AttrSet]] = {}
    for fd in fds:
        lhs_by_rhs.setdefault(fd.rhs, []).append(frozenset(fd.lhs))
    kept = FDSet()
    for fd in fds:
        lhs = frozenset(fd.lhs)
        if not any(map(lhs.__gt__, lhs_by_rhs[fd.rhs])):
            kept.add(fd)
    return kept


def _fd_valid(
    partitions: dict[AttrSet, StrippedPartition],
    lhs: AttrSet,
    lhs_union_rhs: AttrSet,
    num_rows: int,
) -> bool:
    """``lhs -> a`` (where ``lhs_union_rhs = lhs | {a}``) holds iff e(lhs) == e(lhs|a).

    TANE's error measure ``e`` on stripped partitions equals
    ``||pi|| - |pi|``; the FD holds exactly when adding the RHS attribute does
    not change it.
    """
    lhs_partition = partitions.get(lhs)
    full_partition = partitions.get(lhs_union_rhs)
    if lhs_partition is None or full_partition is None:
        # The LHS partition may have been pruned away; fall back to comparing
        # group membership via the full partition only (conservative: recompute).
        return False
    return lhs_partition.error == full_partition.error


def _generate_next_level(level_sets: list[AttrSet]) -> list[AttrSet]:
    """Apriori-style candidate generation: join sets sharing all but one attribute."""
    next_sets: set[AttrSet] = set()
    by_prefix: dict[AttrSet, list[AttrSet]] = {}
    for attr_set in level_sets:
        for attr in attr_set:
            by_prefix.setdefault(attr_set - {attr}, []).append(attr_set)
    for siblings in by_prefix.values():
        if len(siblings) < 2:
            continue
        for first, second in combinations(siblings, 2):
            candidate = first | second
            if len(candidate) == len(first) + 1:
                next_sets.add(candidate)
    return sorted(next_sets, key=lambda s: tuple(sorted(s)))
