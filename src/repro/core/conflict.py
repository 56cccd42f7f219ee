"""Row assembly and Step 3: conflict resolution across multiple MASs.

Splitting-and-scaling is planned per MAS.  When a table has several MASs the
per-MAS plans must be synchronised (Section 3.3):

* **Type-1 conflicts (scaling)** — a tuple is scaled (copied) because of one
  MAS but not another.  Resolution: the copies keep the instance's ciphertext
  values on the MAS's attributes and receive *fresh* values (not occurring in
  the original data) everywhere else, so no other MAS's frequency
  homogenisation is disturbed.  This falls out of how scaling-copy rows are
  assembled here and adds no extra records beyond the copies themselves.
* **Type-2 conflicts (shared attributes)** — a tuple's value on the shared
  attributes ``Z = X & Y`` of two overlapping MASs is bound to two different
  ciphertext instances.  Resolution (the paper's robust method): the tuple is
  replaced by two tuples — one keeping the ``X``-side encryption and fresh
  values on ``Y - Z``, the other keeping the ``Y``-side encryption and fresh
  values elsewhere.

A per-MAS instance only *binds* a tuple when the instance's ciphertext value
must be shared with other rows (post-scaling frequency of at least two); an
instance of frequency one is free to adopt whatever value the other MAS
requires, which is why conflicts are rare in practice (the paper reports only
24 conflict records on a 0.3 GB Orders table).

The assembly is recorded as a :class:`ViewLayout` — one block of row plans
per original row, one per (MAS, ECG) for the artificial rows, one for
Step 4's rows — so that an incremental update can rebuild only the blocks
whose inputs changed and splice the rest from the previous view
(:class:`Splice`).  A full run is the same splice with nothing to reuse.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, combinations, repeat

from repro.core.ecg import GroupingResult
from repro.core.encrypted import EcgSummary, RowProvenance
from repro.core.plan import (
    CellSpec,
    FreshCell,
    FreshValueFactory,
    InstanceCell,
    RandomCell,
    RowPlan,
)
from repro.core.split_scale import EcgPlan, InstanceAssignment
from repro.exceptions import EncryptionError
from repro.fd.mas import MaximalAttributeSet
from repro.relational.persistent import Chunks, splice
from repro.relational.table import Relation


@dataclass
class MasPlan:
    """Everything planned for one MAS: its grouping and split/scale plans."""

    index: int
    mas: MaximalAttributeSet
    grouping: GroupingResult
    ecg_plans: list[EcgPlan] = field(default_factory=list)
    #: The MAS partition: representative -> member rows, in first-row
    #: order, and representative -> position of its group in
    #: ``grouping.groups``.  Incremental updates grow both from the batch
    #: alone.
    classes: dict[tuple, tuple[int, ...]] = field(default_factory=dict)
    group_of: dict[tuple, int] = field(default_factory=dict)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.mas.attributes

    @property
    def attribute_set(self) -> frozenset[str]:
        return self.mas.as_set

    def fake_rows(self) -> int:
        return sum(
            instance.frequency
            for plan in self.ecg_plans
            for member_plan in plan.member_plans
            if member_plan.member.is_fake
            for instance in member_plan.instances
        )

    def scaling_rows(self) -> int:
        return sum(
            instance.scaling_copies
            for plan in self.ecg_plans
            for member_plan in plan.member_plans
            if not member_plan.member.is_fake
            for instance in member_plan.instances
        )


@dataclass
class _RowBinding:
    """The instance a MAS assigned to one original row."""

    mas_index: int
    attributes: tuple[str, ...]
    instance: InstanceAssignment

    @property
    def constrained(self) -> bool:
        """True iff the instance's value must be shared with other rows."""
        return self.instance.frequency >= 2

    def cell_for(self, attribute: str, plaintext_value: object) -> InstanceCell:
        return InstanceCell(value=plaintext_value, variant=self.instance.variant)


@dataclass(eq=False)
class GroupBlock:
    """The scaling-copy and fake-EC rows of one ECG, in view order."""

    mas_attributes: tuple[str, ...]
    ecg_plan: EcgPlan
    plans: list[RowPlan]
    scaling_rows: int
    fake_rows: int
    _summary: EcgSummary | None = field(default=None, repr=False)

    @property
    def summary(self) -> EcgSummary:
        """The ECG's owner-side summary (read by the alpha-security audit)."""
        if self._summary is None:
            ecg_plan = self.ecg_plan
            self._summary = EcgSummary(
                mas_attributes=self.mas_attributes,
                group_index=ecg_plan.group.index,
                num_members=len(ecg_plan.group.members),
                num_fake_members=ecg_plan.group.num_fake_members,
                target_frequency=ecg_plan.target_frequency,
                instance_frequencies=tuple(ecg_plan.instance_frequencies()),
                member_sizes=tuple(ecg_plan.group.sizes),
            )
        return self._summary


class Splice:
    """A view described as runs of a base view and runs of new rows.

    ``segments`` holds ``[base_start, count]`` for ``count`` rows reused
    verbatim from the base view and ``[-1, count]`` for the next ``count``
    entries of ``pending``, in view order.  A view built without a base is
    one pending run.  ``candidates`` lists ``[base_start, count]`` runs of
    base rows the pending rows may repeat byte for byte: the blocks they
    replace and the rows bound by the same re-planned ECGs.  ``cells``
    holds the pending rows' materialised cells, one list per attribute
    (MATERIALIZE sets it).

    :meth:`spliced` builds the view's sequences (row plans, columns,
    provenance) as :class:`~repro.relational.persistent.Chunks` that share
    every base chunk a copy run covers whole, so an insert costs what its
    seams cost, not what the view costs.
    """

    __slots__ = ("segments", "pending", "rows", "candidates", "cells")

    def __init__(self) -> None:
        self.segments: list[list[int]] = []
        self.pending: list[RowPlan] = []
        self.rows = 0
        self.candidates: list[list[int]] = []
        self.cells: list[list] = []

    def note(self, start: int, count: int) -> None:
        """Record base rows the pending rows may repeat."""
        if count > 0:
            self.candidates.append([start, count])

    def copy(self, start: int, count: int) -> None:
        """Reuse ``count`` base rows from ``start`` on."""
        if count <= 0:
            return
        segments = self.segments
        if segments and segments[-1][0] >= 0 and sum(segments[-1]) == start:
            segments[-1][1] += count
        else:
            segments.append([start, count])
        self.rows += count

    def take(self, plans: list[RowPlan]) -> None:
        """Append new rows (to be materialised)."""
        if not plans:
            return
        segments = self.segments
        if segments and segments[-1][0] < 0:
            segments[-1][1] += len(plans)
        else:
            segments.append([-1, len(plans)])
        self.pending.extend(plans)
        self.rows += len(plans)

    def spliced(
        self, bases: "Sequence[Chunks] | None", pendings: Sequence[Sequence]
    ) -> list[Chunks]:
        """Per sequence, base runs and pending items in segment order
        (``bases`` is ``None`` for a view built without a base)."""
        return splice(bases, pendings, self.segments)


@dataclass(eq=False)
class ViewLayout:
    """One run's server view as blocks an incremental update can reuse.

    View order: the block of every original row (its row plan, or its
    conflict versions) by source row; then per MAS, in plan order, the
    :class:`GroupBlock` of every ECG; then the false-positive rows (Step 4).
    A block's plans and materialised rows sit at its view offset in
    ``row_plans``, ``relation`` and ``provenance`` (SYN and FP build the
    plans, MATERIALIZE the rest), all chunked: the next update's splice
    shares their chunks.  ``splice`` says how this run's view reuses its
    base's rows.
    """

    #: Per MAS (by plan position), original row -> the instance bound to it.
    instances: list[list]
    #: Original rows covered.
    num_rows: int
    #: Original rows whose conflict pairs were shuffled (they consumed the
    #: conflict RNG, so their plans depend on the rows before them).
    shuffled_rows: frozenset[int]
    #: Per MAS, the block of every ECG, and the view offset of each block
    #: followed by the end of the last.
    groups: list[list[GroupBlock]]
    group_starts: list[list[int]]
    #: Original rows with conflict versions: row -> plans beyond the first,
    #: ascending.  Every other row has one plan, so this fixes the view
    #: offset of every row's block.
    extra_plans: dict[int, int]
    #: The original rows this run re-assembled, ascending, and the number
    #: of row plans it built (theirs and the rebuilt ECG blocks').
    rebuilt_rows: Sequence[int]
    rows_reassembled: int
    splice: Splice
    #: View offset of the false-positive rows.
    fp_start: int
    false_positives: list[RowPlan] = field(default_factory=list)
    fp_nodes: int = 0
    #: Class count of every MAS partition when the false-positive rows were
    #: derived; equal counts mean equal partitions (appends only grow them).
    fp_class_counts: tuple[int, ...] | None = None
    fp_reused: bool = False
    #: Why a run with a base re-assembled everything (``None``: it spliced).
    fallback: str | None = None
    # Set by MATERIALIZE.
    row_plans: Chunks[RowPlan] = field(default_factory=Chunks)
    relation: Relation | None = None
    provenance: Sequence = field(default_factory=Chunks)


@dataclass
class AssemblyResult:
    """All planned ciphertext rows before Step 4, plus counters."""

    row_plans: Chunks[RowPlan]
    conflicting_tuples: int
    conflict_rows_added: int
    scaling_rows_added: int
    fake_ec_rows_added: int
    layout: ViewLayout


def assemble_row_plans(
    relation: Relation,
    mas_plans: list[MasPlan],
    fresh_factory: FreshValueFactory,
    resolve_conflicts: bool = True,
    seed: int | None = 0,
    base: ViewLayout | None = None,
) -> AssemblyResult:
    """Assemble the symbolic ciphertext rows, re-using ``base`` where it can.

    Produces, in order: one (or more, after conflict resolution) row plan per
    original row, then the scaling-copy rows and fake-EC rows of every MAS.
    Step 4's artificial rows are appended later by the FP stage.

    ``base`` is the layout of the previous run when ``relation`` extends
    that run's relation and ``mas_plans`` update its plans (the same MASs;
    every ECG plan either the previous object, re-planned in place, or
    appended).  Then only the blocks whose inputs changed are rebuilt:
    every new row, every row whose binding in some MAS changed variant or
    constrained-ness (only re-planned ECGs rebind rows), and the artificial
    rows of re-planned and new ECGs.  Every other block keeps its plans,
    and ``layout.splice`` records where it sits in the base view.  A kept
    row's plan depends only on its values, those two properties of its
    bindings, and the conflict RNG, which only rows with two or more
    conflicting MAS pairs draw from.  If a rebuilt row has such pairs now
    or had them before, the draws of the rows after it would shift, so the
    assembly runs without the base instead (``layout.fallback =
    "conflict-rng"``).  Either way the plans equal an assembly without a
    base.
    """
    schema_attributes = relation.attributes
    num_rows = relation.num_rows
    mas_attribute_map = _attribute_to_mas_indexes(schema_attributes, mas_plans)
    rng = random.Random(seed)
    base_rows = base.num_rows if base is not None else 0
    base_groups = base.groups if base is not None else [[] for _ in mas_plans]
    grown = [None] * (num_rows - base_rows)
    instances = (
        [column + grown for column in base.instances]
        if base is not None
        else [list(grown) for _ in mas_plans]
    )

    # Keep the block of every ECG plan the update reused; the rows of the
    # others get that MAS's new instance.  A row's plans depend on each
    # binding's variant and on whether it is constrained, nothing else of
    # the instance, so a rebound row that keeps both keeps its plans.
    groups: list[list[GroupBlock | None]] = []
    rebuilt_groups: list[list[int]] = []
    rebound: set[int] = set()
    changed = set(range(base_rows, num_rows))
    for position, mas_plan in enumerate(mas_plans):
        old_blocks = base_groups[position]
        bound = instances[position]
        blocks: list[GroupBlock | None] = []
        rebuilt_groups.append([])
        for number, ecg_plan in enumerate(mas_plan.ecg_plans):
            if number < len(old_blocks) and old_blocks[number].ecg_plan is ecg_plan:
                blocks.append(old_blocks[number])
                continue
            blocks.append(None)
            rebuilt_groups[-1].append(number)
            for member_plan in ecg_plan.member_plans:
                if member_plan.member.is_fake:
                    continue
                for instance in member_plan.instances:
                    key = _binding_key(instance)
                    for row in instance.original_rows:
                        previous = bound[row]
                        bound[row] = instance
                        if previous is not None:
                            rebound.add(row)
                            if _binding_key(previous) != key:
                                changed.add(row)
        groups.append(blocks)
    rebuilt: Sequence[int] = range(num_rows) if base is None else sorted(changed)

    # Every rebuilt row's instance per MAS (by plan position), and the
    # overlapping MAS pairs in index order: a row can only conflict when
    # two MASs bound to it share an attribute, so rows of non-overlapping
    # MAS sets skip the conflict machinery entirely.
    picked = [list(map(bound.__getitem__, rebuilt)) for bound in instances]
    ordered = sorted(range(len(mas_plans)), key=lambda position: mas_plans[position].index)
    overlapping = [
        (first, second)
        for first, second in combinations(ordered, 2)
        if mas_plans[first].attribute_set & mas_plans[second].attribute_set
    ]
    conflicts: dict[int, list[tuple[int, int]]] = {}
    if resolve_conflicts and overlapping:
        for number, row_instances in enumerate(zip(*picked)):
            pairs = _conflicting_pairs(row_instances, overlapping, mas_plans)
            if pairs:
                conflicts[number] = pairs
    if base is not None and (
        any(len(pairs) >= 2 for pairs in conflicts.values())
        or any(row in base.shuffled_rows for row in rebuilt)
    ):
        result = assemble_row_plans(relation, mas_plans, fresh_factory, resolve_conflicts, seed)
        result.layout.fallback = "conflict-rng"
        return result

    # The one version of a row without conflicts retains every binding,
    # so its cells are built a column at a time: per attribute, the first
    # covering MAS whose instance is constrained, else the first covering
    # MAS, else plain probabilistic encryption.
    position_of = {plan.index: position for position, plan in enumerate(mas_plans)}
    variants = [[_variant(instance) for instance in column] for column in picked]
    interner = _InstanceCells()
    cell_columns = []
    # An update reads only the rebuilt rows, so the plaintext stays chunked.
    source = relation if base is None else relation.select_rows(rebuilt)
    for attr in schema_attributes:
        values = source.column(attr)
        covering = [position_of[index] for index in mas_attribute_map[attr]]
        if not covering:
            cell_columns.append(list(map(RandomCell, values)))
        elif len(covering) == 1:
            cell_columns.append(interner.column(values, variants[covering[0]]))
        else:
            chosen = map(_chosen_instance, zip(*(picked[position] for position in covering)))
            cell_columns.append(interner.column(values, list(map(_variant, chosen))))
    full_schema_set = frozenset(schema_attributes)
    conflict_free = list(
        map(
            RowPlan,
            map(dict, map(zip, repeat(schema_attributes), zip(*cell_columns))),
            map(RowProvenance, repeat("original"), rebuilt, repeat(full_schema_set)),
        )
    )

    # Lay the view out while re-assembling: the base's kept rows between
    # rebuilt ones are copy runs, the rebuilt rows' plans new rows.
    splice = Splice()
    base_start = _BlockStarts(base.extra_plans if base is not None else {})
    new_plans: list[RowPlan] = []
    kept_from = 0
    extra_plans = dict(base.extra_plans) if base is not None else {}
    shuffled_rows = set(base.shuffled_rows) if base is not None else set()
    for number, row_index in enumerate(rebuilt):
        if row_index > kept_from:
            splice.take(new_plans)
            new_plans = []
            start = base_start(kept_from)
            splice.copy(start, base_start(row_index) - start)
        kept_from = row_index + 1
        if extra_plans:
            extra_plans.pop(row_index, None)
        conflict_pairs = conflicts.get(number)
        if conflict_pairs is None:
            new_plans.append(conflict_free[number])
            continue
        if len(conflict_pairs) >= 2:
            rng.shuffle(conflict_pairs)
            shuffled_rows.add(row_index)
        binding_by_mas = {
            plan.index: _RowBinding(plan.index, plan.attributes, instance)
            for plan, instance in zip(mas_plans, (column[number] for column in picked))
            if instance is not None
        }
        row_values = dict(zip(schema_attributes, relation.row(row_index)))
        versions, had_conflict = _build_versions_for_row(
            row_index,
            row_values,
            binding_by_mas,
            conflict_pairs,
            mas_attribute_map,
            schema_attributes,
        )
        if had_conflict:
            extra_plans[row_index] = len(versions) - 1
        new_plans.extend(versions)
    splice.take(new_plans)
    if kept_from < base_rows:
        start = base_start(kept_from)
        splice.copy(start, base_start(base_rows) - start)
    if base is not None:
        extra_plans = dict(sorted(extra_plans.items()))
        # A rebuilt row can only repeat the bytes of a row bound by the
        # same re-planned ECGs (see :func:`repro.api.delta.splice_view_delta`).
        bound_start = _BlockStarts(base.extra_plans)
        for row_index in sorted(rebound):
            splice.note(bound_start(row_index), 1 + base.extra_plans.get(row_index, 0))

    # Then every MAS's ECG blocks, kept or rebuilt.
    group_starts: list[list[int]] = []
    for position, (mas_plan, blocks) in enumerate(zip(mas_plans, groups)):
        old_blocks = base_groups[position]
        old_starts = base.group_starts[position] if base is not None else [0]
        region_start = splice.rows
        kept_from = 0
        for number in rebuilt_groups[position]:
            if number > kept_from:
                splice.copy(old_starts[kept_from], old_starts[number] - old_starts[kept_from])
            block = blocks[number] = _group_block(
                mas_plan, mas_plan.ecg_plans[number], schema_attributes, interner
            )
            splice.take(block.plans)
            if number < len(old_blocks):
                splice.note(old_starts[number], len(old_blocks[number].plans))
            kept_from = number + 1
        if kept_from < len(blocks):
            splice.copy(old_starts[kept_from], old_starts[-1] - old_starts[kept_from])
        group_starts.append(
            list(accumulate((len(block.plans) for block in blocks), initial=region_start))
        )
    scaling_rows_added = sum(block.scaling_rows for blocks in groups for block in blocks)
    fake_ec_rows_added = sum(block.fake_rows for blocks in groups for block in blocks)

    layout = ViewLayout(
        instances=instances,
        shuffled_rows=frozenset(shuffled_rows),
        num_rows=num_rows,
        groups=groups,  # type: ignore[arg-type]
        group_starts=group_starts,
        extra_plans=extra_plans,
        rebuilt_rows=rebuilt,
        rows_reassembled=len(splice.pending),
        splice=splice,
        fp_start=splice.rows,
    )
    return AssemblyResult(
        row_plans=splice.spliced(
            [base.row_plans] if base is not None else None,  # type: ignore[list-item]
            [splice.pending],
        )[0],
        conflicting_tuples=len(extra_plans),
        conflict_rows_added=sum(extra_plans.values()),
        scaling_rows_added=scaling_rows_added,
        fake_ec_rows_added=fake_ec_rows_added,
        layout=layout,
    )


def _binding_key(instance: InstanceAssignment) -> tuple[str, bool]:
    return instance.variant, instance.frequency >= 2


class _BlockStarts:
    """View offsets of original-row blocks, for non-decreasing row queries."""

    def __init__(self, extra_plans: dict[int, int]):
        self._extras = iter(extra_plans.items())
        self._next = next(self._extras, None)
        self._passed = 0

    def __call__(self, row: int) -> int:
        while self._next is not None and self._next[0] < row:
            self._passed += self._next[1]
            self._next = next(self._extras, None)
        return row + self._passed


# ----------------------------------------------------------------------
# Binding collection
# ----------------------------------------------------------------------
def _attribute_to_mas_indexes(
    attributes: tuple[str, ...],
    mas_plans: list[MasPlan],
) -> dict[str, list[int]]:
    mapping: dict[str, list[int]] = {attr: [] for attr in attributes}
    for plan in mas_plans:
        for attr in plan.attributes:
            mapping[attr].append(plan.index)
    return mapping


# ----------------------------------------------------------------------
# Per-row version construction with type-2 conflict resolution
# ----------------------------------------------------------------------
def _build_versions_for_row(
    row_index: int,
    row_values: dict[str, object],
    binding_by_mas: dict[int, _RowBinding],
    conflict_pairs: list[tuple[int, int]],
    mas_attribute_map: dict[str, list[int]],
    schema_attributes: tuple[str, ...],
) -> tuple[list[RowPlan], bool]:
    """Build the ciphertext row(s) representing one genuinely conflicting row.

    The caller handles the no-conflict fast path; this general machinery
    only runs for rows with at least one conflicting MAS pair (already
    computed, in shuffled order).
    """
    # A "version" is a candidate output row: the set of MASs whose authentic
    # binding it retains, plus the attributes already replaced by fresh values.
    versions: list[dict[str, object]] = [
        {"mas_indexes": set(binding_by_mas), "fresh_attributes": set()}
    ]
    had_conflict = False

    for first_mas, second_mas in conflict_pairs:
        for version in list(versions):
            retained: set[int] = version["mas_indexes"]  # type: ignore[assignment]
            if first_mas not in retained or second_mas not in retained:
                continue
            had_conflict = True
            versions.remove(version)
            first_attrs = frozenset(binding_by_mas[first_mas].attributes)
            second_attrs = frozenset(binding_by_mas[second_mas].attributes)
            shared = first_attrs & second_attrs
            fresh_attrs: set[str] = version["fresh_attributes"]  # type: ignore[assignment]
            # Version 1 keeps the X-side binding; Y - Z becomes fresh.
            first_fresh = fresh_attrs | (second_attrs - shared)
            versions.append(
                {
                    "mas_indexes": _uncorrupted(
                        retained - {second_mas}, first_fresh, binding_by_mas
                    ),
                    "fresh_attributes": first_fresh,
                }
            )
            # Version 2 keeps only the Y-side binding; everything outside
            # Y becomes fresh so that no other MAS's frequency is doubled.
            second_fresh = fresh_attrs | (set(schema_attributes) - second_attrs)
            versions.append(
                {
                    "mas_indexes": _uncorrupted(
                        {second_mas}, second_fresh, binding_by_mas
                    ),
                    "fresh_attributes": second_fresh,
                }
            )
            break  # A conflicting pair splits exactly one version.

    row_plans = []
    for version_index, version in enumerate(versions):
        retained: set[int] = version["mas_indexes"]  # type: ignore[assignment]
        fresh_attrs: set[str] = version["fresh_attributes"]  # type: ignore[assignment]
        cells: dict[str, CellSpec] = {}
        authentic: set[str] = set()
        unsearchable: set[str] = set()
        for attr in schema_attributes:
            if attr in fresh_attrs:
                # Deterministic token (not a factory counter): an unchanged
                # row re-assembled by an incremental update names the same
                # token and hence keeps its previous artificial value — the
                # nonce-retention contract that makes server-view deltas
                # small.  Unique per (row, version, attribute) within a run;
                # the "=" prefix keeps it disjoint from counter tokens.
                cells[attr] = FreshCell(
                    token=f"=conflict:{row_index}:v{version_index}:{attr}"
                )
                continue
            spec = _cell_for_original(
                attr, row_values[attr], binding_by_mas, mas_attribute_map, retained
            )
            cells[attr] = spec
            authentic.add(attr)
            if isinstance(spec, RandomCell) and mas_attribute_map[attr]:
                unsearchable.add(attr)
        kind = "original" if len(versions) == 1 else "conflict"
        row_plans.append(
            RowPlan(
                cells=cells,
                provenance=RowProvenance(
                    kind=kind,
                    source_row=row_index,
                    authentic_attributes=frozenset(authentic),
                    unsearchable_attributes=frozenset(unsearchable),
                ),
            )
        )
    return row_plans, had_conflict


def _uncorrupted(
    retained: set[int],
    fresh_attributes: set[str],
    binding_by_mas: dict[int, _RowBinding],
) -> set[int]:
    """Retained MASs whose attribute sets are untouched by the fresh set.

    A binding is only safe to keep *in full*: emitting an instance's
    ciphertext on part of a MAS while freshening the rest would place the
    instance's prefix next to a value the instance never had, breaking any
    FD whose LHS lies inside the kept part — and by MAS maximality the RHS
    of such an FD always lies in the same MAS, so a fully kept MAS can
    never violate one.  Attributes of a dropped binding fall through to
    plain probabilistic encryption (authentic value, unique ciphertext),
    which cannot duplicate an FD's left-hand side.
    """
    return {
        index
        for index in retained
        if not (frozenset(binding_by_mas[index].attributes) & fresh_attributes)
    }


def _conflicting_pairs(
    row_instances: Sequence[InstanceAssignment | None],
    overlapping: list[tuple[int, int]],
    mas_plans: list[MasPlan],
) -> list[tuple[int, int]]:
    """Overlapping MAS pairs whose bindings for this row genuinely conflict.

    ``row_instances`` holds the row's instance per MAS (by plan position)
    and ``overlapping`` the position pairs of MASs that share an attribute,
    in MAS index order.  Both bindings must be constrained (post-scaling
    frequency >= 2) and must disagree on the variant; otherwise the
    unconstrained side simply adopts the other side's value.

    The pairs come back as MAS indexes in index order; the caller shuffles
    lists of two or more with the conflict RNG (``rng.shuffle`` consumes no
    RNG state on shorter lists, so skipping it there keeps the stream
    identical to always shuffling).
    """
    pairs = []
    for first, second in overlapping:
        first_instance = row_instances[first]
        second_instance = row_instances[second]
        if first_instance is None or second_instance is None:
            continue
        if first_instance.frequency < 2 or second_instance.frequency < 2:
            continue
        if first_instance.variant == second_instance.variant:
            continue
        pairs.append((mas_plans[first].index, mas_plans[second].index))
    return pairs


def _chosen_instance(
    covering: Sequence[InstanceAssignment | None],
) -> InstanceAssignment | None:
    """The instance whose value a conflict-free row carries on an attribute
    several MASs cover: the first constrained one, else the first bound."""
    for instance in covering:
        if instance is not None and instance.frequency >= 2:
            return instance
    return next((instance for instance in covering if instance is not None), None)


def _variant(instance: InstanceAssignment | None) -> str | None:
    return None if instance is None else instance.variant


class _InstanceCells:
    """One :class:`InstanceCell` per ``(str(value), variant)``.

    Cells with equal keys materialise to the same ciphertext (the cipher
    encrypts ``str(value)``), so the rows of one instance, original and
    copies alike, can share the object and the materialiser resolves it
    once.
    """

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str], InstanceCell] = {}

    def cell(self, value: object, variant: str) -> InstanceCell:
        key = (str(value), variant)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = InstanceCell(value, variant)
        return cell

    def column(self, values: list, variants: list[str | None]) -> list[CellSpec]:
        """The cells of one attribute for rows with these values and the
        variants of their chosen instances (``None``: unbound, which gets a
        :class:`RandomCell`)."""
        cells = self.cells
        for key, value in dict(zip(zip(map(str, values), variants), values)).items():
            if key[1] is not None and key not in cells:
                cells[key] = InstanceCell(value, key[1])
        # The keys again, not kept in a list: a tuple that dies at once
        # never reaches the cyclic collector.
        column: list[CellSpec] = list(
            map(cells.get, zip(map(str, values), variants))  # type: ignore[arg-type]
        )
        if None in variants:
            for number, variant in enumerate(variants):
                if variant is None:
                    column[number] = RandomCell(value=values[number])
        return column


def _cell_for_original(
    attribute: str,
    value: object,
    binding_by_mas: dict[int, _RowBinding],
    mas_attribute_map: dict[str, list[int]],
    retained: set[int],
) -> CellSpec:
    """Pick the cell specification of one original-row cell.

    Preference order: a retained *constrained* binding covering the attribute,
    then any retained binding covering it, then plain probabilistic encryption
    (attributes outside every MAS).
    """
    covering = [index for index in mas_attribute_map.get(attribute, []) if index in retained]
    constrained = [
        index for index in covering if binding_by_mas[index].constrained
    ]
    chosen = constrained[0] if constrained else (covering[0] if covering else None)
    if chosen is None:
        return RandomCell(value=value)
    return binding_by_mas[chosen].cell_for(attribute, value)


# ----------------------------------------------------------------------
# Artificial rows: scaling copies and fake-EC rows (type-1 resolution)
# ----------------------------------------------------------------------
def _group_block(
    mas_plan: MasPlan,
    ecg_plan: EcgPlan,
    schema_attributes: tuple[str, ...],
    interner: _InstanceCells,
) -> GroupBlock:
    """The scaling-copy and fake-EC rows of one ECG of ``mas_plan``.

    The copies of one instance share its MAS cells; only their fresh
    values outside the MAS differ.
    """
    mas_attributes = mas_plan.attributes
    others = [attr for attr in schema_attributes if attr not in mas_plan.attribute_set]
    scaling = RowProvenance(kind="scaling")
    fake_ec = RowProvenance(kind="fake_ec")
    plans: list[RowPlan] = []
    scaling_rows = 0
    fake_rows = 0
    for member_plan in ecg_plan.member_plans:
        member = member_plan.member
        for instance in member_plan.instances:
            copies = instance.scaling_copies
            if not copies:
                continue
            variant = instance.variant
            if member.is_fake:
                mas_cells: list[CellSpec] = list(map(FreshCell, member.fake_tokens))
                provenance = fake_ec
                fake_rows += copies
            else:
                mas_cells = [
                    interner.cell(value, variant) for value in member.representative
                ]
                provenance = scaling
                scaling_rows += copies
            shared = dict(zip(mas_attributes, mas_cells))
            rows = [shared.copy() for _ in range(copies)]
            for attr in others:
                # Deterministic token keyed by the instance variant (unique
                # per MAS/group/member/chunk) and the copy index: a
                # re-planned ECG re-creates the same tokens, so its scaling
                # rows keep their bytes.
                for copy_index, cells in enumerate(rows):
                    cells[attr] = FreshCell(f"=scale:{variant}:c{copy_index}:{attr}")
            plans.extend(map(RowPlan, rows, repeat(provenance)))
    return GroupBlock(
        mas_attributes=mas_attributes,
        ecg_plan=ecg_plan,
        plans=plans,
        scaling_rows=scaling_rows,
        fake_rows=fake_rows,
    )


def count_overlapping_pairs(mas_plans: list[MasPlan]) -> int:
    """Number of overlapping MAS pairs (the paper's ``h`` in Theorem 3.3)."""
    count = 0
    for first, second in combinations(mas_plans, 2):
        if first.attribute_set & second.attribute_set:
            count += 1
    return count


def validate_assembly(result: AssemblyResult, relation: Relation) -> None:
    """Internal consistency checks on an assembly (used by tests and scheme).

    Every original row must be represented, every row plan must cover every
    attribute, and the union of authentic attributes of the rows derived from
    one original row must cover the whole schema (so decryption can
    reconstruct the record).
    """
    validate_row_plans(result.row_plans, relation.attributes, range(relation.num_rows))


def validate_row_plans(
    row_plans: list[RowPlan], attributes: tuple[str, ...], sources: Iterable[int]
) -> None:
    """:func:`validate_assembly` on part of a view: ``row_plans`` must
    represent exactly the original rows ``sources``, each recoverably.

    The SYN stage checks only the blocks it rebuilt; kept blocks passed
    when they were built.
    """
    schema = frozenset(attributes)
    coverage: dict[int, frozenset[str]] = {}
    for plan in row_plans:
        if not plan.cells.keys() >= schema:
            missing = sorted(schema - plan.cells.keys())
            raise EncryptionError(f"row plan missing cells for attributes: {missing}")
        provenance = plan.provenance
        if provenance.kind in ("original", "conflict"):
            source = provenance.source_row
            if source is None:
                raise EncryptionError("original/conflict row plan without a source row")
            covered = coverage.get(source)
            coverage[source] = (
                provenance.authentic_attributes
                if covered is None
                else covered | provenance.authentic_attributes
            )
    if coverage.keys() != set(sources):
        raise EncryptionError("some original rows are not represented in the assembly")
    for row, attrs in coverage.items():
        if attrs != schema:
            raise EncryptionError(
                f"original row {row} is not fully recoverable (missing {sorted(schema - attrs)})"
            )
