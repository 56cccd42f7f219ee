"""The standard F2 pipeline stages.

Each stage wraps one step of the paper's algorithm (plus the two
implementation extras, materialisation and the optional verify/repair pass)
around the step modules in :mod:`repro.core`.  The stage list produced by
:func:`default_stages` reproduces the legacy ``F2Scheme.encrypt`` monolith
operation for operation, so a seeded run through the pipeline is
byte-for-byte identical to the historical output.
"""

from __future__ import annotations

import warnings
from itertools import chain, compress, count
from operator import attrgetter, itemgetter
from typing import Any

from repro.api.pipeline import EncryptionContext, Stage
from repro.core.conflict import (
    MasPlan,
    ViewLayout,
    assemble_row_plans,
    validate_row_plans,
)
from repro.core.config import F2Config
from repro.core.ecg import build_equivalence_class_groups
from repro.core.encrypted import EncryptedTable, RowProvenance
from repro.core.false_positive import build_violation_pairs, eliminate_false_positives
from repro.core.plan import (
    FreshCell,
    FreshValueFactory,
    InstanceCell,
    RandomCell,
    RowPlan,
)
from repro.core.split_scale import EcgPlan, build_ecg_plan
from repro.core.stats import EncryptionStats
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.exceptions import EncryptionError, FdPreservationWarning
from repro.fd.mas import MaximalAttributeSet, find_mas_with_stats
from repro.fd.tane import tane
from repro.fd.verify import fd_holds, violating_row_pairs
from repro.relational.partition import Partition
from repro.relational.table import Relation


def mas_namespace(index: int, mas: MaximalAttributeSet) -> str:
    """The variant namespace of one MAS (stable across incremental updates)."""
    return f"mas{index}:{','.join(mas.attributes)}"


#: The counters :func:`record_planning_stats` derives from the plans.
PLANNING_COUNTERS = (
    "num_equivalence_classes",
    "num_fake_ecs",
    "num_ecgs",
    "num_split_ecs",
)


def record_planning_stats(stats: EncryptionStats, mas_plans: list[MasPlan]) -> None:
    """Derive the grouping/splitting counters of ``stats`` from the plans.

    The full pipeline calls this; the incremental updater moves the same
    counters by what its plan updates change, and the tests pin the two
    equal.
    """
    stats.num_equivalence_classes = sum(
        1
        for plan in mas_plans
        for group in plan.grouping.groups
        for member in group.members
        if not member.is_fake
    )
    stats.num_fake_ecs = sum(
        1
        for plan in mas_plans
        for group in plan.grouping.groups
        for member in group.members
        if member.is_fake
    )
    stats.num_ecgs = sum(len(plan.grouping.groups) for plan in mas_plans)
    stats.num_split_ecs = sum(
        split_members(ecg_plan) for plan in mas_plans for ecg_plan in plan.ecg_plans
    )


def group_positions(groups, start: int = 0) -> dict[tuple, int]:
    """Representative of every real class -> position of its group."""
    return {
        member.representative: position
        for position, group in enumerate(groups, start)
        for member in group.members
        if not member.is_fake
    }


def split_members(ecg_plan: EcgPlan) -> int:
    """How many members of one ECG were split."""
    return sum(1 for member_plan in ecg_plan.member_plans if member_plan.was_split)


def plan_single_mas(
    relation: Relation,
    index: int,
    mas: MaximalAttributeSet,
    config: F2Config,
    fresh_factory: FreshValueFactory,
    backend=None,
) -> MasPlan:
    """Group and split/scale one MAS (Step 2 for a single attribute set)."""
    partition = Partition.build(relation, mas.attributes, backend=backend)
    grouping = build_equivalence_class_groups(partition, config.group_size, fresh_factory)
    plan = MasPlan(
        index=index,
        mas=mas,
        grouping=grouping,
        classes={ec.representative: ec.rows for ec in partition.classes},
        group_of=group_positions(grouping.groups),
    )
    for group in grouping.groups:
        plan.ecg_plans.append(
            build_ecg_plan(
                group,
                config.split_factor,
                keep_pairs_together=config.keep_pairs_together,
                namespace=mas_namespace(index, mas),
            )
        )
    return plan


def materialize_row_plans(
    relation: Relation,
    row_plans: list[RowPlan],
    cipher: ProbabilisticCipher,
    fresh_factory: FreshValueFactory,
    nonce_log: "dict[tuple[str, str], Ciphertext] | None" = None,
    backend=None,
    instance_cache: "dict[tuple[str, str, str], Ciphertext] | None" = None,
) -> tuple[Relation, list[RowProvenance]]:
    """Turn symbolic row plans into a ciphertext relation plus provenance.

    :func:`materialize_rows` does the work; this wraps its columns into a
    relation over ``relation``'s schema.
    """
    columns, provenance = materialize_rows(
        row_plans,
        relation.attributes,
        cipher,
        fresh_factory,
        nonce_log,
        backend=backend,
        instance_cache=instance_cache,
    )
    return (
        Relation.adopt_columns(relation.schema, columns, name=f"{relation.name}-encrypted"),
        provenance,
    )


def materialize_rows(
    row_plans: list[RowPlan],
    attributes: tuple[str, ...],
    cipher: ProbabilisticCipher,
    fresh_factory: FreshValueFactory,
    nonce_log: "dict[tuple[str, str], Ciphertext] | None" = None,
    backend=None,
    instance_cache: "dict[tuple[str, str, str], Ciphertext] | None" = None,
) -> tuple[list[list[Any]], list[RowProvenance]]:
    """Turn symbolic row plans into ciphertext columns plus provenance.

    Returns one list of cells per attribute of ``attributes`` and the
    plans' provenance records, both in plan order.

    Pass 1 resolves every distinct cell specification object once, in
    row-major order of first occurrence, to a value slot: an
    :class:`~repro.core.plan.InstanceCell` to a cached ciphertext or an
    encryption job (deduplicated by ``cache_key``), a
    :class:`~repro.core.plan.FreshCell` to the fresh factory's value for its
    token (all tokens drawn together in first-occurrence order: the
    factory's RNG consumption order is part of the byte-identity contract).
    Then each :class:`~repro.core.plan.RandomCell` occurrence, in row-major
    order, gets an encryption job (deduplicated through ``nonce_log``).
    The jobs encrypt as one batch — bulk urandom draws sliced per cell, one
    PRF key schedule, one XOR over the concatenated buffers — and every
    cell picks its value up by slot.

    The output is byte-identical to encrypting cell-by-cell in row-major
    order (the seed pipeline's behaviour) for every backend: the random
    jobs, the only ones that draw from urandom, are batched in row-major
    order, the fresh factory sees tokens in first-encounter order, and
    everything else is a pure function of the key.

    ``nonce_log`` is the context's fresh-nonce retention map: a
    :class:`~repro.core.plan.RandomCell` whose ``(attribute, value)`` was
    materialised before reuses its previous ciphertext instead of drawing a
    new nonce.  On a fresh context the log starts empty (every cell draws,
    exactly as before the log existed); on an incremental re-materialisation
    it carries the previous run's draws.

    ``instance_cache`` is the context's instance-ciphertext cache: a cached
    :class:`~repro.core.plan.InstanceCell` is placed directly instead of
    becoming a job, and every instance encrypted here is added to it.
    Instance ciphertexts derive their nonce from the key, so skipping them
    changes neither the bytes nor the order of the random draws.

    Together the two maps and the factory's token memory mean a plan that
    was materialised before draws nothing when materialised again.  That is
    why the MATERIALIZE stage can hand this function only the rows an
    incremental update rebuilt: the kept rows would have drawn nothing.
    """
    width = len(attributes)
    if not row_plans:
        return [[] for _ in attributes], []
    pick = itemgetter(*attributes) if width > 1 else (lambda cells: (cells[attributes[0]],))
    specs = list(chain.from_iterable(map(pick, map(attrgetter("cells"), row_plans))))
    ids = list(map(id, specs))

    # ------------------------------------------------------------------
    # Pass 1: one value slot per distinct resolution target; ``values``
    # holds a slot's ciphertext, or None while its job is pending.
    # ------------------------------------------------------------------
    values: list[Any] = []
    jobs: list[tuple[Any, "str | None"]] = []
    job_slots: list[int] = []
    slot_of: dict[int, int] = {}  # id(spec) -> slot, instance and fresh cells
    slot_of_instance: dict[tuple[str, str, str], int] = {}
    new_instances: list[tuple[tuple[str, str, str], int]] = []
    slot_of_token: dict[str, int] = {}
    random_ids: set[int] = set()
    cached_instance = (instance_cache if instance_cache is not None else {}).get
    for ident, spec in dict(zip(ids, specs)).items():
        spec_type = type(spec)
        if spec_type is InstanceCell:
            key = spec.cache_key()
            slot = slot_of_instance.get(key)
            if slot is None:
                slot = slot_of_instance[key] = len(values)
                cell = cached_instance(key)
                values.append(cell)
                if cell is None:
                    jobs.append((spec.value, spec.variant))
                    job_slots.append(slot)
                    new_instances.append((key, slot))
        elif spec_type is FreshCell:
            slot = slot_of_token.get(spec.token)  # type: ignore[assignment]
            if slot is None:
                slot = slot_of_token[spec.token] = len(values)
                values.append(None)
        elif spec_type is RandomCell:
            random_ids.add(ident)
            continue
        else:  # pragma: no cover - defensive
            raise EncryptionError(f"unknown cell specification: {spec!r}")
        slot_of[ident] = slot
    slots = list(map(slot_of.get, ids))
    fresh = fresh_factory.materialize_many(list(slot_of_token))
    for slot, value in zip(slot_of_token.values(), fresh):
        values[slot] = value

    # Random cells per occurrence, row-major: their jobs draw urandom.
    slot_of_log_key: dict[tuple[str, str], int] = {}
    for position in compress(count(), map(random_ids.__contains__, ids)):
        value = specs[position].value
        log_key = (attributes[position % width], str(value))
        slot = slot_of_log_key.get(log_key) if nonce_log is not None else None
        if slot is None:
            slot = len(values)
            cell = None
            if nonce_log is not None:
                slot_of_log_key[log_key] = slot
                cell = nonce_log.get(log_key)
            values.append(cell)
            if cell is None:
                jobs.append((value, None))
                job_slots.append(slot)
        slots[position] = slot

    # ------------------------------------------------------------------
    # Batch encryption, then every cell's value by slot.
    # ------------------------------------------------------------------
    if jobs:
        for slot, ciphertext in zip(job_slots, cipher.encrypt_batch(jobs, backend=backend)):
            values[slot] = ciphertext
        if nonce_log is not None:
            for log_key, slot in slot_of_log_key.items():
                nonce_log[log_key] = values[slot]
        if instance_cache is not None:
            for key, slot in new_instances:
                instance_cache[key] = values[slot]
    cells = list(map(values.__getitem__, slots))  # type: ignore[arg-type]
    columns = [cells[position::width] for position in range(width)]
    return columns, list(map(attrgetter("provenance"), row_plans))


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class MasDiscoveryStage:
    """Step 1: find the maximal attribute sets of the plaintext."""

    name = "MAX"

    def run(self, ctx: EncryptionContext) -> None:
        ctx.mas_result = find_mas_with_stats(
            ctx.relation,
            strategy=ctx.config.mas_strategy,
            seed=ctx.config.seed,
            backend=ctx.backend,
        )
        ctx.stats.num_masses = len(ctx.mas_result.masses)
        ctx.stats.num_overlapping_mas_pairs = len(ctx.mas_result.overlapping_pairs())


class SplitScaleStage:
    """Step 2: grouping plus splitting-and-scaling, planned per MAS."""

    name = "SSE"

    def run(self, ctx: EncryptionContext) -> None:
        ctx.mas_plans = [
            plan_single_mas(
                ctx.relation, index, mas, ctx.config, ctx.fresh_factory, backend=ctx.backend
            )
            for index, mas in enumerate(ctx.masses)
        ]
        record_planning_stats(ctx.stats, ctx.mas_plans)


class ConflictResolutionStage:
    """Step 3: synchronise the per-MAS plans into one row-plan list.

    On an incremental update (``ctx.base_layout`` set) only the changed
    blocks of the previous layout are re-assembled; see
    :func:`~repro.core.conflict.assemble_row_plans`.
    """

    name = "SYN"

    def run(self, ctx: EncryptionContext) -> None:
        assembly = assemble_row_plans(
            ctx.relation,
            ctx.mas_plans,
            ctx.fresh_factory,
            resolve_conflicts=ctx.config.resolve_conflicts,
            seed=ctx.config.seed,
            base=ctx.base_layout,
        )
        layout = assembly.layout
        if layout.fallback is not None:
            ctx.base_layout = None
        validate_row_plans(layout.splice.pending, ctx.relation.attributes, layout.rebuilt_rows)
        ctx.layout = layout
        ctx.row_plans = assembly.row_plans
        ctx.stats.num_conflicting_tuples = assembly.conflicting_tuples
        ctx.stats.rows_added_conflict = assembly.conflict_rows_added
        ctx.stats.rows_added_scale = assembly.scaling_rows_added
        ctx.stats.rows_added_group = assembly.fake_ec_rows_added


class FalsePositiveStage:
    """Step 4: insert artificial violation pairs for false-positive FDs.

    The rows depend only on the MAS partitions (their classes, first rows
    and codes), which an append changes only by adding a class.  So when
    every partition kept its class count since the base layout's run, the
    base's rows are reused as they are.
    """

    name = "FP"

    def run(self, ctx: EncryptionContext) -> None:
        if not ctx.config.eliminate_false_positives:
            return
        layout = _layout_of(ctx)
        base = ctx.base_layout
        class_counts = tuple(len(plan.classes) for plan in ctx.mas_plans)
        if base is not None and base.fp_class_counts == class_counts:
            layout.false_positives = base.false_positives
            layout.fp_nodes = base.fp_nodes
            layout.fp_reused = True
            layout.splice.copy(base.fp_start, len(base.false_positives))
        else:
            fp_result = eliminate_false_positives(
                ctx.relation,
                ctx.mas_plans,
                ctx.config.group_size,
                ctx.fresh_factory,
                backend=ctx.backend,
            )
            layout.false_positives = fp_result.row_plans
            layout.fp_nodes = fp_result.num_triggered
            layout.splice.take(fp_result.row_plans)
            if base is not None:
                layout.splice.note(base.fp_start, len(base.false_positives))
        layout.fp_class_counts = class_counts
        ctx.row_plans.extend(layout.false_positives)
        ctx.stats.num_false_positive_nodes = layout.fp_nodes
        ctx.stats.rows_added_false_positive = len(layout.false_positives)


class MaterializeStage:
    """Produce the ciphertext relation and assemble the encrypted table.

    Encrypts only the layout's new rows (all of them on a full run); the
    rows kept from the base layout are sliced out of the base view.
    """

    name = "MATERIALIZE"

    def run(self, ctx: EncryptionContext) -> None:
        layout = _layout_of(ctx)
        base = ctx.base_layout
        splice = layout.splice
        attributes = ctx.relation.attributes
        new_columns, provenance = materialize_rows(
            splice.pending,
            attributes,
            ctx.cipher,
            ctx.fresh_factory,
            ctx.nonce_log,
            backend=ctx.backend,
            instance_cache=ctx.instance_cache,
        )
        encrypted_relation = Relation.adopt_columns(
            ctx.relation.schema,
            [
                splice.apply(
                    base.relation.column(attr) if base is not None else None,  # type: ignore[union-attr]
                    new_columns[position],
                )
                for position, attr in enumerate(attributes)
            ],
            name=f"{ctx.relation.name}-encrypted",
        )
        provenance = splice.apply(base.provenance if base is not None else None, provenance)
        layout.row_plans = ctx.row_plans
        layout.relation = encrypted_relation
        layout.provenance = provenance
        ctx.encrypted_relation = encrypted_relation
        ctx.provenance = provenance
        ctx.result = EncryptedTable(
            relation=encrypted_relation,
            provenance=provenance,
            config=ctx.config,
            stats=ctx.stats,
            masses=list(ctx.masses),
            ecg_summaries=[block.summary for blocks in layout.groups for block in blocks],
            metadata=dict(ctx.metadata),
        )


def _layout_of(ctx: EncryptionContext) -> ViewLayout:
    if ctx.layout is None:
        raise EncryptionError("the SYN stage must run before FP and MATERIALIZE")
    return ctx.layout


class VerifyRepairStage:
    """Optional strict pass: repair residual false-positive FDs.

    Also performs a cheap false-*negative* check: every FD of the plaintext
    (LHS capped at ``verify_max_lhs``) is verified against the ciphertext,
    and any lost dependency is reported via
    :class:`repro.exceptions.FdPreservationWarning` plus the
    ``metadata['lost_fds']`` entry.  Lost FDs can occur on tables with
    several overlapping MASs (see the ROADMAP's falsifying example);
    repairing them is not implemented, only detection.

    The repair produces a *fresh* stats object for the repaired table (the
    pipeline's immutable-result convention): the pre-repair table keeps the
    counters it was built with, and the context switches to the new stats so
    the total timer lands on the table actually returned.
    """

    name = "REPAIR"

    def run(self, ctx: EncryptionContext) -> None:
        if not ctx.config.verify_and_repair:
            return
        encrypted = ctx.result
        if encrypted is None:
            raise EncryptionError("verify/repair requires a materialised table")
        config = ctx.config
        ciphertext_fds = tane(
            encrypted.relation, max_lhs_size=config.verify_max_lhs, backend=ctx.backend
        )
        self._warn_about_lost_fds(ctx, encrypted, ciphertext_fds)
        repaired_plans: list[RowPlan] = []
        repaired = 0
        for fd in ciphertext_fds:
            if fd_holds(ctx.relation, fd):
                continue
            witnesses = violating_row_pairs(ctx.relation, fd, limit=config.group_size)
            if not witnesses:
                continue
            repaired += 1
            repaired_plans.extend(
                build_violation_pairs(
                    ctx.relation,
                    witnesses,
                    config.group_size,
                    ctx.fresh_factory,
                    label=f"repair:{fd}",
                )
            )
        if not repaired_plans:
            return
        extra_relation, extra_provenance = materialize_row_plans(
            ctx.relation,
            repaired_plans,
            ctx.cipher,
            ctx.fresh_factory,
            ctx.nonce_log,
            backend=ctx.backend,
            instance_cache=ctx.instance_cache,
        )
        merged_relation = encrypted.relation.concat(extra_relation)
        merged_provenance = list(encrypted.provenance) + [
            RowProvenance(kind="repair", source_row=None, authentic_attributes=frozenset())
            for _ in extra_provenance
        ]
        new_stats = ctx.stats.copy()
        new_stats.num_repaired_false_positives = repaired
        new_stats.rows_added_false_positive += len(extra_provenance)
        ctx.stats = new_stats
        ctx.row_plans = ctx.row_plans + repaired_plans
        ctx.encrypted_relation = merged_relation
        ctx.provenance = merged_provenance
        ctx.result = EncryptedTable(
            relation=merged_relation,
            provenance=merged_provenance,
            config=encrypted.config,
            stats=new_stats,
            masses=encrypted.masses,
            ecg_summaries=encrypted.ecg_summaries,
            metadata=encrypted.metadata,
        )

    @staticmethod
    def _warn_about_lost_fds(ctx: EncryptionContext, encrypted, ciphertext_fds) -> None:
        """Detect plaintext FDs absent from the ciphertext (false negatives).

        Cheap by construction: the plaintext FDs are discovered with the same
        LHS cap as the verification TANE run, and each one is checked with a
        single partition-refinement test against the ciphertext.
        """
        plaintext_fds = tane(
            ctx.relation, max_lhs_size=ctx.config.verify_max_lhs, backend=ctx.backend
        )
        lost = [fd for fd in plaintext_fds if not fd_holds(encrypted.relation, fd)]
        if not lost:
            return
        lost_texts = sorted(str(fd) for fd in lost)
        ctx.metadata["lost_fds"] = lost_texts
        encrypted.metadata["lost_fds"] = lost_texts
        warnings.warn(
            "FD preservation failed: plaintext dependencies absent from the "
            f"ciphertext (false negatives): {', '.join(lost_texts)}; this can "
            "happen on tables with several overlapping MASs (see ROADMAP)",
            FdPreservationWarning,
            stacklevel=2,
        )


def default_stages(config: F2Config) -> list[Stage]:
    """The standard F2 stage sequence for ``config``.

    ``FP`` and ``REPAIR`` gate themselves on the configuration, so the list
    is the same surface for every config; ablations can still drop or swap
    entries explicitly.
    """
    return [
        MasDiscoveryStage(),
        SplitScaleStage(),
        ConflictResolutionStage(),
        FalsePositiveStage(),
        MaterializeStage(),
        VerifyRepairStage(),
    ]
