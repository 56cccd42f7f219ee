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
from typing import Any

from repro.api.pipeline import EncryptionContext, Stage
from repro.core.conflict import MasPlan, assemble_row_plans, validate_assembly
from repro.core.config import F2Config
from repro.core.ecg import build_equivalence_class_groups
from repro.core.encrypted import EcgSummary, EncryptedTable, RowProvenance
from repro.core.false_positive import build_violation_pairs, eliminate_false_positives
from repro.core.plan import (
    FreshCell,
    FreshValueFactory,
    InstanceCell,
    RandomCell,
    RowPlan,
)
from repro.core.split_scale import build_ecg_plan
from repro.core.stats import EncryptionStats
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.exceptions import EncryptionError, FdPreservationWarning
from repro.fd.mas import MaximalAttributeSet, find_mas_with_stats
from repro.fd.tane import tane
from repro.parallel import DEFAULT_PARALLEL_THRESHOLD, encrypt_sharded, resolve_workers
from repro.fd.verify import fd_holds, violating_row_pairs
from repro.relational.partition import Partition
from repro.relational.table import Relation


def mas_namespace(index: int, mas: MaximalAttributeSet) -> str:
    """The variant namespace of one MAS (stable across incremental updates)."""
    return f"mas{index}:{','.join(mas.attributes)}"


def record_planning_stats(stats: EncryptionStats, mas_plans: list[MasPlan]) -> None:
    """Derive the grouping/splitting counters of ``stats`` from the plans.

    Both the full pipeline and the incremental updater call this, so the
    counters always describe the plans actually in effect rather than
    whatever increments happened to run.
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
        1
        for plan in mas_plans
        for ecg_plan in plan.ecg_plans
        for member_plan in ecg_plan.member_plans
        if member_plan.was_split
    )


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
    plan = MasPlan(index=index, mas=mas, grouping=grouping)
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
    workers: int = 1,
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
    instance_cache: "dict[tuple[str, str, str], Ciphertext] | None" = None,
) -> tuple[Relation, list[RowProvenance]]:
    """Turn symbolic row plans into a ciphertext relation plus provenance.

    Two passes.  Pass 1 walks the plans in row-major order and *plans* the
    cell work: unique encryption jobs (instance cells deduplicated by
    ``cache_key``, random cells deduplicated through ``nonce_log``) are
    collected in first-encounter order, and artificial values are drawn from
    the fresh factory immediately (its RNG consumption order is part of the
    byte-identity contract).  The jobs then encrypt as one batch — bulk
    urandom draws sliced per cell, one PRF key schedule, one XOR over the
    concatenated buffers — optionally sharded over ``workers`` processes.
    Pass 2 assembles the rows from the computed cells.

    The output is byte-identical to encrypting cell-by-cell in row-major
    order (the seed pipeline's behaviour) for every backend and worker
    count: random draws happen in the same first-encounter order, the fresh
    factory is only touched from pass 1, and everything else is a pure
    function of the key.

    ``nonce_log`` is the context's fresh-nonce retention map: a
    :class:`~repro.core.plan.RandomCell` whose ``(attribute, value)`` was
    materialised before reuses its previous ciphertext instead of drawing a
    new nonce.  On a fresh context the log starts empty (every cell draws,
    exactly as before the log existed); on an incremental re-materialisation
    it carries the previous run's draws, so untouched rows keep their bytes
    and the server-view delta stays small.

    ``instance_cache`` is the context's instance-ciphertext cache: a cached
    :class:`~repro.core.plan.InstanceCell` is placed directly instead of
    becoming a job, and every instance encrypted here is added to it.
    Instance ciphertexts derive their nonce from the key, so skipping them
    changes neither the bytes nor the order of the random draws.
    """
    schema = relation.schema
    attributes = tuple(schema)
    encrypted_relation = Relation(schema, name=f"{relation.name}-encrypted")
    provenance: list[RowProvenance] = []
    materialize = fresh_factory.materialize
    log_get = nonce_log.get if nonce_log is not None else None
    cached_instance = (instance_cache if instance_cache is not None else {}).get

    # ------------------------------------------------------------------
    # Pass 1: plan the cell work (row-major, first-encounter order).
    # Rows are built immediately with a placeholder where an encryption
    # job is pending; the patch list records exactly those slots, so the
    # fix-up after batch encryption touches only pending cells, not the
    # whole table.
    # ------------------------------------------------------------------
    jobs: list[tuple[Any, "str | None"]] = []
    job_of_instance: dict[tuple[str, str, str], int] = {}
    job_of_log_key: dict[tuple[str, str], int] = {}
    rows: list[list[Any]] = []
    patches: list[tuple[list[Any], int, int]] = []  # (row, position, job index)
    append_row = rows.append
    append_patch = patches.append
    append_job = jobs.append

    for plan in row_plans:
        cells = plan.cells
        row: list[Any] = []
        append_cell = row.append
        for position, attr in enumerate(attributes):
            spec = cells[attr]
            spec_type = type(spec)
            if spec_type is InstanceCell:
                key = spec.cache_key()
                cell = cached_instance(key)
                if cell is not None:
                    append_cell(cell)
                    continue
                index = job_of_instance.get(key)
                if index is None:
                    index = job_of_instance[key] = len(jobs)
                    append_job((spec.value, spec.variant))
                append_cell(None)
                append_patch((row, position, index))
            elif spec_type is RandomCell:
                if log_get is None:
                    append_cell(None)
                    append_patch((row, position, len(jobs)))
                    append_job((spec.value, None))
                else:
                    log_key = (attr, str(spec.value))
                    cell = log_get(log_key)
                    if cell is not None:
                        append_cell(cell)
                        continue
                    index = job_of_log_key.get(log_key)
                    if index is None:
                        index = job_of_log_key[log_key] = len(jobs)
                        append_job((spec.value, None))
                    append_cell(None)
                    append_patch((row, position, index))
            elif spec_type is FreshCell:
                append_cell(materialize(spec.token))
            else:  # pragma: no cover - defensive
                raise EncryptionError(f"unknown cell specification: {spec!r}")
        append_row(row)
        source = plan.provenance
        provenance.append(
            RowProvenance(
                kind=source.kind,
                source_row=source.source_row,
                authentic_attributes=source.authentic_attributes,
            )
        )

    # ------------------------------------------------------------------
    # Batch encryption (optionally sharded across processes), then the
    # pending-slot fix-up.
    # ------------------------------------------------------------------
    if jobs:
        ciphertexts = encrypt_sharded(
            cipher, jobs, workers=workers, backend=backend, threshold=parallel_threshold
        )
        if nonce_log is not None:
            for log_key, index in job_of_log_key.items():
                nonce_log[log_key] = ciphertexts[index]
        if instance_cache is not None:
            for key, index in job_of_instance.items():
                instance_cache[key] = ciphertexts[index]
        for row, position, index in patches:
            row[position] = ciphertexts[index]

    for row in rows:
        encrypted_relation.append(row)
    return encrypted_relation, provenance


def summarise_groups(mas_plans: list[MasPlan]) -> list[EcgSummary]:
    """Owner-side ECG summaries (consumed by the alpha-security audit)."""
    summaries: list[EcgSummary] = []
    for mas_plan in mas_plans:
        for ecg_plan in mas_plan.ecg_plans:
            summaries.append(
                EcgSummary(
                    mas_attributes=mas_plan.attributes,
                    group_index=ecg_plan.group.index,
                    num_members=len(ecg_plan.group.members),
                    num_fake_members=ecg_plan.group.num_fake_members,
                    target_frequency=ecg_plan.target_frequency,
                    instance_frequencies=tuple(ecg_plan.instance_frequencies()),
                    member_sizes=tuple(ecg_plan.group.sizes),
                )
            )
    return summaries


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
    """Step 3: synchronise the per-MAS plans into one row-plan list."""

    name = "SYN"

    def run(self, ctx: EncryptionContext) -> None:
        assembly = assemble_row_plans(
            ctx.relation,
            ctx.mas_plans,
            ctx.fresh_factory,
            resolve_conflicts=ctx.config.resolve_conflicts,
            seed=ctx.config.seed,
        )
        validate_assembly(assembly, ctx.relation)
        ctx.assembly = assembly
        ctx.row_plans = list(assembly.row_plans)
        ctx.stats.num_conflicting_tuples = assembly.conflicting_tuples
        ctx.stats.rows_added_conflict = assembly.conflict_rows_added
        ctx.stats.rows_added_scale = assembly.scaling_rows_added
        ctx.stats.rows_added_group = assembly.fake_ec_rows_added


class FalsePositiveStage:
    """Step 4: insert artificial violation pairs for false-positive FDs."""

    name = "FP"

    def run(self, ctx: EncryptionContext) -> None:
        if not ctx.config.eliminate_false_positives:
            return
        fp_result = eliminate_false_positives(
            ctx.relation,
            ctx.mas_plans,
            ctx.config.group_size,
            ctx.fresh_factory,
            backend=ctx.backend,
        )
        ctx.row_plans.extend(fp_result.row_plans)
        ctx.stats.num_false_positive_nodes = fp_result.num_triggered
        ctx.stats.rows_added_false_positive = fp_result.rows_added


class MaterializeStage:
    """Produce the ciphertext relation and assemble the encrypted table."""

    name = "MATERIALIZE"

    def run(self, ctx: EncryptionContext) -> None:
        encrypted_relation, provenance = materialize_row_plans(
            ctx.relation,
            ctx.row_plans,
            ctx.cipher,
            ctx.fresh_factory,
            ctx.nonce_log,
            backend=ctx.backend,
            workers=resolve_workers(ctx.config.workers),
            instance_cache=ctx.instance_cache,
        )
        ctx.encrypted_relation = encrypted_relation
        ctx.provenance = provenance
        ctx.result = EncryptedTable(
            relation=encrypted_relation,
            provenance=provenance,
            config=ctx.config,
            stats=ctx.stats,
            masses=list(ctx.masses),
            ecg_summaries=summarise_groups(ctx.mas_plans),
            metadata=dict(ctx.metadata),
        )


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
            workers=resolve_workers(ctx.config.workers),
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
