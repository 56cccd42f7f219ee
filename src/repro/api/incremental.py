"""Incremental updates of an outsourced table (the "live database" scenario).

A one-shot encryption cannot express a data owner who keeps inserting
records after outsourcing.  This module appends a batch of plaintext rows to
an already encrypted relation by *reusing* the owner-side plans retained in
the previous run's :class:`~repro.api.pipeline.EncryptionContext`:

* **MAS stability check** — appends only add duplicates, so the MAS family
  changes iff a minimal attribute set outside every MAS stops being unique.
  The context carries every row's projection onto those sets
  (:class:`~repro.fd.mas.MasBorder`), so the check costs O(batch × border)
  lookups instead of a rediscovery.  If the family changed, the grouping
  decisions are invalid and the updater falls back to a full pipeline run.
* **Plan reuse** — with stable MASs, each existing ECG keeps its membership.
  Groups whose member frequencies are untouched by the batch keep their
  split-and-scale plan verbatim (and hence their ciphertext instances);
  only groups containing a grown equivalence class are re-planned.
  Equivalence classes that first appear in the batch are grouped among
  themselves (padded with fake classes as usual) into *new* groups.
* **Tail re-run** — conflict resolution, false-positive elimination, and
  materialisation always re-run over the updated relation, because a batch
  can create cross-MAS conflicts or plaintext FD violations anywhere.  The
  materialiser's nonce log and instance-ciphertext cache are carried over,
  so untouched rows reproduce their previous bytes without re-encryption.

Reused groups stay collision-free with at least ``k`` members and re-planned
groups are frequency-homogenised by construction, so the alpha-security
invariants and the FD-preservation argument hold exactly as for a scratch
encryption — the TANE output on the incremental ciphertext equals the TANE
output of re-encrypting the full relation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.api.pipeline import EncryptionContext, EncryptionPipeline
from repro.api.stages import mas_namespace, record_planning_stats
from repro.core.conflict import MasPlan
from repro.core.ecg import (
    EcgMember,
    EquivalenceClassGroup,
    GroupingResult,
    group_equivalence_classes,
)
from repro.core.encrypted import EncryptedTable
from repro.core.split_scale import EcgPlan, build_ecg_plan
from repro.exceptions import EncryptionError
from repro.fd.mas import MasBorder, MasResult, MaximalAttributeSet
from repro.relational.partition import Partition
from repro.relational.table import Relation


@dataclass
class IncrementalReport:
    """What an :func:`insert_rows` call actually did."""

    mode: str  # "incremental" or "full"
    reason: str | None
    batch_rows: int
    groups_reused: int = 0
    groups_replanned: int = 0
    groups_added: int = 0

    def to_metadata(self) -> dict[str, Any]:
        """Flat form stored in ``EncryptedTable.metadata['update']``."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "batch_rows": self.batch_rows,
            "groups_reused": self.groups_reused,
            "groups_replanned": self.groups_replanned,
            "groups_added": self.groups_added,
        }


def insert_rows(
    pipeline: EncryptionPipeline,
    previous: EncryptionContext,
    rows: list,
) -> tuple[EncryptionContext, EncryptedTable, IncrementalReport]:
    """Append ``rows`` to the relation of ``previous`` and re-encrypt.

    Returns the new owner-side context, the new encrypted table, and a
    report describing whether the update ran incrementally or fell back to a
    full run.  The previous context is left untouched.
    """
    batch = list(rows)
    if not batch:
        raise EncryptionError("insert_rows requires at least one row")
    updated = previous.relation.copy()
    updated.extend(batch)

    config = pipeline.config
    mas_start = time.perf_counter()
    border = previous.mas_border
    if border is None:
        border = MasBorder.build(
            previous.relation, (plan.mas.as_set for plan in previous.mas_plans)
        )
    if border is not None:
        border = border.extended(
            updated.row(index) for index in range(previous.relation.num_rows, updated.num_rows)
        )
    mas_seconds = time.perf_counter() - mas_start

    if border is None:
        # The batch changed the MAS structure; the retained grouping is void.
        ctx = pipeline.new_context(updated)
        report = IncrementalReport(mode="full", reason="mas-changed", batch_rows=len(batch))
        ctx.metadata["update"] = report.to_metadata()
        table = pipeline.execute(ctx)
        return ctx, table, report

    ctx = EncryptionContext.create(
        updated, config, pipeline.cipher, fresh_factory=previous.fresh_factory
    )
    # Carry the materialiser's fresh-nonce log and instance ciphertexts
    # (copied: the previous context stays untouched): untouched rows
    # re-encrypt to their previous bytes, which is what makes the post-insert
    # server view a small *delta* of the previous one.  The full-run fallback
    # above deliberately starts empty — a MAS change re-randomises
    # everything, and the owner ships a full view anyway.
    ctx.nonce_log = dict(previous.nonce_log)
    ctx.instance_cache = dict(previous.instance_cache)
    ctx.mas_border = border
    ctx.stats.seconds_max = mas_seconds

    report = IncrementalReport(mode="incremental", reason=None, batch_rows=len(batch))
    sse_start = time.perf_counter()
    ctx.mas_plans = [
        _update_mas_plan(updated, old_plan, ctx, report) for old_plan in previous.mas_plans
    ]
    record_planning_stats(ctx.stats, ctx.mas_plans)
    sse_seconds = time.perf_counter() - sse_start
    ctx.mas_result = MasResult(
        masses=[plan.mas for plan in ctx.mas_plans],
        elapsed_seconds=mas_seconds,
        partitions_computed=0,
        strategy="border",
        parameters={"rows": updated.num_rows, "attributes": updated.num_attributes},
    )
    ctx.stats.num_masses = len(ctx.mas_plans)
    ctx.stats.num_overlapping_mas_pairs = len(ctx.mas_result.overlapping_pairs())
    ctx.stats.seconds_sse += sse_seconds
    # The MAS recheck and replanning run outside pipeline.execute, so the
    # TimingHook's total only covers the tail; account for them here.
    ctx.stats.seconds_total += mas_seconds + sse_seconds
    ctx.metadata["update"] = report.to_metadata()

    table = pipeline.execute(ctx, stages=pipeline.stages_after("SSE"))
    return ctx, table, report


def _update_mas_plan(
    updated: Relation,
    old_plan: MasPlan,
    ctx: EncryptionContext,
    report: IncrementalReport,
) -> MasPlan:
    """Rebuild one MAS plan against the updated relation, reusing groups.

    The plan's MAS descriptor is refreshed with the updated partition's
    class counts (the wire codec ships them with the encrypted table).
    """
    config = ctx.config
    partition = Partition.build(updated, old_plan.attributes, backend=ctx.backend)
    by_representative = {ec.representative: ec for ec in partition.classes}
    namespace = mas_namespace(old_plan.index, old_plan.mas)

    groups: list[EquivalenceClassGroup] = []
    ecg_plans: list[EcgPlan] = []
    known: set[tuple] = set()

    for group, old_ecg_plan in zip(old_plan.grouping.groups, old_plan.ecg_plans):
        changed = False
        members: list[EcgMember] = []
        for member in group.members:
            if member.is_fake:
                members.append(member)
                continue
            known.add(member.representative)
            current = by_representative.get(member.representative)
            if current is None:  # pragma: no cover - rows are append-only
                raise EncryptionError(
                    f"equivalence class {member.representative!r} disappeared; "
                    "incremental updates only support appends"
                )
            if current.rows != member.rows:
                changed = True
                members.append(
                    EcgMember(representative=member.representative, rows=current.rows)
                )
            else:
                members.append(member)
        if changed:
            new_group = EquivalenceClassGroup(
                mas_attributes=group.mas_attributes, members=members, index=group.index
            )
            groups.append(new_group)
            ecg_plans.append(
                build_ecg_plan(
                    new_group,
                    config.split_factor,
                    keep_pairs_together=config.keep_pairs_together,
                    namespace=namespace,
                )
            )
            report.groups_replanned += 1
        else:
            groups.append(group)
            ecg_plans.append(old_ecg_plan)
            report.groups_reused += 1

    fresh_classes = [ec for ec in partition.classes if ec.representative not in known]
    if fresh_classes:
        grouping_new = group_equivalence_classes(
            partition.attributes,
            fresh_classes,
            config.group_size,
            ctx.fresh_factory,
            start_index=len(groups),
            backend=partition.backend,
        )
        for group in grouping_new.groups:
            groups.append(group)
            ecg_plans.append(
                build_ecg_plan(
                    group,
                    config.split_factor,
                    keep_pairs_together=config.keep_pairs_together,
                    namespace=namespace,
                )
            )
        report.groups_added += len(grouping_new.groups)

    grouping = GroupingResult(
        mas_attributes=partition.attributes,
        groups=groups,
        fake_ec_count=sum(group.num_fake_members for group in groups),
        fake_rows_added=sum(
            member.size for group in groups for member in group.members if member.is_fake
        ),
    )
    mas = MaximalAttributeSet(
        attributes=old_plan.mas.attributes,
        num_equivalence_classes=len(partition),
        num_duplicate_classes=len(partition.non_singleton_classes()),
    )
    return MasPlan(index=old_plan.index, mas=mas, grouping=grouping, ecg_plans=ecg_plans)
