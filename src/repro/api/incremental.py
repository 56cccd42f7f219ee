"""Incremental updates of an outsourced table (the "live database" scenario).

A one-shot encryption cannot express a data owner who keeps inserting
records after outsourcing.  This module appends a batch of plaintext rows to
an already encrypted relation by *reusing* the owner-side state retained in
the previous run's :class:`~repro.api.pipeline.EncryptionContext`:

* **MAS stability check** — appends only add duplicates, so the MAS family
  changes iff a minimal attribute set outside every MAS stops being unique.
  The context carries every row's projection onto those sets
  (:class:`~repro.fd.mas.MasBorder`), so the check costs O(batch × border)
  lookups instead of a rediscovery.  If the family changed, the grouping
  decisions are invalid and the updater falls back to a full pipeline run.
* **Plan reuse** — with stable MASs, each existing ECG keeps its membership.
  Every MAS plan carries its partition as a class map, which grows from the
  batch alone.  Groups whose classes did not grow keep their
  split-and-scale plan verbatim (and hence their ciphertext instances);
  only groups containing a grown class are re-planned.  Classes that first
  appear in the batch are grouped among themselves (padded with fake
  classes as usual) into *new* groups.
* **Spliced tail** — conflict resolution, false-positive elimination and
  materialisation run as the pipeline's usual stages, but on top of the
  previous run's :class:`~repro.core.conflict.ViewLayout`.  SYN rebuilds
  the rows whose bindings changed, every new row, and the artificial rows
  of re-planned and new groups; FP keeps the previous false-positive rows
  unless a MAS partition gained a class; MATERIALIZE encrypts only the
  rebuilt rows and slices the rest out of the previous view.  The kept
  rows would have drawn no randomness if re-materialised (their cells are
  in the nonce log, the instance cache and the fresh factory), so the
  result is byte-identical to re-running the whole tail.  Two cases re-run
  it anyway (``IncrementalReport.tail_fallback``): a rebuilt row that
  shuffles conflicting MAS pairs, whose draws from the conflict RNG would
  shift every later row's, and ``verify_and_repair``, whose repair pass
  needs the whole view.
* **Delta** — the splice knows which previous row every kept row is, so the
  new server view's :class:`~repro.api.delta.ViewDelta` comes from it
  directly (:attr:`EncryptionContext.view_delta`) instead of an alignment.
* **Shared state** — the new context shares every part of the previous one
  the insert does not change (:mod:`repro.relational.persistent`): the
  plaintext and the view are chunked sequences, extended or spliced at a
  cost of O(batch + seams); the nonce log, the instance cache and the
  border's projection sets are layered maps whose new top layer holds only
  this insert's additions.  Nothing the previous context holds is copied
  or mutated, so it stays valid (a staged write can be withdrawn, a
  concurrent select can keep reading it) and dropping it frees only what
  the insert replaced.

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

from repro.api.delta import splice_view_delta
from repro.api.pipeline import EncryptionContext, EncryptionPipeline
from repro.api.stages import (
    PLANNING_COUNTERS,
    group_positions,
    mas_namespace,
    split_members,
)
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
from repro.relational.partition import EquivalenceClass
from repro.relational.persistent import LayeredMap
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
    #: View rows whose plans SYN built (the rest were kept from the base).
    rows_reassembled: int = 0
    #: View rows MATERIALIZE encrypted (the rest were sliced from the base).
    rows_materialized: int = 0
    #: True when FP kept the base's false-positive rows.
    fp_reused: bool = False
    #: Why an incremental update re-ran its whole tail (``None``: it spliced):
    #: ``"verify-and-repair"`` (the repair pass needs the whole view),
    #: ``"conflict-rng"`` (a rebuilt row draws from the conflict RNG), or
    #: ``"no-layout"`` (the previous context carries no view layout).
    tail_fallback: str | None = None
    #: ``(attribute, value text)`` of every member of a re-planned or added
    #: ECG: the only search tokens the update can have changed (``None``
    #: after a full run, which changed them all).  Not part of the metadata.
    replanned_values: set[tuple[str, str]] | None = None

    def to_metadata(self) -> dict[str, Any]:
        """Flat form stored in ``EncryptedTable.metadata['update']``."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "batch_rows": self.batch_rows,
            "groups_reused": self.groups_reused,
            "groups_replanned": self.groups_replanned,
            "groups_added": self.groups_added,
            "rows_reassembled": self.rows_reassembled,
            "rows_materialized": self.rows_materialized,
            "fp_reused": self.fp_reused,
            "tail_fallback": self.tail_fallback,
        }


def insert_rows(
    pipeline: EncryptionPipeline,
    previous: EncryptionContext,
    rows: list,
) -> tuple[EncryptionContext, EncryptedTable, IncrementalReport]:
    """Append ``rows`` to the relation of ``previous`` and re-encrypt.

    Returns the new owner-side context, the new encrypted table, and a
    report describing whether the update ran incrementally or fell back to a
    full run.  The previous context is left untouched; the new one shares
    its unchanged state.
    """
    batch = list(rows)
    if not batch:
        raise EncryptionError("insert_rows requires at least one row")
    updated = previous.relation.extended(batch)

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
        _record_tail(ctx, table, report)
        return ctx, table, report

    ctx = EncryptionContext.create(
        updated, config, pipeline.cipher, fresh_factory=previous.fresh_factory
    )
    # Carry the materialiser's fresh-nonce log and instance ciphertexts
    # (shared: this run's additions go to a new top layer, so the previous
    # context stays untouched): rebuilt rows that were materialised before
    # re-encrypt to their previous bytes, and the kept ones would draw
    # nothing at all.  The full-run fallback above deliberately starts
    # empty — a MAS change re-randomises everything, and the owner ships a
    # full view anyway.
    ctx.nonce_log = LayeredMap.over(previous.nonce_log)
    ctx.instance_cache = LayeredMap.over(previous.instance_cache)
    ctx.mas_border = border
    ctx.stats.seconds_max = mas_seconds

    report = IncrementalReport(
        mode="incremental", reason=None, batch_rows=len(batch), replanned_values=set()
    )
    if config.verify_and_repair:
        report.tail_fallback = "verify-and-repair"
    elif previous.layout is None:
        report.tail_fallback = "no-layout"
    else:
        ctx.base_layout = previous.layout
    sse_start = time.perf_counter()
    # The planning counters move by what the plan updates change.
    for name in PLANNING_COUNTERS:
        setattr(ctx.stats, name, getattr(previous.stats, name))
    ctx.mas_plans = [
        _update_mas_plan(updated, previous.relation.num_rows, old_plan, ctx, report)
        for old_plan in previous.mas_plans
    ]
    sse_seconds = time.perf_counter() - sse_start
    ctx.mas_result = MasResult(
        masses=[plan.mas for plan in ctx.mas_plans],
        elapsed_seconds=mas_seconds,
        partitions_computed=0,
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
    _record_tail(ctx, table, report)
    if ctx.base_layout is not None:
        base, layout = ctx.base_layout, ctx.layout
        assert layout is not None and layout.relation is not None
        assert base.relation is not None
        splice = layout.splice
        ctx.view_delta = splice_view_delta(
            base.relation, layout.relation, splice.segments, splice.candidates, splice.cells
        )
        # Drop the link: a carried context must not keep its predecessor's
        # view alive.
        ctx.base_layout = None
    return ctx, table, report


def _record_tail(ctx: EncryptionContext, table: EncryptedTable, report: IncrementalReport) -> None:
    """Copy what the tail stages did into ``report`` and the metadata."""
    layout = ctx.layout
    if layout is not None:
        report.rows_reassembled = layout.rows_reassembled
        report.rows_materialized = len(layout.splice.pending)
        report.fp_reused = layout.fp_reused
        report.tail_fallback = report.tail_fallback or layout.fallback
    ctx.metadata["update"] = table.metadata["update"] = report.to_metadata()


def _update_mas_plan(
    updated: Relation,
    first_new_row: int,
    old_plan: MasPlan,
    ctx: EncryptionContext,
    report: IncrementalReport,
) -> MasPlan:
    """Rebuild one MAS plan against the updated relation, reusing groups.

    The plan's class map grows from the batch rows alone; the groups of
    grown classes are re-planned in place, and classes the batch created
    are grouped among themselves into new groups.  The MAS descriptor's
    class counts (shipped by the wire codec) and the planning counters of
    ``ctx.stats`` follow from the same changes, so nothing here walks the
    untouched groups.
    """
    config = ctx.config
    stats = ctx.stats
    attributes = old_plan.grouping.mas_attributes
    namespace = mas_namespace(old_plan.index, old_plan.mas)
    positions = [updated.schema.index_of(attr) for attr in attributes]
    classes = dict(old_plan.classes)
    grown: set[tuple] = set()
    added: dict[tuple, None] = {}
    duplicates = old_plan.mas.num_duplicate_classes
    for row in range(first_new_row, updated.num_rows):
        values = updated.row(row)
        representative = tuple(values[position] for position in positions)
        rows = classes.get(representative)
        if rows is None:
            classes[representative] = (row,)
            added[representative] = None
            continue
        if len(rows) == 1:
            duplicates += 1
        classes[representative] = rows + (row,)
        if representative not in added:
            grown.add(representative)

    def plan(group: EquivalenceClassGroup) -> EcgPlan:
        ecg_plan = build_ecg_plan(
            group,
            config.split_factor,
            keep_pairs_together=config.keep_pairs_together,
            namespace=namespace,
        )
        stats.num_split_ecs += split_members(ecg_plan)
        return ecg_plan

    groups = list(old_plan.grouping.groups)
    ecg_plans = list(old_plan.ecg_plans)
    replanned = sorted({old_plan.group_of[representative] for representative in grown})
    for position in replanned:
        group = groups[position]
        groups[position] = EquivalenceClassGroup(
            mas_attributes=group.mas_attributes,
            members=[
                EcgMember(representative=member.representative, rows=classes[member.representative])
                if not member.is_fake and member.representative in grown
                else member
                for member in group.members
            ],
            index=group.index,
        )
        stats.num_split_ecs -= split_members(ecg_plans[position])
        ecg_plans[position] = plan(groups[position])
        _note_values(report, attributes, groups[position])
    report.groups_replanned += len(replanned)
    report.groups_reused += len(groups) - len(replanned)

    fake_ec_count = old_plan.grouping.fake_ec_count
    fake_rows_added = old_plan.grouping.fake_rows_added
    group_of = old_plan.group_of
    if added:
        grouping_new = group_equivalence_classes(
            attributes,
            [
                EquivalenceClass(attributes, representative, classes[representative])
                for representative in added
            ],
            config.group_size,
            ctx.fresh_factory,
            start_index=len(groups),
            backend=ctx.backend,
        )
        group_of = {**group_of, **group_positions(grouping_new.groups, len(groups))}
        for group in grouping_new.groups:
            groups.append(group)
            ecg_plans.append(plan(group))
            _note_values(report, attributes, group)
        report.groups_added += len(grouping_new.groups)
        fake_ec_count += grouping_new.fake_ec_count
        fake_rows_added += grouping_new.fake_rows_added
        stats.num_equivalence_classes += len(added)
        stats.num_fake_ecs += grouping_new.fake_ec_count
        stats.num_ecgs += len(grouping_new.groups)

    grouping = GroupingResult(
        mas_attributes=attributes,
        groups=groups,
        fake_ec_count=fake_ec_count,
        fake_rows_added=fake_rows_added,
    )
    mas = MaximalAttributeSet(
        attributes=old_plan.mas.attributes,
        num_equivalence_classes=len(classes),
        num_duplicate_classes=duplicates,
    )
    return MasPlan(
        index=old_plan.index,
        mas=mas,
        grouping=grouping,
        ecg_plans=ecg_plans,
        classes=classes,
        group_of=group_of,
    )


def _note_values(
    report: IncrementalReport, attributes: tuple[str, ...], group: EquivalenceClassGroup
) -> None:
    """Record the ``(attribute, value text)`` pairs ``group``'s members carry
    (the keys :meth:`repro.api.session.DataOwner.derive_search_token` memoises)."""
    values = report.replanned_values
    assert values is not None  # an incremental report
    for member in group.members:
        for attribute, value in zip(attributes, member.representative):
            values.add((attribute, value if isinstance(value, str) else str(value)))
