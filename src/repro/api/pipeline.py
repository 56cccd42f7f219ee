"""The composable encryption pipeline: context, stage protocol, hooks.

The F2 scheme is a sequence of well-defined steps — MAS discovery, grouping
plus splitting-and-scaling, conflict resolution, false-positive elimination,
materialisation — that the paper presents as one algorithm.  This module
turns that sequence into an explicit :class:`EncryptionPipeline` of pluggable
:class:`Stage` objects threaded through a shared :class:`EncryptionContext`.

Why a pipeline instead of one method?

* **Instrumentation** — every stage is timed through the :class:`StageHook`
  protocol instead of ad-hoc ``time.perf_counter()`` calls; the built-in
  :class:`TimingHook` writes the per-step timers of
  :class:`repro.core.stats.EncryptionStats`, and callers (benchmarks, the
  CLI) can attach their own hooks without touching the scheme.
* **Composability** — ablation experiments swap or drop stages (e.g. run
  without Step 4) by constructing a pipeline with a different stage list
  rather than flipping hidden configuration flags.
* **Incrementality** — :mod:`repro.api.incremental` re-runs only the tail of
  the pipeline on a pre-seeded context when rows are appended to an already
  outsourced table, and the tail stages splice the previous run's view
  layout instead of rebuilding it.

The default stage list reproduces :meth:`repro.core.scheme.F2Scheme.encrypt`
exactly: for a fixed key and seeded configuration the pipeline's output is
byte-for-byte identical to the legacy monolith (which is now a facade over
this pipeline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro import obs
from repro.backend import ComputeBackend, get_backend
from repro.core.config import F2Config
from repro.core.conflict import MasPlan, ViewLayout
from repro.core.encrypted import EncryptedTable, RowProvenance
from repro.core.plan import FreshValueFactory, RowPlan
from repro.core.stats import EncryptionStats
from repro.crypto.keys import KeyGen, SymmetricKey
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.exceptions import EncryptionError
from repro.fd.mas import MasBorder, MasResult
from repro.relational.coded import CodedRelation
from repro.relational.table import Relation

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.api.delta import ViewDelta


@dataclass
class EncryptionContext:
    """Mutable state threaded through the pipeline stages.

    A context is created per encryption run (or per incremental update) and
    carries everything a stage may read or produce.  After a successful run
    the context is the data owner's *local state*: it retains the per-MAS
    plans and the fresh-value factory that incremental updates reuse.
    """

    relation: Relation
    config: F2Config
    cipher: ProbabilisticCipher
    fresh_factory: FreshValueFactory
    stats: EncryptionStats
    #: Compute backend shared by every stage (resolved from the config).
    backend: ComputeBackend | None = None

    #: Per-cell fresh-nonce log of the materialiser: ``(attribute, value)``
    #: -> the probabilistic ciphertext produced for that frequency-one cell.
    #: Retained across incremental updates (see :mod:`repro.api.incremental`)
    #: so that re-materialising an untouched row reproduces its previous
    #: bytes — which is what makes a server-view *delta* well-defined.
    #: Values on attributes outside every MAS are unique (a duplicate would
    #: put the attribute inside a MAS and trigger the full-run fallback), so
    #: the key never aliases two distinct cells.
    nonce_log: dict[tuple[str, str], "Ciphertext"] = field(default_factory=dict)
    #: Instance ciphertexts by :meth:`~repro.core.plan.InstanceCell.cache_key`.
    #: An instance cell's bytes are a pure function of (key, value, variant),
    #: so the materialiser serves a cached one directly instead of
    #: re-encrypting it; carried across incremental updates like
    #: :attr:`nonce_log`, it makes re-materialising untouched rows skip the
    #: cipher entirely.  It never touches the entropy stream, so the bytes
    #: match an empty cache exactly.
    instance_cache: dict[tuple[str, str, str], "Ciphertext"] = field(default_factory=dict)
    #: Projections of :attr:`relation` onto its minimal unique attribute
    #: sets (see :class:`repro.fd.mas.MasBorder`): the incremental updater's
    #: O(batch) MAS stability check.  Built on the first incremental insert
    #: and carried forward; ``None`` until then.
    mas_border: MasBorder | None = None
    #: The previous run's :class:`~repro.core.conflict.ViewLayout` when
    #: this run is an incremental update: the tail stages rebuild only what
    #: changed and splice the rest from it.  ``None`` for a full run (and
    #: reset to ``None`` when the tail falls back to one).
    base_layout: ViewLayout | None = None

    # Produced by the stages, in order.
    mas_result: MasResult | None = None
    mas_plans: list[MasPlan] = field(default_factory=list)
    #: This run's view as blocks (SYN, FP and MATERIALIZE fill it); the
    #: next incremental update's base layout.
    layout: ViewLayout | None = None
    row_plans: list[RowPlan] = field(default_factory=list)
    encrypted_relation: Relation | None = None
    provenance: list[RowProvenance] = field(default_factory=list)
    result: EncryptedTable | None = None
    #: The server-view delta from the base layout's view to this run's,
    #: when the incremental tail spliced it (see :mod:`repro.api.delta`).
    view_delta: "ViewDelta | None" = None

    # Free-form annotations (propagated into ``EncryptedTable.metadata``).
    metadata: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        relation: Relation,
        config: F2Config,
        cipher: ProbabilisticCipher,
        fresh_factory: FreshValueFactory | None = None,
    ) -> "EncryptionContext":
        """Build a fresh context for one full encryption run."""
        if relation.num_rows == 0:
            raise EncryptionError("cannot encrypt an empty relation")
        backend = get_backend(config.backend)
        parameters = config.to_dict()
        parameters["backend"] = backend.name
        return cls(
            relation=relation,
            config=config,
            cipher=cipher,
            fresh_factory=fresh_factory
            or FreshValueFactory(seed=config.seed, nonce_length=config.nonce_length),
            stats=EncryptionStats(
                rows_original=relation.num_rows,
                attributes=relation.num_attributes,
                parameters=parameters,
            ),
            backend=backend,
        )

    @property
    def coded(self) -> CodedRelation:
        """The coded-columnar view of the plaintext under this run's backend.

        Convenience accessor for owner-side tooling; it resolves through
        ``Relation.coded``'s per-backend cache — the same cache every stage
        hits internally (MAS tests, partition builds, false-positive witness
        search) — so the encoding is built once per relation contents.
        """
        return self.relation.coded(self.backend)

    @property
    def masses(self):
        if self.mas_result is None:
            raise EncryptionError("MAS discovery has not run on this context")
        return self.mas_result.masses


@runtime_checkable
class Stage(Protocol):
    """One step of the encryption pipeline.

    A stage reads and mutates the :class:`EncryptionContext`; its ``name`` is
    the paper's step label (``"MAX"``, ``"SSE"``, ...) and keys the timing
    bookkeeping of :class:`TimingHook`.
    """

    name: str

    def run(self, ctx: EncryptionContext) -> None: ...


class StageHook:
    """Observer of a pipeline run; subclass and override what you need.

    Hooks replace the ad-hoc timing code that used to live inside
    ``F2Scheme.encrypt``: the pipeline calls them around every stage and
    around the whole run, and they may read (or annotate) the context.
    """

    def on_pipeline_start(self, ctx: EncryptionContext) -> None:
        """Called once before the first stage."""

    def on_stage_start(self, stage: Stage, ctx: EncryptionContext) -> None:
        """Called before each stage runs."""

    def on_stage_end(self, stage: Stage, ctx: EncryptionContext, seconds: float) -> None:
        """Called after each stage with its wall-clock duration."""

    def on_pipeline_end(self, ctx: EncryptionContext, seconds: float) -> None:
        """Called once after the last stage with the total duration."""


#: Stage name -> EncryptionStats timer attribute written by TimingHook.
STAGE_STAT_FIELDS: dict[str, str] = {
    "MAX": "seconds_max",
    "SSE": "seconds_sse",
    "SYN": "seconds_syn",
    "FP": "seconds_fp",
    "MATERIALIZE": "seconds_materialize",
}


class TimingHook(StageHook):
    """Default hook: writes per-stage timers into ``ctx.stats``.

    Reproduces the paper's accounting: the cost of producing ciphertext bytes
    (the MATERIALIZE stage) is folded into the SSE step, because it is the
    "encryption" part of splitting-and-scaling; the REPAIR stage (beyond the
    paper) only contributes to the total.
    """

    def on_stage_end(self, stage: Stage, ctx: EncryptionContext, seconds: float) -> None:
        attr = STAGE_STAT_FIELDS.get(stage.name)
        if attr is None:
            return
        setattr(ctx.stats, attr, getattr(ctx.stats, attr) + seconds)
        if stage.name == "MATERIALIZE":
            ctx.stats.seconds_sse += seconds

    def on_pipeline_end(self, ctx: EncryptionContext, seconds: float) -> None:
        ctx.stats.seconds_total += seconds


class ObsStageHook(StageHook):
    """Feeds the process-wide :mod:`repro.obs` registry.

    Third consumer of the single stage-event stream that also drives
    :class:`TimingHook` (stats timers) and :class:`StageRecorder` (flat
    records for ``--stage-times`` and the bench harness) — the pipeline
    measures each stage exactly once and every consumer reads the same
    ``seconds``.  No-op under the ``REPRO_METRICS=0`` kill switch.
    """

    def on_stage_end(self, stage: Stage, ctx: EncryptionContext, seconds: float) -> None:
        if not obs.REGISTRY.enabled:
            return
        obs.histogram("pipeline.stage_seconds", stage=stage.name).observe(seconds)
        cells = len(ctx.row_plans) * ctx.relation.num_attributes
        if cells:
            obs.counter("pipeline.stage_cells", stage=stage.name).inc(cells)
            if seconds > 0.0:
                obs.gauge("pipeline.cells_per_second", stage=stage.name).set(
                    cells / seconds
                )

    def on_pipeline_end(self, ctx: EncryptionContext, seconds: float) -> None:
        if not obs.REGISTRY.enabled:
            return
        obs.counter("pipeline.runs").inc()
        obs.histogram("pipeline.total_seconds").observe(seconds)


@dataclass
class StageRecord:
    """One stage execution as observed by :class:`StageRecorder`."""

    stage: str
    seconds: float
    row_plans: int
    #: Ciphertext cells planned when the stage finished (row plans x schema
    #: width) — the unit the batched materialiser is measured in.
    cells: int = 0

    @property
    def cells_per_second(self) -> float:
        """Stage throughput in cells/s (0.0 when the timer is too coarse)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.cells / self.seconds


class StageRecorder(StageHook):
    """Collects a flat list of :class:`StageRecord` for reporting.

    The benchmark harness attaches one of these instead of re-measuring the
    scheme from outside; examples and the CLI can print its records to show
    users where encryption time goes.
    """

    def __init__(self) -> None:
        self.records: list[StageRecord] = []
        self.total_seconds: float = 0.0

    def on_pipeline_start(self, ctx: EncryptionContext) -> None:
        self.records.clear()
        self.total_seconds = 0.0

    def on_stage_end(self, stage: Stage, ctx: EncryptionContext, seconds: float) -> None:
        self.records.append(
            StageRecord(
                stage=stage.name,
                seconds=seconds,
                row_plans=len(ctx.row_plans),
                cells=len(ctx.row_plans) * ctx.relation.num_attributes,
            )
        )

    def on_pipeline_end(self, ctx: EncryptionContext, seconds: float) -> None:
        self.total_seconds = seconds

    def to_dict(self) -> dict[str, float]:
        return {record.stage: record.seconds for record in self.records}


class EncryptionPipeline:
    """An ordered list of stages plus hooks, bound to a key and configuration.

    Parameters
    ----------
    key:
        The data owner's symmetric key (``None`` generates a fresh one).
    config:
        The :class:`F2Config`; defaults are the paper's common setting.
    stages:
        Stage list; ``None`` builds the standard F2 sequence via
        :func:`repro.api.stages.default_stages`.
    hooks:
        Extra :class:`StageHook` instances.  The :class:`TimingHook` that
        feeds :class:`EncryptionStats` is always installed first.
    """

    def __init__(
        self,
        key: SymmetricKey | None = None,
        config: F2Config | None = None,
        stages: list[Stage] | None = None,
        hooks: list[StageHook] | None = None,
    ):
        from repro.api.stages import default_stages  # cycle: stages import ctx types

        self.config = config or F2Config()
        self.key = key or KeyGen.symmetric()
        self.cipher = ProbabilisticCipher(self.key, nonce_length=self.config.nonce_length)
        self.stages: list[Stage] = list(stages) if stages is not None else default_stages(self.config)
        self.hooks: list[StageHook] = [TimingHook(), ObsStageHook()] + list(hooks or [])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def new_context(self, relation: Relation) -> EncryptionContext:
        """A fresh context bound to this pipeline's cipher and configuration."""
        return EncryptionContext.create(relation, self.config, self.cipher)

    def run(self, relation: Relation) -> EncryptedTable:
        """Encrypt ``relation`` through every stage and return the result."""
        return self.execute(self.new_context(relation))

    def execute(
        self,
        ctx: EncryptionContext,
        stages: list[Stage] | None = None,
    ) -> EncryptedTable:
        """Run ``stages`` (default: all) over an existing context.

        Incremental updates pre-seed a context with MAS plans and execute only
        the tail of the pipeline; a full run executes everything.
        """
        to_run = self.stages if stages is None else stages
        total_start = time.perf_counter()
        for hook in self.hooks:
            hook.on_pipeline_start(ctx)
        for stage in to_run:
            for hook in self.hooks:
                hook.on_stage_start(stage, ctx)
            stage_start = time.perf_counter()
            with obs.span("pipeline.stage", stage=stage.name):
                stage.run(ctx)
            elapsed = time.perf_counter() - stage_start
            for hook in self.hooks:
                hook.on_stage_end(stage, ctx, elapsed)
        if ctx.result is None:
            raise EncryptionError(
                "pipeline finished without producing an EncryptedTable "
                "(is a materialisation stage missing?)"
            )
        total = time.perf_counter() - total_start
        for hook in self.hooks:
            hook.on_pipeline_end(ctx, total)
        return ctx.result

    # ------------------------------------------------------------------
    # Introspection / composition helpers
    # ------------------------------------------------------------------
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def stages_after(self, name: str) -> list[Stage]:
        """The stages strictly after the stage called ``name``.

        Used by incremental updates to re-run the pipeline tail once the
        planning stages have been patched on the context.
        """
        names = self.stage_names()
        try:
            position = names.index(name)
        except ValueError:
            raise EncryptionError(f"pipeline has no stage named {name!r}") from None
        return self.stages[position + 1 :]
