"""The two owner↔provider workloads, their correctness oracle, and metrics.

Load is one closed loop: one owner process, one connection, no think time,
and the provider as a second process.  ``RemoteOwnerSession`` is
synchronous, so this is how an owner actually drives F2.

Every workload uses ``generate_fd_table(N, num_zipcodes=40,
num_extra_columns=2)``, ``F2Config(alpha=0.2)`` and the python backend:

* ``select-8k`` (N = 8000, ``verify=True``): boolean selects only, so owner
  plan/decrypt/leakage, query execution and Merkle proofs carry the time;
* ``update-2k`` (N = 2000, ``verify=False``): 9 selects then 1 insert,
  every 8th insert 64 rows, so the incremental insert pipeline, the delta
  and the segment append carry it, and every insert empties the token cache.

Each workload also reports the latencies of the operation types outside its
mix, because every run reports every metric.  They come from probe rounds
run before the measured loop, at a third and two thirds of it, and after it;
probes that would change what the loop measures (an insert on
``select-8k`` empties the token cache) run only in the first and last
round.  Set-ups likewise run both before the loop (the last one serves it)
and after it.  Spreading samples over the run keeps a slow stretch of a
shared machine from landing on all of them.  Probe operations count in
``attempted`` but not in ``ops_per_s``.

End-to-end timings are scaled to a reference pace of the host (see
:mod:`pace`); the run also prints them unscaled.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro import F2Config
from repro.api.auth import TenantRegistry
from repro.api.protocol import PlanQueryResult
from repro.api.session import DataOwner, RemoteOwnerSession
from repro.datasets import generate_fd_table
from repro.exceptions import ReproError
from repro.query.ast import And, Eq, Or

import harness
from harness import CountingClient, CountingTransport, Provider, StageSpans
from pace import REFERENCE, PaceSampler
from spans import Tracer, graft, op_breakdown

OPS = ("select", "insert", "outsource", "discover")
#: Set-ups before and after the loop; ``setup_s`` is their median.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
#: Share of ``--seconds`` the traced run first spends untraced, for
#: ``trace_overhead``.
BASELINE_SHARE = 1 / 3
#: Probe rounds: before the loop, after its first and second third, after it.
ROUNDS = 4
#: ``update-2k`` mixes 9 selects, then 1 insert.
MIX_CYCLE = 10


@dataclass(frozen=True)
class Spec:
    rows: int
    verify: bool
    mix: str
    #: Loop operations per second of operation time at the reference pace.
    #: The loop runs ``--seconds`` times this many operations, so every run
    #: does the same work: a loop that ran for a span of time would insert
    #: more rows when the host or the program ran faster, and inserts into a
    #: larger table cost more.
    rate: float
    #: Operation type -> probes spread over all rounds.
    probes: dict[str, int] = field(default_factory=dict)
    #: Operation type -> probes run in the first and last round only.
    edge_probes: dict[str, int] = field(default_factory=dict)


SPECS = {
    "select-8k": Spec(8000, True, "select", 20, {"discover": 16}, {"insert": 8, "outsource": 2}),
    "update-2k": Spec(2000, False, "update", 25, {"discover": 24, "outsource": 8}),
}


class Timing(NamedTuple):
    """One timed operation: wall-clock window and its own time in seconds
    (the pace sampler's interruptions taken out)."""

    op: str
    start: float
    end: float
    seconds: float
    ok: bool
    in_loop: bool


def part(count: int, parts: int, index: int) -> int:
    """Part ``index`` of ``count`` split into ``parts``; later parts get the rest."""
    return count // parts + (1 if index >= parts - count % parts else 0)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Bench:
    """One run of one workload against provider processes it starts."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        run_dir: Path,
        env: dict[str, str],
        rows: "int | None" = None,
    ):
        self.spec = SPECS[workload]
        self.rows = rows or self.spec.rows
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.env = env
        self.rng = random.Random(seed)
        self.tracer = Tracer(enabled=False)
        if trace:
            harness.install_owner_tracing(self.tracer)
        tenants = run_dir / "tenants.json"
        self.tenants = tenants
        self.credential = TenantRegistry(tenants).mint(harness.TENANT, "owner")
        self.pace = PaceSampler()
        self.timings: list[Timing] = []
        #: Every provider's pace records (see :meth:`PaceSampler.scaled`).
        self.provider_requests: list[tuple] = []
        self.setup_timings: list[Timing] = []
        self.in_loop = False
        self.attempted = 0
        self.failures: list[str] = []
        self.inserts = 0
        self.delta_inserts = 0
        self.proof_bytes = 0
        self.provider: "Provider | None" = None
        self.session: "RemoteOwnerSession | None" = None
        self.client: "CountingClient | None" = None
        self.combos: list[tuple] = []
        self.mix_position = 0
        self.mix_step = 0

    # -- inputs ---------------------------------------------------------
    def new_table(self):
        """The workload's table, derived from the seed."""
        return generate_fd_table(
            self.rows, num_zipcodes=40, num_extra_columns=2, seed=self.seed * 1000 + 1
        )

    def new_owner(self) -> DataOwner:
        owner = DataOwner.from_seed(
            self.seed * 1000 + 7,
            config=F2Config(alpha=0.2, seed=self.seed * 1000 + 11, backend="python"),
        )
        owner.pipeline.hooks.append(StageSpans(self.tracer))
        return owner

    def predicate(self):
        """The next select: ``Zipcode = z``, ``... and City = c``, or ``z or z'``."""
        plaintext = self.session.owner.plaintext
        zip_at = plaintext.schema.index_of("Zipcode")
        city_at = plaintext.schema.index_of("City")
        combo = self.rng.choice(self.combos)
        zipcode, city = combo[zip_at], combo[city_at]
        kind = self.mix_position % 3
        self.mix_position += 1
        if kind == 0:
            return Eq("Zipcode", zipcode)
        if kind == 1:
            return And((Eq("Zipcode", zipcode), Eq("City", city)))
        other = self.rng.choice(self.combos)[zip_at]
        return Or((Eq("Zipcode", zipcode), Eq("Zipcode", other)))

    def insert_batch(self, count: int) -> list[list[str]]:
        """``count`` rows on an existing duplicated Zipcode/City/... combination
        with fresh Streets, so the insert stays on the ``InsertDelta`` path."""
        plaintext = self.session.owner.plaintext
        street_at = plaintext.schema.index_of("Street")
        combo = list(self.rng.choice(self.combos))
        rows = []
        for offset in range(count):
            row = list(combo)
            row[street_at] = f"bench-{self.seed}-{self.inserts}-{offset}"
            rows.append(row)
        return rows

    def refresh_combos(self) -> None:
        """Rows whose values off the Street column occur at least twice."""
        plaintext = self.session.owner.plaintext
        street_at = plaintext.schema.index_of("Street")
        seen: dict[tuple, list] = {}
        for row in plaintext.rows():
            key = tuple(value for index, value in enumerate(row) if index != street_at)
            seen.setdefault(key, []).append(tuple(row))
        self.combos = sorted(rows[0] for rows in seen.values() if len(rows) >= 2)

    # -- operations -----------------------------------------------------
    def timed(self, op: str, call: Callable[[], Any]) -> tuple[bool, Any, float]:
        """Run one operation under its span; failures are counted, not raised."""
        self.attempted += 1
        index = self.tracer.open(f"op.{op}") if self.tracer.enabled else -1
        spent = self.pace.spent
        start = time.perf_counter()
        ok = True
        try:
            result = call()
        except ReproError as exc:
            ok, result = False, None
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
        finally:
            if index >= 0:
                self.tracer.close(index)
        end = time.perf_counter()
        elapsed = end - start - (self.pace.spent - spent)
        self.timings.append(Timing(op, start, end, elapsed, ok, self.in_loop))
        return ok, result, elapsed

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def settle(self) -> None:
        """Full garbage collections in both processes, before an operation.

        Without them, garbage that earlier operations and the oracle left
        behind is collected inside whichever operation crosses the
        collector's threshold: five discoveries of one 2k-row table in one
        process took 113-212 ms without a collection before each, 117-139 ms
        with one.  A collection takes about as long as a select on
        ``select-8k``, so selects go without.
        """
        gc.collect()
        self.provider.collect()

    def do_select(self) -> float:
        predicate = self.predicate()
        ok, matches, elapsed = self.timed("select", lambda: self.session.select(predicate))
        if ok:
            expected = self.session.owner.select_plaintext_where(predicate)
            if list(matches.rows()) != list(expected.rows()):
                self.fail(f"select {predicate}: {matches.num_rows} rows, expected {expected.num_rows}")
            reply = self.client.last_reply
            if isinstance(reply, PlanQueryResult) and reply.proofs:
                self.proof_bytes += sum(len(node) for path in reply.proofs for node in path)
        return elapsed

    def do_insert(self) -> float:
        count = 64 if self.inserts % 8 == 7 else 1
        rows = self.insert_batch(count)
        self.inserts += 1
        self.settle()
        ok, stored, elapsed = self.timed("insert", lambda: self.session.insert_rows(rows))
        if ok:
            if self.session.last_delta is not None:
                self.delta_inserts += 1
            expected = self.session.owner.encrypted.relation.num_rows
            if stored != expected:
                self.fail(f"insert: provider stores {stored} rows, owner view has {expected}")
        return elapsed

    def do_outsource(self, table) -> float:
        self.settle()
        ok, stored, elapsed = self.timed("outsource", lambda: self.session.outsource(table))
        if ok:
            owner = self.session.owner
            if stored != owner.encrypted.relation.num_rows:
                self.fail(f"outsource: provider stores {stored} rows")
            if not owner.audit_security().satisfied:
                self.fail("outsource: audit_security() not satisfied")
            self.refresh_combos()
        return elapsed

    def do_discover(self) -> float:
        self.settle()
        ok, result, elapsed = self.timed("discover", lambda: self.session.discover_fds())
        if ok and result.parameters.get("validated") is not True:
            self.fail("discover: FDs found on the ciphertext do not validate")
        return elapsed

    def next_mix_op(self) -> float:
        if self.spec.mix == "select":
            return self.do_select()
        self.mix_step += 1
        return self.do_insert() if self.mix_step % MIX_CYCLE == 0 else self.do_select()

    # -- phases ---------------------------------------------------------
    def setup(self, number: int, table) -> None:
        """Start a provider, handshake, outsource ``table``; records its time."""
        gc.collect()
        spent = self.pace.spent
        start = time.perf_counter()
        self.provider = Provider(
            self.run_dir / f"provider-{number}", self.tenants, self.env, self.trace
        )
        transport = CountingTransport(self.provider.port, self.tracer)
        self.client = CountingClient(transport, self.tracer)
        self.session = RemoteOwnerSession(
            self.new_owner(),
            self.client,
            table_id=harness.TABLE_ID,
            credential=self.credential,
            verify=self.spec.verify,
        )
        ok, stored, _ = self.timed("outsource", lambda: self.session.outsource(table))
        end = time.perf_counter()
        elapsed = end - start - (self.pace.spent - spent)
        self.setup_timings.append(Timing("setup", start, end, elapsed, ok, False))
        if ok:
            self.refresh_combos()
            if not self.session.owner.audit_security().satisfied:
                self.fail("setup: audit_security() not satisfied")

    def loop(self, ops: int) -> tuple[int, float]:
        """The closed loop: ``ops`` mix ops back to back; returns the op
        count and their wall time."""
        busy = 0.0
        self.in_loop = True
        for _ in range(ops):
            busy += self.next_mix_op()
        self.in_loop = False
        return ops, busy

    def set_tracing(self, on: bool) -> None:
        """Switch spans on or off in both processes, between two requests."""
        self.provider.set_tracing(on)
        self.tracer.enabled = on

    def probe_round(self, number: int) -> None:
        planned = [(op, part(count, ROUNDS, number)) for op, count in self.spec.probes.items()]
        if number in (0, ROUNDS - 1):
            edge = 0 if number == 0 else 1
            planned += [(op, part(count, 2, edge)) for op, count in self.spec.edge_probes.items()]
        for op, count in planned:
            for _ in range(count):
                if op == "select":
                    self.do_select()
                elif op == "insert":
                    self.do_insert()
                elif op == "outsource":
                    self.do_outsource(self.session.owner.plaintext.copy())
                else:
                    self.do_discover()

    def stop_provider(self) -> dict[str, Any]:
        """Cross-check the provider's counters, then stop it; returns its report."""
        stats = harness.checked_stats(self.client, self.proof_bytes)
        self.proof_bytes = 0
        table = stats["tables"].get(f"{harness.TENANT}/{harness.TABLE_ID}", {})
        storage = self.provider.storage_bytes()
        self.client.close()
        report = self.provider.stop()
        report.update(storage_bytes=storage, table=table)
        self.provider_requests += map(tuple, report["requests"])
        return report

    def retire(self) -> None:
        """Stop a set-up provider that does not serve the loop."""
        self.stop_provider()
        shutil.rmtree(self.provider.directory)

    def finish(self) -> dict[str, Any]:
        """End-of-run oracle: the provider holds as many rows as the owner's
        view, and the owner's table decrypts to the owner's plaintext."""
        report = self.stop_provider()
        owner = self.session.owner
        stored = report["table"].get("num_rows")
        if stored != owner.encrypted.relation.num_rows:
            self.fail(
                f"end: provider holds {stored} rows, owner view "
                f"{owner.encrypted.relation.num_rows}"
            )
        if list(owner.decrypt().rows()) != list(owner.plaintext.rows()):
            self.fail("end: the owner's table does not decrypt to the owner's plaintext")
        return report

    # -- the run --------------------------------------------------------
    def run(self) -> dict[str, Any]:
        # The traced run needs no scaling (``trace_overhead`` compares two
        # loops of one run), and the sampler would show in every span.
        if not self.trace:
            self.pace.start()
        try:
            return self.measure()
        finally:
            self.pace.stop()

    def measure(self) -> dict[str, Any]:
        table = self.new_table()
        for number in range(SETUPS_BEFORE):
            if number:
                self.retire()
            self.setup(number, table)
        # The loop runs in segments with a probe round after each.  The
        # traced run precedes every traced segment with an untraced one, so
        # both see the same stretches of a shared machine; their op rates
        # give ``trace_overhead``.
        self.probe_round(0)
        segments = ROUNDS - 1
        per_segment = max(1, round(self.seconds / segments * self.spec.rate))
        # Whole mix cycles, so that the untraced segments hold the same
        # share of inserts as the traced ones.
        untraced = MIX_CYCLE * max(1, round(per_segment * BASELINE_SHARE / MIX_CYCLE))
        ops = busy = baseline_ops = baseline_busy = 0
        for segment in range(segments):
            if self.trace:
                self.set_tracing(False)
                done, spent = self.loop(untraced)
                baseline_ops, baseline_busy = baseline_ops + done, baseline_busy + spent
                self.set_tracing(True)
            done, spent = self.loop(per_segment)
            ops, busy = ops + done, busy + spent
            self.probe_round(segment + 1)
        if self.trace:
            self.set_tracing(False)
        baseline = (baseline_ops, baseline_busy)
        plaintext = self.session.owner.plaintext
        plain_bytes = sum(len(str(cell).encode()) for row in plaintext.rows() for cell in row)
        view_rows = self.session.owner.encrypted.relation.num_rows / plaintext.num_rows
        report = self.finish()
        for number in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER):
            self.setup(number, table)
            self.retire()
        result = {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }
        if not self.trace:
            result["metrics"], result["table"] = self.end_to_end(report, plain_bytes)
        else:
            result["metrics"], result["table"] = self.per_layer(
                report, baseline, (ops, busy), view_rows
            )
        return result

    # -- metrics --------------------------------------------------------
    def end_to_end(self, report, plain_bytes) -> tuple[dict[str, Any], str]:
        """End-to-end metrics at the reference pace, and a line with the
        same timings unscaled."""
        requests = sorted(self.provider_requests)
        scaled = self.timing_metrics(
            lambda timing: self.pace.scaled(timing.start, timing.end, timing.seconds, requests)
        )
        unscaled = self.timing_metrics(lambda timing: timing.seconds)
        values = {
            **scaled,
            "owner_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
            "server_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
            "storage_bytes_per_plain_byte": (
                report["storage_bytes"] / plain_bytes,
                "ratio",
            ),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
        owner = self.pace.units or [float("nan")]
        provider = [unit for request in requests for unit in request[2:]] or [float("nan")]
        line = ", ".join(f"{name} {value:.4g}" for name, (value, _) in unscaled.items())
        return metrics, (
            f"unscaled: {line}\n"
            f"pace: median unit {statistics.median(owner) * 1e6:.1f} us in the owner, "
            f"{statistics.median(provider) * 1e6:.1f} us in the provider "
            f"(reference {REFERENCE * 1e6:.0f} us)"
        )

    def timing_metrics(self, seconds: Callable[[Timing], float]) -> dict[str, tuple[float, str]]:
        """The timing metrics, each operation's time taken by ``seconds``."""
        ms = {op: [] for op in OPS}
        loop_ops = loop_seconds = 0
        for timing in self.timings:
            value = seconds(timing)
            if timing.ok:
                ms[timing.op].append(value * 1000)
            if timing.in_loop:
                loop_ops += 1
                loop_seconds += value
        return {
            "setup_s": (statistics.median(map(seconds, self.setup_timings)), "s"),
            "select_p50_ms": (statistics.median(ms["select"]), "ms"),
            "select_p90_ms": (p90(ms["select"]), "ms"),
            "insert_p50_ms": (statistics.median(ms["insert"]), "ms"),
            "insert_p90_ms": (p90(ms["insert"]), "ms"),
            "outsource_p50_ms": (statistics.median(ms["outsource"]), "ms"),
            "discover_p50_ms": (statistics.median(ms["discover"]), "ms"),
            "ops_per_s": (loop_ops / loop_seconds, "1/s"),
        }

    def per_layer(self, report, baseline, traced, view_rows):
        spans = graft(
            self.tracer.spans, report["spans"], "transport.socket", "server.envelope"
        )
        records = op_breakdown(spans)
        return layer_metrics(
            records,
            untraced_ops_per_s=baseline[0] / baseline[1],
            traced_ops_per_s=traced[0] / traced[1],
            cache=report["table"].get("cache", {}),
            push_share=self.delta_inserts / max(1, self.inserts),
            view_rows=view_rows,
            error_rate=len(self.failures) / self.attempted,
        )


#: Per-layer ``_ms`` metrics of one operation type: metric -> (span, op).
SINGLE_LAYERS = {
    "session.plan_ms": ("session.plan", "select"),
    "session.decrypt_ms": ("session.decrypt", "select"),
    "query.leakage_ms": ("query.leakage", "select"),
    "integrity.check_reply_ms": ("integrity.check_reply", "select"),
    "integrity.verify_proofs_ms": ("integrity.verify_proofs", "select"),
    "query.exec_ms": ("query.exec", "select"),
    "merkle.proof_ms": ("merkle.proof", "select"),
    "session.insert_ms": ("session.insert", "insert"),
    "delta.compute_ms": ("delta.compute", "insert"),
    "store.apply_delta_ms": ("store.apply_delta", "insert"),
    "merkle.extend_ms": ("merkle.extend", "insert"),
    "session.outsource_ms": ("session.outsource", "outsource"),
    "integrity.record_push_ms": ("integrity.record_push", "outsource"),
    "store.replace_ms": ("store.replace", "outsource"),
    "merkle.build_ms": ("merkle.build", "outsource"),
    "session.validate_fds_ms": ("session.validate_fds", "discover"),
    "fd.tane_ms": ("fd.tane", "discover"),
}
#: Layers every operation type crosses; reported once per type.
SHARED_LAYERS = ("client.codec", "transport.socket", "server.envelope", "server.dispatch")
STAGES = ("max", "sse", "syn", "fp", "materialize", "repair")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [(name, "ms") for name in SINGLE_LAYERS]
    names += [(f"{layer}_ms.{op}", "ms") for layer in SHARED_LAYERS for op in OPS]
    names += [
        (f"pipeline.{stage}_ms.{op}", "ms") for stage in STAGES for op in ("insert", "outsource")
    ]
    names += [(f"wire.request_bytes.{op}", "bytes") for op in OPS]
    names += [(f"wire.reply_bytes.{op}", "bytes") for op in OPS]
    names += [(f"unattributed_share.{op}", "ratio") for op in OPS]
    names += [
        ("session.decrypt_cells_per_result_cell", "ratio"),
        ("delta.push_share", "ratio"),
        ("merkle.proof_bytes_per_match", "bytes"),
        ("pipeline.view_rows_per_plain_row", "ratio"),
        ("store.cache_hit_rate", "ratio"),
        ("trace_overhead", "ratio"),
        ("error_rate", "ratio"),
    ]
    return names


def layer_metrics(
    records, untraced_ops_per_s, traced_ops_per_s, cache, push_share, view_rows, error_rate
):
    """Per-layer metrics from per-op records (see :func:`spans.op_breakdown`)."""
    by_op = {op: [record for record in records if record["op"] == op] for op in OPS}

    def median_ms(layer: str, op: str) -> float:
        ops = by_op[op]
        if not ops:
            return 0.0
        return statistics.median(record["layers"].get(layer, 0.0) for record in ops) * 1000

    def median_tag(tag: str, op: str) -> float:
        ops = by_op[op]
        return statistics.median(record["tags"].get(tag, 0) for record in ops) if ops else 0.0

    def tag_ratio(numerator: str, denominator: str, op: str) -> float:
        top = sum(record["tags"].get(numerator, 0) for record in by_op[op])
        bottom = sum(record["tags"].get(denominator, 0) for record in by_op[op])
        return top / bottom if bottom else 0.0

    values: dict[str, float] = {}
    for name, (layer, op) in SINGLE_LAYERS.items():
        values[name] = median_ms(layer, op)
    for layer in SHARED_LAYERS:
        for op in OPS:
            values[f"{layer}_ms.{op}"] = median_ms(layer, op)
    for stage in STAGES:
        for op in ("insert", "outsource"):
            values[f"pipeline.{stage}_ms.{op}"] = median_ms(f"pipeline.{stage}", op)
    for op in OPS:
        values[f"wire.request_bytes.{op}"] = median_tag("request_bytes", op)
        values[f"wire.reply_bytes.{op}"] = median_tag("reply_bytes", op)
        wall = sum(record["wall"] for record in by_op[op])
        lost = sum(record["layers"]["unattributed"] for record in by_op[op])
        values[f"unattributed_share.{op}"] = lost / wall if wall else 0.0
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    values.update(
        {
            "session.decrypt_cells_per_result_cell": tag_ratio(
                "cells_decrypted", "cells_returned", "select"
            ),
            "delta.push_share": push_share,
            "merkle.proof_bytes_per_match": tag_ratio("proof_bytes", "matches", "select"),
            "pipeline.view_rows_per_plain_row": view_rows,
            "store.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "trace_overhead": traced_ops_per_s / untraced_ops_per_s,
            "error_rate": error_rate,
        }
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    overhead = f"trace_overhead (traced / untraced ops_per_s): {values['trace_overhead']:.3f}"
    return metrics, layer_table(by_op) + "\n" + overhead


def layer_table(by_op: dict[str, list[dict[str, Any]]]) -> str:
    """Median self time per layer and op type, with each layer's share of
    the op type's total time (``unattributed`` is the unattributed share)."""
    lines = []
    for op in OPS:
        records = by_op[op]
        if not records:
            continue
        wall = statistics.median(record["wall"] for record in records) * 1000
        lines.append(f"{op}: {len(records)} ops, median wall {wall:.2f} ms")
        layers = sorted({layer for record in records for layer in record["layers"]})
        shares = []
        for layer in layers:
            total = sum(record["layers"].get(layer, 0.0) for record in records)
            median = statistics.median(record["layers"].get(layer, 0.0) for record in records)
            shares.append((total, layer, median * 1000))
        grand = sum(total for total, _, _ in shares) or 1.0
        for total, layer, median in sorted(shares, reverse=True):
            lines.append(f"  {layer:<26} {median:10.3f} ms  {total / grand:6.1%}")
    return "\n".join(lines)
