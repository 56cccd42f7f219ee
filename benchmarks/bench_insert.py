"""Owner-side incremental insert: where the time goes as the table grows.

Not a figure from the paper.  An append leaves the MAS family, the
untouched groups' plans, every instance ciphertext and most of the view as
they were, so the owner's incremental insert
(:func:`repro.api.incremental.insert_rows`) should cost what the batch and
the groups it re-plans cost, not what the table costs.  Per table size and
batch size ``k`` this splits one insert into:

* ``mas_check_ms`` — the border check (:class:`repro.fd.mas.MasBorder`),
  next to ``mas_rediscovery_ms``, the full ``find_mas_with_stats`` it
  replaces;
* ``sse_ms`` — growing the class maps and re-planning the groups the batch
  touched;
* ``syn_ms`` / ``fp_ms`` / ``materialize_ms`` — the tail stages, which
  splice the previous view's blocks and rebuild only the changed ones
  (``rows_materialized`` rows, median); ``materialize_cold_ms`` is the same
  insert re-materialising the whole view from an empty instance cache;
* ``delta_ms`` — building the ``InsertDelta`` from the splice, next to
  ``align_ms``, aligning the whole new view against the previous one (what
  the session does when the server's base is not the owner's previous
  table);
* ``release_ms`` — dropping the context the insert replaced.  The new
  context shares what the insert left alone (see
  :mod:`repro.relational.persistent`), so this frees only the seams.

Every measured insert is replayed twice with the whole tail re-run, under
the same pinned entropy stream: from an empty instance cache, and on a deep
copy of the context (``spliced_equals_full``).  All three server views
must be byte-identical.  Timed runs keep the cyclic garbage
collector off (collections are the end-to-end benchmark's business, not a
stage's).  Results land in ``BENCH_insert.json``.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import random
import statistics
import time
from collections import Counter
from unittest import mock

from repro.api.delta import compute_view_delta, splice_view_delta
from repro.api.incremental import insert_rows
from repro.api.pipeline import EncryptionPipeline
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.datasets import generate_fd_table
from repro.fd.mas import find_mas_with_stats

from benchmarks.conftest import scale

BENCH_NAME = "insert"

TABLE_SIZES = (1000, 2000, 4000, 8000, 16000)
BATCH_SIZES = (1, 64)
REPEATS = 5


def pinned_urandom(seed: int):
    """Patch the fresh-nonce source with a seeded stream (byte-comparable runs)."""
    rng = random.Random(seed)
    return mock.patch("repro.crypto.probabilistic.os.urandom", rng.randbytes)


def batch_rows(relation, count: int, tag: str, rng: random.Random) -> list[list]:
    """``count`` rows on a duplicated combination off ``Street`` with fresh
    Streets: the insert stays incremental (the perfbench insert shape)."""
    street = relation.schema.index_of("Street")
    combos = Counter(
        tuple(value for index, value in enumerate(row) if index != street)
        for row in relation.rows()
    )
    combo = rng.choice(sorted(key for key, seen in combos.items() if seen >= 2))
    rows = []
    for offset in range(count):
        row = list(combo)
        row.insert(street, f"bench-{tag}-{offset}")
        rows.append(row)
    return rows


def view_bytes(table) -> list[tuple]:
    # Through a copy: the rows it flattens stay off the measured table.
    return [tuple(str(cell) for cell in row) for row in table.relation.copy().rows()]


def full_tail_replay(pipeline, ctx, batch, seed: int):
    """The same insert with the whole tail re-run on a deep copy of ``ctx``."""
    reference = copy.deepcopy(ctx, {id(ctx.cipher): ctx.cipher, id(ctx.backend): ctx.backend})
    reference.layout = None
    gc.collect()
    gc.disable()
    try:
        with pinned_urandom(seed):
            return insert_rows(pipeline, reference, batch)
    finally:
        gc.enable()


def insert_sweep(sizes, batch_sizes) -> list[dict]:
    results = []
    for num_rows in sizes:
        pipeline = EncryptionPipeline(
            key=KeyGen.symmetric_from_seed(7),
            config=F2Config(alpha=0.2, seed=11, backend="python"),
        )
        table = generate_fd_table(num_rows, num_zipcodes=40, num_extra_columns=2, seed=1)
        with pinned_urandom(num_rows):
            ctx = pipeline.new_context(table)
            encrypted = pipeline.execute(ctx)
        rng = random.Random(num_rows)
        for k in batch_sizes:
            samples: dict[str, list[float]] = {}
            for repeat in range(REPEATS):
                # The bench's own whole-table reads go through copies (which
                # share the chunks), so the columns and coded views they
                # cache do not land in the measured context's release.
                batch = batch_rows(ctx.relation.copy(), k, f"{k}-{repeat}", rng)
                # The references: the same insert with the whole tail re-run,
                # from an empty instance cache and from the carried one.
                cold = dataclasses.replace(
                    ctx,
                    fresh_factory=copy.deepcopy(ctx.fresh_factory),
                    instance_cache={},
                    layout=None,
                )
                gc.collect()
                gc.disable()
                try:
                    with pinned_urandom(repeat):
                        _, cold_table, _ = insert_rows(pipeline, cold, batch)
                finally:
                    gc.enable()
                _, full_table, _ = full_tail_replay(pipeline, ctx, batch, repeat)
                previous_view = encrypted.server_view()
                # The collector stays off while timing: a full collection
                # walks every live object of this process (both contexts,
                # the replays), which would land in whichever stage crossed
                # the threshold.
                gc.collect()
                gc.disable()
                try:
                    with pinned_urandom(repeat):
                        start = time.perf_counter()
                        # The replays ran on copies, so the carried
                        # context inserts as the owner's would.
                        new_ctx, new_table, report = insert_rows(pipeline, ctx, batch)
                        insert_seconds = time.perf_counter() - start
                    splice = new_ctx.layout.splice
                    start = time.perf_counter()
                    splice_view_delta(
                        previous_view,
                        new_table.relation,
                        splice.segments,
                        splice.candidates,
                        splice.cells,
                    )
                    delta_seconds = time.perf_counter() - start
                    start = time.perf_counter()
                    compute_view_delta(previous_view, new_table.server_view())
                    align_seconds = time.perf_counter() - start
                finally:
                    gc.enable()
                assert report.mode == "incremental", report
                assert report.tail_fallback is None, report
                assert view_bytes(new_table) == view_bytes(cold_table), "cache changed bytes"
                assert view_bytes(new_table) == view_bytes(full_table), "splice changed bytes"
                start = time.perf_counter()
                find_mas_with_stats(new_ctx.relation.copy(), backend="python")
                rediscovery_seconds = time.perf_counter() - start
                stats, cold_stats = new_table.stats, cold_table.stats
                # Drop the replays, then the replaced context and table, with
                # the collector off: what that frees is what the insert did
                # not share.
                del cold, cold_table, full_table, previous_view
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    ctx, encrypted = new_ctx, new_table
                    release_seconds = time.perf_counter() - start
                finally:
                    gc.enable()

                for name, seconds in (
                    ("insert_ms", insert_seconds),
                    ("mas_check_ms", stats.seconds_max),
                    ("mas_rediscovery_ms", rediscovery_seconds),
                    # TimingHook folds MATERIALIZE into the SSE timer.
                    ("sse_ms", stats.seconds_sse - stats.seconds_materialize),
                    ("syn_ms", stats.seconds_syn),
                    ("fp_ms", stats.seconds_fp),
                    ("materialize_ms", stats.seconds_materialize),
                    ("materialize_cold_ms", cold_stats.seconds_materialize),
                    ("delta_ms", delta_seconds),
                    ("align_ms", align_seconds),
                    ("release_ms", release_seconds),
                ):
                    samples.setdefault(name, []).append(seconds * 1000)
                samples.setdefault("rows_materialized", []).append(report.rows_materialized)
            results.append(
                {
                    "rows": num_rows,
                    "batch_rows": k,
                    "view_rows": encrypted.num_rows,
                    **{
                        name: round(statistics.median(values), 3)
                        for name, values in samples.items()
                    },
                    "bytes_identical": True,
                    "spliced_equals_full": True,
                }
            )
    return results


def test_insert_breakdown(benchmark, bench_json):
    sizes = tuple(scale(size) for size in TABLE_SIZES)
    rows = benchmark.pedantic(
        insert_sweep, args=(sizes, BATCH_SIZES), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Owner-side incremental insert (medians, ms)"))
    bench_json.add("insert", rows)

    def at(size: int, k: int) -> dict:
        return next(r for r in rows if r["rows"] == size and r["batch_rows"] == k)

    largest = at(sizes[-1], 1)
    smallest_ms = at(sizes[0], 1)["insert_ms"]
    bench_json.add(
        "summary",
        [],
        largest_rows=sizes[-1],
        insert_ms_k1_by_rows={str(size): at(size, 1)["insert_ms"] for size in sizes},
        insert_ms_k64_by_rows={str(size): at(size, 64)["insert_ms"] for size in sizes},
        insert_ms_k1_ratio_8k_over_1k=round(at(sizes[3], 1)["insert_ms"] / smallest_ms, 3),
        insert_ms_k1_ratio_16k_over_1k=round(largest["insert_ms"] / smallest_ms, 3),
        release_ms_k1_by_rows={str(size): at(size, 1)["release_ms"] for size in sizes},
        mas_check_ms_largest=largest["mas_check_ms"],
        mas_rediscovery_ms_largest=largest["mas_rediscovery_ms"],
        materialize_ms_largest=largest["materialize_ms"],
        materialize_cold_ms_largest=largest["materialize_cold_ms"],
        delta_ms_largest=largest["delta_ms"],
        align_ms_largest=largest["align_ms"],
        spliced_equals_full=all(row["spliced_equals_full"] for row in rows),
    )
    # Every scale: the spliced tail reproduced the full tail byte for byte.
    assert all(row["spliced_equals_full"] for row in rows)
    # The border check looks at the batch only; rediscovery walks the table.
    assert largest["mas_check_ms"] < largest["mas_rediscovery_ms"]
    # Kept rows skip the materialiser; rebuilt ones find their instances
    # in the carried cache.
    assert largest["materialize_ms"] < largest["materialize_cold_ms"]
    # The delta comes from the splice instead of a whole-view alignment.
    assert largest["delta_ms"] < largest["align_ms"]
    # A 1-row insert re-materialises the rows of one re-planned group, not
    # the view.  (The wall-time ratios are recorded, not bounded: what
    # still grows with the table is listed in ROADMAP item 11.)
    assert largest["rows_materialized"] <= 0.01 * largest["view_rows"]
