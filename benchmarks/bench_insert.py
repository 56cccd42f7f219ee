"""Owner-side incremental insert: where the time goes as the table grows.

Not a figure from the paper.  An append leaves the MAS family, the
untouched groups' plans and every instance ciphertext as they were, so the
owner's incremental insert (:func:`repro.api.incremental.insert_rows`)
should not redo whole-table work for them.  Per table size and batch size
``k`` this splits one insert into:

* ``mas_check_ms`` — the border check (:class:`repro.fd.mas.MasBorder`),
  next to ``mas_rediscovery_ms``, the full ``find_mas_with_stats`` it
  replaces;
* ``sse_ms`` — re-planning the groups the batch touched;
* ``syn_ms`` / ``fp_ms`` — conflict resolution and false-positive
  elimination over the whole relation (still O(view));
* ``materialize_ms`` — with the carried instance cache, next to
  ``materialize_cold_ms``, the same insert from an empty cache;
* ``delta_ms`` — aligning the new server view against the previous one.

Every measured insert is replayed from an empty instance cache under the
same pinned entropy stream, and the two server views must be
byte-identical.  Both runs are timed with the cyclic garbage collector
off (collections are the end-to-end benchmark's business, not a stage's).
Results land in ``BENCH_insert.json``.
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

from repro.api.delta import compute_view_delta
from repro.api.incremental import insert_rows
from repro.api.pipeline import EncryptionPipeline
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.datasets import generate_fd_table
from repro.fd.mas import find_mas_with_stats

from benchmarks.conftest import scale

BENCH_NAME = "insert"

TABLE_SIZES = (1000, 2000, 4000, 8000)
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
    return [tuple(str(cell) for cell in row) for row in table.relation.rows()]


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
                batch = batch_rows(ctx.relation, k, f"{k}-{repeat}", rng)
                # The reference: the same insert from an empty instance cache.
                cold = dataclasses.replace(
                    ctx, fresh_factory=copy.deepcopy(ctx.fresh_factory), instance_cache={}
                )
                gc.collect()
                gc.disable()
                try:
                    with pinned_urandom(repeat):
                        _, cold_table, _ = insert_rows(pipeline, cold, batch)
                finally:
                    gc.enable()
                previous_view = encrypted.server_view()
                warm = dataclasses.replace(ctx, fresh_factory=copy.deepcopy(ctx.fresh_factory))
                # The collector stays off while timing: a full collection
                # walks every live object of this process (both contexts,
                # the cold replay), which would land in whichever stage
                # crossed the threshold.
                gc.collect()
                gc.disable()
                try:
                    with pinned_urandom(repeat):
                        start = time.perf_counter()
                        new_ctx, new_table, report = insert_rows(pipeline, warm, batch)
                        insert_seconds = time.perf_counter() - start
                    start = time.perf_counter()
                    compute_view_delta(previous_view, new_table.server_view())
                    delta_seconds = time.perf_counter() - start
                finally:
                    gc.enable()
                assert report.mode == "incremental", report
                assert view_bytes(new_table) == view_bytes(cold_table), "cache changed bytes"
                start = time.perf_counter()
                find_mas_with_stats(new_ctx.relation, backend="python")
                rediscovery_seconds = time.perf_counter() - start

                stats, cold_stats = new_table.stats, cold_table.stats
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
                ):
                    samples.setdefault(name, []).append(seconds * 1000)
                ctx, encrypted = new_ctx, new_table
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
    bench_json.add(
        "summary",
        [],
        largest_rows=sizes[-1],
        insert_ms_k1_by_rows={str(size): at(size, 1)["insert_ms"] for size in sizes},
        insert_ms_k64_by_rows={str(size): at(size, 64)["insert_ms"] for size in sizes},
        mas_check_ms_largest=largest["mas_check_ms"],
        mas_rediscovery_ms_largest=largest["mas_rediscovery_ms"],
        materialize_ms_largest=largest["materialize_ms"],
        materialize_cold_ms_largest=largest["materialize_cold_ms"],
    )
    # The border check looks at the batch only; rediscovery walks the table.
    assert largest["mas_check_ms"] < largest["mas_rediscovery_ms"]
    # The carried cache serves every untouched instance without the cipher.
    assert largest["materialize_ms"] < largest["materialize_cold_ms"]
