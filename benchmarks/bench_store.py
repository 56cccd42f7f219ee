"""Costs of the segment store, the protocol server's one durable engine.

Not a figure from the paper — this tracks what the per-column segment
store costs as tables and their histories grow:

* **Restart cost** — server construction time over a seeded storage
  directory as the table grows: one manifest per table is read and
  columns are mapped on demand, so it stays flat in the table size.
* **Insert cost** — ``InsertDelta`` applied to a segment store is one
  O(delta) log record.  Measured across delta sizes and across base-table
  sizes at a fixed delta size (the line should not track the base size).
* **Commit cost** — one 1-row ``apply_delta`` at 2k and 16k rows, with 1
  and 32 records in the log since the last checkpoint: its latency
  (median of several) and the fsyncs it issues (one, asserted).
* **Query cache** — cold vs hot ``match_mask`` on the segment store (the
  hot path is a bitset-cache hit), plus an identity assertion: the
  segment store and the in-memory store match exactly the same rows.  A
  second row repeats it right after 1-row deltas: the hit is then an entry
  spliced through the delta, the miss a scan of the freshly written view
  (both asserted to match the in-memory store's rows).
* **Long history** — 240 deltas over one store, 1 row each except every
  8th of 64 rows, each with one rebuilt row elsewhere (the shape of an
  owner splice).  After every delta the view holds at most
  ``FOLD_VIEW_SLICES`` slices and the log at most ``FOLD_LOG_RECORDS``
  records (the fold; asserted at every scale).  Over the last 40 deltas,
  a 1-row ``apply_delta`` and a
  restart + first query are timed against the same operation on a
  single-segment copy of the same rows; at full scale the ``apply_delta``
  median must stay within 5x of the copy's.

Other timing ratios land in metadata only — absolute assertions on wall
time are flaky at smoke scale (the commit's fsync dominates tiny tables).
Results land in ``BENCH_store.json``.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.api.delta import ViewDelta, apply_view_delta, compute_view_delta
from repro.api.protocol import (
    InsertDelta,
    LoopbackTransport,
    OutsourceRequest,
    ProtocolClient,
    PlanQueryRequest,
    ProtocolServer,
)
from repro.backend import get_backend
from repro.bench.reporting import format_table
from repro.query.server import TokenLeaf
from repro.relational.table import Relation
from repro.store import (
    FOLD_LOG_RECORDS,
    FOLD_VIEW_SLICES,
    MemoryTableStore,
    SegmentTableStore,
)

from benchmarks.conftest import scale

BENCH_NAME = "store"

RESTART_SIZES = (1000, 4000, 16000)
INSERT_BASE_ROWS = 8000
INSERT_DELTA_ROWS = (32, 128, 512)
QUERY_ROWS = 16000
QUERY_REPEATS = 200
#: 1-row deltas, each followed by one spliced hit and one miss.
DELTA_QUERIES = 20
DISTINCT = 64
HISTORY_BASE_ROWS = 2000
HISTORY_DELTAS = 240
HISTORY_TAIL = 40
COMMIT_ROWS = (2000, 16000)
COMMIT_RECORDS = (1, 32)
COMMIT_REPEATS = 7


def make_relation(num_rows: int, name: str = "bench") -> Relation:
    return Relation.from_columns(
        {
            "city": [f"city{i % DISTINCT}" for i in range(num_rows)],
            "zip": [f"{i % (DISTINCT * 4):05d}" for i in range(num_rows)],
            "street": [f"street{i % (DISTINCT * 16)}" for i in range(num_rows)],
        },
        name=name,
    )


def grow(base: Relation, extra: int, tag: str) -> Relation:
    return Relation.from_columns(
        {
            attribute: list(base.column(attribute))
            + [f"{attribute}-{tag}-{i % DISTINCT}" for i in range(extra)]
            for attribute in base.attributes
        },
        name=base.name,
    )


def timed_ms(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1000.0, result


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def seeded_server(storage_dir: Path, relation: Relation) -> None:
    server = ProtocolServer(storage_dir=storage_dir, backend="python")
    client = ProtocolClient(LoopbackTransport(server))
    client.call(OutsourceRequest(table_id="bench", relation=relation))


# ----------------------------------------------------------------------
# Restart: flat in the table size
# ----------------------------------------------------------------------
def restart_cost(sizes) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for num_rows in sizes:
            relation = make_relation(num_rows)
            directory = Path(tmp) / f"segment-{num_rows}"
            directory.mkdir()
            seeded_server(directory, relation)
            restart_ms, revived = timed_ms(
                lambda d=directory: ProtocolServer(storage_dir=d, backend="python")
            )
            query_ms, result = timed_ms(
                lambda s=revived: ProtocolClient(LoopbackTransport(s)).call(
                    PlanQueryRequest(
                        table_id="bench",
                        expr=TokenLeaf(attribute="city", token=("city3",)),
                    )
                )
            )
            assert len(result.row_indexes) == sum(
                1 for i in range(num_rows) if i % DISTINCT == 3
            )
            rows.append(
                {
                    "rows": num_rows,
                    "segment_restart_ms": round(restart_ms, 3),
                    "segment_first_query_ms": round(query_ms, 3),
                    "segment_bytes": dir_bytes(directory),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Insert: O(delta) append
# ----------------------------------------------------------------------
def insert_cost(base_rows: int, delta_sizes) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        current = make_relation(base_rows)
        server = ProtocolServer(storage_dir=tmp, backend="python")
        client = ProtocolClient(LoopbackTransport(server))
        ack = client.call(OutsourceRequest(table_id="bench", relation=current))
        for position, extra in enumerate(delta_sizes):
            grown = grow(current, extra, f"segment{position}")
            delta = compute_view_delta(current, grown)
            insert_ms, ack = timed_ms(
                lambda d=delta, v=ack.fields["version"]: client.call(
                    InsertDelta(table_id="bench", delta=d, base_version=v)
                )
            )
            assert ack.fields["num_rows"] == grown.num_rows
            rows.append(
                {
                    "base_rows": current.num_rows,
                    "delta_rows": extra,
                    "insert_ms": round(insert_ms, 3),
                }
            )
            current = grown
    return rows


def insert_cost_vs_base(delta_rows: int, base_sizes) -> list[dict]:
    """Fixed delta, growing base: the cost should not track the base size."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for base_rows in base_sizes:
            directory = Path(tmp) / f"segment-{base_rows}"
            directory.mkdir()
            base = make_relation(base_rows)
            server = ProtocolServer(storage_dir=directory, backend="python")
            client = ProtocolClient(LoopbackTransport(server))
            ack = client.call(OutsourceRequest(table_id="bench", relation=base))
            grown = grow(base, delta_rows, "vs")
            delta = compute_view_delta(base, grown)
            insert_ms, _ = timed_ms(
                lambda d=delta, v=ack.fields["version"]: client.call(
                    InsertDelta(table_id="bench", delta=d, base_version=v)
                )
            )
            rows.append(
                {
                    "base_rows": base_rows,
                    "delta_rows": delta_rows,
                    "insert_ms": round(insert_ms, 3),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Commit: one record, one fsync, flat in the table size and the log length
# ----------------------------------------------------------------------
@contextmanager
def counting_fsyncs():
    """Count every ``os.fsync`` inside the block (``counts[0]``)."""
    counts = [0]
    real = os.fsync

    def fsync(fd):
        counts[0] += 1
        real(fd)

    os.fsync = fsync
    try:
        yield counts
    finally:
        os.fsync = real


def one_row_delta(current: Relation, step: int) -> ViewDelta:
    n = current.num_rows
    at = (step * 7919) % max(n, 1)
    return ViewDelta(
        base_rows=n,
        segments=[["c", 0, at], ["l", 1], ["c", at, n - at]],
        literals=Relation(
            list(current.attributes),
            [[f"{attribute}-c{step}" for attribute in current.attributes]],
            name=current.name,
        ),
        table_name=current.name,
    )


def commit_cost(sizes, records, repeats: int) -> list[dict]:
    backend = get_backend("python")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for num_rows in sizes:
            base = make_relation(num_rows)
            for target in records:
                latencies, fsyncs = [], []
                for repeat in range(repeats):
                    directory = Path(tmp) / f"commit-{num_rows}-{target}-{repeat}.f2s"
                    store = SegmentTableStore(directory, backend, create=True)
                    store.replace(base)
                    current = base
                    for step in range(target - 1):
                        delta = one_row_delta(current, step)
                        store.apply_delta(delta)
                        current = apply_view_delta(current, delta)
                    delta = one_row_delta(current, target)
                    with counting_fsyncs() as counts:
                        latencies.append(timed_ms(lambda: store.apply_delta(delta))[0])
                    fsyncs.append(counts[0])
                    assert store.store_stats()["log_records"] == target
                    store.close()
                rows.append(
                    {
                        "rows": num_rows,
                        "records_since_checkpoint": target,
                        "commit_ms": round(statistics.median(latencies), 3),
                        "fsyncs_per_commit": max(fsyncs),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Query: cold mmap read vs hot bitset-cache hit, stores agree
# ----------------------------------------------------------------------
def query_cache_cost(num_rows: int, repeats: int) -> list[dict]:
    backend = get_backend("python")
    relation = make_relation(num_rows)
    memory = MemoryTableStore(backend)
    memory.replace(relation)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        store = SegmentTableStore(Path(tmp) / "bench.f2s", backend, create=True)
        store.replace(relation)
        token = ("city3", "city7")
        cold_ms, cold_mask = timed_ms(lambda: store.match_mask("city", token))
        start = time.perf_counter()
        for _ in range(repeats):
            hot_mask = store.match_mask("city", token)
        hot_ms = (time.perf_counter() - start) * 1000.0 / repeats
        # Store identity: the mmap'd segment read and the in-memory coded
        # relation match exactly the same rows.
        matched = [
            backend.mask_to_rows(mask)
            for mask in (cold_mask, hot_mask, memory.match_mask("city", token))
        ]
        assert matched[0] and matched[0] == matched[1] == matched[2]
        stats = store.cache_stats()
        assert stats["hits"] >= repeats
        rows.append(
            {
                "case": "steady",
                "rows": num_rows,
                "cold_query_ms": round(cold_ms, 3),
                "hot_query_ms": round(hot_ms, 4),
                "cache_hits": stats["hits"],
                "cache_misses": stats["misses"],
                "cache_splices": stats["splices"],
            }
        )
        # After each 1-row delta: the cached token is a spliced hit, a token
        # never asked before a miss that scans the new view.
        misses, hits = [], []
        current = relation
        for step in range(DELTA_QUERIES):
            delta = one_row_delta(current, step)
            store.apply_delta(delta)
            memory.apply_delta(delta)
            current = apply_view_delta(current, delta)
            miss_ms, miss_mask = timed_ms(
                lambda: store.match_mask("city", ("city3", f"absent-{step}"))
            )
            hit_ms, hit_mask = timed_ms(lambda: store.match_mask("city", token))
            assert backend.mask_to_rows(hit_mask) == backend.mask_to_rows(
                memory.match_mask("city", token)
            )
            assert backend.mask_to_rows(miss_mask) == backend.mask_to_rows(
                memory.match_mask("city", ("city3",))
            )
            misses.append(miss_ms)
            hits.append(hit_ms)
        after = store.cache_stats()
        assert after["splices"] - stats["splices"] == DELTA_QUERIES
        assert after["invalidations"] == 0
        rows.append(
            {
                "case": "after_delta",
                "rows": current.num_rows,
                "cold_query_ms": round(statistics.median(misses), 3),
                "hot_query_ms": round(statistics.median(hits), 4),
                "cache_hits": after["hits"] - stats["hits"],
                "cache_misses": after["misses"] - stats["misses"],
                "cache_splices": after["splices"] - stats["splices"],
            }
        )
        store.close()
    return rows


# ----------------------------------------------------------------------
# Long history: the fold keeps the view, the log and the cost bounded
# ----------------------------------------------------------------------
def history_delta(current: Relation, step: int) -> ViewDelta:
    """One owner-splice-shaped delta: new rows at one place, a rebuilt row
    at another; 64 new rows on every 8th step, else 1."""
    n = current.num_rows
    extra = 64 if step % 8 == 0 else 1
    inserted_at = (step * 7919) % (n // 2)
    rebuilt = inserted_at + n // 3
    literals = Relation(
        list(current.attributes),
        [
            [f"{attribute}-h{step}-{i % DISTINCT}" for attribute in current.attributes]
            for i in range(extra + 1)
        ],
        name=current.name,
    )
    return ViewDelta(
        base_rows=n,
        segments=[
            ["c", 0, inserted_at],
            ["l", extra],
            ["c", inserted_at, rebuilt - inserted_at],
            ["l", 1],
            ["c", rebuilt + 1, n - rebuilt - 1],
        ],
        literals=literals,
        table_name=current.name,
    )


def restart_and_query_ms(directory: Path, backend) -> float:
    def reopen_and_query() -> None:
        store = SegmentTableStore(directory, backend)
        store.match_mask("city", ("city3",))
        store.close()

    return timed_ms(reopen_and_query)[0]


def long_history(base_rows: int, deltas: int, tail: int) -> list[dict]:
    backend = get_backend("python")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = SegmentTableStore(root / "history.f2s", backend, create=True)
        current = make_relation(base_rows)
        store.replace(current)
        for step in range(1, deltas + 1):
            delta = history_delta(current, step)
            measured = step > deltas - tail and step % 8 != 0
            if measured:
                copy_dir = root / f"copy-{step}.f2s"
                copy = SegmentTableStore(copy_dir, backend, create=True)
                copy.replace(current)
                copy_ms = timed_ms(lambda: copy.apply_delta(delta))[0]
                copy.close()
            apply_ms = timed_ms(lambda: store.apply_delta(delta))[0]
            current = apply_view_delta(current, delta)
            stats = store.store_stats()
            slices, records = stats["view_slices"], stats["log_records"]
            assert slices <= FOLD_VIEW_SLICES, (step, slices)
            assert records <= FOLD_LOG_RECORDS, (step, records)
            if measured:
                rows.append(
                    {
                        "step": step,
                        "rows": current.num_rows,
                        "view_slices": slices,
                        "log_records": records,
                        "apply_delta_ms": round(apply_ms, 3),
                        "single_segment_apply_delta_ms": round(copy_ms, 3),
                        "restart_query_ms": round(
                            restart_and_query_ms(root / "history.f2s", backend), 3
                        ),
                        "single_segment_restart_query_ms": round(
                            restart_and_query_ms(copy_dir, backend), 3
                        ),
                    }
                )
        assert store.relation() == current
        store.close()
    return rows


# ----------------------------------------------------------------------
# Bench entry points
# ----------------------------------------------------------------------
def test_restart_cost(benchmark, bench_json):
    sizes = tuple(scale(size) for size in RESTART_SIZES)
    rows = benchmark.pedantic(restart_cost, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Server restart cost on the segment store"))
    bench_json.add("restart", rows)
    smallest, largest = rows[0], rows[-1]
    bench_json.add(
        "restart_summary",
        [],
        segment_restart_growth=round(
            largest["segment_restart_ms"] / max(smallest["segment_restart_ms"], 1e-6), 3
        ),
        size_growth=round(largest["rows"] / smallest["rows"], 3),
    )
    assert all(row["segment_restart_ms"] > 0 for row in rows)


def test_insert_cost(benchmark, bench_json):
    base = scale(INSERT_BASE_ROWS)
    deltas = tuple(scale(size) for size in INSERT_DELTA_ROWS)
    rows = benchmark.pedantic(insert_cost, args=(base, deltas), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="InsertDelta wall time by delta size"))
    bench_json.add("insert_by_delta", rows)
    vs_base = insert_cost_vs_base(deltas[0], (base, base * 4))
    print(format_table(vs_base, title="InsertDelta wall time by base size (fixed delta)"))
    bench_json.add("insert_by_base", vs_base)
    small, large = (row["insert_ms"] for row in vs_base)
    bench_json.add(
        "insert_summary",
        [],
        # How much a 4x larger base inflates a fixed-size insert (~1 for an
        # O(delta) append).
        segment_insert_base_growth=round(large / max(small, 1e-6), 3),
    )
    assert all(row["insert_ms"] > 0 for row in rows)


def test_commit_cost(benchmark, bench_json):
    sizes = tuple(scale(size) for size in COMMIT_ROWS)
    rows = benchmark.pedantic(
        commit_cost, args=(sizes, COMMIT_RECORDS, COMMIT_REPEATS), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="One 1-row apply_delta: latency and fsyncs"))
    bench_json.add("commit", rows)
    # A delta commit is one record append and one fsync, however large the
    # table and however long the log since the last checkpoint.
    assert all(row["fsyncs_per_commit"] == 1 for row in rows), rows


def test_query_cache_cost(benchmark, bench_json):
    rows = benchmark.pedantic(
        query_cache_cost, args=(scale(QUERY_ROWS), QUERY_REPEATS), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Cold vs hot token query on the segment store"))
    bench_json.add("query_cache", rows)
    row, after = rows
    bench_json.add(
        "query_cache_summary",
        [],
        cold_over_hot_query_ratio=round(
            row["cold_query_ms"] / max(row["hot_query_ms"], 1e-6), 3
        ),
        after_delta_miss_over_hit_ratio=round(
            after["cold_query_ms"] / max(after["hot_query_ms"], 1e-6), 3
        ),
    )
    assert row["hot_query_ms"] > 0


def test_long_history(benchmark, bench_json):
    base_rows = scale(HISTORY_BASE_ROWS)
    rows = benchmark.pedantic(
        long_history,
        args=(base_rows, HISTORY_DELTAS, HISTORY_TAIL),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Long delta history vs a single-segment copy"))
    bench_json.add("long_history", rows)
    median = statistics.median
    apply_ratio = median(r["apply_delta_ms"] for r in rows) / max(
        median(r["single_segment_apply_delta_ms"] for r in rows), 1e-6
    )
    restart_ratio = median(r["restart_query_ms"] for r in rows) / max(
        median(r["single_segment_restart_query_ms"] for r in rows), 1e-6
    )
    bench_json.add(
        "long_history_summary",
        [],
        fold_view_slices=FOLD_VIEW_SLICES,
        fold_log_records=FOLD_LOG_RECORDS,
        long_history_max_view_slices=max(r["view_slices"] for r in rows),
        long_history_max_log_records=max(r["log_records"] for r in rows),
        long_history_apply_delta_ratio=round(apply_ratio, 3),
        long_history_restart_query_ratio=round(restart_ratio, 3),
    )
    if base_rows >= HISTORY_BASE_ROWS:
        assert apply_ratio <= 5.0, apply_ratio
