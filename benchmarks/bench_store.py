"""Storage-engine costs of the segment store (PR 6).

Not a figure from the paper — this tracks what the per-column segment
store buys over the monolithic ``.f2t`` snapshot engine:

* **Restart cost** — server construction time over a seeded storage
  directory as the table grows.  The snapshot engine must at least skim
  every frame (linear in bytes even with lazy decode); the segment engine
  reads one manifest per table and maps columns on demand (flat).
* **Insert cost** — ``InsertDelta`` applied to a segment store is an
  O(delta) append + manifest commit; the snapshot engine re-materialises
  and rewrites the whole table.  Measured across delta sizes and across
  base-table sizes at a fixed delta size (the segment line should not
  track the base size).
* **Query cache** — cold vs hot ``match_mask`` on the segment store (the
  hot path is a bitset-cache hit), plus a cross-engine identity assertion:
  both engines match exactly the same rows.

Timing ratios land in metadata only — absolute assertions on wall time
are flaky at smoke scale (the segment commit fsyncs several small files,
which dominates tiny tables).  Results land in ``BENCH_store.json``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.api.delta import compute_view_delta
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
from repro.store import MemoryTableStore, SegmentTableStore

from benchmarks.conftest import scale

BENCH_NAME = "store"

RESTART_SIZES = (1000, 4000, 16000)
INSERT_BASE_ROWS = 8000
INSERT_DELTA_ROWS = (32, 128, 512)
QUERY_ROWS = 16000
QUERY_REPEATS = 200
DISTINCT = 64


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


def seeded_server(storage_dir: Path, engine: str, relation: Relation) -> None:
    server = ProtocolServer(storage_dir=storage_dir, storage_engine=engine, backend="python")
    client = ProtocolClient(LoopbackTransport(server))
    client.call(OutsourceRequest(table_id="bench", relation=relation))


# ----------------------------------------------------------------------
# Restart: flat (segment) vs linear (snapshot)
# ----------------------------------------------------------------------
def restart_cost(sizes) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for num_rows in sizes:
            relation = make_relation(num_rows)
            row: dict = {"rows": num_rows}
            for engine in ("snapshot", "segment"):
                directory = Path(tmp) / f"{engine}-{num_rows}"
                directory.mkdir()
                seeded_server(directory, engine, relation)
                restart_ms, revived = timed_ms(
                    lambda d=directory, e=engine: ProtocolServer(
                        storage_dir=d, storage_engine=e, backend="python"
                    )
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
                row[f"{engine}_restart_ms"] = round(restart_ms, 3)
                row[f"{engine}_first_query_ms"] = round(query_ms, 3)
                row[f"{engine}_bytes"] = dir_bytes(directory)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Insert: O(delta) append vs full-snapshot rewrite
# ----------------------------------------------------------------------
def insert_cost(base_rows: int, delta_sizes) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ("snapshot", "segment"):
            directory = Path(tmp) / engine
            directory.mkdir()
            current = make_relation(base_rows)
            server = ProtocolServer(
                storage_dir=directory, storage_engine=engine, backend="python"
            )
            client = ProtocolClient(LoopbackTransport(server))
            ack = client.call(OutsourceRequest(table_id="bench", relation=current))
            for position, extra in enumerate(delta_sizes):
                grown = grow(current, extra, f"{engine}{position}")
                delta = compute_view_delta(current, grown)
                insert_ms, ack = timed_ms(
                    lambda d=delta, v=ack.fields["version"]: client.call(
                        InsertDelta(table_id="bench", delta=d, base_version=v)
                    )
                )
                assert ack.fields["num_rows"] == grown.num_rows
                rows.append(
                    {
                        "engine": engine,
                        "base_rows": current.num_rows,
                        "delta_rows": extra,
                        "insert_ms": round(insert_ms, 3),
                    }
                )
                current = grown
    return rows


def insert_cost_vs_base(delta_rows: int, base_sizes) -> list[dict]:
    """Fixed delta, growing base: the segment engine's cost should not track
    the base size, the snapshot engine's rewrite must."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ("snapshot", "segment"):
            for base_rows in base_sizes:
                directory = Path(tmp) / f"{engine}-{base_rows}"
                directory.mkdir()
                base = make_relation(base_rows)
                server = ProtocolServer(
                    storage_dir=directory, storage_engine=engine, backend="python"
                )
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
                        "engine": engine,
                        "base_rows": base_rows,
                        "delta_rows": delta_rows,
                        "insert_ms": round(insert_ms, 3),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Query: cold mmap read vs hot bitset-cache hit, engines agree
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
        # Cross-engine identity: the mmap'd segment read and the in-memory
        # coded relation match exactly the same rows.
        matched = [
            backend.mask_to_rows(mask)
            for mask in (cold_mask, hot_mask, memory.match_mask("city", token))
        ]
        assert matched[0] and matched[0] == matched[1] == matched[2]
        stats = store.cache_stats()
        assert stats["hits"] >= repeats
        rows.append(
            {
                "rows": num_rows,
                "cold_query_ms": round(cold_ms, 3),
                "hot_query_ms": round(hot_ms, 4),
                "cache_hits": stats["hits"],
                "cache_misses": stats["misses"],
            }
        )
        store.close()
    return rows


# ----------------------------------------------------------------------
# Bench entry points
# ----------------------------------------------------------------------
def test_restart_cost(benchmark, bench_json):
    sizes = tuple(scale(size) for size in RESTART_SIZES)
    rows = benchmark.pedantic(restart_cost, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Server restart cost: snapshot vs segment engine"))
    bench_json.add("restart", rows)
    smallest, largest = rows[0], rows[-1]
    bench_json.add(
        "restart_summary",
        [],
        snapshot_restart_growth=round(
            largest["snapshot_restart_ms"] / max(smallest["snapshot_restart_ms"], 1e-6), 3
        ),
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
    by_engine = {
        engine: [row["insert_ms"] for row in vs_base if row["engine"] == engine]
        for engine in ("snapshot", "segment")
    }
    bench_json.add(
        "insert_summary",
        [],
        # How much a 4x larger base inflates a fixed-size insert: ~4 for the
        # snapshot rewrite, ~1 for the segment append (arms at full scale).
        snapshot_insert_base_growth=round(
            by_engine["snapshot"][1] / max(by_engine["snapshot"][0], 1e-6), 3
        ),
        segment_insert_base_growth=round(
            by_engine["segment"][1] / max(by_engine["segment"][0], 1e-6), 3
        ),
    )
    assert all(row["insert_ms"] > 0 for row in rows)


def test_query_cache_cost(benchmark, bench_json):
    rows = benchmark.pedantic(
        query_cache_cost, args=(scale(QUERY_ROWS), QUERY_REPEATS), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Cold vs hot token query on the segment store"))
    bench_json.add("query_cache", rows)
    row = rows[0]
    bench_json.add(
        "query_cache_summary",
        [],
        cold_over_hot_query_ratio=round(
            row["cold_query_ms"] / max(row["hot_query_ms"], 1e-6), 3
        ),
    )
    assert row["hot_query_ms"] > 0
