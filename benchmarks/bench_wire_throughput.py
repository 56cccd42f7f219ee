"""Wire-layer throughput: codec encode/decode rates and query latency.

Not a figure from the paper — this tracks the serving layer added by the
protocol PR.  Three question sets:

* **Codec throughput** — MB/s for encoding and decoding a ciphertext server
  view (dictionaries are serialized once; the row body is a fixed-width
  code array), each the median of three calls after a full collection
  (each encode codes a fresh copy of the view).
* **Receive path** — the provider's side of an outsource: ``decode_relation``
  plus ``SegmentTableStore.replace`` (segment, blobs, log, Merkle tree),
  the median of three runs into fresh directories.
  The decoded relation carries its coded view and its wire bytes, so the
  path must make no ``factorize_values`` call and no per-row ``hash_row``
  call; both are asserted at every scale.
* **Query latency** — wall time of one equality select (a one-leaf plan)
  through the full protocol stack (token derivation, message encode,
  server-side dictionary filtering, reply decode, provenance filtering +
  decryption) as the outsourced table grows.

Results land in ``BENCH_wire.json`` via the shared ``bench_json`` fixture.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.api.protocol import LoopbackTransport, ProtocolClient, ProtocolServer
from repro.api.session import DataOwner, RemoteOwnerSession
from repro.backend import get_backend, numpy_backend, python_backend
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.datasets import generate_fd_table
from repro.integrity import merkle
from repro.query.ast import Eq
from repro.store import SegmentTableStore
from repro.wire import decode_relation, encode_relation

from benchmarks.conftest import scale

BENCH_NAME = "wire"

CODEC_SIZES = (400, 1600, 6400)
QUERY_SIZES = (400, 1600, 6400)
ALPHA = 0.2


def outsourced_view(num_rows: int):
    owner = DataOwner(
        key=KeyGen.symmetric_from_seed(3), config=F2Config(alpha=ALPHA, seed=3)
    )
    table = generate_fd_table(num_rows, num_zipcodes=10, num_extra_columns=2, seed=3)
    owner.outsource(table)
    return owner, table, owner.server_view()


def median_seconds(run, repeats: int = 3):
    """``(median wall time, last result)`` of ``repeats`` calls of ``run``,
    each after a full collection, so no call pays for the garbage of the
    ones before it."""
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def codec_throughput(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        _, _, view = outsourced_view(num_rows)
        # A fresh copy per encode: a relation caches its coded view.
        copies = iter([view.copy() for _ in range(3)])
        encode_seconds, payload = median_seconds(lambda: encode_relation(next(copies)))
        decode_seconds, decoded = median_seconds(lambda: decode_relation(payload))
        assert decoded == view
        megabytes = len(payload) / 1e6
        rows.append(
            {
                "rows": view.num_rows,
                "payload_bytes": len(payload),
                "encode_mb_per_s": round(megabytes / max(encode_seconds, 1e-9), 3),
                "decode_mb_per_s": round(megabytes / max(decode_seconds, 1e-9), 3),
                "encode_seconds": round(encode_seconds, 6),
                "decode_seconds": round(decode_seconds, 6),
            }
        )
    return rows


@contextmanager
def counting_coders():
    """Count ``factorize_values`` (either backend) and ``hash_row`` calls."""
    calls = {"factorize_values": 0, "hash_row": 0}
    patched = [(module, "factorize_values") for module in (python_backend, numpy_backend)]
    patched.append((merkle, "hash_row"))
    originals = [getattr(module, name) for module, name in patched]

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    for (module, name), real in zip(patched, originals):
        setattr(module, name, counting(name, real))
    try:
        yield calls
    finally:
        for (module, name), real in zip(patched, originals):
            setattr(module, name, real)


def receive_path(sizes, repeats: int = 3) -> list[dict]:
    rows = []
    for num_rows in sizes:
        _, _, view = outsourced_view(num_rows)
        payload = encode_relation(view)
        expected_root = merkle.MerkleTree([merkle.hash_row(row) for row in view.rows()]).root
        decodes, replaces = [], []
        with counting_coders() as calls:
            for _ in range(repeats):
                with tempfile.TemporaryDirectory() as directory:
                    store = SegmentTableStore(
                        Path(directory) / "t.f2s", get_backend("python"), create=True
                    )
                    start = time.perf_counter()
                    relation = decode_relation(payload)
                    decodes.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    store.replace(relation)
                    replaces.append(time.perf_counter() - start)
                    assert store.merkle_root() == expected_root
                    store.close()
        rows.append(
            {
                "rows": view.num_rows,
                "payload_bytes": len(payload),
                "decode_seconds": round(statistics.median(decodes), 6),
                "replace_seconds": round(statistics.median(replaces), 6),
                "factorize_calls": calls["factorize_values"],
                "hash_row_calls": calls["hash_row"],
            }
        )
    return rows


def query_latency(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        owner, table, _ = outsourced_view(num_rows)
        client = ProtocolClient(LoopbackTransport(ProtocolServer()))
        session = RemoteOwnerSession(owner, client)
        client.outsource(session.table_id, owner.server_view())
        attribute = "Zipcode"
        value = table.value(0, attribute)
        # Warm the coded-view cache the way a live server would be warm.
        session.select(Eq(attribute, value))
        start = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            matches = session.select(Eq(attribute, value))
        elapsed = (time.perf_counter() - start) / repeats
        rows.append(
            {
                "rows": table.num_rows,
                "query_seconds": round(elapsed, 6),
                "matched_rows": matches.num_rows,
            }
        )
    return rows


def test_codec_throughput(benchmark, bench_json):
    sizes = tuple(scale(size) for size in CODEC_SIZES)
    rows = benchmark.pedantic(codec_throughput, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Wire codec throughput (ciphertext server views)"))
    bench_json.add("codec_throughput", rows)
    largest = max(rows, key=lambda row: row["rows"])
    bench_json.add(
        "codec_summary",
        [],
        binary_payload_bytes_at_largest=largest["payload_bytes"],
        binary_encode_mb_per_s_at_largest=largest["encode_mb_per_s"],
        binary_decode_mb_per_s_at_largest=largest["decode_mb_per_s"],
    )


def test_receive_path(benchmark, bench_json):
    sizes = tuple(scale(size) for size in CODEC_SIZES)
    rows = benchmark.pedantic(receive_path, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Provider receive path: decode_relation + replace"))
    bench_json.add("receive", rows)
    for row in rows:
        assert row["factorize_calls"] == 0, "the receive path re-factorised a coded column"
        assert row["hash_row_calls"] == 0, "the receive path hashed Merkle leaves row by row"


def test_query_latency(benchmark, bench_json):
    sizes = tuple(scale(size) for size in QUERY_SIZES)
    rows = benchmark.pedantic(query_latency, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Equality select latency vs rows"))
    bench_json.add("query_latency", rows)
    for row in rows:
        assert row["matched_rows"] > 0, "the probed value must occur in the table"
