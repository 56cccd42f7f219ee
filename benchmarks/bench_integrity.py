"""Costs of the trustworthy-server subsystem (PR 8).

Not a figure from the paper — F2's evaluation assumes an honest-but-curious
server; this tracks what the integrity plane (Merkle roots, the owner's answer
check, signed replies, version CAS) costs on top of it:

* **Proof size vs rows** — the size of one multiproof of the content-defined
  tree (no reply carries one; ``MerkleTree.multiproof`` remains for offline
  checks): each touched chunk contributes its other slots once, so a lone
  match costs about ``(fanout - 1) * height`` digests (at most
  ``(MAX_CHUNK - 1) * height``) and matches that share chunks share them.
  Reported as multiproof digest bytes per match.
* **Owner answer check vs rows** — a verified select recomputes its answer
  over the owner's replica (``TableIntegrityState.verify_proofs``): cold
  (an empty leaf-mask cache, as after an insert) and cached (a hot query),
  for a one-leaf and a two-leaf plan.
* **Splice vs rebuild** — the Merkle upkeep of one insert: splicing a
  1-row or 64-row view delta into the tree against building the tree of
  the result from its leaves.
* **Owner verify throughput** — proofs checked per second, and the
  owner-side tree (re)build rate in rows/s (the cost of ``record_push``).
* **Signed-reply overhead** — verified plan queries (protocol v6: signed
  frames + signed replies + root + the owner's answer check) against the
  same queries on an anonymous server; the baseline for signed *frames*
  alone was a 0.84 signed/unsigned throughput ratio
  (``BENCH_protocol.json``).
* **CAS retry rate under contention** — concurrent coordinated writers
  against one table: delta pushes, conflicts, rebases, and the retry
  rate; the server's per-kind request counts must show the boot outsource
  as the run's only full-view write.

Results land in ``BENCH_integrity.json``.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.api import (
    DataOwner,
    LoopbackTransport,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    TenantRegistry,
)
from repro.api.session import ReplicaMasks
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.api.delta import OP_COPY, OP_LITERAL, ViewDelta
from repro.integrity.merkle import MerkleTree, hash_row, relation_leaves, verify_multiproof
from repro.integrity.state import TableIntegrityState
from repro.integrity.writers import WriteCoordinator
from repro.query.server import ServerAnd, TokenLeaf, execute_server_expr
from repro.relational.table import Relation

from benchmarks.conftest import scale

BENCH_NAME = "integrity"

PROOF_TABLE_SIZES = (1000, 4000, 16000, 64000)
PROOF_MATCHES = 64
SPLICE_DELTA_ROWS = (1, 64)
SPLICE_REPEATS = 5
ANSWER_REPEATS = 20
VERIFY_ROWS = 20000
VERIFY_PROOFS = 2000
QUERY_REPEATS = 40
WRITERS = 3
INSERTS_PER_WRITER = 2
DISTINCT = 32


def make_leaves(num_rows: int) -> list[bytes]:
    return [hash_row([f"city{i % DISTINCT}", f"{i:06d}", f"s{i}"]) for i in range(num_rows)]


def make_relation(num_rows: int, name: str = "bench") -> Relation:
    return Relation(
        ["city", "zip", "street"],
        [[f"city{i % DISTINCT}", f"{i % 97:05d}", f"street{i % 513}"] for i in range(num_rows)],
        name=name,
    )


def timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# Proof size vs table size
# ----------------------------------------------------------------------
def proof_sizes(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        tree = MerkleTree(make_leaves(num_rows))
        step = max(1, num_rows // PROOF_MATCHES)
        indexes = list(range(0, num_rows, step))[:PROOF_MATCHES]
        proof = tree.multiproof(indexes)
        digest_bytes = sum(len(d) for path in proof.paths for d in path)
        rows.append(
            {
                "rows": num_rows,
                "matches": len(indexes),
                "proof_depth": tree.height,
                "proof_bytes_per_match": round(digest_bytes / len(indexes), 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# The owner's answer check of a verified select
# ----------------------------------------------------------------------
def answer_check_costs(sizes) -> list[dict]:
    """Milliseconds of one answer check over an ``n``-row replica.

    ``cold`` starts from an empty leaf-mask cache (the first select after an
    insert); ``cached`` is a hot query.  Both run over an already encoded
    replica: its coded form is built once per version and shared with the
    leakage report.
    """
    plans = {
        "one-leaf": TokenLeaf("city", ("city3",), index=0),
        "two-leaf": ServerAnd(
            (
                TokenLeaf("city", ("city3",), index=0),
                TokenLeaf("zip", tuple(f"{z:05d}" for z in range(0, 97, 2)), index=1),
            )
        ),
    }
    rows = []
    for num_rows in sizes:
        replica = make_relation(num_rows)
        state = TableIntegrityState("bench")
        for name, expr in plans.items():
            indexes, counts = execute_server_expr(replica.coded(), expr)

            def check(masks: ReplicaMasks) -> float:
                return timed(
                    lambda: state.verify_proofs(expr, indexes, counts, masks.over(replica))
                )[0]

            cold = min(check(ReplicaMasks()) for _ in range(ANSWER_REPEATS))
            masks = ReplicaMasks()
            check(masks)
            cached = min(check(masks) for _ in range(ANSWER_REPEATS))
            rows.append(
                {
                    "rows": num_rows,
                    "plan": name,
                    "matches": len(indexes),
                    "cold_ms": round(cold * 1e3, 3),
                    "cached_ms": round(cached * 1e3, 3),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Owner-side verification throughput
# ----------------------------------------------------------------------
def verify_throughput(num_rows: int, num_proofs: int) -> list[dict]:
    leaves = make_leaves(num_rows)
    build_seconds, tree = timed(lambda: MerkleTree(leaves))
    step = max(1, num_rows // num_proofs)
    indexes = list(range(0, num_rows, step))[:num_proofs]
    proofs = [tree.multiproof([i]) for i in indexes]
    root = tree.root

    def check_all() -> int:
        good = 0
        for i, proof in zip(indexes, proofs):
            good += verify_multiproof([leaves[i]], [i], num_rows, proof, root)
        return good

    check_seconds, good = timed(check_all)
    assert good == len(indexes)
    together = tree.multiproof(indexes)
    batch_seconds, ok = timed(
        lambda: verify_multiproof([leaves[i] for i in indexes], indexes, num_rows, together, root)
    )
    assert ok
    return [
        {
            "rows": num_rows,
            "tree_build_rows_per_s": round(num_rows / build_seconds),
            "proofs_checked": len(indexes),
            "proofs_per_s": round(len(indexes) / check_seconds),
            "multiproof_rows_per_s": round(len(indexes) / batch_seconds),
        }
    ]


# ----------------------------------------------------------------------
# Merkle upkeep of one insert: splice vs full build
# ----------------------------------------------------------------------
def spread_delta(num_rows: int, literal_rows: int) -> ViewDelta:
    """A delta that keeps every row and inserts ``literal_rows`` new ones,
    spread evenly — one copy/literal seam per new row, the shape of the
    incremental view deltas the owner ships."""
    segments: list = []
    cursor = 0
    for k in range(literal_rows):
        stop = (k + 1) * num_rows // (literal_rows + 1)
        segments.append([OP_COPY, cursor, stop - cursor])
        segments.append([OP_LITERAL, 1])
        cursor = stop
    segments.append([OP_COPY, cursor, num_rows - cursor])
    literals = Relation(
        ["city", "zip", "street"],
        [[f"new{k}", f"{k:05d}", f"fresh{k}"] for k in range(literal_rows)],
        name="delta",
    )
    return ViewDelta(base_rows=num_rows, segments=segments, literals=literals)


def splice_costs(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        base_leaves = relation_leaves(make_relation(num_rows))
        tree = MerkleTree(base_leaves)
        for literal_rows in SPLICE_DELTA_ROWS:
            delta = spread_delta(num_rows, literal_rows)
            splice = min(timed(lambda: tree.splice(delta))[0] for _ in range(SPLICE_REPEATS))
            # The rebuild the splice replaces: a tree built from the leaves
            # of the new view (copied leaves + the literal rows' hashes).
            literal_leaves = iter(relation_leaves(delta.literals))
            new_leaves = []
            for segment in delta.segments:
                if segment[0] == OP_COPY:
                    new_leaves += base_leaves[segment[1] : segment[1] + segment[2]]
                else:
                    new_leaves += [next(literal_leaves) for _ in range(segment[1])]
            build = min(timed(lambda: MerkleTree(new_leaves))[0] for _ in range(SPLICE_REPEATS))
            assert tree.splice(delta) == MerkleTree(new_leaves)
            rows.append(
                {
                    "rows": num_rows,
                    "delta_rows": literal_rows,
                    "splice_ms": round(splice * 1e3, 3),
                    "full_build_ms": round(build * 1e3, 3),
                    "speedup": round(build / splice, 1),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Verified (signed reply + answer check) vs anonymous query round trips
# ----------------------------------------------------------------------
def signed_reply_overhead(repeats: int) -> list[dict]:
    plaintext = make_relation(scale(400), name="addresses")
    results = []
    for mode in ("unsigned", "verified"):
        owner = DataOwner.from_seed(11, config=F2Config(alpha=0.3, seed=4))
        if mode == "verified":
            registry = TenantRegistry()
            credential = registry.mint("acme", "owner")
            server = ProtocolServer(tenants=registry, backend="python")
        else:
            credential = None
            server = ProtocolServer(backend="python")
        session = RemoteOwnerSession(
            owner,
            ProtocolClient(LoopbackTransport(server)),
            table_id="bench",
            credential=credential,
            verify=(mode == "verified"),
        )
        session.outsource(plaintext)
        predicate = "city = city3"
        session.select(predicate)  # warm plans and caches
        seconds, _ = timed(
            lambda s=session: [s.select(predicate) for _ in range(repeats)]
        )
        results.append(
            {
                "mode": mode,
                "queries": repeats,
                "query_ms": round(seconds / repeats * 1e3, 3),
                "queries_per_s": round(repeats / seconds, 1),
            }
        )
    return results


# ----------------------------------------------------------------------
# CAS retry behaviour under write contention
# ----------------------------------------------------------------------
def cas_contention(writers: int, inserts_each: int) -> list[dict]:
    registry = TenantRegistry()
    credential = registry.mint("acme", "owner")
    server = ProtocolServer(tenants=registry, backend="python")
    owner = DataOwner.from_seed(13, config=F2Config(alpha=0.3, seed=5))
    coordinator = WriteCoordinator(table_id="bench")
    full_views = obs.REGISTRY.counter("server.requests", kind="outsource_request")
    full_before = full_views.value
    boot = RemoteOwnerSession(
        owner,
        ProtocolClient(LoopbackTransport(server)),
        table_id="bench",
        credential=credential,
        verify=True,
        coordinator=coordinator,
    )
    boot.outsource(make_relation(scale(200), name="addresses"))

    errors: list[BaseException] = []

    def run_writer(k: int) -> None:
        try:
            session = RemoteOwnerSession(
                owner,
                ProtocolClient(LoopbackTransport(server)),
                table_id="bench",
                credential=credential,
                verify=True,
                coordinator=coordinator,
            )
            for i in range(inserts_each):
                session.insert_rows([[f"w{k}row{i}", f"{k:05d}", f"s{k}-{i}"]])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run_writer, args=(k,)) for k in range(writers)]
    seconds, _ = timed(
        lambda: [[t.start() for t in threads], [t.join() for t in threads]]
    )
    assert not errors, errors
    stats = coordinator.stats
    pushes = stats.delta_pushes + stats.noop_pushes
    return [
        {
            "writers": writers,
            "inserts": writers * inserts_each,
            "seconds": round(seconds, 3),
            "full_view_writes": full_views.value - full_before,
            **stats.as_dict(),
            "retry_rate": round(stats.cas_conflicts / max(1, pushes), 4),
        }
    ]


# ----------------------------------------------------------------------
# Bench entry points
# ----------------------------------------------------------------------
def test_proof_size_vs_rows(benchmark, bench_json):
    sizes = tuple(scale(size) for size in PROOF_TABLE_SIZES)
    rows = benchmark.pedantic(proof_sizes, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Inclusion proof size vs table size"))
    bench_json.add("proof_size", rows)
    assert rows[-1]["proof_depth"] <= 2 * max(1, rows[-1]["rows"] - 1).bit_length()


def test_owner_answer_check(benchmark, bench_json):
    sizes = tuple(scale(size) for size in PROOF_TABLE_SIZES)
    rows = benchmark.pedantic(answer_check_costs, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Owner answer check of a verified select"))
    bench_json.add("answer_check", rows)
    assert all(row["cached_ms"] < row["cold_ms"] for row in rows if row["rows"] >= 4000)


def test_splice_vs_full_build(benchmark, bench_json):
    sizes = tuple(scale(size) for size in PROOF_TABLE_SIZES)
    rows = benchmark.pedantic(splice_costs, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Merkle upkeep of one insert: splice vs full build"))
    bench_json.add("splice", rows)
    assert all(row["splice_ms"] < row["full_build_ms"] for row in rows if row["rows"] >= 4000)


def test_owner_verify_throughput(benchmark, bench_json):
    rows = benchmark.pedantic(
        verify_throughput,
        args=(scale(VERIFY_ROWS), scale(VERIFY_PROOFS)),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Owner-side verification throughput"))
    bench_json.add("verify_throughput", rows)
    assert rows[0]["proofs_per_s"] > 0


def test_signed_reply_overhead(benchmark, bench_json):
    rows = benchmark.pedantic(
        signed_reply_overhead, args=(QUERY_REPEATS,), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Verified vs anonymous query round trips"))
    bench_json.add("signed_reply", rows)
    by_mode = {row["mode"]: row for row in rows}
    bench_json.add(
        "signed_reply_summary",
        [],
        verified_vs_unsigned_throughput_ratio=round(
            by_mode["verified"]["queries_per_s"] / by_mode["unsigned"]["queries_per_s"],
            4,
        ),
        pr5_signed_frame_ratio_baseline=0.8437,
    )
    assert by_mode["verified"]["queries_per_s"] > 0


def test_cas_retry_rate_under_contention(benchmark, bench_json):
    rows = benchmark.pedantic(
        cas_contention, args=(WRITERS, INSERTS_PER_WRITER), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Coordinated multi-writer contention"))
    bench_json.add("cas_contention", rows)
    # The boot outsource is the only full-view write of the run.
    assert rows[0]["full_view_writes"] == 1
