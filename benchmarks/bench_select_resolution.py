"""Owner-side select resolution: cost per matched record as the table grows.

Not a figure from the paper.  After the provider filters ciphertext rows,
the owner turns the matched row indexes into the plaintext selection
(:meth:`DataOwner.decrypt_plan_result`): provenance lookups through the
table's cached :class:`~repro.core.encrypted.ProvenanceIndex`, then the
matched records read from the owner's plaintext.  That cost should follow
the match count, not the table size:

* ``none`` — a value absent from the table: nothing matches, so resolution
  time stays flat however large the table is;
* ``eq`` / ``and2`` / ``or2`` — the select mix of ``perfbench``; the time
  per returned record stays flat across sizes;
* ``decrypt_cells_per_result_cell`` — cells through the cipher ÷ cells
  returned: 0, because the owner holds every returned record in clear
  (asserted).

Plan (token derivation, served from the owner's token cache once warm) and
the leakage report are timed alongside.  Results land in
``BENCH_select.json``.
"""

from __future__ import annotations

import statistics
import time

from repro.api.session import DataOwner, ServiceProvider
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.datasets import generate_fd_table
from repro.query import And, Eq, Or

from benchmarks.conftest import scale

BENCH_NAME = "select"

TABLE_SIZES = (1000, 4000, 8000)
REPEATS = 7


def outsourced(num_rows: int) -> tuple[DataOwner, ServiceProvider]:
    owner = DataOwner.from_seed(7, config=F2Config(alpha=0.2, seed=11, backend="python"))
    owner.outsource(
        generate_fd_table(num_rows, num_zipcodes=40, num_extra_columns=2, seed=1)
    )
    provider = ServiceProvider(backend="python")
    provider.receive(owner.server_view())
    return owner, provider


def predicates(owner: DataOwner) -> dict[str, object]:
    plaintext = owner.plaintext
    zipcode, city = plaintext.row(0)[:2]
    other = next(z for z in plaintext.column("Zipcode") if z != zipcode)
    return {
        "none": Eq("Zipcode", "absent-zipcode"),
        "eq": Eq("Zipcode", zipcode),
        "and2": And((Eq("Zipcode", zipcode), Eq("City", city))),
        "or2": Or((Eq("Zipcode", zipcode), Eq("Zipcode", other))),
    }


def median_seconds(call) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def resolve_sweep(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        owner, provider = outsourced(num_rows)
        cipher = owner.pipeline.cipher
        decrypted: list[int] = []
        batch = cipher.decrypt_batch

        def counted(ciphertexts, backend=None):
            decrypted.append(len(ciphertexts))
            return batch(ciphertexts, backend)

        cipher.decrypt_batch = counted
        for label, predicate in predicates(owner).items():
            plan = owner.plan_query(predicate)
            result = provider.answer_plan_query(plan.server)
            # Warm: the index is built and the token cached by the first call.
            got = owner.decrypt_plan_result(plan, result)
            assert list(got.rows()) == list(owner.select_plaintext_where(predicate).rows())
            decrypted.clear()
            owner.decrypt_plan_result(plan, result)
            cells = got.num_rows * got.num_attributes
            ratio = round(sum(decrypted) / cells, 3) if cells else None
            resolve = median_seconds(lambda: owner.decrypt_plan_result(plan, result))
            plan_time = median_seconds(lambda: owner.plan_query(predicate))
            leakage = median_seconds(lambda: owner.query_leakage_report(plan, result))
            rows.append(
                {
                    "rows": owner.encrypted.num_rows,
                    "predicate": label,
                    "matched_records": got.num_rows,
                    "resolve_ms": round(resolve * 1000, 4),
                    "us_per_record": round(resolve * 1e6 / got.num_rows, 2)
                    if got.num_rows
                    else None,
                    "decrypt_cells_per_result_cell": ratio,
                    "plan_ms": round(plan_time * 1000, 4),
                    "leakage_ms": round(leakage * 1000, 4),
                }
            )
    return rows


def test_select_resolution(benchmark, bench_json):
    sizes = tuple(scale(size) for size in TABLE_SIZES)
    rows = benchmark.pedantic(resolve_sweep, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Owner-side select resolution"))
    bench_json.add("resolve", rows)

    def at(size_rank: int, label: str) -> dict:
        ordered = sorted({row["rows"] for row in rows})
        target = ordered[size_rank]
        return next(r for r in rows if r["rows"] == target and r["predicate"] == label)

    smallest_eq, largest_eq = at(0, "eq"), at(-1, "eq")
    bench_json.add(
        "summary",
        [],
        smallest_rows=smallest_eq["rows"],
        largest_rows=largest_eq["rows"],
        none_resolve_ms_smallest=at(0, "none")["resolve_ms"],
        none_resolve_ms_largest=at(-1, "none")["resolve_ms"],
        eq_us_per_record_smallest=smallest_eq["us_per_record"],
        eq_us_per_record_largest=largest_eq["us_per_record"],
    )
    # A query that matches nothing resolves without touching the table.
    assert at(-1, "none")["matched_records"] == 0
    # Resolution reads the owner's plaintext: nothing goes through the cipher.
    assert all(
        row["decrypt_cells_per_result_cell"] == 0
        for row in rows
        if row["decrypt_cells_per_result_cell"] is not None
    )
