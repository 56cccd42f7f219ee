"""Ablation benchmarks for the design choices called out in DESIGN.md.

Three ablations, none of which is a paper figure but each of which probes a
design decision of the scheme:

* **Split factor** — larger ``omega`` splits classes into more instances;
  the optimal-split-point machinery keeps the added copies bounded, so the
  space overhead must not explode with ``omega``.
* **MAS discovery certificate** — on a wide schema (customer, 21
  attributes) the DUCC walk computes a small fraction of the lattice's
  ``2**m - 1`` partitions, and its answer is certified exact from the
  partitions themselves: every MAS is non-unique, every one-attribute
  extension of it is unique, and every minimal set outside all MASs (a
  minimal hitting set of their complements) is unique, so no MAS is missing.
* **Step 4 on/off** — skipping false-positive elimination is cheaper but
  introduces FDs that do not hold on the plaintext (quantified here).
"""

from __future__ import annotations

from repro.bench.harness import dataset_by_name, run_f2
from repro.bench.reporting import format_table
from repro.fd.mas import find_mas_with_stats, minimal_unique_sets
from repro.fd.tane import tane
from repro.fd.verify import fd_holds

from benchmarks.conftest import scale

BENCH_NAME = "ablation"


def test_ablation_split_factor(benchmark, bench_json):
    # A skewed table: one dominant (Zipcode, City) profile plus many small
    # ones, so that splitting the dominant equivalence class genuinely reduces
    # the copies the scaling phase must add.
    from repro.relational.table import Relation

    rows_data = []
    for index in range(scale(64)):
        rows_data.append(["07030", "Hoboken", f"hot-street-{index}"])
    for index in range(scale(60)):
        rows_data.append([f"zip-{index}", f"city-{index}", f"cold-street-{index}-a"])
        rows_data.append([f"zip-{index}", f"city-{index}", f"cold-street-{index}-b"])
    relation = Relation(["Zipcode", "City", "Street"], rows_data, name="skewed-ablation")

    def sweep():
        results = []
        for omega in (1, 2, 4, 8):
            encrypted = run_f2(relation, alpha=0.25, split_factor=omega, seed=0)
            results.append(
                {
                    "split_factor": omega,
                    "total_overhead": round(encrypted.stats.total_overhead_ratio, 4),
                    "split_classes": encrypted.stats.num_split_ecs,
                    "seconds_total": round(encrypted.stats.seconds_total, 4),
                }
            )
        return results

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: split factor omega (skewed table)"))
    bench_json.add("ablation_split_factor", rows)
    by_factor = {row["split_factor"]: row for row in rows}
    # With omega > 1 the dominant class is split, and the split must not
    # increase the overhead compared to omega = 1 (that is what the optimal
    # split point guarantees).
    assert by_factor[2]["split_classes"] >= 1
    assert by_factor[2]["total_overhead"] <= by_factor[1]["total_overhead"] + 1e-9
    assert by_factor[8]["total_overhead"] <= by_factor[1]["total_overhead"] + 1e-9


def test_ablation_mas_certificate(benchmark, bench_json):
    from repro.relational.partition import Partition

    relation = dataset_by_name("customer", scale(700), seed=0)
    result = benchmark.pedantic(
        find_mas_with_stats, args=(relation,), kwargs={"backend": "python"}, rounds=1, iterations=1
    )

    def unique(attrs) -> bool:
        partition = Partition.build(relation, frozenset(attrs), backend="python")
        return not partition.non_singleton_classes()

    mas_sets = [mas.as_set for mas in result.masses]
    border = minimal_unique_sets(mas_sets, relation.attributes)
    row = {
        "dataset": "customer",
        "rows": relation.num_rows,
        "attributes": relation.num_attributes,
        "masses": [str(mas) for mas in result.masses],
        "partitions_computed": result.partitions_computed,
        "lattice_sets": 2**relation.num_attributes - 1,
        "minimal_unique_sets": len(border),
        "seconds": round(result.elapsed_seconds, 4),
    }
    print()
    print(
        format_table(
            [{**row, "masses": len(row["masses"])}],
            title="Ablation: MAS discovery certificate (customer, 21 attributes)",
        )
    )
    bench_json.add("ablation_mas_certificate", [row])
    for attrs in mas_sets:
        assert not unique(attrs), f"MAS {sorted(attrs)} is unique"
        for extra in set(relation.attributes) - attrs:
            assert unique(attrs | {extra}), f"MAS {sorted(attrs)} + {extra} is non-unique"
    # A missing MAS would contain a non-unique minimal hitting set.
    for attrs in border:
        assert unique(attrs), f"minimal hitting set {sorted(attrs)} is non-unique"
    assert result.partitions_computed < row["lattice_sets"]


def test_ablation_false_positive_elimination(benchmark, bench_json):
    relation = dataset_by_name("orders", scale(500), seed=0)

    def compare():
        with_step4 = run_f2(relation, alpha=0.25, seed=0)
        without_step4 = run_f2(relation, alpha=0.25, seed=0, eliminate_false_positives=False)
        plain_fds = tane(relation, max_lhs_size=3)

        def false_positives(encrypted):
            cipher_fds = tane(encrypted.server_view(), max_lhs_size=3)
            return sum(
                1
                for fd in cipher_fds
                if not plain_fds.implies(fd) and not fd_holds(relation, fd)
            )

        return [
            {
                "configuration": "with step 4",
                "false_positive_fds": false_positives(with_step4),
                "rows_added_fp": with_step4.stats.rows_added_false_positive,
                "seconds_fp": round(with_step4.stats.seconds_fp, 4),
            },
            {
                "configuration": "without step 4",
                "false_positive_fds": false_positives(without_step4),
                "rows_added_fp": without_step4.stats.rows_added_false_positive,
                "seconds_fp": round(without_step4.stats.seconds_fp, 4),
            },
        ]

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: Step 4 (false-positive elimination) on orders"))
    bench_json.add("ablation_false_positive", rows)
    with_step4, without_step4 = rows
    assert with_step4["false_positive_fds"] == 0
    assert without_step4["false_positive_fds"] >= with_step4["false_positive_fds"]
