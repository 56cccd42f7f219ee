"""Figure 7 — encryption time per step for growing data sizes.

Paper observation: every step's time grows with the data size; the SSE step is
super-linear in the number of equivalence classes and dominates on the
synthetic dataset, while MAX and FP matter more on Orders.

Beyond the paper, this module also times the same TANE + encryption hot
path on the pure-Python reference backend and on the NumPy backend
(``[perf]`` extra), and records the speedup in ``BENCH_fig7.json``.  NumPy
is kept as a memory-for-speed trade, not gated on a speedup; the gate is
Figure 7's own claim that the time grows near-linearly with the rows.
"""

from __future__ import annotations

from repro.backend import numpy_available
from repro.bench.reporting import format_table
from repro.bench.sweeps import fig7_backend_scalability, fig7_time_vs_size

from benchmarks.conftest import scale

BENCH_NAME = "fig7"

#: Sizes of the backend comparison.
BACKEND_SIZES = (1200, 2400, 4800, 9600, 12800)

#: How far above linear growth the pure-Python time may go from the
#: smallest size to the largest one.
LINEAR_GROWTH_SLACK = 1.5


def test_fig7a_synthetic_time_vs_size(benchmark, bench_json):
    sizes = tuple(scale(size) for size in (400, 800, 1600, 3200))
    rows = benchmark.pedantic(
        fig7_time_vs_size,
        kwargs={"dataset": "synthetic", "sizes": sizes, "alpha": 0.25},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figure 7 (a): synthetic — per-step time vs data size"))
    bench_json.add("fig7a_synthetic_per_step", rows)
    totals = [row["total_seconds"] for row in rows]
    assert totals == sorted(totals), "encryption time must grow with the data size"


def test_fig7b_orders_time_vs_size(benchmark, bench_json):
    sizes = tuple(scale(size) for size in (400, 800, 1600, 3200))
    rows = benchmark.pedantic(
        fig7_time_vs_size,
        kwargs={"dataset": "orders", "sizes": sizes, "alpha": 0.2},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Figure 7 (b): orders — per-step time vs data size"))
    bench_json.add("fig7b_orders_per_step", rows)
    totals = [row["total_seconds"] for row in rows]
    assert totals[-1] > totals[0], "encryption time must grow with the data size"


def test_fig7c_backend_scalability_orders(benchmark, bench_json):
    """TANE + encryption wall time: pure-Python vs NumPy backend (orders)."""
    sizes = tuple(scale(size) for size in BACKEND_SIZES)
    rows = benchmark.pedantic(
        fig7_backend_scalability,
        kwargs={"dataset": "orders", "sizes": sizes, "alpha": 0.2},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows, title="Figure 7 (c): orders — TANE + encryption wall time per backend"
        )
    )
    largest = rows[-1]
    metadata = {
        "backend_comparison_dataset": "orders",
        "backend_comparison_sizes": list(sizes),
        "tane_plus_encrypt_python_seconds_at_largest": largest.get("python_total_seconds"),
        "tane_plus_encrypt_numpy_seconds_at_largest": largest.get("numpy_total_seconds"),
        "numpy_speedup_at_largest_size": largest.get("numpy_speedup"),
    }
    bench_json.add("fig7c_backend_scalability_orders", rows, **metadata)
    assert all(row["python_total_seconds"] > 0 for row in rows)
    if numpy_available():
        assert all("numpy_speedup" in row for row in rows)
    # Figure 7: the time grows with the data size, and near-linearly.
    smallest = rows[0]
    growth = largest["python_total_seconds"] / smallest["python_total_seconds"]
    row_ratio = largest["rows"] / smallest["rows"]
    assert 1.0 < growth <= LINEAR_GROWTH_SLACK * row_ratio, (
        f"TANE + encryption time grew {growth:.2f}x for {row_ratio:.2f}x the rows"
    )


def test_fig7d_backend_scalability_synthetic(benchmark, bench_json):
    """The same comparison on synthetic (collision-light MASs, smaller win)."""
    sizes = tuple(scale(size) for size in (1600, 3200, 6400))
    rows = benchmark.pedantic(
        fig7_backend_scalability,
        kwargs={"dataset": "synthetic", "sizes": sizes, "alpha": 0.25},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows, title="Figure 7 (d): synthetic — TANE + encryption wall time per backend"
        )
    )
    bench_json.add("fig7d_backend_scalability_synthetic", rows)
    assert all(row["python_total_seconds"] > 0 for row in rows)
