"""Materialisation throughput: per-cell loop vs batched.

The batched crypto hot path (``Prf.evaluate_many`` + ``encrypt_batch`` +
bulk XOR) exists to break the pure-Python encryption floor.  This module
measures the two materialisation modes on the job stream of a real
pipeline run:

* ``per_cell`` — the seed pipeline's loop: one ``cipher.encrypt`` per cell
  with an instance cache (reconstructed inline as the baseline),
* ``batched`` — ``materialize_row_plans`` (one PRF key schedule, bulk
  urandom, single XOR over concatenated buffers).

Both are byte-identical by contract (asserted here under a seeded
urandom); the JSON artifact records cells/s per mode and backend plus the
speedup.
"""

from __future__ import annotations

import os
import gc
import random
import statistics
import time

import pytest

from repro.api.pipeline import EncryptionPipeline
from repro.api.stages import materialize_row_plans
from repro.backend import get_backend, numpy_available
from repro.bench.harness import dataset_by_name
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.core.plan import (
    FreshCell,
    FreshValueFactory,
    InstanceCell,
    RandomCell,
)
from repro.crypto.keys import KeyGen
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.relational.table import Relation

from benchmarks.conftest import scale

BENCH_NAME = "materialize"

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: Full-scale row count; the hard asserts only apply at or above this size.
FULL_ROWS = 2000

#: Timed rounds per mode; the median is reported.  A single run of either
#: bench swings by +-30% with allocator and GC timing.
TIMED_RUNS = 5


def _legacy_materialize(relation, row_plans, cipher, fresh_factory):
    """The seed pipeline's per-cell loop, reconstructed as the baseline."""
    schema = relation.schema
    encrypted = Relation(schema, name=f"{relation.name}-legacy")
    instance_cache: dict[tuple[str, str, str], Ciphertext] = {}
    encrypt = cipher.encrypt
    materialize = fresh_factory.materialize
    cache_get = instance_cache.get
    for plan in row_plans:
        row = []
        cells = plan.cells
        for attr in schema:
            spec = cells[attr]
            spec_type = type(spec)
            if spec_type is InstanceCell:
                key = spec.cache_key()
                cached = cache_get(key)
                if cached is None:
                    cached = encrypt(spec.value, variant=spec.variant)
                    instance_cache[key] = cached
                row.append(cached)
            elif spec_type is RandomCell:
                row.append(encrypt(spec.value, variant=None))
            else:
                row.append(materialize(spec.token))
        encrypted.append(row)
    return encrypted


def _plan_rows(num_rows: int, backend_name: str):
    """Run the planning stages (MAX..FP) once; return the context's plans."""
    relation = dataset_by_name("orders", num_rows, seed=0)
    pipeline = EncryptionPipeline(
        key=KeyGen.symmetric_from_seed(0),
        config=F2Config(alpha=0.2, seed=0, backend=backend_name),
    )
    ctx = pipeline.new_context(relation)
    for stage in pipeline.stages[:4]:  # MAX, SSE, SYN, FP
        stage.run(ctx)
    return ctx


def _seeded_urandom(seed: int = 1234):
    rng = random.Random(seed)
    return lambda n: bytes(rng.getrandbits(8) for _ in range(n))


def _cell_jobs(ctx) -> list[tuple]:
    """The unique encryption jobs of the plan set (the crypto hot path)."""
    jobs: list[tuple] = []
    seen: set[tuple[str, str, str]] = set()
    for plan in ctx.row_plans:
        for attr in ctx.relation.schema:
            spec = plan.cells[attr]
            spec_type = type(spec)
            if spec_type is InstanceCell:
                key = spec.cache_key()
                if key not in seen:
                    seen.add(key)
                    jobs.append((spec.value, spec.variant))
            elif spec_type is RandomCell:
                jobs.append((spec.value, None))
    return jobs


def _median_seconds(modes: dict) -> dict:
    """Median wall time per mode over ``TIMED_RUNS`` interleaved rounds.

    Each round runs every mode once after a ``gc.collect()``, so no mode
    pays for another's garbage and slow machine drift hits all modes alike.
    """
    times: dict = {label: [] for label in modes}
    for _ in range(TIMED_RUNS):
        for label, run in modes.items():
            gc.collect()
            start = time.perf_counter()
            run()
            times[label].append(time.perf_counter() - start)
    return {label: statistics.median(samples) for label, samples in times.items()}


def _run_cell_modes(ctx, num_rows: int) -> list[dict]:
    """Time the pure cell-encryption job stream (no factory, no assembly)."""
    jobs = _cell_jobs(ctx)
    cipher = ctx.cipher
    seconds = _median_seconds(
        {
            "per_cell": lambda: [cipher.encrypt(v, variant=var) for v, var in jobs],
            "batched": lambda: cipher.encrypt_batch(jobs, backend=ctx.backend),
        }
    )
    return [
        {
            "backend": ctx.backend.name,
            "mode": label,
            "rows": num_rows,
            "jobs": len(jobs),
            "seconds": round(elapsed, 4),
            "cells_per_second": round(len(jobs) / elapsed) if elapsed > 0 else 0,
        }
        for label, elapsed in seconds.items()
    ]


def _run_modes(ctx, num_rows: int) -> list[dict]:
    """Time the two materialisation modes over one plan set."""
    cells = len(ctx.row_plans) * ctx.relation.num_attributes
    seed = ctx.config.seed
    seconds = _median_seconds(
        {
            "per_cell": lambda: _legacy_materialize(
                ctx.relation, ctx.row_plans, ctx.cipher, FreshValueFactory(seed=seed)
            ),
            "batched": lambda: materialize_row_plans(
                ctx.relation,
                ctx.row_plans,
                ctx.cipher,
                FreshValueFactory(seed=seed),
                None,
                backend=ctx.backend,
            ),
        }
    )
    return [
        {
            "backend": ctx.backend.name,
            "mode": label,
            "rows": num_rows,
            "row_plans": len(ctx.row_plans),
            "cells": cells,
            "seconds": round(elapsed, 4),
            "cells_per_second": round(cells / elapsed) if elapsed > 0 else 0,
        }
        for label, elapsed in seconds.items()
    ]


def _assert_modes_byte_identical(ctx) -> None:
    """Both modes must produce the same bytes under a pinned entropy stream."""
    import repro.crypto.probabilistic as prob_module

    real_urandom = prob_module.os.urandom
    try:
        prob_module.os.urandom = _seeded_urandom()
        legacy = _legacy_materialize(
            ctx.relation, ctx.row_plans, ctx.cipher, FreshValueFactory(seed=ctx.config.seed)
        )
        prob_module.os.urandom = _seeded_urandom()
        batched, _ = materialize_row_plans(
            ctx.relation,
            ctx.row_plans,
            ctx.cipher,
            FreshValueFactory(seed=ctx.config.seed),
            None,
            backend=ctx.backend,
        )
    finally:
        prob_module.os.urandom = real_urandom
    assert batched == legacy, "batched materialisation changed the bytes"


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_cell_encryption_throughput(benchmark, bench_json, backend_name):
    """The crypto hot path alone: unique encryption jobs, two modes."""
    num_rows = scale(FULL_ROWS)
    ctx = _plan_rows(num_rows, backend_name)
    rows = benchmark.pedantic(
        _run_cell_modes, args=(ctx, num_rows), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            rows,
            title=f"Cell encryption throughput ({backend_name} backend, orders {num_rows})",
        )
    )
    by_mode = {row["mode"]: row for row in rows}
    batched_speedup = by_mode["per_cell"]["seconds"] / by_mode["batched"]["seconds"]
    metadata = {
        "cpu_count": os.cpu_count(),
        f"{backend_name}_encrypt_per_cell_cells_per_second": by_mode["per_cell"][
            "cells_per_second"
        ],
        f"{backend_name}_encrypt_batched_cells_per_second": by_mode["batched"][
            "cells_per_second"
        ],
        f"{backend_name}_encrypt_speedup_batched": round(batched_speedup, 2),
    }
    bench_json.add(f"cell_encryption_{backend_name}", rows, **metadata)
    if num_rows >= FULL_ROWS:
        # The vectorised batch path must beat the per-cell loop outright.
        assert batched_speedup >= 1.1, (
            f"batched cell encryption under 1.1x the per-cell loop: {by_mode}"
        )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_materialize_throughput(benchmark, bench_json, backend_name):
    num_rows = scale(FULL_ROWS)
    ctx = _plan_rows(num_rows, backend_name)
    _assert_modes_byte_identical(ctx)
    rows = benchmark.pedantic(
        _run_modes, args=(ctx, num_rows), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            rows,
            title=f"Materialisation throughput ({backend_name} backend, orders {num_rows})",
        )
    )
    by_mode = {row["mode"]: row for row in rows}
    batched_speedup = by_mode["per_cell"]["seconds"] / by_mode["batched"]["seconds"]
    metadata = {
        "cpu_count": os.cpu_count(),
        f"{backend_name}_cells": by_mode["per_cell"]["cells"],
        f"{backend_name}_per_cell_cells_per_second": by_mode["per_cell"]["cells_per_second"],
        f"{backend_name}_batched_cells_per_second": by_mode["batched"]["cells_per_second"],
        f"{backend_name}_materialize_speedup_batched": round(batched_speedup, 2),
    }
    bench_json.add(f"materialize_{backend_name}", rows, **metadata)
    assert all(row["seconds"] > 0 for row in rows)
    if num_rows >= FULL_ROWS:
        # The whole stage includes the fresh-value factory (fixed-cost RNG
        # whose draw pattern is pinned by byte-identity) and the row
        # assembly, so the batch win is diluted; guard against regression.
        assert batched_speedup >= 0.8, (
            f"batched materialisation regressed the per-cell loop: {by_mode}"
        )
