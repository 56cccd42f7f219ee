"""End-to-end owner↔provider benchmark of F2 over signed TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload select-8k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One run starts the provider (``perfbench/provider.py``, segment storage
engine, tenant registry) as its own process, sets up a ``RemoteOwnerSession``
with a tenant credential over a ``ProtocolClient``/``SocketTransport``, and
drives the workload's closed loop for ``--seconds`` of operation time at the
reference pace (a fixed number of operations per workload).
Every operation is checked by an oracle outside the timed interval.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a separate, traced loop) with ``--trace 1``.
End-to-end timings are scaled to a reference pace of the host (``pace.py``);
the lines before the result give them unscaled.

``--smoke`` runs every workload on a tiny table in both modes and checks
that each metric named in ``BENCHMARK.json`` is emitted.

The environment is pinned before anything is imported: the run re-executes
itself with ``PYTHONHASHSEED=0`` (``generate_fd_table`` derives a column
from ``hash()``), ``REPRO_BACKEND=python``, and ``REPRO_WORKERS``,
``REPRO_VERIFY``, ``REPRO_METRICS`` and ``REPRO_TRACE`` unset (metrics and
tracing at their default, on).  Provider processes inherit it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

PINNED = {"PYTHONHASHSEED": "0", "REPRO_BACKEND": "python"}
CLEARED = ("REPRO_WORKERS", "REPRO_VERIFY", "REPRO_METRICS", "REPRO_TRACE")


def pinned_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args: argparse.Namespace) -> dict[str, object]:
    env = {key: os.environ.get(key) for key in (*PINNED, *CLEARED)}
    env.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        commit=commit(),
    )
    return env


def run_one(workload: str, seed: int, seconds: float, trace: bool, rows=None) -> dict:
    from workloads import Bench

    run_dir = STATE / f"run-{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, trace, run_dir, dict(os.environ), rows=rows)
    try:
        return bench.run()
    finally:
        if bench.provider is not None and bench.provider.process.poll() is None:
            bench.provider.process.kill()
            bench.provider.process.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            STATE.rmdir()
        except OSError:  # another run still uses it
            pass


def smoke() -> int:
    """Tiny runs of every workload in both modes; every metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_one(workload["name"], 1, 0.5, trace, rows=300)
            wanted = {metric["name"]: metric["unit"] for metric in spec[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{workload['name']} {key}: {sorted(set(got) ^ set(wanted))}")
            if result["failed"]:
                problems.append(f"{workload['name']}: {result['failures']}")
            print(f"smoke {workload['name']} trace={int(trace)}: {len(got)} metrics")
    for problem in problems:
        print("FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["select-8k", "update-2k"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    env = pinned_env()
    if any(os.environ.get(key) != env.get(key) for key in (*PINNED, *CLEARED, "PYTHONPATH")):
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.smoke:
        return smoke()
    print("perfbench environment:", json.dumps(environment(args)))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print("failed:", failure)
    if "table" in result:
        print(result["table"])
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
