"""Command-line interface: ``f2-repro``.

All data-path subcommands drive the protocol API of :mod:`repro.api` — the
same :class:`~repro.api.session.DataOwner` / :class:`~repro.api.session.ServiceProvider`
surface used by the examples and the benchmark harness.

Subcommands
-----------
``encrypt``
    Encrypt a CSV table with F2 (data-owner side) and write the ciphertext
    CSV plus a summary; ``--stage-times`` prints the per-stage timing
    recorded by the pipeline hooks.
``insert``
    Incrementally append a batch CSV to an already encrypted table: re-runs
    the owner's pipeline reusing the retained ECG plans and reports whether
    the update ran incrementally or fell back to a full re-encryption.
``discover``
    Run TANE FD discovery on a CSV table (plaintext or ciphertext) — this is
    what the service provider runs.
``serve``
    Run a provider as a localhost TCP protocol server: it stores received
    ciphertext relations (persisting them under ``--storage`` as the
    on-disk columnar segment stores of :mod:`repro.store`, so restarts
    resume serving), answers discovery requests, and filters rows against
    owner-issued equality search tokens.  With ``--tenants REGISTRY.json``
    the server requires authenticated multi-tenant sessions: every request
    must arrive signed under a credential minted by ``admin``.
    ``--verify-on-start`` refuses to boot over a storage directory that
    fails the same integrity check ``verify`` runs.
``verify``
    Check every table under a ``serve --storage`` directory offline: the
    segment engine's full-CRC ``verify()`` pass plus a Merkle-root
    recomputation against the root recorded in the committed manifest.  A
    store that does not open fails as well.  Any failure exits 7
    (``INTEGRITY_VIOLATION``).
``query``
    Drive the owner side against a running ``serve`` instance: encrypt the
    CSV locally (seeded, so re-runs are byte-identical), ship the server
    view, plan the boolean predicate (legacy ``ATTRIBUTE VALUE`` pair or a
    full expression like ``"City = Hoboken and Zipcode in (07030, 07302)"``),
    execute the server part as bitset algebra over ciphertext, and print the
    decrypted matching rows as CSV plus a per-query leakage summary;
    ``--explain`` prints the plan (server tokens vs owner residual) without
    contacting the server; ``--token f2tok1...`` (or ``--token @file``)
    authenticates against a tenanted server.
``stats``
    Fetch a running provider's live observability surface over the
    protocol: per-table store stats, request/error counters, latency
    histograms, recent trace trees, and the slow-query ring.  ``--json``
    prints the raw document, ``--watch N`` refreshes every N seconds,
    ``--trace-id`` pulls the server half of one specific trace.  On an
    authenticated server the owner capability is required (``--token``).
``admin``
    Manage the tenant registry of a ``--tenants`` deployment: ``mint`` /
    ``rotate`` print a fresh credential token for a tenant capability
    (``owner`` or read-only ``analyst``), ``revoke`` disables one, ``list``
    shows every key (never the secrets).

Exit codes: ``0`` success, ``2`` usage/query errors, ``3`` transport and
wire failures, ``4`` authentication failures (``AUTH_*``), ``5`` capability
violations (``FORBIDDEN``), ``6`` sequence/delta/version conflicts
(``BAD_SEQUENCE`` / ``DELTA_MISMATCH`` / ``VERSION_CONFLICT``), ``7``
integrity violations (``INTEGRITY_VIOLATION`` — tampered, rolled-back, or
forked stores and replies) — the stable :class:`repro.api.auth.ErrorCode`
travels on the wire, so scripts can branch without parsing messages.
``attack``
    Encrypt a generated dataset and report the empirical success of the
    frequency-analysis and Kerckhoffs attacks against it and against the
    deterministic baseline.
``bench``
    Run one of the paper's experiment sweeps and print the result table.
``dataset``
    Generate one of the evaluation datasets as CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api.pipeline import StageRecorder
from repro.api.session import DataOwner, ServiceProvider
from repro.backend import available_backends
from repro.exceptions import (
    BackendUnavailableError,
    ConfigurationError,
    IntegrityError,
    ProtocolError,
    QueryError,
    StoreError,
    WireError,
)
from repro.bench import (
    fig6_time_vs_alpha,
    fig7_backend_scalability,
    fig7_time_vs_size,
    fig8_baseline_comparison,
    fig9_overhead,
    fig10_discovery_overhead,
    format_table,
    sec54_local_vs_outsourcing,
    security_attack_evaluation,
    table1_dataset_description,
    write_csv,
)
from repro.bench.harness import dataset_by_name
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.relational.csvio import read_csv, write_csv as write_relation_csv

_SWEEPS = {
    "table1": table1_dataset_description,
    "fig6": fig6_time_vs_alpha,
    "fig7": fig7_time_vs_size,
    "fig7backends": fig7_backend_scalability,
    "fig8": fig8_baseline_comparison,
    "fig9": fig9_overhead,
    "fig10": fig10_discovery_overhead,
    "sec54": sec54_local_vs_outsourcing,
    "security": security_attack_evaluation,
}


def _add_backend_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--backend",
        choices=["python", "numpy"],
        default=None,
        help="compute backend (default: REPRO_BACKEND env var, then python); "
        "numpy requires the [perf] extra",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2-repro",
        description="F2: frequency-hiding, FD-preserving encryption (ICDE 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    encrypt = subparsers.add_parser("encrypt", help="encrypt a CSV table with F2")
    encrypt.add_argument("input", help="plaintext CSV file (header row required)")
    encrypt.add_argument("output", help="ciphertext CSV file to write")
    encrypt.add_argument("--alpha", type=float, default=0.2, help="alpha-security threshold")
    encrypt.add_argument("--split-factor", type=int, default=2, help="split factor (omega)")
    encrypt.add_argument("--key-seed", type=int, default=None, help="derive the key from a seed")
    encrypt.add_argument("--summary", default=None, help="optional JSON summary output path")
    encrypt.add_argument(
        "--stage-times",
        action="store_true",
        help="print per-stage pipeline timings and throughput (cells/s)",
    )
    _add_backend_flag(encrypt)

    insert = subparsers.add_parser(
        "insert", help="incrementally append a batch CSV to an encrypted table"
    )
    insert.add_argument("input", help="plaintext CSV of the already outsourced table")
    insert.add_argument("batch", help="plaintext CSV with the rows to append (same schema)")
    insert.add_argument("output", help="ciphertext CSV of the updated table")
    insert.add_argument("--alpha", type=float, default=0.2, help="alpha-security threshold")
    insert.add_argument("--split-factor", type=int, default=2, help="split factor (omega)")
    insert.add_argument("--key-seed", type=int, default=None, help="derive the key from a seed")
    insert.add_argument("--summary", default=None, help="optional JSON summary output path")
    _add_backend_flag(insert)

    discover = subparsers.add_parser("discover", help="run TANE FD discovery on a CSV table")
    discover.add_argument("input", help="CSV file (plaintext or ciphertext)")
    discover.add_argument("--max-lhs", type=int, default=None, help="cap the LHS size")
    _add_backend_flag(discover)

    serve = subparsers.add_parser(
        "serve", help="run a service provider as a localhost TCP protocol server"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9077, help="TCP port (0 picks a free one)")
    serve.add_argument(
        "--storage",
        default=None,
        help="storage directory: received tables persist here as "
        "append-only columnar segment stores and are reloaded on restart "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening (for scripts)",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        metavar="REGISTRY",
        help="tenant registry JSON (see `f2-repro admin`): require "
        "authenticated multi-tenant sessions; unauthenticated requests are "
        "rejected unless --allow-anonymous is also given",
    )
    serve.add_argument(
        "--allow-anonymous",
        action="store_true",
        help="with --tenants: still accept unauthenticated requests "
        "(they act as the implicit local tenant)",
    )
    serve.add_argument(
        "--verify-on-start",
        action="store_true",
        help="with --storage: run the `verify` integrity check over the "
        "restored stores and refuse to serve if any table fails",
    )
    serve.add_argument(
        "--metrics-file",
        default=None,
        metavar="PATH",
        help="periodically dump the metrics registry here: Prometheus text "
        "at PATH plus JSON at PATH.json (a PATH ending in .json dumps JSON "
        "only); writes are atomic (tmp + rename) so scrapers never see a "
        "torn file",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds between --metrics-file dumps (default 10)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log any request slower than MS milliseconds with its full "
        "trace tree (channel repro.obs.slowlog; also kept in the stats "
        "ring served by `f2-repro stats`)",
    )
    _add_backend_flag(serve)

    stats = subparsers.add_parser(
        "stats",
        help="live stats of a running `serve` provider",
        description=(
            "Fetch the provider's observability surface over the protocol: "
            "per-table store stats, request/error counters, latency "
            "histograms, recent traces, and the slow-query ring. Requires "
            "the owner capability on an authenticated server."
        ),
    )
    stats.add_argument("--host", default="127.0.0.1", help="server address")
    stats.add_argument("--port", type=int, default=9077, help="server TCP port")
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the raw stats document as JSON instead of the summary",
    )
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh every SECONDS until interrupted",
    )
    stats.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="fetch only the server-side spans of this trace id "
        "(e.g. a client's last_trace_id or a slow-query log line)",
    )
    stats.add_argument(
        "--no-metrics",
        action="store_true",
        help="omit the metrics registry snapshot from the reply",
    )
    stats.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help="credential token for an authenticated server (owner "
        "capability; f2tok1. string or @path-to-a-file holding it)",
    )

    query = subparsers.add_parser(
        "query",
        help="boolean selection against a running `serve` provider",
        description=(
            "Query the outsourced table. Either the legacy two-argument form "
            "`query data.csv City Hoboken` (equality) or a single predicate "
            "expression: `query data.csv \"City = Hoboken and (Zipcode in "
            "(07030, 07302) or Side != N)\"`. Supported: =, !=, in (...), "
            "not in (...), and, or, not, parentheses; quote values with "
            "spaces. Use --explain to print the query plan (server tokens "
            "vs owner residual) without contacting the server."
        ),
    )
    query.add_argument("input", help="the owner's plaintext CSV (header row required)")
    query.add_argument(
        "predicate",
        nargs="+",
        metavar="PREDICATE",
        help="either `ATTRIBUTE VALUE` (legacy equality form) or one "
        "predicate expression string",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the query plan (server part, tokens, owner residual) "
        "and exit without contacting the server",
    )
    query.add_argument("--host", default="127.0.0.1", help="server address")
    query.add_argument("--port", type=int, default=9077, help="server TCP port")
    query.add_argument("--table-id", default="default", help="server-side table id")
    query.add_argument(
        "--key-seed",
        type=int,
        required=True,
        help="key seed: the same seed always derives the same key and hence "
        "the same ciphertexts/search tokens",
    )
    query.add_argument("--alpha", type=float, default=0.2, help="alpha-security threshold")
    query.add_argument("--split-factor", type=int, default=2, help="split factor (omega)")
    query.add_argument(
        "--no-push",
        action="store_true",
        help="do not (re-)outsource before querying; the server must already "
        "hold this table (e.g. pushed by an identical seeded run)",
    )
    query.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help="credential token for an authenticated server (the f2tok1. "
        "string printed by `admin mint`, or @path-to-a-file holding it)",
    )
    _add_backend_flag(query)

    admin = subparsers.add_parser(
        "admin", help="manage the tenant registry of an authenticated server"
    )
    admin.add_argument(
        "--tenants",
        required=True,
        metavar="REGISTRY",
        help="path of the tenant registry JSON (created on first mint)",
    )
    admin_sub = admin.add_subparsers(dest="admin_command", required=True)
    for verb, text in (
        ("mint", "mint a fresh capability key (prints the credential token)"),
        ("rotate", "replace an existing key; the old secret dies immediately"),
    ):
        sub = admin_sub.add_parser(verb, help=text)
        sub.add_argument("tenant", help="tenant id")
        sub.add_argument(
            "--capability",
            choices=["owner", "analyst"],
            default="owner",
            help="owner = full rights; analyst = discover/query only",
        )
    revoke = admin_sub.add_parser("revoke", help="revoke a tenant's key(s)")
    revoke.add_argument("tenant", help="tenant id")
    revoke.add_argument(
        "--capability",
        choices=["owner", "analyst"],
        default=None,
        help="revoke only this capability (default: every key of the tenant)",
    )
    admin_sub.add_parser("list", help="list tenants and keys (never secrets)")

    attack = subparsers.add_parser("attack", help="evaluate frequency-analysis attacks")
    attack.add_argument("--dataset", default="orders", choices=["orders", "customer", "synthetic"])
    attack.add_argument("--rows", type=int, default=800)
    attack.add_argument("--trials", type=int, default=400)

    bench = subparsers.add_parser("bench", help="run one of the paper's experiment sweeps")
    bench.add_argument("experiment", choices=sorted(_SWEEPS))
    bench.add_argument("--csv", default=None, help="also write the results to this CSV path")

    dataset = subparsers.add_parser("dataset", help="generate an evaluation dataset as CSV")
    dataset.add_argument("name", choices=["orders", "customer", "synthetic"])
    dataset.add_argument("output", help="CSV file to write")
    dataset.add_argument("--rows", type=int, default=1000)
    dataset.add_argument("--seed", type=int, default=0)

    lint = subparsers.add_parser(
        "lint",
        help="run the invariant-enforcing static-analysis pass",
        description=(
            "Run repro.analysis over the source tree: entropy discipline, "
            "the plaintext/keyless-server boundary, lock and metrics "
            "discipline, wire exhaustiveness, and exception discipline in "
            "recovery paths. Exits 0 when clean, 1 with file:line "
            "diagnostics when a rule fires, 2 on usage errors."
        ),
    )
    lint.add_argument(
        "--root",
        default=".",
        help="project root containing src/repro (default: current directory)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="R",
        help="run only rule R (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--fix-baseline",
        action="store_true",
        help="rewrite .f2-lint-baseline.json from the current findings",
    )
    lint.add_argument(
        "--mypy",
        action="store_true",
        help="also run the mypy typed-API gate (skipped if mypy is absent)",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings",
    )

    verify = subparsers.add_parser(
        "verify",
        help="check the integrity of a serve instance's on-disk stores",
        description=(
            "Walk a `serve --storage` directory (tenant subdirectories "
            "included) and verify every table: segment stores get the "
            "engine's full-CRC verify() pass plus a Merkle-root "
            "recomputation against the committed manifest; a store that "
            "does not open fails. Exits 7 (INTEGRITY_VIOLATION) on any "
            "failure."
        ),
    )
    verify.add_argument("--storage", required=True, help="the serve --storage directory")
    verify.add_argument(
        "--table", default=None, help="restrict the check to one table id"
    )
    _add_backend_flag(verify)
    return parser


#: ErrorCode value -> process exit code (anything else in the protocol
#: family exits 3).  Kept here so scripts have one table to read.
ERROR_CODE_EXITS = {
    "AUTH_REQUIRED": 4,
    "AUTH_UNKNOWN_TENANT": 4,
    "AUTH_UNKNOWN_SESSION": 4,
    "AUTH_FAILED": 4,
    "AUTH_REVOKED": 4,
    "FORBIDDEN": 5,
    "BAD_SEQUENCE": 6,
    "DELTA_MISMATCH": 6,
    "VERSION_CONFLICT": 6,
    "INTEGRITY_VIOLATION": 7,
    # Explicit rows for the generic-failure family: all exit 3 today, but
    # a script branching on these names must never see the row vanish.
    "VERSION_UNSUPPORTED": 3,
    "UNKNOWN_TABLE": 3,
    "UNKNOWN_ATTRIBUTE": 3,
    "WIRE_MALFORMED": 3,
    "BAD_REQUEST": 3,
    "INTERNAL": 3,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "encrypt":
            return _cmd_encrypt(args)
        if args.command == "insert":
            return _cmd_insert(args)
        if args.command == "discover":
            return _cmd_discover(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "admin":
            return _cmd_admin(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "dataset":
            return _cmd_dataset(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except BackendUnavailableError as exc:
        installed = [name for name, ok in available_backends().items() if ok]
        print(f"error: {exc}", file=sys.stderr)
        print(f"available backends here: {', '.join(installed)}", file=sys.stderr)
        return 2
    except (QueryError, ConfigurationError) as exc:
        # Malformed predicate expressions, unknown attributes, bad flag
        # combinations (e.g. --verify-on-start without --storage).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        # Owner-side verification failures (tampered replies, rollback).
        print(f"error: {exc}", file=sys.stderr)
        print("error-code: INTEGRITY_VIOLATION", file=sys.stderr)
        return ERROR_CODE_EXITS["INTEGRITY_VIOLATION"]
    except StoreError as exc:
        # Unreadable / inconsistent on-disk table stores.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, WireError) as exc:
        # The stable wire-level ErrorCode (not the message text) picks the
        # exit code: auth 4, capability 5, sequence/delta conflicts 6, and 3
        # for the rest (connection failures, corrupted frames).
        print(f"error: {exc}", file=sys.stderr)
        code = getattr(exc, "code", "")
        if code and code != "INTERNAL":
            print(f"error-code: {code}", file=sys.stderr)
        return ERROR_CODE_EXITS.get(code, 3)
    return 2  # pragma: no cover - argparse enforces the choices


def _make_owner(args: argparse.Namespace, hooks=None) -> DataOwner:
    key = KeyGen.symmetric_from_seed(args.key_seed) if args.key_seed is not None else None
    config = F2Config(
        alpha=args.alpha,
        split_factor=args.split_factor,
        backend=args.backend,
    )
    return DataOwner(key=key, config=config, hooks=hooks)


def _emit_summary(summary: dict, summary_path: str | None) -> None:
    print(json.dumps(summary, indent=2, default=str))
    if summary_path:
        Path(summary_path).write_text(
            json.dumps(summary, indent=2, default=str), encoding="utf-8"
        )


def _cmd_encrypt(args: argparse.Namespace) -> int:
    relation = read_csv(args.input)
    recorder = StageRecorder()
    owner = _make_owner(args, hooks=[recorder])
    encrypted = owner.outsource(relation)
    write_relation_csv(encrypted.server_view(), args.output)
    summary = encrypted.describe()
    if args.stage_times:
        summary["stage_seconds"] = {
            record.stage: round(record.seconds, 6) for record in recorder.records
        }
        summary["stage_cells_per_second"] = {
            record.stage: round(record.cells_per_second, 1) for record in recorder.records
        }
    _emit_summary(summary, args.summary)
    return 0


def _cmd_insert(args: argparse.Namespace) -> int:
    relation = read_csv(args.input)
    batch = read_csv(args.batch)
    if batch.schema != relation.schema:
        print(
            f"error: batch schema {list(batch.attributes)} does not match "
            f"table schema {list(relation.attributes)}",
            file=sys.stderr,
        )
        return 2
    if batch.num_rows == 0:
        print("error: the batch CSV contains no rows to insert", file=sys.stderr)
        return 2
    owner = _make_owner(args)
    owner.outsource(relation)
    encrypted = owner.insert_rows(list(batch.rows()))
    write_relation_csv(encrypted.server_view(), args.output)
    summary = encrypted.describe()
    summary["update"] = owner.last_update_report.to_metadata()
    _emit_summary(summary, args.summary)
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    provider = ServiceProvider(backend=args.backend)
    provider.receive(read_csv(args.input))
    result = provider.discover_fds(max_lhs_size=args.max_lhs)
    for fd in result.fds:
        print(str(fd))
    print(f"# {len(result.fds)} functional dependencies", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.protocol import ProtocolServer, SocketProtocolServer

    server = ProtocolServer(
        backend=args.backend,
        storage_dir=args.storage,
        tenants=args.tenants,
        allow_anonymous=args.allow_anonymous if args.tenants else None,
        slow_query_ms=args.slow_query_ms,
    )
    if args.verify_on_start:
        if not args.storage:
            raise ConfigurationError("--verify-on-start requires --storage")
        reports = server.verify_stores()
        if not _print_verify_reports(reports):
            print("refusing to serve over a failed integrity check", file=sys.stderr)
            return ERROR_CODE_EXITS["INTEGRITY_VIOLATION"]
        print(f"verified {len(reports)} stored table(s) on start")
    sock_server = SocketProtocolServer(server, host=args.host, port=args.port)
    if args.port_file:
        Path(args.port_file).write_text(str(sock_server.port), encoding="utf-8")
    restored = server.table_ids(None)
    if restored:
        print(f"restored {len(restored)} table(s) from storage: {', '.join(restored)}")
    if server.tenants is not None:
        mode = "required" if not args.allow_anonymous else "optional (anonymous allowed)"
        print(
            f"tenant auth {mode}: {len(server.tenants.tenant_ids())} tenant(s) "
            f"from {args.tenants}"
        )
    dumper = None
    if args.metrics_file:
        from repro import obs

        if not obs.enabled():
            print(
                "warning: --metrics-file with REPRO_METRICS=0 dumps an "
                "empty registry",
                file=sys.stderr,
            )
        dumper = obs.MetricsDumper(
            args.metrics_file,
            interval=args.metrics_interval,
            collect=server.collect_store_gauges,
        )
        dumper.start()
        print(f"metrics dump every {args.metrics_interval:g}s to {args.metrics_file}")
    if args.slow_query_ms is not None:
        print(f"slow-query log armed at {args.slow_query_ms:g}ms")
    print(
        f"f2-repro provider listening on {sock_server.host}:{sock_server.port} "
        f"(storage: {args.storage or 'in-memory'}); Ctrl-C to stop"
    )
    try:
        sock_server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if dumper is not None:
            dumper.stop()
        sock_server.shutdown()
    return 0


def _read_credential(token_arg: "str | None"):
    """A :class:`Credential` from a ``--token`` value, or ``None``.

    Accepts the raw ``f2tok1.`` string or ``@path`` to a file holding it.
    """
    if not token_arg:
        return None
    token = token_arg
    if token.startswith("@"):
        try:
            token = Path(token[1:]).read_text(encoding="utf-8").strip()
        except OSError as exc:
            raise ConfigurationError(f"cannot read token file: {exc}") from exc
    from repro.api.auth import Credential

    return Credential.from_token(token)


def _print_stats_summary(doc: dict) -> None:
    """Human-readable rendering of a ``StatsReply`` document."""
    from repro.obs import render_trace

    uptime = float(doc.get("uptime_seconds") or 0.0)
    print(
        f"server: {doc.get('server', '?')}  "
        f"engine: {doc.get('storage_engine', '?')}  "
        f"uptime: {uptime:.0f}s  "
        f"metrics: {'on' if doc.get('metrics_enabled') else 'off'}"
    )
    tables = doc.get("tables") or {}
    if tables:
        print("tables:")
        for key, stats in sorted(tables.items()):
            if not isinstance(stats, dict) or "error" in stats:
                print(f"  {key}: <unavailable>")
                continue
            cache = stats.get("cache") or {}
            print(
                f"  {key}: rows={stats.get('num_rows')} "
                f"engine={stats.get('engine')} "
                f"version={stats.get('commit_version')} "
                f"cache_hits={cache.get('hits')} "
                f"cache_misses={cache.get('misses')}"
            )
    metrics = doc.get("metrics") or {}
    requests = [
        entry
        for entry in metrics.get("counters", [])
        if entry.get("name") == "server.requests"
    ]
    if requests:
        latencies = {
            tuple(sorted((hist.get("labels") or {}).items())): hist
            for hist in metrics.get("histograms", [])
            if hist.get("name") == "server.request_seconds"
        }
        print("requests:")
        for entry in sorted(
            requests, key=lambda item: (item.get("labels") or {}).get("kind", "")
        ):
            labels = entry.get("labels") or {}
            line = f"  {labels.get('kind', '?')}: {entry.get('value')} calls"
            hist = latencies.get(tuple(sorted(labels.items())))
            if hist and hist.get("count"):
                mean_ms = hist["sum"] / hist["count"] * 1000.0
                line += f", mean {mean_ms:.3f}ms"
            print(line)
    errors = doc.get("errors") or {}
    print(f"errors: {errors.get('total', 0)} total")
    for entry in (errors.get("recent") or [])[-5:]:
        trace = f" trace={entry['trace_id']}" if entry.get("trace_id") else ""
        print(f"  [{entry.get('code')}] {entry.get('kind')}{trace}: {entry.get('message')}")
    slow = doc.get("slow_queries") or {}
    threshold = slow.get("threshold_ms")
    if threshold is not None:
        print(f"slow queries (>{threshold:g}ms): {slow.get('total', 0)} total")
        for entry in (slow.get("recent") or [])[-3:]:
            print(
                f"  trace={entry.get('trace_id')} kind={entry.get('kind')} "
                f"ms={entry.get('ms', 0.0):.3f}"
            )
    traces = doc.get("traces") or []
    shown = [spans for spans in traces if spans][-3:]
    if shown:
        print(f"recent traces ({len(shown)} of {len(traces)}):")
        for spans in shown:
            trace_id = spans[0].get("trace_id", "?") if spans else "?"
            print(f"  trace {trace_id}:")
            for line in render_trace(spans).splitlines():
                print(f"    {line}")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.api.protocol import ProtocolClient, SocketTransport

    credential = _read_credential(args.token)
    client = ProtocolClient(SocketTransport(args.host, args.port))
    try:
        if credential is not None:
            client.authenticate(credential)
        while True:
            doc = client.stats(
                include_metrics=not args.no_metrics,
                trace_id=args.trace_id or "",
            )
            if args.json:
                print(json.dumps(doc, indent=2, default=str))
            else:
                _print_stats_summary(doc)
            if args.watch is None:
                break
            time.sleep(args.watch)
            if not args.json:
                print()
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return 0


def _parse_query_predicate(args: argparse.Namespace):
    """The predicate of a `query` invocation (legacy pair or expression)."""
    from repro.query import Eq, parse_predicate

    if len(args.predicate) == 1:
        return parse_predicate(args.predicate[0])
    if len(args.predicate) == 2:
        return Eq(args.predicate[0], args.predicate[1])
    raise QueryError(
        "expected either `ATTRIBUTE VALUE` or one predicate expression, got "
        f"{len(args.predicate)} arguments; quote the expression as a single "
        "argument"
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.api.protocol import ProtocolClient, SocketTransport
    from repro.api.session import RemoteOwnerSession
    from repro.query.ast import check_attributes

    relation = read_csv(args.input)
    predicate = _parse_query_predicate(args)
    check_attributes(predicate, relation.schema)
    owner = DataOwner(
        key=KeyGen.symmetric_from_seed(args.key_seed),
        config=F2Config(
            alpha=args.alpha,
            split_factor=args.split_factor,
            backend=args.backend,
        ),
    )
    if args.explain:
        # Rebuild the owner-side state (plans) locally and print the plan;
        # planning never contacts the server.
        owner.outsource(relation)
        print(owner.plan_query(predicate).explain())
        return 0
    credential = _read_credential(args.token)
    client = ProtocolClient(SocketTransport(args.host, args.port))
    session = RemoteOwnerSession(
        owner, client, table_id=args.table_id, credential=credential
    )
    try:
        if args.no_push:
            # Rebuild the owner-side state (plans, search tokens) without
            # shipping.  Re-encryption is randomised, so the recomputed view
            # is NOT byte-identical to the stored one — tokens still match
            # because they are derived per key, but a verified session can
            # only check reply freshness, not a locally seeded Merkle root.
            owner.outsource(relation)
        else:
            shipped = session.outsource(relation)
            print(f"outsourced {shipped} ciphertext rows as {args.table_id!r}", file=sys.stderr)
        matches, report = session.select_with_report(predicate)
        if report.mode == "local":
            print(
                "note: no part of the predicate is server-evaluable; "
                "answered locally without a server round trip",
                file=sys.stderr,
            )
    finally:
        session.close()
    write_relation_csv(matches, sys.stdout)
    print(f"# {matches.num_rows} matching rows", file=sys.stderr)
    print(report.summary(), file=sys.stderr)
    return 0


def _cmd_admin(args: argparse.Namespace) -> int:
    from repro.api.auth import TenantRegistry

    registry = TenantRegistry(args.tenants)
    if args.admin_command in {"mint", "rotate"}:
        action = registry.mint if args.admin_command == "mint" else registry.rotate
        credential = action(args.tenant, args.capability)
        # The token goes to stdout alone, so scripts can capture it directly
        # (`TOKEN=$(f2-repro admin --tenants t.json mint acme)`).
        print(credential.to_token())
        print(
            f"{args.admin_command}ed {args.capability!r} key "
            f"{credential.token_id} for tenant {args.tenant!r} in {args.tenants}",
            file=sys.stderr,
        )
        return 0
    if args.admin_command == "revoke":
        count = registry.revoke(args.tenant, args.capability)
        scope = args.capability or "all capabilities"
        print(f"revoked {count} key(s) ({scope}) of tenant {args.tenant!r}")
        return 0
    # list
    entries = registry.describe()
    if not entries:
        print("no tenants registered")
        return 0
    for entry in entries:
        state = "REVOKED" if entry["revoked"] else "active"
        print(
            f"{entry['tenant_id']}\t{entry['capability']}\t"
            f"{entry['token_id']}\t{state}"
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    results = security_attack_evaluation(
        dataset=args.dataset, num_rows=args.rows, trials=args.trials
    )
    print(format_table(results, title=f"Attack evaluation on {args.dataset} ({args.rows} rows)"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sweep = _SWEEPS[args.experiment]
    results = sweep()
    print(format_table(results, title=f"Experiment {args.experiment}"))
    if args.csv:
        write_csv(results, args.csv)
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    relation = dataset_by_name(args.name, args.rows, seed=args.seed)
    write_relation_csv(relation, args.output)
    print(f"wrote {relation.num_rows} rows x {relation.num_attributes} attributes to {args.output}")
    return 0


def _print_verify_reports(reports) -> bool:
    """Print one line per table report; returns True when every table passed."""
    ok = True
    for report in reports:
        if report.ok:
            root = report.computed_root[:16] + "..." if report.computed_root else "-"
            recorded = " (no recorded root)" if not report.recorded_root else ""
            print(
                f"ok   {report.label}: {report.rows} rows, "
                f"root {root}{recorded}"
            )
        else:
            ok = False
            print(
                f"FAIL {report.label}: {report.error}",
                file=sys.stderr,
            )
    return ok


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.integrity.verify import verify_storage_dir

    reports = verify_storage_dir(args.storage, table=args.table, backend=args.backend)
    if not reports:
        scope = f" matching table {args.table!r}" if args.table else ""
        print(f"no tables{scope} under {args.storage}")
        return 0
    if not _print_verify_reports(reports):
        failed = sum(1 for r in reports if not r.ok)
        print(
            f"integrity check FAILED for {failed} of {len(reports)} table(s)",
            file=sys.stderr,
        )
        print("error-code: INTEGRITY_VIOLATION", file=sys.stderr)
        return ERROR_CODE_EXITS["INTEGRITY_VIOLATION"]
    print(f"verified {len(reports)} table(s): all good")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintError, run_lint, run_mypy_gate
    from repro.analysis.baseline import load_baseline, write_baseline
    from repro.analysis.report import render_json, render_text

    try:
        if args.fix_baseline:
            raw = run_lint(args.root, rules=args.rule, use_baseline=False)
            mypy_lines = None
            if args.mypy:
                gate = run_mypy_gate(args.root, baseline=load_baseline(args.root))
                if gate.ran:
                    mypy_lines = gate.findings
            path = write_baseline(
                args.root,
                [d for d in raw.diagnostics if d.rule != "suppression-hygiene"],
                mypy_lines=mypy_lines,
            )
            kept = sum(1 for d in raw.diagnostics if d.active)
            print(f"baseline rewritten: {path} ({kept} finding(s) grandfathered)")
            return 0
        result = run_lint(args.root, rules=args.rule)
        if args.mypy:
            result.mypy = run_mypy_gate(args.root)
        if args.json:
            print(render_json(result))
        else:
            print(render_text(result, verbose=args.verbose))
        return 0 if result.ok else 1
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
