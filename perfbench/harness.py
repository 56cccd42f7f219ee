"""The owner side of the benchmark: provider processes, counted client, tracing.

Everything the load generator needs besides the workload mixes lives here:

* :class:`Provider` starts ``provider.py`` as its own process over a fresh
  storage directory and stops it by closing its standard input;
* :class:`CountingTransport` and :class:`CountingClient` are the public
  ``SocketTransport``/``ProtocolClient`` with request and byte counters (and,
  in the traced run, the ``transport.socket`` and ``client.codec`` spans);
* :func:`install_owner_tracing` wraps the owner-side layer entry points;
* :func:`checked_stats` compares the benchmark's counts with the provider's
  own ``stats`` surface.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from repro.api import session as session_module
from repro.api.pipeline import StageHook
from repro.api.protocol import ProtocolClient, SocketTransport
from repro.api.session import DataOwner
from repro.crypto.probabilistic import ProbabilisticCipher
from repro.integrity.state import TableIntegrityState

from spans import TAGS, Tracer

HERE = Path(__file__).resolve().parent
TENANT = "bench"
TABLE_ID = "bench"


class BenchError(RuntimeError):
    """The harness itself misbehaved (not an operation failure)."""


class Provider:
    """One provider process serving one storage directory."""

    START_TIMEOUT = 60.0

    def __init__(self, directory: Path, tenants: Path, env: dict[str, str], trace: bool):
        self.directory = directory
        self.port_file = directory / "port"
        self.report_file = directory / "report.json"
        self.storage = directory / "storage"
        self.signals = 0
        directory.mkdir(parents=True)
        command = [
            sys.executable,
            str(HERE / "provider.py"),
            "--storage", str(self.storage),
            "--tenants", str(tenants),
            "--port-file", str(self.port_file),
            "--report", str(self.report_file),
        ]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE, env=env)
        self.port = int(self._wait_for(self.port_file).read_text())

    def _wait_for(self, path: Path) -> Path:
        deadline = time.monotonic() + self.START_TIMEOUT
        while not path.exists():
            if self.process.poll() is not None:
                raise BenchError(f"provider exited with code {self.process.returncode}")
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError(f"provider did not create {path.name} in time")
            time.sleep(0.002)
        return path

    def _signal(self, signum: int) -> None:
        """Send ``signum``; returns once the provider has acknowledged it."""
        self.signals += 1
        self.process.send_signal(signum)
        ack = self.port_file.with_suffix(".ack")
        deadline = time.monotonic() + self.START_TIMEOUT
        while not (ack.exists() and ack.read_text() == str(self.signals)):
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"provider did not acknowledge signal {signum}")
            time.sleep(0.001)

    def set_tracing(self, on: bool) -> None:
        """Switch the provider's spans."""
        self._signal(signal.SIGUSR1 if on else signal.SIGUSR2)

    def collect(self) -> None:
        """Run a full garbage collection in the provider."""
        self._signal(signal.SIGHUP)

    def storage_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.storage.rglob("*") if path.is_file())

    def stop(self) -> dict[str, Any]:
        """Close the provider's stdin, wait for it, and return its report."""
        if self.process.stdin is not None and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchError("provider did not stop within 60 s") from None
        if self.process.returncode != 0 or not self.report_file.exists():
            raise BenchError(f"provider exited with code {self.process.returncode}")
        return json.loads(self.report_file.read_text())


class CountingTransport(SocketTransport):
    """``SocketTransport`` that counts frames and bytes in both directions."""

    def __init__(self, port: int, tracer: Tracer):
        super().__init__(port=port)
        self.tracer = tracer
        self.bytes_sent = 0
        self.bytes_received = 0

    def request(self, data: bytes) -> bytes:
        if not self.tracer.enabled:
            reply = super().request(data)
        else:
            index = self.tracer.open("transport.socket")
            try:
                reply = super().request(data)
            finally:
                self.tracer.close(index)
            tags = self.tracer.spans[index][TAGS]
            tags["request_bytes"] = len(data)
            tags["reply_bytes"] = len(reply)
        self.bytes_sent += len(data)
        self.bytes_received += len(reply)
        return reply


class CountingClient(ProtocolClient):
    """``ProtocolClient`` that counts requests per message kind.

    Keeps the last reply so that checks outside the timed interval can read
    what the provider sent (proof bytes, match counts).
    """

    def __init__(self, transport: CountingTransport, tracer: Tracer):
        super().__init__(transport)
        self.tracer = tracer
        self.kinds: Counter[str] = Counter()
        self.last_reply: Any = None

    def call(self, request):
        self.kinds[request.kind] += 1
        if not self.tracer.enabled:
            reply = super().call(request)
        else:
            index = self.tracer.open("client.codec")
            try:
                reply = super().call(request)
            finally:
                self.tracer.close(index)
            self.tracer.spans[index][TAGS]["trace"] = self.last_trace_id
        self.last_reply = reply
        return reply


class StageSpans(StageHook):
    """Pipeline hook: one ``pipeline.<stage>`` span per stage run.

    An incremental insert re-checks the MASs and re-plans SSE before the
    pipeline tail starts; those two steps are only visible as
    ``EncryptionStats`` timers, so they become spans that end where the
    tail begins.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._open: list[int] = []

    def on_pipeline_start(self, ctx) -> None:
        if not self.tracer.enabled:
            return
        stats = ctx.stats
        if stats.seconds_max or stats.seconds_sse:
            now = time.perf_counter()
            sse_start = now - stats.seconds_sse
            self.tracer.add("pipeline.sse", sse_start, now)
            self.tracer.add("pipeline.max", sse_start - stats.seconds_max, sse_start)

    def on_stage_start(self, stage, ctx) -> None:
        if self.tracer.enabled:
            self._open.append(self.tracer.open(f"pipeline.{stage.name.lower()}"))

    def on_stage_end(self, stage, ctx, seconds) -> None:
        if self._open:
            self.tracer.close(self._open.pop())


def install_owner_tracing(tracer: Tracer) -> None:
    """Wrap the owner-side layer boundaries (session, query, delta, integrity)."""

    def note_decrypt(span, args, result):
        span[TAGS]["cells_returned"] = result.num_rows * result.num_attributes

    def count_cells(count_of):
        def wrap(method):
            def counted(cipher, *args, **kwargs):
                span = tracer.current() if tracer.enabled else None
                if span is not None:
                    span[TAGS]["cells_decrypted"] = (
                        span[TAGS].get("cells_decrypted", 0) + count_of(args)
                    )
                return method(cipher, *args, **kwargs)

            return counted

        return wrap

    tracer.wrap(DataOwner, "plan_query", "session.plan")
    tracer.wrap(DataOwner, "decrypt_plan_result", "session.decrypt", after=note_decrypt)
    tracer.wrap(DataOwner, "query_leakage_report", "query.leakage")
    tracer.wrap(DataOwner, "insert_rows", "session.insert")
    tracer.wrap(DataOwner, "outsource", "session.outsource")
    tracer.wrap(DataOwner, "validate_fds", "session.validate_fds")
    tracer.wrap(session_module, "compute_view_delta", "delta.compute")
    tracer.wrap(TableIntegrityState, "check_reply", "integrity.check_reply")
    tracer.wrap(TableIntegrityState, "verify_proofs", "integrity.verify_proofs")
    tracer.wrap(TableIntegrityState, "record_push", "integrity.record_push")
    tracer.wrap(TableIntegrityState, "record_delta", "integrity.record_delta")
    ProbabilisticCipher.decrypt = count_cells(lambda args: 1)(ProbabilisticCipher.decrypt)
    ProbabilisticCipher.decrypt_batch = count_cells(lambda args: len(args[0]))(
        ProbabilisticCipher.decrypt_batch
    )


def metric_sums(stats: dict[str, Any], name: str) -> dict[str, float]:
    """Per-``kind`` values of one counter in a ``stats`` document."""
    sums: dict[str, float] = {}
    for entry in stats["metrics"]["counters"]:
        if entry["name"] == name:
            kind = entry["labels"].get("kind", "")
            sums[kind] = sums.get(kind, 0) + entry["value"]
    return sums


def checked_stats(client: CountingClient, proof_bytes: int) -> dict[str, Any]:
    """The provider's ``stats`` document, once it agrees with the harness.

    Raises unless the provider counted what the benchmark sent: per-kind
    requests, bytes in both directions (the stats request itself excluded),
    and the proof bytes the replies carried.
    """
    transport = client.transport
    kinds = dict(client.kinds)
    sent, received = transport.bytes_sent, transport.bytes_received
    stats = client.stats(include_traces=False)
    served = metric_sums(stats, "server.requests")
    problems = [
        f"server.requests[{kind}] = {served.get(kind, 0)}, benchmark sent {kinds.get(kind, 0)}"
        for kind in sorted(set(served) | set(kinds))
        if served.get(kind, 0) != kinds.get(kind, 0)
    ]
    bytes_in = sum(metric_sums(stats, "server.bytes_received").values())
    bytes_out = sum(metric_sums(stats, "server.bytes_sent").values())
    counted_proofs = sum(metric_sums(stats, "integrity.proof_bytes").values())
    if bytes_in != sent:
        problems.append(f"server.bytes_received = {bytes_in}, transport sent {sent}")
    if bytes_out != received:
        problems.append(f"server.bytes_sent = {bytes_out}, transport received {received}")
    if counted_proofs != proof_bytes:
        problems.append(f"integrity.proof_bytes = {counted_proofs}, replies carried {proof_bytes}")
    if problems:
        raise BenchError("harness and provider disagree: " + "; ".join(problems))
    return stats
