"""Provider process of the benchmark: a ``ProtocolServer`` on a TCP port.

Serves one tenant registry over the segment storage engine until its
standard input closes (the load generator holds the other end, so the
provider also stops if the load generator dies), then writes a JSON report
with its peak RSS and, with ``--trace``, the spans of every request it
handled while tracing was on.  Tracing starts off; ``SIGUSR1`` turns it on
and ``SIGUSR2`` off.  ``SIGHUP`` runs a full garbage collection.  The
provider acknowledges each signal by writing the number it has handled so
far to ``<port-file>.ack``, so the load generator can act on both sides
between two requests.  Run as::

    python3 perfbench/provider.py --storage DIR --tenants FILE \\
        --port-file FILE --report FILE [--trace]

The traced run wraps the provider's layer entry points (envelope, dispatch,
query execution, Merkle proofs/builds/extends, store writes, TANE) from
here, so the program under test is not edited.  The untraced run instead
times a pace unit (``pace.py``) right before and after every request and
reports the records.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pace import unit  # noqa: E402
from spans import TAGS, Tracer  # noqa: E402


def install_tracing(tracer: Tracer) -> None:
    """Wrap the provider-side layer boundaries with spans."""
    from repro.api import protocol
    from repro.integrity import merkle
    from repro.store.segment import SegmentTableStore

    def note_trace(span, args, result):
        span[TAGS]["trace"] = args[1].trace_context()[0]

    def note_proofs(span, args, result):
        span[TAGS]["proof_bytes"] = sum(len(node) for path in result for node in path)
        span[TAGS]["matches"] = len(result)

    def merkle_layer(parent) -> str:
        # Leaf hashing and tree construction serve both a full build (under
        # a replace) and an incremental extend (under a delta splice).
        if parent is not None and parent[0] in ("store.apply_delta", "merkle.extend"):
            return "merkle.extend"
        return "merkle.build"

    tracer.wrap(protocol.ProtocolServer, "handle_bytes", "server.envelope")
    tracer.wrap(protocol.ProtocolServer, "handle", "server.dispatch", after=note_trace)
    tracer.wrap(protocol, "execute_server_expr", "query.exec")
    tracer.wrap(protocol, "tane_with_stats", "fd.tane")
    tracer.wrap(SegmentTableStore, "replace", "store.replace")
    tracer.wrap(SegmentTableStore, "apply_delta", "store.apply_delta")
    tracer.wrap(SegmentTableStore, "merkle_proofs", "merkle.proof", after=note_proofs)
    tracer.wrap(merkle, "relation_leaves", merkle_layer)
    tracer.wrap(merkle.MerkleTree, "__init__", merkle_layer)
    tracer.wrap(merkle.MerkleTree, "copy", "merkle.extend")
    tracer.wrap(merkle.MerkleTree, "extend", "merkle.extend")


def install_pacing(requests: list[tuple]) -> None:
    """Record ``(start, end, unit_before, unit_after)`` for every request."""
    from repro.api.protocol import ProtocolServer

    handle_bytes = ProtocolServer.handle_bytes

    def paced(server, *args, **kwargs):
        start = time.perf_counter()
        before = unit()
        try:
            return handle_bytes(server, *args, **kwargs)
        finally:
            after = unit()
            requests.append((start, time.perf_counter(), before, after))

    ProtocolServer.handle_bytes = paced


def peak_rss_kb() -> int:
    """Peak RSS of this process image.  ``VmHWM``, unlike ``ru_maxrss``, does
    not count the load generator's pages, which a forked child holds until
    it executes this program."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--storage", required=True)
    parser.add_argument("--tenants", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.api.protocol import ProtocolServer, SocketProtocolServer

    tracer = Tracer(enabled=False)
    requests: list[tuple] = []
    port_file = Path(args.port_file)
    handled = 0

    def acknowledge() -> None:
        nonlocal handled
        handled += 1
        staged = port_file.with_suffix(".staged")
        staged.write_text(str(handled))
        os.replace(staged, port_file.with_suffix(".ack"))

    def collect(signum, frame):
        gc.collect()
        acknowledge()

    signal.signal(signal.SIGHUP, collect)
    if args.trace:
        install_tracing(tracer)

        def switch_tracing(signum, frame):
            tracer.enabled = signum == signal.SIGUSR1
            acknowledge()

        signal.signal(signal.SIGUSR1, switch_tracing)
        signal.signal(signal.SIGUSR2, switch_tracing)
    else:
        install_pacing(requests)
    server = ProtocolServer(
        name="perfbench-provider",
        backend="python",
        storage_dir=args.storage,
        tenants=args.tenants,
        storage_engine="segment",
    )
    with SocketProtocolServer(server) as sock_server:
        sock_server.serve_in_background()
        staged = port_file.with_suffix(".tmp")
        staged.write_text(str(sock_server.port))
        os.replace(staged, port_file)
        # Serve until the load generator closes our standard input.
        while sys.stdin.buffer.read(1 << 16):
            pass
    report = {
        "peak_rss_kb": peak_rss_kb(),
        "spans": tracer.spans,
        "requests": requests,
    }
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
