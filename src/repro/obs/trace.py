"""Lightweight spans: monotonic timings, nesting, cross-process trace ids.

A *span* is one timed operation (``server.plan_query``,
``store.execute_expr``, the owner's ``integrity.check_answer``) with
free-form tags.  Spans nest through a :mod:`contextvars` variable, so each
thread (and each asyncio task, should the server grow one) keeps its own
span stack; when the outermost span of a tree finishes, the whole tree is
recorded into the process-wide :data:`TRACES` ring.

The *trace id* stitches trees across processes: the protocol client
mints one per request and sends it inside the (signed) envelope; the
server adopts it as the ``trace_id`` of its own dispatch span, with the
client's span id as the remote parent.  Fetching both sides' spans for
one id (``TraceStore.spans_for`` on each end, or ``StatsReply`` over the
wire) therefore yields a single tree spanning client → server → store →
integrity → reply.

Ids are minted from a process counter, the pid, and the wall clock —
**never** from ``os.urandom``: the byte-identity tests pin the cipher's
entropy stream, and observability must not perturb it.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Iterable

from repro.obs.metrics import REGISTRY

_CURRENT: "ContextVar[Span | None]" = ContextVar("repro_obs_span", default=None)
_ID_COUNTER = itertools.count(1)

#: Tracing has its own switch below the REPRO_METRICS master: metrics are
#: always-on-cheap (a few µs per request), span trees cost roughly an
#: order of magnitude more, so ``REPRO_TRACE=0`` keeps the counters while
#: shedding the trees.  ``REPRO_METRICS=0`` still kills both.
_TRACING = os.environ.get("REPRO_TRACE", "").strip().lower() not in {
    "0",
    "false",
    "no",
    "off",
}


def set_tracing(on: bool) -> None:
    """Flip the tracing tier at runtime (metrics master still applies)."""
    global _TRACING
    _TRACING = bool(on)


def tracing_active() -> bool:
    """True when spans will actually be created (both switches on)."""
    return REGISTRY._enabled and _TRACING

#: Wall-clock anchor: ``start_wall`` derives from one ``perf_counter``
#: read instead of a second clock syscall per span.
_WALL_ANCHOR = time.time() - time.perf_counter()

# Per-process id prefixes, recomputed after fork (the materialiser's
# process pool) so children never collide with the parent.  The fork
# hook keeps the mint functions syscall-free.
_TRACE_PREFIX = ""
_PID_HEX = ""


def _refresh_prefixes() -> None:
    global _TRACE_PREFIX, _PID_HEX
    pid = os.getpid()
    raw = f"{pid:x}|{time.time_ns():x}"
    _TRACE_PREFIX = hashlib.sha1(raw.encode("ascii")).hexdigest()[:8]
    _PID_HEX = f"{pid:x}"


_refresh_prefixes()
if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython on POSIX
    os.register_at_fork(after_in_child=_refresh_prefixes)


def mint_trace_id() -> str:
    """A 16-hex-char trace id; unique per (process, call) without entropy."""
    return f"{_TRACE_PREFIX}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


def mint_span_id() -> str:
    """Span id unique across the processes that may share one trace."""
    return f"{_PID_HEX}.{next(_ID_COUNTER):x}"


class _DisabledSpan:
    """Singleton context manager handed out while metrics are disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_DISABLED = _DisabledSpan()


class Span:
    """One timed operation inside a trace tree.

    The class is its own context manager (``with obs.span(...) as sp:``)
    and does *all* open-time work — parent resolution, id minting,
    contextvar push — inside ``__new__``/``__init__``: one allocation and
    no helper-call frames, because three of these run on every query.
    ``__new__`` short-circuits to the shared :data:`_DISABLED` singleton
    while metrics are off, so disabled spans cost one call and no
    allocation (and ``__init__`` never runs on the singleton).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "tags",
        "seconds",
        "_children",
        "_t0",
        "_token",
        "_root",
        "_store",
    )

    def __new__(
        cls,
        name: str,
        trace_id: "str | None" = None,
        parent_id: str = "",
        store: "TraceStore | None" = None,
        **tags: Any,
    ):
        if not (_TRACING and REGISTRY._enabled):
            return _DISABLED
        return object.__new__(cls)

    def __init__(
        self,
        name: str,
        trace_id: "str | None" = None,
        parent_id: str = "",
        store: "TraceStore | None" = None,
        **tags: Any,
    ):
        parent = _CURRENT.get()
        if parent is not None:
            # A local parent wins over any remote (trace_id, parent_id):
            # loopback transports nest naturally into one tree.
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
            self._root = parent._root
            self._store = None
            if parent._children is None:
                parent._children = [self]
            else:
                parent._children.append(self)
        else:
            self.trace_id = trace_id or mint_trace_id()
            self.parent_id = parent_id
            self._root = self
            self._store = store if store is not None else TRACES
        self.name = name
        self.span_id = mint_span_id()
        self.tags = tags
        self.seconds = 0.0
        self._children = None
        self._token = _CURRENT.set(self)
        self._t0 = time.perf_counter()

    @property
    def children(self) -> "list[Span]":
        return self._children if self._children is not None else []

    @property
    def start_wall(self) -> float:
        return _WALL_ANCHOR + self._t0

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        finish_span(self)
        return False

    def to_doc(self) -> dict[str, Any]:
        """JSON-safe form of this span alone (children carried by ids)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tags": {str(k): _tag_value(v) for k, v in self.tags.items()},
            "start_wall": self.start_wall,
            "seconds": self.seconds,
        }

    def tree_docs(self) -> list[dict[str, Any]]:
        """This span and every descendant, depth-first."""
        docs = [self.to_doc()]
        if self._children is not None:
            for child in self._children:
                docs.extend(child.tree_docs())
        return docs


#: ``with obs.span("server.plan_query", table=...) as sp:`` — the class
#: itself is the context manager; this alias keeps the call-site idiom.
span = Span


def _tag_value(value: Any) -> Any:
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    return str(value)


def start_span(
    name: str,
    trace_id: "str | None" = None,
    parent_id: str = "",
    store: "TraceStore | None" = None,
    **tags: Any,
) -> "Span | None":
    """Open a span (caller must :func:`finish_span` it, same thread).

    ``trace_id``/``parent_id`` adopt a *remote* parent — the server passes
    the ids carried by the request so its subtree grafts under the
    client's span.  They are ignored when a local span is already open
    (the local tree wins; loopback transports nest naturally).  Returns
    ``None`` when tracing is disabled (either switch), and every
    downstream helper accepts that ``None``.
    """
    if not (_TRACING and REGISTRY._enabled):
        return None
    return Span(name, trace_id, parent_id, store, **tags)


def finish_span(span_obj: "Span | None") -> None:
    """Close a span from :func:`start_span`; records the tree at the root."""
    if span_obj is None:
        return
    span_obj.seconds = time.perf_counter() - span_obj._t0
    if span_obj._token is not None:
        _CURRENT.reset(span_obj._token)
        span_obj._token = None
    # Clear the root backref before recording: a root's ``_root`` points
    # at itself, and leaving that cycle in place would make every finished
    # tree cyclic-GC garbage that the TRACES ring keeps alive for gen-2
    # scans — measurable on the query hot path.
    root = span_obj._root
    span_obj._root = None
    if root is span_obj and span_obj._store is not None:
        store = span_obj._store
        span_obj._store = None
        store.record(span_obj)


def current_span() -> "Span | None":
    return _CURRENT.get()


def current_trace_id() -> str:
    span_obj = _CURRENT.get()
    return span_obj.trace_id if span_obj is not None else ""


class TraceStore:
    """Bounded ring of finished trace trees.

    The ring holds the finished root :class:`Span` objects themselves;
    the JSON-safe doc lists are built lazily at read time (stats calls),
    so the request hot path pays one lock + deque append per tree and
    no dict building.
    """

    def __init__(self, capacity: int = 256):
        self._lock = threading.Lock()
        self._traces: "deque[Span | list[dict[str, Any]]]" = deque(maxlen=capacity)

    def record(self, root: Span) -> None:
        with self._lock:
            self._traces.append(root)

    def record_docs(self, docs: list[dict[str, Any]]) -> None:
        """Adopt an externally produced span-doc list (wire imports)."""
        if docs:
            with self._lock:
                self._traces.append(list(docs))

    def _snapshot(self) -> list[list[dict[str, Any]]]:
        with self._lock:
            traces = list(self._traces)
        return [
            item.tree_docs() if isinstance(item, Span) else item for item in traces
        ]

    def latest(self, count: int = 20) -> list[list[dict[str, Any]]]:
        return self._snapshot()[-count:]

    def spans_for(self, trace_id: str) -> list[dict[str, Any]]:
        """Every recorded span carrying ``trace_id``, across all trees."""
        spans: list[dict[str, Any]] = []
        for docs in self._snapshot():
            spans.extend(doc for doc in docs if doc.get("trace_id") == trace_id)
        return spans

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


#: Process-wide ring every root span records into by default.
TRACES = TraceStore()


def render_trace(spans: Iterable[dict[str, Any]]) -> str:
    """ASCII tree of a flat span-doc list (one trace id's spans).

    Spans from several processes merge by parent id; orphans (parent not
    in the set — e.g. the remote half was not fetched) render as extra
    roots.  Siblings keep wall-clock order, so the client → server →
    store → reply story reads top to bottom.
    """
    spans = list(spans)
    by_id = {doc["span_id"]: doc for doc in spans}
    children: dict[str, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for doc in spans:
        parent = doc.get("parent_id") or ""
        if parent and parent in by_id:
            children.setdefault(parent, []).append(doc)
        else:
            roots.append(doc)
    for group in children.values():
        group.sort(key=lambda d: d.get("start_wall", 0.0))
    roots.sort(key=lambda d: d.get("start_wall", 0.0))

    lines: list[str] = []

    def _emit(doc: dict[str, Any], depth: int) -> None:
        tags = doc.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        ms = doc.get("seconds", 0.0) * 1000.0
        indent = "  " * depth
        suffix = f" [{tag_text}]" if tag_text else ""
        lines.append(f"{indent}- {doc['name']} {ms:.3f}ms{suffix}")
        for child in children.get(doc["span_id"], []):
            _emit(child, depth + 1)

    for root in roots:
        _emit(root, 0)
    return "\n".join(lines)
