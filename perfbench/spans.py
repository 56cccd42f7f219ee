"""In-memory spans for the benchmark's traced run, and their arithmetic.

A :class:`Tracer` times calls into a layer's public functions by replacing
them with timing wrappers (``Tracer.wrap``); nothing inside ``src/`` is
edited.  Each process keeps its spans in memory and hands them over at the
end: the provider launcher writes them to a report file, the load generator
keeps them in a list.  :func:`graft` joins the two halves of every request
into one tree, and :func:`op_breakdown` turns a tree into per-layer *self*
times (a span's duration minus the part of it its children cover).

Both processes read ``time.perf_counter``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so provider spans can be nested under the client spans
that caused them without any clock translation.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

# A span is a plain list so that it survives a JSON round trip unchanged:
# [name, start, end, parent index (-1 for a root), tags].
NAME, START, END, PARENT, TAGS = range(5)


class Tracer:
    """Records nested spans per thread; wraps functions to open them."""

    def __init__(self, enabled: bool = True) -> None:
        #: Wrapped functions call straight through while this is false, so
        #: a process can install its wrappers early and trace a later phase.
        self.enabled = enabled
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "list[Any] | None":
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def open(self, name: str, **tags: Any) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, tags])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add(self, name: str, start: float, end: float, **tags: Any) -> None:
        """Record a closed span under the calling thread's open span."""
        stack = self._stack()
        with self._lock:
            self.spans.append([name, start, end, stack[-1] if stack else -1, tags])

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: "str | Callable[[list[Any] | None], str]",
        after: "Callable[[list[Any], tuple, Any], None] | None" = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        ``name`` may be a function of the enclosing span, for a function
        that belongs to different layers depending on its caller.  ``after``
        sees the span, the call's arguments and its result, and may add
        tags (byte counts, trace ids).
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            label = name if isinstance(name, str) else name(self.current())
            index = self.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.spans[index], args, result)
            return result

        setattr(owner, attribute, timed)


def _trace_near(spans: list[list[Any]], index: int, up: bool) -> str:
    """The trace id tagged on span ``index``, else on its nearest ancestor
    (``up``) or on its first tagged child (not ``up``)."""
    if up:
        while index >= 0:
            if spans[index][TAGS].get("trace"):
                return spans[index][TAGS]["trace"]
            index = spans[index][PARENT]
        return ""
    if spans[index][TAGS].get("trace"):
        return spans[index][TAGS]["trace"]
    for span in spans[index + 1 :]:
        if span[PARENT] == index and span[TAGS].get("trace"):
            return span[TAGS]["trace"]
    return ""


def graft(
    client: list[list[Any]],
    server: list[list[Any]],
    client_name: str,
    server_name: str,
) -> list[list[Any]]:
    """Join provider spans under the client spans of the same requests.

    The k-th ``client_name`` span (a request leaving the owner) is matched
    with the k-th root ``server_name`` span (a request arriving at the
    provider): one connection carries the requests in order.  Where both
    sides recorded the request's trace id (tag ``trace``, on the request
    span or the client span around it, and on the provider's root or its
    first child), they must agree.  Returns one span list; provider spans
    keep their own nesting.
    """
    sent = [index for index, span in enumerate(client) if span[NAME] == client_name]
    arrived = [
        index
        for index, span in enumerate(server)
        if span[NAME] == server_name and span[PARENT] == -1
    ]
    if len(sent) != len(arrived):
        raise ValueError(
            f"{len(sent)} requests sent but {len(arrived)} arrived; "
            "the two span sets do not describe the same connection"
        )
    offset = len(client)
    joined = [list(span) for span in client]
    for span in server:
        moved = list(span)
        if moved[PARENT] >= 0:
            moved[PARENT] += offset
        joined.append(moved)
    for client_index, server_index in zip(sent, arrived):
        sent_trace = _trace_near(client, client_index, up=True)
        seen_trace = _trace_near(server, server_index, up=False)
        if sent_trace and seen_trace and sent_trace != seen_trace:
            raise ValueError(
                f"request {client_index} carried trace {sent_trace} but the "
                f"provider's matching request carried {seen_trace}"
            )
        joined[offset + server_index][PARENT] = client_index
    return joined


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(span[START], span[END], children[index])
        for index, span in enumerate(spans)
    ]


def op_breakdown(spans: list[list[Any]], prefix: str = "op.") -> list[dict[str, Any]]:
    """One record per root span named ``prefix + <op type>``.

    Each record holds the op type, its wall time, the self time of every
    layer (summed over the layer's spans under that root), and the summed
    tags of those spans.  The root's own self time is reported as the
    ``unattributed`` layer: wall time no layer span accounts for.
    """
    own = self_times(spans)
    root_of: list[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        root_of.append(index if parent < 0 else root_of[parent])
    records: dict[int, dict[str, Any]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] < 0 and span[NAME].startswith(prefix):
            records[index] = {
                "op": span[NAME][len(prefix) :],
                "wall": span[END] - span[START],
                "layers": {"unattributed": own[index]},
                "tags": {},
            }
    for index, span in enumerate(spans):
        record = records.get(root_of[index])
        if record is None or index == root_of[index]:
            continue
        layers = record["layers"]
        layers[span[NAME]] = layers.get(span[NAME], 0.0) + own[index]
        for key, value in span[TAGS].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                record["tags"][key] = record["tags"].get(key, 0) + value
    return [records[index] for index in sorted(records)]
