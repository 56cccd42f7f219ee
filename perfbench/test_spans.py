"""Checks of the span join and self-time arithmetic on synthetic span sets.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, covered, graft, op_breakdown, self_times  # noqa: E402


def span(name, start, end, parent=-1, **tags):
    return [name, float(start), float(end), parent, tags]


def client_side():
    # op.select [0, 10]: plan [0, 1], codec [1, 8] > socket [2, 7], decrypt [8, 9.5]
    return [
        span("op.select", 0, 10),
        span("session.plan", 0, 1, 0),
        span("client.codec", 1, 8, 0, trace="t1"),
        span("transport.socket", 2, 7, 2, request_bytes=100, reply_bytes=40),
        span("session.decrypt", 8, 9.5, 0),
    ]


def server_side(trace="t1"):
    # envelope [3, 6] > dispatch [3.5, 5.5, trace] > exec [4, 5]
    return [
        span("server.envelope", 3, 6),
        span("server.dispatch", 3.5, 5.5, 0, trace=trace),
        span("query.exec", 4, 5, 1),
    ]


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 4), (6, 7)]) == 4
    assert covered(2, 5, [(0, 3), (4, 9)]) == 2


def test_self_time_is_span_minus_covered_children():
    spans = [span("a", 0, 10), span("b", 1, 4, 0), span("c", 3, 6, 0), span("d", 2, 3, 1)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_graft_nests_provider_spans_under_the_matching_request():
    joined = graft(client_side(), server_side(), "transport.socket", "server.envelope")
    own = dict(zip((s[0] for s in joined), self_times(joined)))
    assert own["transport.socket"] == 2.0  # 5 on the socket span, 3 on the provider
    assert own["server.envelope"] == 1.0
    assert own["server.dispatch"] == 1.0
    assert own["query.exec"] == 1.0
    assert own["client.codec"] == 2.0


def test_op_breakdown_accounts_every_millisecond():
    joined = graft(client_side(), server_side(), "transport.socket", "server.envelope")
    (record,) = op_breakdown(joined)
    assert record["op"] == "select"
    assert record["wall"] == 10.0
    assert record["layers"]["unattributed"] == 0.5
    assert sum(record["layers"].values()) == pytest.approx(record["wall"])
    assert record["tags"] == {"request_bytes": 100, "reply_bytes": 40}


def test_graft_pairs_requests_in_order_across_ops():
    client = client_side() + [
        [name, start + 20, end + 20, parent + 5 if parent >= 0 else -1, dict(tags)]
        for name, start, end, parent, tags in client_side()
    ]
    client[7][4]["trace"] = "t2"
    server = server_side("t1") + [
        [name, start + 20, end + 20, parent + 3 if parent >= 0 else -1, dict(tags)]
        for name, start, end, parent, tags in server_side("t2")
    ]
    records = op_breakdown(graft(client, server, "transport.socket", "server.envelope"))
    assert [record["layers"]["query.exec"] for record in records] == [1.0, 1.0]


def test_graft_rejects_unmatched_or_crossed_requests():
    with pytest.raises(ValueError, match="requests sent"):
        graft(client_side(), [], "transport.socket", "server.envelope")
    with pytest.raises(ValueError, match="trace"):
        graft(client_side(), server_side("other"), "transport.socket", "server.envelope")


def test_tracer_wrap_nests_and_switches_off():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", lambda parent: f"inner-under-{parent[0]}")
    assert Layer().outer() == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner-under-outer", 0)]
    tracer.enabled = False
    assert Layer().outer() == 2
    assert len(tracer.spans) == 2
