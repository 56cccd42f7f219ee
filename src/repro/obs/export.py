"""Registry snapshots rendered for the outside world.

Two formats from one :meth:`MetricsRegistry.snapshot`:

* **Prometheus text** (``to_prometheus_text``) — the exposition format
  any scraper ingests; series names are sanitised (dots become
  underscores) and histograms expand to ``_bucket``/``_sum``/``_count``.
* **JSON** (``to_json_doc``) — the raw snapshot plus a schema marker,
  for tooling and the stats CLI.

``write_metrics_file`` dumps both **atomically and durably**
(:func:`repro.durable.replace_file`: an fsynced temp file renamed over the
target, then a directory fsync), so a scraper never reads a torn file.
:class:`MetricsDumper` is the ``serve --metrics-file`` periodic thread.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Any, Callable

from repro.durable import replace_file
from repro.obs.metrics import REGISTRY, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def _prom_labels(labels: dict[str, Any], extra: "dict[str, Any] | None" = None) -> str:
    merged: dict[str, Any] = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key in sorted(merged):
        value = str(merged[key]).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{_prom_name(str(key))}="{value}"')
    return "{" + ",".join(parts) + "}"


def _prom_number(value: Any) -> str:
    if value == "+Inf":
        return "+Inf"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def to_prometheus_text(snapshot: dict[str, Any]) -> str:
    """Render a registry snapshot in the Prometheus exposition format."""
    lines: list[str] = []
    for entry in snapshot.get("counters", []):
        name = _prom_name(entry["name"]) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{_prom_labels(entry['labels'])} {_prom_number(entry['value'])}")
    for entry in snapshot.get("gauges", []):
        name = _prom_name(entry["name"])
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_prom_labels(entry['labels'])} {_prom_number(entry['value'])}")
    for entry in snapshot.get("histograms", []):
        name = _prom_name(entry["name"])
        lines.append(f"# TYPE {name} histogram")
        for bucket in entry["buckets"]:
            le = bucket["le"] if bucket["le"] == "+Inf" else _prom_number(bucket["le"])
            labels = _prom_labels(entry["labels"], {"le": le})
            lines.append(f"{name}_bucket{labels} {bucket['count']}")
        base_labels = _prom_labels(entry["labels"])
        lines.append(f"{name}_sum{base_labels} {repr(float(entry['sum']))}")
        lines.append(f"{name}_count{base_labels} {entry['count']}")
    return "\n".join(lines) + "\n"


def to_json_doc(snapshot: dict[str, Any], **extra: Any) -> dict[str, Any]:
    """JSON-file form of a snapshot (schema marker + timestamp + extras)."""
    doc = {"format": "repro.obs/v1", "written_at": time.time(), **extra}
    doc["metrics"] = snapshot
    return doc


def write_metrics_file(
    path: str,
    registry: "MetricsRegistry | None" = None,
    collect: "Callable[[], None] | None" = None,
    **extra: Any,
) -> dict[str, Any]:
    """Atomically dump ``registry`` to ``path``.

    A ``*.json`` path gets the JSON form only; any other path gets the
    Prometheus text at ``path`` **and** the JSON beside it at
    ``path + ".json"``.  ``collect`` (when given) runs first so pull-style
    gauges — per-table store stats, cache rates — are fresh in the
    snapshot.  Returns the snapshot that was written.
    """
    registry = REGISTRY if registry is None else registry
    if collect is not None:
        collect()
    snapshot = registry.snapshot()
    json_text = json.dumps(to_json_doc(snapshot, **extra), indent=2, sort_keys=True)
    json_bytes = (json_text + "\n").encode()
    if str(path).endswith(".json"):
        replace_file(path, json_bytes)
    else:
        replace_file(path, to_prometheus_text(snapshot).encode())
        replace_file(str(path) + ".json", json_bytes)
    return snapshot


class MetricsDumper:
    """Daemon thread behind ``serve --metrics-file``: periodic atomic dumps.

    Dumps once immediately on :meth:`start` (so the file exists as soon
    as the server is up), then every ``interval`` seconds, and once more
    on :meth:`stop` so the final state survives shutdown.
    """

    def __init__(
        self,
        path: str,
        interval: float = 10.0,
        registry: "MetricsRegistry | None" = None,
        collect: "Callable[[], None] | None" = None,
    ):
        self.path = str(path)
        self.interval = max(0.1, float(interval))
        self._registry = REGISTRY if registry is None else registry
        self._collect = collect
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self.dumps = 0

    def dump(self) -> None:
        write_metrics_file(self.path, self._registry, self._collect)
        self.dumps += 1

    def start(self) -> "MetricsDumper":
        if self._thread is not None:
            return self
        self.dump()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-metrics-dumper", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.dump()
            except OSError:
                # A transiently unwritable target must not kill the server.
                pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.dump()
        except OSError:
            pass
