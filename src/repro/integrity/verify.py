"""Offline integrity verification of a server storage directory.

``f2-repro verify --storage DIR`` (and ``serve --verify-on-start``) walk
the directory the way the server's startup loader does — top-level entries
are the anonymous local tenant, subdirectories are tenant namespaces — and
check every table found:

every table is a segment store (a ``<table>.f2s`` directory): the
engine's full-CRC :meth:`~repro.store.segment.SegmentTableStore.verify`
pass, then the Merkle root recomputed from the stored rows against the
root recorded in the committed manifest.  A store that does not open — a
``CURRENT`` naming anything but a table log, a snapshot record whose root
is not of the current format — fails its report like any unreadable one.

A table whose store predates root recording is reported with
``recorded_root == ""`` and still passes (there is nothing to contradict);
any mismatch or unreadable store fails its report.  The CLI turns any
failed report into ``ErrorCode.INTEGRITY_VIOLATION`` / exit code 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import ReproError, StoreError
from repro.integrity.merkle import MerkleTree, relation_leaves


@dataclass
class TableReport:
    """Outcome of verifying one table."""

    tenant: str  # "" for the anonymous local namespace
    table: str
    ok: bool
    rows: int = 0
    recorded_root: str = ""
    computed_root: str = ""
    error: str = ""

    @property
    def label(self) -> str:
        return f"{self.tenant}/{self.table}" if self.tenant else self.table


def _verify_segment_dir(directory: Path, tenant: str, backend: ComputeBackend) -> TableReport:
    from repro.store.segment import SegmentTableStore

    table = directory.name[: -len(".f2s")]
    report = TableReport(tenant=tenant, table=table, ok=False)
    store = None
    try:
        store = SegmentTableStore(directory, backend)
        store.verify()
        report.rows = store.num_rows
        report.recorded_root = store.recorded_merkle_root()
        report.computed_root = MerkleTree(relation_leaves(store.relation())).root
    except ReproError as exc:
        report.error = str(exc)
        return report
    finally:
        if store is not None:
            store.close()
    if report.recorded_root and report.recorded_root != report.computed_root:
        report.error = (
            f"manifest records merkle root {report.recorded_root[:16]}... but "
            f"the stored rows hash to {report.computed_root[:16]}..."
        )
        return report
    report.ok = True
    return report


def _scan_namespace(directory: Path, tenant: str, backend: ComputeBackend,
                    table: "str | None") -> list[TableReport]:
    reports: list[TableReport] = []
    for path in sorted(directory.iterdir()):
        if path.is_dir() and path.name.endswith(".f2s"):
            if table is not None and path.name != table + ".f2s":
                continue
            reports.append(_verify_segment_dir(path, tenant, backend))
    return reports


def verify_storage_dir(
    storage_dir: "str | Path",
    table: "str | None" = None,
    backend: "str | ComputeBackend | None" = None,
) -> list[TableReport]:
    """Verify every table under a server storage directory.

    ``table`` restricts the check to one table id (across all tenants).
    Returns one :class:`TableReport` per table found; an empty list means
    the directory holds no tables (the CLI reports that separately rather
    than calling it a pass).
    """
    root = Path(storage_dir)
    if not root.is_dir():
        raise StoreError(f"storage directory {root} does not exist")
    resolved = backend if isinstance(backend, ComputeBackend) else get_backend(backend)
    reports = _scan_namespace(root, "", resolved, table)
    for path in sorted(root.iterdir()):
        if path.is_dir() and not path.name.endswith(".f2s"):
            reports.extend(_scan_namespace(path, path.name, resolved, table))
    return reports
