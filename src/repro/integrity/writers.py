"""Optimistic multi-writer coordination for one outsourced table.

Several threads inserting into one table share a :class:`WriteCoordinator`.
The F2 owner state is inherently serial (each insert re-plans against the
state the previous one produced), so encryption runs one writer at a time
under :attr:`WriteCoordinator.owner_lock`; what the coordinator makes
*concurrent* is the send side: every writer ships an optimistic
``InsertDelta`` against the last server-acknowledged ``(view, commit
version)`` base, and the server's per-table version CAS arbitrates.

The key invariant is that owner views are cumulative: the writer holding
owner sequence *k* encrypted a view containing the rows of writers
``1..k``.  So when a writer loses the CAS race:

* if the acknowledged sequence has reached or passed its own, its rows
  already landed inside a later writer's view — the push is a no-op;
* otherwise it *rebases*: recomputes the delta from the new acknowledged
  base (the winner's view, a subset of its own) and retries.

Either way no writer ever falls back to a full-view rewrite — the property
the multi-writer stress test pins from the server's per-kind request
counts (the boot outsource is the only ``outsource_request``).

When an :class:`~repro.integrity.state.TableIntegrityState` is attached,
acknowledged pushes advance it in server-commit order (under the
coordinator lock), so verification keeps working at full write concurrency.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.integrity.state import TableIntegrityState
    from repro.relational.table import Relation


@dataclass
class WriteStats:
    """Counters the stress test (and the bench) read."""

    delta_pushes: int = 0
    noop_pushes: int = 0
    cas_conflicts: int = 0
    rebases: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "delta_pushes": self.delta_pushes,
            "noop_pushes": self.noop_pushes,
            "cas_conflicts": self.cas_conflicts,
            "rebases": self.rebases,
        }


@dataclass
class _Base:
    """The last server-acknowledged state (guarded by the coordinator lock)."""

    view: "Relation | None" = None
    version: int = -1
    acked_seq: int = 0
    generation: int = 0  # bumps on every ack, for cheap change detection


class WriteCoordinator:
    """Shared state of all concurrent writers of one table."""

    #: How long a conflicted writer waits for the winner's ack to land
    #: before re-reading the base anyway (seconds).  Purely an anti-spin
    #: measure — correctness never depends on the timeout.
    CONFLICT_WAIT = 2.0

    def __init__(self, table_id: str = "", integrity: "TableIntegrityState | None" = None):
        self.table_id = table_id
        self.integrity = integrity
        self.stats = WriteStats()
        #: Serialises owner-side encryption (the F2 pipeline is stateful).
        self.owner_lock = threading.Lock()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._base = _Base()
        self._next_seq = 1

    # -- owner-side sequencing -----------------------------------------
    def next_sequence(self) -> int:
        """Claim the next owner sequence (call while holding ``owner_lock``)."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    # -- acknowledged base ---------------------------------------------
    def record_push(self, view: "Relation", version: int, server_root: str = "") -> None:
        """Adopt a full push (outsource / full insert) the server ack'd."""
        with self._lock:
            self._base.view = view
            self._base.version = int(version)
            self._base.acked_seq = self._next_seq - 1
            self._base.generation += 1
            self._changed.notify_all()
        if self.integrity is not None:
            self.integrity.record_push(view, version, server_root)

    def record_delta_ack(
        self,
        seq: int,
        view: "Relation",
        delta: "ViewDelta",
        version: int,
        server_root: str = "",
    ) -> None:
        """One writer's delta landed: advance the shared base to its view."""
        with self._lock:
            self._base.view = view
            self._base.version = int(version)
            self._base.acked_seq = max(self._base.acked_seq, seq)
            self._base.generation += 1
            self._changed.notify_all()
            # Integrity updates happen inside the lock: acks arrive in
            # server-commit order per the CAS, and the expected tree must
            # replay them in exactly that order.
            if self.integrity is not None:
                self.integrity.record_delta(delta, version, server_root)

    def snapshot_base(self) -> tuple["Relation | None", int, int, int]:
        """``(view, version, acked_seq, generation)`` atomically."""
        with self._lock:
            base = self._base
            return base.view, base.version, base.acked_seq, base.generation

    def wait_past(self, generation: int) -> None:
        """Block (bounded) until the base moved past ``generation``.

        A conflicted writer calls this so its retry reads the winner's ack
        instead of spinning on the same stale base.  Returns after
        :attr:`CONFLICT_WAIT` even unchanged — the retry loop re-reads and
        copes either way.
        """
        with self._lock:
            if self._base.generation != generation:
                return
            self._changed.wait(timeout=self.CONFLICT_WAIT)
