"""The write coordinator of one outsourced table.

Every :class:`~repro.api.session.RemoteOwnerSession` writes through a
:class:`WriteCoordinator`: its own private one (a coordinator of one
writer), or one shared by several threads writing one table.  Its base,
the last server-acknowledged ``(view, commit version)``, is the one record
of what the server holds.

The F2 owner state is inherently serial (each insert re-plans against the
state the previous one produced), so encryption runs one writer at a time
under :attr:`WriteCoordinator.owner_lock`; what the coordinator makes
*concurrent* is the send side: every writer ships an optimistic
``InsertDelta`` against the base, and the server's per-table version CAS
arbitrates.  Owner views are cumulative — the writer holding owner
sequence *k* encrypted a view containing the rows of writers ``1..k`` — so
a writer whose push was refused (:meth:`WriteCoordinator.settle_conflict`):

* is a no-op if the acknowledged sequence reached its own: its rows
  landed inside a later writer's view;
* rebases onto the new base if another writer's ack moved it, or waits
  for one still in flight;
* rewrites the table with its full view only when no writer of this
  coordinator is in flight: the server moved on its own (a restart at an
  older generation, a lost reply that landed, a foreign writer), so every
  other writer's delta is refused until that view lands.

Writers sharing a coordinator ship even a MAS change as a delta
(:attr:`WriteCoordinator.shared`), so they never fall back to a full-view
rewrite — the multi-writer stress test pins it from the server's per-kind
request counts.  An attached :class:`~repro.integrity.state.TableIntegrityState`
advances in server-commit order (under the coordinator lock).
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.integrity.merkle import MerkleTree
    from repro.integrity.state import TableIntegrityState
    from repro.relational.table import Relation


@dataclass
class WriteStats:
    """One count per write path: acknowledged deltas and full views
    (outsources included), writes a later view already held, deltas
    refused for a moved base, base re-reads after a refused or failed
    push, and failed writes taken back from the owner."""

    delta_pushes: int = 0
    full_pushes: int = 0
    noop_pushes: int = 0
    cas_conflicts: int = 0
    rebases: int = 0
    withdrawn: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


#: The same counts process-wide, as ``writes.<field>`` counters.
_COUNTERS = {
    field.name: _metrics.counter(f"writes.{field.name}")
    for field in dataclasses.fields(WriteStats)
}


@dataclass
class _Base:
    """The last server-acknowledged state (guarded by the coordinator lock)."""

    view: "Relation | None" = None
    version: int = -1
    acked_seq: int = 0
    generation: int = 0  # bumps on every ack, for cheap change detection


class WriteCoordinator:
    """Shared state of all writers of one table."""

    #: How long a conflicted writer waits for an in-flight push to land
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
        self._pushing = 0
        self._writers = 0

    def count(self, path: str) -> None:
        """Count one write through ``path`` (a :class:`WriteStats` field)."""
        with self._lock:
            setattr(self.stats, path, getattr(self.stats, path) + 1)
        _COUNTERS[path].inc()

    def join(self) -> None:
        """Count one more session writing through this coordinator."""
        with self._lock:
            self._writers += 1

    @property
    def shared(self) -> bool:
        """Whether several sessions write through this coordinator.  The
        server applies a full view without a CAS, so a shared coordinator's
        writers ship every write that has a base as a delta: a full view
        could overwrite a delta another writer has in flight."""
        with self._lock:
            return self._writers > 1

    # -- owner-side sequencing -----------------------------------------
    def next_sequence(self) -> int:
        """Claim the next owner sequence (call while holding ``owner_lock``)."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    # -- acknowledged base ---------------------------------------------
    def snapshot_base(self) -> tuple["Relation | None", int, int, int]:
        """``(view, version, acked_seq, generation)`` atomically."""
        with self._lock:
            base = self._base
            return base.view, base.version, base.acked_seq, base.generation

    @contextmanager
    def pushing(self) -> Iterator[None]:
        """Count a push in flight for the duration of the block."""
        with self._lock:
            self._pushing += 1
        try:
            yield
        finally:
            with self._lock:
                self._pushing -= 1
                self._changed.notify_all()

    def record_ack(
        self,
        seq: int,
        view: "Relation",
        delta: "ViewDelta | None",
        version: int,
        server_root: str = "",
        tree: "MerkleTree | None" = None,
    ) -> None:
        """Writer ``seq``'s push landed: advance the base to its ``view``
        (shipped whole, or as ``delta``).  ``tree`` is the view's Merkle
        tree when the writer built it while the push was in flight."""
        with self._lock:
            base = self._base
            base.view = view
            base.version = int(version)
            base.acked_seq = max(base.acked_seq, seq)
            base.generation += 1
            self._changed.notify_all()
            # Integrity updates happen inside the lock: acks arrive in
            # server-commit order per the CAS, and the expected tree must
            # replay them in exactly that order.
            if self.integrity is not None:
                if delta is not None and self.integrity.expected_root:
                    self.integrity.record_delta(delta, version, server_root)
                else:
                    self.integrity.record_push(view, version, server_root, tree)

    def settle_conflict(self, seq: int, generation: int) -> bool:
        """After writer ``seq``'s push against base ``generation`` failed:
        ``True`` once the base moved (or after :attr:`CONFLICT_WAIT`), while
        another writer's push is in flight; ``False`` when none is."""
        with self._lock:
            while True:
                base = self._base
                if base.acked_seq >= seq or base.generation != generation:
                    return True
                if not self._pushing:
                    return False
                if not self._changed.wait(timeout=self.CONFLICT_WAIT):
                    return True
