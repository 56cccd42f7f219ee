"""The owner's per-table verification state.

A :class:`TableIntegrityState` is the client-side mirror of the server's
Merkle tree: the owner updates it from the views and deltas *she* sends
(so it reflects what the table should hold) — a push adopts the tree of
the view she sent, a delta splices it exactly as the server does,
rehashing only the chunks the delta touches — then checks every reply
against it and against the view it vouches for —

* **root agreement** — the root the server advertises must equal the root
  of the owner's own tree;
* **freshness** — the ``(commit version, root)`` pair must advance
  monotonically: a lower version than any previously seen, or a different
  root at the same version, means the provider rolled back or forked the
  table;
* **the answer** — the provider is keyless, so a select can only be the
  token-leaf bitset algebra of :func:`~repro.query.server.execute_server_expr`
  over ciphertext the owner holds byte for byte; she runs the same plan
  over her replica and requires the matched rows and per-leaf counts to
  equal hers exactly.  That shows the answer complete as well as genuine,
  which inclusion proofs never do (they say nothing of rows left out).

Every violation raises :class:`repro.exceptions.IntegrityError` with the
table id attached.  The state is thread-safe and shareable: concurrent
writers coordinated by :class:`repro.integrity.writers.WriteCoordinator`
feed one shared instance.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.exceptions import IntegrityError
from repro.integrity.merkle import MerkleTree, relation_leaves
from repro.obs import metrics as _metrics
from repro.query.server import execute_server_expr

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.query.server import ServerExpr
    from repro.relational.table import Relation

# Client-side answer-check cost (a no-op under REPRO_METRICS=0).
_VERIFY_SECONDS = _metrics.histogram("integrity.verify_seconds")


class TableIntegrityState:
    """Owner-side expected tree + freshness chain of one outsourced table."""

    def __init__(self, table_id: str = ""):
        self.table_id = table_id
        self._lock = threading.Lock()
        self._tree: "MerkleTree | None" = None
        self._last_version: "int | None" = None
        self._last_root = ""

    # -- owner-driven updates ------------------------------------------
    @property
    def expected_root(self) -> str:
        """Root of the view the owner last pushed (``""`` before any push)."""
        with self._lock:
            return self._tree.root if self._tree is not None else ""

    def record_push(
        self,
        view: "Relation",
        version: int,
        server_root: str = "",
        tree: "MerkleTree | None" = None,
    ) -> str:
        """Adopt a full view the server acknowledged; returns the new root.

        ``tree`` is the view's tree when the caller already built it (a
        session builds it while the push is in flight); it is adopted as
        it is.  ``server_root`` (when the reply carried one) is checked
        against the owner's own tree immediately — a server that mangled
        the upload is caught at write time, not at the first query.
        """
        if tree is None:
            tree = MerkleTree(relation_leaves(view))
        with self._lock:
            self._tree = tree
            self._check_freshness_locked(version, tree.root)
        if server_root and server_root != tree.root:
            raise IntegrityError(
                f"table {self.table_id!r}: server acknowledged root "
                f"{server_root[:16]}... but the pushed view hashes to "
                f"{tree.root[:16]}...",
                table_id=self.table_id,
            )
        return tree.root

    def record_delta(self, delta: "ViewDelta", version: int, server_root: str = "") -> str:
        """Advance the expected tree past an acknowledged delta (a splice)."""
        with self._lock:
            if self._tree is None:
                raise IntegrityError(
                    f"table {self.table_id!r}: delta recorded before any push",
                    table_id=self.table_id,
                )
            self._tree = self._tree.splice(delta)
            root = self._tree.root
            self._check_freshness_locked(version, root)
        if server_root and server_root != root:
            raise IntegrityError(
                f"table {self.table_id!r}: server acknowledged root "
                f"{server_root[:16]}... after a delta the owner hashes to "
                f"{root[:16]}...",
                table_id=self.table_id,
            )
        return root

    # -- reply checks ---------------------------------------------------
    def check_reply(self, version: int, root: str, num_rows: "int | None" = None) -> None:
        """Verify a query reply's ``(version, root, row count)`` claims."""
        with self._lock:
            expected = self._tree
            if expected is not None:
                if root != expected.root:
                    raise IntegrityError(
                        f"table {self.table_id!r}: server root {root[:16]}... "
                        f"differs from the owner's expected root "
                        f"{expected.root[:16]}... (tampered or stale data)",
                        table_id=self.table_id,
                    )
                if num_rows is not None and num_rows != expected.num_leaves:
                    raise IntegrityError(
                        f"table {self.table_id!r}: server reports {num_rows} "
                        f"rows, owner expects {expected.num_leaves}",
                        table_id=self.table_id,
                    )
            self._check_freshness_locked(version, root)

    def verify_proofs(
        self,
        expr: "ServerExpr",
        row_indexes: Sequence[int],
        leaf_match_counts: Sequence[int],
        replica: Any,
    ) -> None:
        """Check a select's answer by recomputing it over the owner's replica.

        ``replica`` is the coded form of the view this state's tree vouches
        for, or anything with the same executor surface (``backend`` /
        ``num_rows`` / ``match_mask``) — in a session, that view through the
        owner's leaf-mask cache (:meth:`repro.api.session.ReplicaMasks.over`).
        ``expr`` is the server part of the plan the provider was sent.  The
        reply's ``row_indexes`` and ``leaf_match_counts`` must equal the
        owner's exactly: a dropped, added or swapped match, or a misreported
        leaf count, raises.
        """
        with obs.span(
            "integrity.check_answer", table=self.table_id, matches=len(row_indexes)
        ) as span_obj:
            started = time.perf_counter()
            rows, counts = execute_server_expr(replica, expr)
            if span_obj is not None:
                _VERIFY_SECONDS.observe(time.perf_counter() - started)
        if list(row_indexes) != rows:
            raise IntegrityError(
                f"table {self.table_id!r}: the provider's {len(row_indexes)} "
                f"matched rows are not the {len(rows)} the owner's replica "
                "matches (dropped, added or swapped rows)",
                table_id=self.table_id,
            )
        if list(leaf_match_counts) != counts:
            raise IntegrityError(
                f"table {self.table_id!r}: the provider reports leaf match "
                f"counts {list(leaf_match_counts)}, the owner's replica {counts}",
                table_id=self.table_id,
            )

    # -- internals ------------------------------------------------------
    def _check_freshness_locked(self, version: int, root: str) -> None:
        version = int(version)
        if self._last_version is not None:
            if version < self._last_version:
                raise IntegrityError(
                    f"table {self.table_id!r}: server version regressed "
                    f"{self._last_version} -> {version} (rollback to an "
                    "older generation)",
                    table_id=self.table_id,
                )
            if version == self._last_version and root != self._last_root:
                raise IntegrityError(
                    f"table {self.table_id!r}: two different roots at "
                    f"version {version} (forked table state)",
                    table_id=self.table_id,
                )
        self._last_version = version
        self._last_root = root
