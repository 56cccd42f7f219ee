"""The owner's per-table verification state.

A :class:`TableIntegrityState` is the client-side mirror of the server's
Merkle tree: the owner updates it from the views and deltas *she* sends
(so it reflects what the table should hold) — a push builds the tree, a
delta splices it exactly as the server does, rehashing only the chunks
the delta touches — then checks every reply against it —

* **root agreement** — the root the server advertises must equal the root
  of the owner's own tree;
* **freshness** — the ``(commit version, root)`` pair must advance
  monotonically: a lower version than any previously seen, or a different
  root at the same version, means the provider rolled back or forked the
  table;
* **inclusion** — the reply's multiproof must be the one the owner's own
  tree gives for the matched indexes, so every matched row sits at its
  claimed index under the agreed root.

Every violation raises :class:`repro.exceptions.IntegrityError` with the
table id attached.  The state is thread-safe and shareable: concurrent
writers coordinated by :class:`repro.integrity.writers.WriteCoordinator`
feed one shared instance.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.exceptions import IntegrityError
from repro.integrity.merkle import MerkleTree, Multiproof, relation_leaves
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.relational.table import Relation

# Client-side verification cost (no-ops under REPRO_METRICS=0).
_VERIFY_SECONDS = _metrics.histogram("integrity.verify_seconds")
_PROOFS_VERIFIED = _metrics.counter("integrity.proofs_verified")
_PROOF_BYTES_VERIFIED = _metrics.counter("integrity.proof_bytes_verified")


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

    @property
    def last_version(self) -> "int | None":
        with self._lock:
            return self._last_version

    def record_push(self, view: "Relation", version: int, server_root: str = "") -> str:
        """Adopt a full view the server acknowledged; returns the new root.

        ``server_root`` (when the reply carried one) is checked against the
        owner's own tree immediately — a server that mangled the upload is
        caught at write time, not at the first query.
        """
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
        row_indexes: Sequence[int],
        proofs: Multiproof,
        num_leaves: int,
        root: str,
    ) -> None:
        """Check the multiproof of the matched rows against ``root``.

        The leaf hashes come from the owner's own tree — the server proves
        *placement*, it never gets to supply the row bytes being proven.
        The owner holds that whole tree, so a multiproof leads from her
        leaves to ``root`` exactly when ``root`` is her root and the proof
        is her own multiproof for the same indexes (anything else needs a
        SHA-256 collision; :func:`~repro.integrity.merkle.verify_multiproof`
        is the oracle).  Comparing the digests and geometry therefore
        decides the proof without hashing.
        """
        with obs.span(
            "integrity.verify_proofs",
            table=self.table_id,
            proofs=len(proofs),
        ) as span_obj:
            started = time.perf_counter()
            self._verify_proofs(row_indexes, proofs, num_leaves, root)
            if span_obj is not None:
                _VERIFY_SECONDS.observe(time.perf_counter() - started)
                _PROOFS_VERIFIED.inc(len(proofs))
                _PROOF_BYTES_VERIFIED.inc(
                    sum(len(node) for path in proofs for node in path)
                )

    def _verify_proofs(
        self,
        row_indexes: Sequence[int],
        proofs: Multiproof,
        num_leaves: int,
        root: str,
    ) -> None:
        with self._lock:
            tree = self._tree
        if tree is None:
            raise IntegrityError(
                f"table {self.table_id!r}: no owner-side tree to verify "
                "proofs against",
                table_id=self.table_id,
            )
        if len(proofs) != len(row_indexes):
            raise IntegrityError(
                f"table {self.table_id!r}: {len(proofs)} proofs for "
                f"{len(row_indexes)} matched rows",
                table_id=self.table_id,
            )
        if num_leaves != tree.num_leaves:
            raise IntegrityError(
                f"table {self.table_id!r}: proofs claim a {num_leaves}-row "
                f"tree, owner expects {tree.num_leaves}",
                table_id=self.table_id,
            )
        for index in row_indexes:
            if not 0 <= index < num_leaves:
                raise IntegrityError(
                    f"table {self.table_id!r}: matched row {index} outside "
                    f"the {num_leaves}-row table",
                    table_id=self.table_id,
                )
        try:
            expected = tree.multiproof(row_indexes)
        except IntegrityError as exc:  # unsorted or repeated indexes
            raise IntegrityError(
                f"table {self.table_id!r}: matched rows do not form a proof: {exc}",
                table_id=self.table_id,
            ) from None
        if root != tree.root or proofs != expected:
            raise IntegrityError(
                f"table {self.table_id!r}: the multiproof of "
                f"{len(row_indexes)} matched rows does not verify against the root",
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
