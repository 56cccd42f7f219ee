"""repro.integrity: verifying the untrusted service provider.

The paper's threat model makes the provider untrusted, yet until this
package the repo only authenticated the *request* path (PR 5's signed
envelopes).  A tampering or rolled-back server could silently return stale
or modified ciphertext.  This package closes that gap:

* :mod:`repro.integrity.merkle` — a content-defined Merkle sequence over
  ciphertext rows (leaf = hash of the row's canonical cell bytes) whose
  shape depends only on its leaves, so both parties splice a view delta
  into it rehashing only the chunks the delta touches (multiproofs remain
  for offline checks; no reply carries one).  It is the only whole-view
  digest: a delta's base is checked by row count plus the commit-version
  compare-and-swap, never by re-hashing the view.
* :mod:`repro.integrity.state` — the owner's per-table verification state:
  her own copy of the tree plus a monotonic ``(version, root)`` freshness
  chain, and the check of a select's answer against her replica, raising
  :class:`repro.exceptions.IntegrityError` on any mismatch or rollback.
* :mod:`repro.integrity.writers` — the :class:`WriteCoordinator` every
  session writes through (alone, or shared by concurrent writers of one
  table), retrying optimistic deltas on ``VERSION_CONFLICT`` with a rebase
  and rewriting the full view only when the server moved with no writer
  in flight.
* :mod:`repro.integrity.verify` — offline verification of a storage
  directory (full-CRC store checks plus Merkle-root recomputation), behind
  ``f2-repro verify`` and ``serve --verify-on-start``.

Reply authenticity (HMAC-signed replies keyed by a key *derived* from the
tenant secret) lives in :mod:`repro.api.auth`; the protocol plumbing in
:mod:`repro.api.protocol`.
"""

from repro.integrity.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    Multiproof,
    hash_row,
    relation_leaves,
    verify_multiproof,
)
from repro.integrity.state import TableIntegrityState
from repro.integrity.verify import verify_storage_dir
from repro.integrity.writers import WriteCoordinator

__all__ = [
    "EMPTY_ROOT",
    "MerkleTree",
    "Multiproof",
    "TableIntegrityState",
    "WriteCoordinator",
    "hash_row",
    "relation_leaves",
    "verify_multiproof",
    "verify_storage_dir",
]
