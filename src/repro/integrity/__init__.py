"""repro.integrity: verifying the untrusted service provider.

The paper's threat model makes the provider untrusted, yet until this
package the repo only authenticated the *request* path (PR 5's signed
envelopes).  A tampering or rolled-back server could silently return stale
or modified ciphertext.  This package closes that gap:

* :mod:`repro.integrity.merkle` — an incrementally-maintained Merkle tree
  over ciphertext rows (leaf = hash of the row's canonical cell bytes), with
  O(log n) appends and compact inclusion proofs.  It is the only whole-view
  digest: a delta's base is checked by row count plus the commit-version
  compare-and-swap, never by re-hashing the view.
* :mod:`repro.integrity.state` — the owner's per-table verification state:
  her own copy of the leaf hashes plus a monotonic ``(version, root)``
  freshness chain, raising :class:`repro.exceptions.IntegrityError` on any
  mismatch or rollback.
* :mod:`repro.integrity.writers` — a :class:`WriteCoordinator` for several
  concurrent writers of one table, retrying optimistic deltas on
  ``VERSION_CONFLICT`` with a rebase instead of a full-view rewrite.
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
    hash_row,
    leaves_after_delta,
    relation_leaves,
    verify_proof,
)
from repro.integrity.state import TableIntegrityState
from repro.integrity.verify import verify_storage_dir
from repro.integrity.writers import WriteCoordinator

__all__ = [
    "EMPTY_ROOT",
    "MerkleTree",
    "TableIntegrityState",
    "WriteCoordinator",
    "hash_row",
    "leaves_after_delta",
    "relation_leaves",
    "verify_proof",
    "verify_storage_dir",
]
