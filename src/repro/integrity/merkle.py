"""Merkle trees over ciphertext rows.

The leaf of row *i* is a SHA-256 over the row's cells in one canonical byte
form (``str(cell)`` UTF-8 with ``0x1f`` cell separators and an ``0x1e``
terminator), so the owner — who holds the server view she shipped — and an
honest server always compute the same root from the same relation,
regardless of engine or backend.  The tree is the integrity check only;
which base an ``InsertDelta`` applies to is pinned by its row count and
commit-version compare-and-swap (see :mod:`repro.api.delta`).

Hash inputs are domain-separated (``0x00`` leaf prefix, ``0x01`` node
prefix) so an inner node can never be presented as a leaf or vice versa.
An odd trailing node is *promoted* to the next level unchanged (not paired
with a copy of itself), which keeps every root unambiguous about its leaf
count and makes appends strictly right-edge work: :meth:`MerkleTree.append`
touches O(log n) nodes, matching the O(delta) cost profile of the segment
store's ``InsertDelta`` path.

Inclusion proofs (:meth:`MerkleTree.proof` / :func:`verify_proof`) carry
only the sibling digests; orientation and promotions are re-derived at
verification time from the leaf index and the tree's leaf count, so a proof
is ``32 * ceil(log2(n))`` bytes at most.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.exceptions import IntegrityError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.relational.table import Relation

#: Root of the zero-leaf tree (a fixed domain-separated constant, so an
#: empty table still has a well-defined, non-forgeable root).
EMPTY_ROOT = hashlib.sha256(b"\x02f2-merkle-empty/1").hexdigest()

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def hash_row(cells: Iterable[object]) -> bytes:
    """The leaf digest of one row (over its canonical cell bytes)."""
    digest = hashlib.sha256(_LEAF_PREFIX)
    for cell in cells:
        digest.update(str(cell).encode("utf-8"))
        digest.update(b"\x1f")
    digest.update(b"\x1e")
    return digest.digest()


def relation_leaves(relation: "Relation") -> list[bytes]:
    """Leaf digests of every row of a relation, in row order."""
    return [hash_row(row) for row in relation.rows()]


def _hash_pair(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """A Merkle tree kept as per-level digest arrays for O(log n) appends."""

    __slots__ = ("_levels",)

    def __init__(self, leaves: Sequence[bytes] = ()):
        self._levels: list[list[bytes]] = [list(leaves)]
        level = 0
        while len(self._levels[level]) > 1:
            child = self._levels[level]
            parent = [
                _hash_pair(child[i], child[i + 1]) if i + 1 < len(child) else child[i]
                for i in range(0, len(child), 2)
            ]
            self._levels.append(parent)
            level += 1

    def copy(self) -> "MerkleTree":
        """An independent tree sharing the (immutable) digest bytes.

        O(n) list copies but zero hashing — used to compute a candidate
        post-delta tree without touching the committed one until the write
        actually lands.
        """
        clone = MerkleTree.__new__(MerkleTree)
        clone._levels = [list(level) for level in self._levels]
        return clone

    @property
    def num_leaves(self) -> int:
        return len(self._levels[0])

    @property
    def leaves(self) -> list[bytes]:
        """The leaf digests (a copy; mutating it does not touch the tree)."""
        return list(self._levels[0])

    @property
    def root(self) -> str:
        """The root digest as hex (``EMPTY_ROOT`` for a leafless tree)."""
        top = self._levels[-1]
        return top[0].hex() if top else EMPTY_ROOT

    def append(self, leaf: bytes) -> None:
        """Add one leaf, recomputing only the right-edge path (O(log n))."""
        self.extend([leaf])

    def extend(self, new_leaves: Iterable[bytes]) -> None:
        """Append several leaves, recomputing each affected tail once."""
        added = list(new_leaves)
        if not added:
            return
        changed = len(self._levels[0])  # first index whose ancestors change
        self._levels[0].extend(added)
        level = 0
        while len(self._levels[level]) > 1:
            child = self._levels[level]
            if level + 1 >= len(self._levels):
                self._levels.append([])
            parent = self._levels[level + 1]
            start = changed // 2
            del parent[start:]
            for i in range(start * 2, len(child), 2):
                parent.append(
                    _hash_pair(child[i], child[i + 1]) if i + 1 < len(child) else child[i]
                )
            changed = start
            level += 1
        del self._levels[level + 1 :]

    def proof(self, index: int) -> list[bytes]:
        """Sibling digests from leaf ``index`` up to (excluding) the root.

        Levels where the node is promoted (an odd tail with no sibling)
        contribute nothing; :func:`verify_proof` re-derives which levels
        those are from ``(index, num_leaves)``.
        """
        if not 0 <= index < self.num_leaves:
            raise IntegrityError(
                f"proof index {index} outside the tree's {self.num_leaves} leaves"
            )
        path: list[bytes] = []
        j = index
        for level in self._levels[:-1]:
            sibling = j ^ 1
            if sibling < len(level):
                path.append(level[sibling])
            j //= 2
        return path


def verify_proof(
    leaf: bytes, index: int, num_leaves: int, path: Sequence[bytes], root: str
) -> bool:
    """Check an inclusion proof against a root, given the tree's leaf count.

    Walks the same level widths the prover had, so promotions consume no
    path element; returns ``False`` on any mismatch, including a path of
    the wrong length for ``(index, num_leaves)``.
    """
    if num_leaves <= 0 or not 0 <= index < num_leaves:
        return False
    node = leaf
    j = index
    width = num_leaves
    cursor = 0
    while width > 1:
        sibling = j ^ 1
        if sibling < width:
            if cursor >= len(path):
                return False
            other = path[cursor]
            cursor += 1
            node = _hash_pair(node, other) if j % 2 == 0 else _hash_pair(other, node)
        j //= 2
        width = (width + 1) // 2
    return cursor == len(path) and node.hex() == root


def leaves_after_delta(base_leaves: Sequence[bytes], delta: "ViewDelta") -> list[bytes]:
    """The leaf list a delta produces, hashing only its literal rows.

    Copy segments reference slices of ``base_leaves`` verbatim; only the
    shipped literal rows are hashed — O(changed rows), never O(table).
    Raises :class:`IntegrityError` if the delta's structure does not fit the
    base (the protocol layer validates structure first, so hitting this
    means the delta was applied against the wrong cached tree).
    """
    from repro.api.delta import OP_COPY, OP_LITERAL

    literal_hashes: list[bytes] = (
        [] if delta.literals is None else relation_leaves(delta.literals)
    )
    result: list[bytes] = []
    cursor = 0
    for segment in delta.segments:
        op = segment[0]
        if op == OP_COPY:
            start, count = int(segment[1]), int(segment[2])
            if start < 0 or count < 0 or start + count > len(base_leaves):
                raise IntegrityError(
                    f"delta copy segment {start}+{count} outside the cached "
                    f"{len(base_leaves)} leaves"
                )
            result.extend(base_leaves[start : start + count])
        elif op == OP_LITERAL:
            count = int(segment[1])
            if count < 0 or cursor + count > len(literal_hashes):
                raise IntegrityError("delta literal segment overruns its rows")
            result.extend(literal_hashes[cursor : cursor + count])
            cursor += count
        else:
            raise IntegrityError(f"unknown delta opcode {op!r}")
    return result
