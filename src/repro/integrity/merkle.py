"""A history-independent Merkle sequence over ciphertext rows.

The leaf of row *i* is a SHA-256 over the row's cells in one canonical byte
form (``str(cell)`` UTF-8 with ``0x1f`` cell separators and an ``0x1e``
terminator), so the owner — who holds the server view she shipped — and an
honest server always compute the same root from the same relation,
regardless of engine or backend.  The tree is the integrity check only;
which base an ``InsertDelta`` applies to is pinned by its row count and
commit-version compare-and-swap (see :mod:`repro.api.delta`).

**Shape.**  Each level is cut into *chunks* by content, the idea of prolly
trees and Merkle Search Trees (Auvolat & Taïani, SRDS 2019): a node closes
its chunk when the low two bits of its digest are zero and the chunk holds
at least :data:`MIN_CHUNK` nodes, or when the chunk reaches
:data:`MAX_CHUNK` nodes (so runs of identical rows stay bounded).  Each
chunk becomes one node of the level above, until a level has one node: the
root.  The mean fanout is about 4; the minimum of two guarantees every
level shrinks, so the height is at most ``log2 n``.  Because boundaries
depend only on the nodes themselves (and their offset inside the chunk),
the tree is a function of its leaf sequence alone — however that sequence
was reached.

**Splice.**  That is what makes an edit local.  :meth:`MerkleTree.splice`
applies a view delta's copy segments and literal runs level by level: a
chunk that starts where an old chunk started and copies all of it is the
old chunk, so its parent is reused without hashing, and only the chunks
around literal rows and segment seams are rehashed — O(delta · height)
hashes instead of a rebuild.  The only O(n) work left is C-speed list
slicing.  A full build is the same splice from the empty tree, so build,
append (:meth:`MerkleTree.extend`) and delta are one algorithm.

**Hashing.**  Inputs are domain-separated: ``0x00`` prefixes a leaf,
``0x03`` a chunk node (the legacy binary tree used ``0x01``, so no root of
this tree equals a legacy root).  A chunk node hashes each child's leaf
count (8 bytes, big-endian; 1 for a leaf) followed by its digest, so the
root commits to the leaf count and to the position of every leaf.  The
root of a one-leaf tree is the leaf itself.  :func:`relation_leaves`
computes the leaves of a whole relation from its coded view, which both
parties already hold: the codec built it on the owner's side and decoded
it on the provider's.  Each distinct value of a column is formatted once,
and a row's leaf hashes the byte strings its codes pick out.  The leaf
bytes are exactly :func:`hash_row`'s, so roots are unchanged.

**Proofs.**  :meth:`MerkleTree.multiproof` proves a strictly ascending set
of leaf indexes at once.  Each touched chunk is described once by its
geometry (size, a bitmask of the slots the proof already knows, and, above
the leaves, the leaf counts of the other slots) and by the digests of its
other slots.  Those digests are split by row: row *k* carries only the
siblings that rows before it did not already carry, so a proof of many
rows holds each shared digest once.  :func:`verify_multiproof` checks such
a proof from the leaves alone.  No select reply carries one: inclusion
shows neither that an answer is complete nor, for replies without tuples,
anything the root does not, so a verified owner recomputes the answer over
her replica instead (:mod:`repro.integrity.state`).
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

from repro.exceptions import IntegrityError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.relational.table import Relation

#: Root of the zero-leaf tree (a fixed domain-separated constant, so an
#: empty table still has a well-defined, non-forgeable root).
EMPTY_ROOT = hashlib.sha256(b"\x02f2-merkle-empty/1").hexdigest()

#: Root format recorded next to a persisted root: 1 was the binary tree
#: with promoted odd tails, 2 is this content-defined sequence.
ROOT_FORMAT = 2

#: Chunk-size bounds (constants of the format, not settings).
MIN_CHUNK = 2
MAX_CHUNK = 16

_BOUNDARY_MASK = 0x03  # low two bits zero: ~1 node in 4 closes a chunk
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x03"
_DIGEST_LEN = 32
#: ``_PACK_COUNTS[m](*counts)``: m leaf counts as 8-byte big-endian words.
_PACK_COUNTS = [struct.Struct(f">{m}Q").pack for m in range(MAX_CHUNK + 1)]
#: The counts block of a chunk of m leaves (every count is 1).
_LEAF_COUNTS = [_PACK_COUNTS[m](*[1] * m) for m in range(MAX_CHUNK + 1)]

#: A splice input: a ``(start, count)`` copy of old leaves, or new leaves.
Piece = Union[tuple[int, int], list[bytes]]


def _closes(node: bytes, size: int) -> bool:
    """Whether ``node``, the ``size``-th node of its chunk, closes it."""
    return size >= MAX_CHUNK or (size >= MIN_CHUNK and not node[-1] & _BOUNDARY_MASK)


def hash_row(cells: Iterable[object]) -> bytes:
    """The leaf digest of one row (over its canonical cell bytes)."""
    digest = hashlib.sha256(_LEAF_PREFIX)
    for cell in cells:
        digest.update(str(cell).encode("utf-8"))
        digest.update(b"\x1f")
    digest.update(b"\x1e")
    return digest.digest()


def relation_leaves(relation: "Relation") -> list[bytes]:
    """Leaf digests of every row of a relation, in row order.

    Equal to ``[hash_row(row) for row in relation.rows()]``, computed from
    the relation's coded view: each distinct value of a column is formatted
    once (with its separator, the leaf prefix on the first column and the
    terminator on the last), and a row's leaf hashes the concatenation its
    codes pick out.
    """
    if not relation.num_rows:
        return []
    coded = relation.coded()
    attributes = relation.attributes
    last = len(attributes) - 1
    picked = []
    for position, attribute in enumerate(attributes):
        column = coded.column(attribute)
        head = _LEAF_PREFIX if position == 0 else b""
        tail = b"\x1f\x1e" if position == last else b"\x1f"
        cells = [head + str(value).encode("utf-8") + tail for value in column.dictionary]
        picked.append(map(cells.__getitem__, column.code_list()))
    sha256 = hashlib.sha256
    return [sha256(b"".join(row)).digest() for row in zip(*picked)]


@dataclass(frozen=True)
class Multiproof:
    """One proof for several leaves: per-row digests plus chunk geometry.

    Iterating (or ``len``) walks :attr:`paths`, one tuple of 32-byte
    digests per proven index, aligned with the indexes.
    """

    paths: tuple[tuple[bytes, ...], ...]
    geometry: tuple[int, ...]

    def __iter__(self) -> Iterator[tuple[bytes, ...]]:
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


class MerkleTree:
    """A content-defined Merkle sequence, immutable once built.

    Each level is a list of 32-byte digests (level 0: the leaves); above
    the leaves, every node's leaf count and child count sit in parallel
    lists.  Levels are never mutated in place — a splice builds new lists
    that share every untouched digest — so :meth:`copy` is O(1).
    """

    __slots__ = ("_levels", "_counts", "_sizes", "_ends")

    def __init__(self, leaves: Sequence[bytes] = ()):
        self._levels: list[list[bytes]] = [[]]
        self._counts: list[list[int]] = [[]]
        self._sizes: list[list[int]] = [[]]
        self._ends: list["list[int] | None"] = []
        if leaves:
            self._adopt(self._splice([list(leaves)]))

    def copy(self) -> "MerkleTree":
        """A tree sharing this one's (immutable) levels; O(1)."""
        clone = MerkleTree()
        clone._adopt(self)
        return clone

    def _adopt(self, other: "MerkleTree") -> None:
        self._levels = other._levels
        self._counts = other._counts
        self._sizes = other._sizes
        self._ends = other._ends

    def __eq__(self, other: object) -> bool:
        """Equal leaves, hence equal levels (the shape is history-free)."""
        if not isinstance(other, MerkleTree):
            return NotImplemented
        return (
            self._levels == other._levels
            and self._counts == other._counts
            and self._sizes == other._sizes
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def num_leaves(self) -> int:
        return len(self._levels[0])

    @property
    def height(self) -> int:
        """Chunk levels above the leaves (0 for an empty or one-leaf tree)."""
        return len(self._levels) - 1

    @property
    def root(self) -> str:
        """The root digest as hex (``EMPTY_ROOT`` for a leafless tree)."""
        top = self._levels[-1]
        return top[0].hex() if top else EMPTY_ROOT

    def append(self, leaf: bytes) -> None:
        """Add one leaf."""
        self.extend([leaf])

    def extend(self, new_leaves: Iterable[bytes]) -> None:
        """Append leaves: the splice of copy-all + literals, adopted in place."""
        self._adopt(self._splice([(0, self.num_leaves), list(new_leaves)]))

    def splice(self, delta: "ViewDelta") -> "MerkleTree":
        """The tree of the view ``delta`` produces; this tree is untouched.

        Hashes the delta's literal rows and the chunks around them and
        around its segment seams; every other chunk is reused.  Raises
        :class:`IntegrityError` if the delta's structure does not fit this
        tree (the protocol layer validates structure first, so hitting
        this means the delta was applied against the wrong cached tree).
        """
        from repro.api.delta import OP_COPY, OP_LITERAL

        literal = [] if delta.literals is None else relation_leaves(delta.literals)
        pieces: list[Piece] = []
        cursor = 0
        for segment in delta.segments:
            op = segment[0]
            if op == OP_COPY:
                start, count = int(segment[1]), int(segment[2])
                if start < 0 or count < 0 or start + count > self.num_leaves:
                    raise IntegrityError(
                        f"delta copy segment {start}+{count} outside the cached "
                        f"{self.num_leaves} leaves"
                    )
                pieces.append((start, count))
            elif op == OP_LITERAL:
                count = int(segment[1])
                if count < 0 or cursor + count > len(literal):
                    raise IntegrityError("delta literal segment overruns its rows")
                pieces.append(literal[cursor : cursor + count])
                cursor += count
            else:
                raise IntegrityError(f"unknown delta opcode {op!r}")
        return self._splice(pieces)

    # -- the splice ------------------------------------------------------
    def _chunk_ends(self, level: int) -> "list[int] | None":
        """Cumulative ends of the chunks cutting ``level`` (``None`` at the top)."""
        if level + 1 >= len(self._levels):
            return None
        ends = self._ends
        if len(ends) != len(self._levels) - 1:
            ends = self._ends = [None] * (len(self._levels) - 1)
        cached = ends[level]
        if cached is None:
            cached = ends[level] = list(accumulate(self._sizes[level + 1]))
        return cached

    def _splice(self, pieces: Sequence[Piece]) -> "MerkleTree":
        """The tree whose leaves are ``pieces`` (copies of ours, or new)."""
        old_leaves = self._levels[0]
        nodes: list[bytes] = []
        #: (new position, old position, count) of every copied range.
        runs: list[tuple[int, int, int]] = []
        for piece in pieces:
            if isinstance(piece, tuple):
                start, count = piece
                if count:
                    runs.append((len(nodes), start, count))
                    nodes += old_leaves[start : start + count]
            else:
                nodes += piece
        tree = MerkleTree.__new__(MerkleTree)
        tree._levels = [nodes]
        tree._counts = [[]]
        tree._sizes = [[]]
        tree._ends = []
        level = 0
        while len(nodes) > 1:
            nodes, counts, sizes, runs = self._cut(level, nodes, tree._counts[level], runs)
            tree._levels.append(nodes)
            tree._counts.append(counts)
            tree._sizes.append(sizes)
            level += 1
        return tree

    def _cut(
        self,
        level: int,
        nodes: list[bytes],
        counts: list[int],
        runs: list[tuple[int, int, int]],
    ) -> tuple[list[bytes], list[int], list[int], list[tuple[int, int, int]]]:
        """Chunk one new level into its parent level, reusing old chunks.

        ``runs`` map ranges of ``nodes`` onto this tree's same level.  When
        a new chunk would start at an old chunk's start inside a run, every
        old chunk the run covers whole is taken over with its parent (the
        old last chunk only if it closed by content or size, or ends the new
        level too); everything else is cut node by node and hashed.
        """
        old_ends = self._chunk_ends(level)
        if old_ends is not None:
            old_nodes = self._levels[level]
            up_nodes = self._levels[level + 1]
            up_counts = self._counts[level + 1]
            up_sizes = self._sizes[level + 1]
            last_chunk = len(old_ends) - 1
        parents: list[bytes] = []
        parent_counts: list[int] = []
        parent_sizes: list[int] = []
        parent_runs: list[tuple[int, int, int]] = []
        sha256 = hashlib.sha256
        leaf_level = level == 0
        n = len(nodes)
        last = n - 1
        run_index = 0
        start = pos = 0
        while pos < n:
            if pos == start and old_ends is not None:
                while run_index < len(runs) and runs[run_index][0] + runs[run_index][2] <= pos:
                    run_index += 1
                if run_index < len(runs) and runs[run_index][0] <= pos:
                    run_new, run_old, run_length = runs[run_index]
                    old_pos = run_old + pos - run_new
                    first = bisect_right(old_ends, old_pos)
                    if (old_ends[first - 1] if first else 0) == old_pos:
                        end = bisect_right(old_ends, run_old + run_length) - 1
                        if (
                            end == last_chunk
                            and run_new + run_length < n
                            and not _closes(old_nodes[old_ends[end] - 1], up_sizes[end])
                        ):
                            end -= 1  # the old level's end closed it, not its content
                        if end >= first:
                            parent_runs.append((len(parents), first, end + 1 - first))
                            parents += up_nodes[first : end + 1]
                            parent_counts += up_counts[first : end + 1]
                            parent_sizes += up_sizes[first : end + 1]
                            pos = start = pos + old_ends[end] - old_pos
                            continue
            size = pos - start + 1
            if (  # pos == last, or _closes(nodes[pos], size) inlined
                pos == last
                or size >= MAX_CHUNK
                or (size >= MIN_CHUNK and not nodes[pos][-1] & _BOUNDARY_MASK)
            ):
                pos += 1
                chunk = nodes[start:pos]
                if leaf_level:
                    count = size
                    block = _LEAF_COUNTS[size]
                else:
                    child_counts = counts[start:pos]
                    count = sum(child_counts)
                    block = _PACK_COUNTS[size](*child_counts)
                parents.append(sha256(_NODE_PREFIX + block + b"".join(chunk)).digest())
                parent_counts.append(count)
                parent_sizes.append(size)
                start = pos
            else:
                pos += 1
        return parents, parent_counts, parent_sizes, parent_runs

    # -- proofs ----------------------------------------------------------
    def multiproof(self, indexes: Sequence[int]) -> Multiproof:
        """One multiproof for strictly ascending leaf ``indexes``."""
        indexes = list(indexes)
        _check_indexes(indexes, self.num_leaves)
        paths: list[list[bytes]] = [[] for _ in indexes]
        geometry: list[int] = []
        known = indexes
        owners = list(range(len(indexes)))  # the row whose path carries each chunk
        for level in range(self.height):
            ends = self._chunk_ends(level)
            assert ends is not None
            nodes = self._levels[level]
            counts = self._counts[level]
            next_known: list[int] = []
            next_owners: list[int] = []
            total = len(known)
            i = 0
            while i < total:
                member = known[i]
                chunk = bisect_right(ends, member)
                start = ends[chunk - 1] if chunk else 0
                end = ends[chunk]
                owner = owners[i]
                path = paths[owner]
                next_owners.append(owner)
                next_known.append(chunk)
                i += 1
                if i == total or known[i] >= end:  # the common case: one member
                    geometry += (end - start, 1 << (member - start))
                    path += nodes[start:member]
                    path += nodes[member + 1 : end]
                    if level:
                        geometry += counts[start:member]
                        geometry += counts[member + 1 : end]
                    continue
                first = i - 1
                mask = 1 << (member - start)
                while i < total and known[i] < end:
                    mask |= 1 << (known[i] - start)
                    i += 1
                geometry += (end - start, mask)
                # The other slots: the runs between the known members.
                for member in (*known[first:i], end):
                    path += nodes[start:member]
                    if level:
                        geometry += counts[start:member]
                    start = member + 1
            known, owners = next_known, next_owners
        return Multiproof(tuple(map(tuple, paths)), tuple(geometry))


def _check_indexes(indexes: Sequence[int], num_leaves: int) -> None:
    if indexes and not (0 <= indexes[0] and indexes[-1] < num_leaves):
        raise IntegrityError(
            f"proof indexes {indexes[0]}..{indexes[-1]} outside the tree's "
            f"{num_leaves} leaves"
        )
    if any(b <= a for a, b in zip(indexes, indexes[1:])):
        raise IntegrityError("proof indexes must be strictly ascending")


def verify_multiproof(
    leaves: Sequence[bytes],
    indexes: Sequence[int],
    num_leaves: int,
    proof: Multiproof,
    root: str,
) -> bool:
    """Check a multiproof of ``leaves`` at ``indexes`` against a root.

    Rebuilds every touched chunk bottom-up from the geometry, drawing each
    chunk's other digests from the path of the row that owns it, and
    accepts only when the rebuilt root is ``root``, its leaf count is
    ``num_leaves``, the leaf counts place every leaf at its claimed index,
    and every digest and geometry entry was consumed.  An empty index set
    proves nothing and is accepted only with an empty proof.
    """
    indexes = list(indexes)
    try:
        _check_indexes(indexes, num_leaves)
    except IntegrityError:
        return False
    if len(leaves) != len(indexes) or len(proof.paths) != len(indexes):
        return False
    if not indexes:
        return not proof.geometry
    geometry = proof.geometry
    cursors = [0] * len(indexes)
    offsets = [0] * len(indexes)  # each row's leaf offset inside its known node
    # Known nodes of the current level: (digest, leaf count, rows first..last).
    known = [(leaf, 1, row, row + 1) for row, leaf in enumerate(leaves)]
    g = 0
    level = 0
    try:
        while g < len(geometry):
            parents = []
            i = 0
            while i < len(known):
                size, mask = geometry[g], geometry[g + 1]
                g += 2
                if not 1 <= size <= MAX_CHUNK or not 0 < mask < 1 << size:
                    return False
                owner = known[i][2]
                digests = []
                counts = []
                first_row = owner
                for slot in range(size):
                    if mask >> slot & 1:
                        digest, count, row_lo, row_hi = known[i]
                        i += 1
                        below = sum(counts)
                        for row in range(row_lo, row_hi):
                            offsets[row] += below
                        last_row = row_hi
                    else:
                        path = proof.paths[owner]
                        digest = path[cursors[owner]]
                        cursors[owner] += 1
                        if len(digest) != _DIGEST_LEN:
                            return False
                        if level:
                            count = geometry[g]
                            g += 1
                            if count < 1:
                                return False
                        else:
                            count = 1
                    digests.append(digest)
                    counts.append(count)
                block = _PACK_COUNTS[size](*counts)
                node = hashlib.sha256(_NODE_PREFIX + block + b"".join(digests)).digest()
                parents.append((node, sum(counts), first_row, last_row))
            known = parents
            level += 1
    except (IndexError, struct.error):
        return False
    if len(known) != 1 or cursors != [len(path) for path in proof.paths]:
        return False
    digest, count = known[0][0], known[0][1]
    return digest.hex() == root and count == num_leaves and offsets == indexes
