"""Persistent owner state: chunked sequences and layered insert-only maps.

An owner insert makes a new version of her per-row state — the plaintext,
the server view, its provenance and row plans, the materialiser's maps —
while older versions stay readable: a staged write can be withdrawn, and a
select on another thread may still read the table the insert replaces.  A
version therefore must not edit what the previous one holds, and copying
all of it per insert makes a one-row insert cost O(table).  The two
structures here share instead of copying (Driscoll, Sarnak, Sleator &
Tarjan, "Making Data Structures Persistent", JCSS 1989):

* :class:`Chunks` — an immutable sequence stored as tuples of at most
  :data:`CHUNK` items, the bounded leaves of a rope (Boehm, Atkinson &
  Plass, SP&E 1995).  :func:`splice` builds a new version from runs of an
  old one and new items: every chunk a run covers whole is shared, and only
  the chunks at seams are built.
* :class:`LayeredMap` — an insert-only mapping stored as a stack of dicts.
  A new version is a new top layer over the previous version's layers;
  layers merge size-tiered (the LSM rule of O'Neil et al., Acta
  Informatica 1996) into *new* dicts, so lookups walk O(log n) layers and
  no layer another version holds is ever mutated.  :func:`stacked` is the
  merge rule, also used for layered sets.

Nothing here is ever mutated once another version can see it: chunks are
tuples, chunk and end lists are built once per version, and merged layers
are fresh dicts.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, MutableMapping, Sequence
from itertools import chain
from typing import Any, TypeVar

T = TypeVar("T")

#: Most items per chunk.  A seam costs O(CHUNK) copied items and sharing
#: costs O(n / CHUNK) references.  One-row inserts on perfbench-shaped 2k
#: and 8k tables took the same time with 32, 64, 128 and 256 (within the
#: run-to-run noise of a shared 2-vCPU host, python backend).
CHUNK = 64


class Chunks(Sequence[T]):
    """An immutable sequence of items held in tuples of at most :data:`CHUNK`.

    ``ends[k]`` is the cumulative item count through chunk ``k``; adjacent
    chunks always hold more than :data:`CHUNK` items together, so there are
    at most ``2n / CHUNK + 1`` of them.  Indexing bisects ``ends``;
    iteration chains the chunks.  Sequences built together (the columns of
    one relation) share one ``ends`` list, which is never mutated.
    """

    __slots__ = ("chunks", "ends")

    def __init__(self, chunks: list[tuple] | None = None, ends: list[int] | None = None):
        self.chunks: list[tuple[T, ...]] = chunks if chunks is not None else []
        self.ends: list[int] = ends if ends is not None else []

    @classmethod
    def of(cls, items: Iterable[T]) -> "Chunks[T]":
        """The items of ``items`` in full chunks (the last one partial)."""
        return splice(None, [items if isinstance(items, Sequence) else list(items)])[0]

    def extended(self, items: Iterable[T]) -> "Chunks[T]":
        """A new sequence: these items, then ``items``.  Every chunk but the
        last is shared."""
        items = items if isinstance(items, Sequence) else list(items)
        if not items:
            return self
        return splice([self], [items], [[0, len(self)], [-1, len(items)]])[0]

    def __len__(self) -> int:
        ends = self.ends
        return ends[-1] if ends else 0

    def __iter__(self) -> Iterator[T]:
        return chain.from_iterable(self.chunks)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return list(self)[index]
            return self.between(start, stop)
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("chunked sequence index out of range")
        ends = self.ends
        k = bisect_right(ends, index)
        return self.chunks[k][index - ends[k] + len(self.chunks[k])]

    def between(self, start: int, stop: int) -> list[T]:
        """Items ``start`` to ``stop`` (within bounds) as a list."""
        out: list[T] = []
        if start >= stop:
            return out
        chunks, ends = self.chunks, self.ends
        k = bisect_right(ends, start)
        while start < stop:
            chunk = chunks[k]
            first = ends[k] - len(chunk)
            out.extend(chunk[start - first : min(stop, ends[k]) - first])
            start = ends[k]
            k += 1
        return out

    def locate(self, index: int) -> tuple[int, int]:
        """``(chunk, offset)`` of item ``index`` (``0 <= index < len``)."""
        ends = self.ends
        k = bisect_right(ends, index)
        return k, index - ends[k] + len(self.chunks[k])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(_same, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Chunks({list(self)!r})"


def _same(first: Any, second: Any) -> bool:
    return first is second or first == second


def splice(
    bases: "Sequence[Chunks | Sequence | None] | None",
    pendings: Sequence[Sequence],
    segments: Iterable[Sequence[int]] | None = None,
) -> list[Chunks]:
    """Splice chunked sequences from runs of ``bases`` and of ``pendings``.

    ``segments`` is :class:`repro.core.conflict.Splice`'s map: ``[start,
    count]`` reuses ``count`` items of the base from ``start`` on, ``[-1,
    count]`` takes the next ``count`` items of the pending sequence, in
    order (``None``: one run of every pending item).  Sequence ``i`` of
    the result splices ``bases[i]`` with ``pendings[i]``; ``bases`` is
    ``None`` when every run is pending.  A chunk a base run covers whole
    is shared, not copied; the pieces at seams are sliced out, and a piece
    that fits into the chunk before it is merged into it, so the result
    keeps fewer than ``2n / CHUNK + 1`` chunks.  Bases with one ``ends``
    list (the columns of one relation) share one splice plan and one new
    ``ends`` list.
    """
    if segments is None:
        segments = [[-1, len(pendings[0])]] if pendings and len(pendings[0]) else []
    segments = list(segments)
    # Plans by the base's ends list, which each entry keeps alive.
    plans: dict[int, tuple[list, list[int], list[int]]] = {}
    out: list[Chunks] = []
    for position, pending in enumerate(pendings):
        base = bases[position] if bases is not None else None
        if base is not None and not isinstance(base, Chunks):
            base = Chunks.of(base)
        base_ends = base.ends if base is not None else _NO_ENDS
        planned = plans.get(id(base_ends))
        if planned is None:
            planned = plans[id(base_ends)] = (*_plan(base, segments), base_ends)
        plan, ends, _ = planned
        out.append(Chunks(_run(plan, base.chunks if base is not None else (), pending), ends))
    return out


_NO_ENDS: list[int] = []


def _plan(base: "Chunks | None", segments: list[Sequence[int]]) -> tuple[list, list[int]]:
    """The output chunks of a splice, as recipes, and their ends.

    A recipe is a base chunk index (shared whole), a ``range`` of base
    chunk indexes (shared whole, in bulk), or a list of ``(source, start,
    stop)`` pieces concatenated into one new chunk (``source`` is a base
    chunk index, or ``-1`` for the pending sequence).
    """
    base_chunks = base.chunks if base is not None else []
    base_ends = base.ends if base is not None else []
    recipes: list = []
    ends: list[int] = []
    last = 0  # items in the last recipe's chunk
    total = 0

    def put(recipe, size: int, piece) -> None:
        nonlocal last, total
        if recipes and last + size <= CHUNK and type(recipes[-1]) is not range:
            previous = recipes[-1]
            if type(previous) is int:
                previous = recipes[-1] = [(previous, 0, last)]
            previous.append(piece)
            last += size
            total += size
            ends[-1] = total
            return
        recipes.append(recipe)
        last = size
        total += size
        ends.append(total)

    taken = 0
    for start, count in segments:
        if count <= 0:
            continue
        stop = start + count
        if start < 0:
            for first in range(taken, taken + count, CHUNK):
                piece = (-1, first, min(first + CHUNK, taken + count))
                put([piece], piece[2] - first, piece)
            taken += count
            continue
        k = bisect_right(base_ends, start)
        while start < stop:
            chunk_end = base_ends[k]
            size = len(base_chunks[k])
            chunk_start = chunk_end - size
            if start > chunk_start or stop < chunk_end:
                piece = (k, start - chunk_start, min(stop, chunk_end) - chunk_start)
                put([piece], piece[2] - piece[1], piece)
                start = chunk_end
                k += 1
                continue
            # Chunks k..whole-1 are covered whole: share them.  The first
            # and the last go through ``put`` (a neighbouring piece may
            # merge with them); the ones between move in bulk, keeping the
            # base's spacing.
            whole = bisect_right(base_ends, stop, lo=k)
            put(k, size, (k, 0, size))
            if whole - k > 2:
                shift = total - base_ends[k]
                recipes.append(range(k + 1, whole - 1))
                ends.extend(map(shift.__add__, base_ends[k + 1 : whole - 1]))
                total = ends[-1]
                last = len(base_chunks[whole - 2])
            if whole - k > 1:
                size = len(base_chunks[whole - 1])
                put(whole - 1, size, (whole - 1, 0, size))
            start = base_ends[whole - 1]
            k = whole
    return recipes, ends


def _run(plan: list, chunks: Sequence[tuple], pending: Sequence) -> list[tuple]:
    """Build one sequence's chunks from a splice plan."""
    out: list[tuple] = []
    append = out.append
    for recipe in plan:
        kind = type(recipe)
        if kind is int:
            append(chunks[recipe])
        elif kind is range:
            out.extend(chunks[recipe.start : recipe.stop])
        elif len(recipe) == 1:
            source, start, stop = recipe[0]
            append(tuple(pending[start:stop]) if source < 0 else chunks[source][start:stop])
        else:
            append(
                tuple(
                    chain.from_iterable(
                        pending[start:stop] if source < 0 else chunks[source][start:stop]
                        for source, start, stop in recipe
                    )
                )
            )
    return out


# ----------------------------------------------------------------------
# Layered insert-only maps
# ----------------------------------------------------------------------
def stacked(layers: tuple, top: Any) -> tuple:
    """``layers`` (oldest first) with ``top`` pushed on, merged size-tiered.

    While the layer below is at most twice the size of the top one, the two
    merge into a new object (``below | top``; neither is changed).  Layer
    sizes then at least halve upwards, so there are O(log n) of them, and an
    entry is merged O(log n) times over its life.  An empty ``top`` adds
    nothing.
    """
    if not top:
        return layers
    kept = list(layers)
    while kept and len(kept[-1]) <= 2 * len(top):
        top = kept.pop() | top
    kept.append(top)
    return tuple(kept)


class LayeredMap(MutableMapping):
    """An insert-only mapping over the frozen layers of earlier versions.

    Writes go to a private top dict.  :meth:`over` starts the next version:
    its layers are this map's layers plus this map's top (see
    :func:`stacked`), and this map starts a new top of its own on its next
    write, so neither version ever writes into a dict the other reads.  A
    plain dict passed to :meth:`over` becomes a bottom layer as it is; its
    holder must not write into it afterwards.  Keys are never overwritten:
    a write of a key already present with a different value raises
    ``KeyError``, and one with the same value is a no-op.
    """

    __slots__ = ("_layers", "_top", "_shared")

    def __init__(self, layers: tuple = (), top: dict | None = None):
        self._layers = layers
        self._top: dict = top if top is not None else {}
        self._shared = False

    @classmethod
    def over(cls, previous: "Mapping") -> "LayeredMap":
        """The next version of ``previous``: its contents, plus a private top."""
        if isinstance(previous, LayeredMap):
            previous._shared = True
            return cls(stacked(previous._layers, previous._top))
        return cls(stacked((), previous))

    @property
    def layers(self) -> int:
        """How many dicts a lookup walks."""
        return len(self._layers) + 1

    def __getitem__(self, key: Any) -> Any:
        top = self._top
        if key in top:
            return top[key]
        for layer in reversed(self._layers):
            if key in layer:
                return layer[key]
        raise KeyError(key)

    def get(self, key: Any, default: Any = None) -> Any:
        value = self._top.get(key, _MISSING)
        if value is not _MISSING:
            return value
        for layer in reversed(self._layers):
            value = layer.get(key, _MISSING)
            if value is not _MISSING:
                return value
        return default

    def __contains__(self, key: object) -> bool:
        return key in self._top or any(key in layer for layer in self._layers)

    def __setitem__(self, key: Any, value: Any) -> None:
        present = self.get(key, _MISSING)
        if present is not _MISSING:
            if present is value or present == value:
                return
            raise KeyError(f"{key!r} is already mapped (insert-only)")
        if self._shared:
            # The next version holds the top as a layer: start a new one.
            self._layers = stacked(self._layers, self._top)
            self._top = {}
            self._shared = False
        self._top[key] = value

    def __delitem__(self, key: Any) -> None:
        raise TypeError("a layered map is insert-only")

    def __len__(self) -> int:
        return len(self._top) + sum(map(len, self._layers))

    def __iter__(self) -> Iterator[Any]:
        return chain(chain.from_iterable(self._layers), self._top)

    def __repr__(self) -> str:
        return f"LayeredMap({len(self)} entries, {self.layers} layers)"


_MISSING = object()
