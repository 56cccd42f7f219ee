"""The NumPy-vectorised backend (the ``[perf]`` extra).

Same contract and — by construction and by test — the same results as the
pure-Python reference backend, with the inner loops replaced by array
operations: code combination via integer pairing plus ``np.unique``
compaction, grouping via one stable argsort, and the stripped-partition
product via scatter/gather.  The ECG greedy scan is the base class's
bitset implementation, shared with the reference backend.

NumPy is imported lazily so that merely importing :mod:`repro.backend` never
requires the ``[perf]`` extra; use :func:`numpy_available` to probe.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import Any

from repro.backend.base import ComputeBackend, factorize_values
from repro.exceptions import BackendError


@lru_cache(maxsize=1)
def numpy_available() -> bool:
    """True iff NumPy can be imported in this environment."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _np():
    import numpy

    return numpy


class NumpyBackend(ComputeBackend):
    """Vectorised implementation over ``numpy.int64`` code arrays."""

    name = "numpy"

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def factorize(self, values: Sequence[Any]) -> tuple[Any, list[Any]]:
        # Cells are arbitrary hashable objects (strings, ciphertexts) without
        # a total order, so ``np.unique`` cannot encode them; the dictionary
        # is built by the shared hash-map helper and only the code array
        # becomes a NumPy array.  Encoding runs once per (relation, column)
        # and is cached by the coded layer.
        np = _np()
        codes, dictionary = factorize_values(values)
        return np.asarray(codes, dtype=np.int64), dictionary

    def as_code_array(self, codes: Sequence[int]) -> Any:
        return _np().asarray(codes, dtype=_np().int64)

    def from_code_bytes(self, data: Any, width: int, count: int) -> Any:
        # Zero-copy view over the packed buffer (a memory-mapped segment
        # file slice): no decode pass, no int64 widening.  Callers that
        # combine arrays of different widths upcast explicitly.
        np = _np()
        if width not in (1, 2, 4, 8):
            raise BackendError(f"unknown code width {width}")
        return np.frombuffer(data, dtype=f"<u{width}", count=count)

    def concat_code_arrays(self, parts: Any) -> Any:
        np = _np()
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])

    # ------------------------------------------------------------------
    # Grouping / counting
    # ------------------------------------------------------------------
    def combine_codes(self, code_arrays: list[Any], cardinalities: list[int]) -> tuple[Any, int]:
        np = _np()
        if not code_arrays:
            raise BackendError("combine_codes requires at least one code array")
        combined = np.asarray(code_arrays[0], dtype=np.int64)
        cardinality = int(cardinalities[0])
        for array, card in zip(code_arrays[1:], cardinalities[1:]):
            # Integer pairing then compaction keeps the key below
            # num_rows**2 at every step, far inside the int64 range.
            key = combined * int(card) + np.asarray(array, dtype=np.int64)
            _, combined = np.unique(key, return_inverse=True)
            cardinality = int(combined.max()) + 1 if combined.size else 0
        return combined, cardinality

    def counts(self, codes: Any, num_groups: int) -> list[int]:
        np = _np()
        return np.bincount(np.asarray(codes), minlength=num_groups).tolist()

    def has_duplicates(self, codes: Any, num_groups: int) -> bool:
        np = _np()
        codes = np.asarray(codes)
        if codes.size <= 1:
            return False
        return bool(np.bincount(codes, minlength=num_groups).max() > 1)

    # ------------------------------------------------------------------
    # Row masks (bitset algebra for the encrypted query engine)
    # ------------------------------------------------------------------
    # Masks are boolean arrays of length ``num_rows``; the algebra is
    # vectorised element-wise logic instead of the reference int bit ops.

    def membership_mask(self, codes: Any, wanted: Sequence[int]) -> Any:
        np = _np()
        codes = np.asarray(codes)
        if not len(wanted):
            return np.zeros(codes.shape[0], dtype=bool)
        return np.isin(codes, np.asarray(list(wanted), dtype=codes.dtype))

    def rows_and(self, masks: Sequence[Any]) -> Any:
        np = _np()
        if not masks:
            raise BackendError("rows_and requires at least one mask")
        return np.logical_and.reduce(np.asarray(masks, dtype=bool), axis=0)

    def rows_or(self, masks: Sequence[Any]) -> Any:
        np = _np()
        if not masks:
            raise BackendError("rows_or requires at least one mask")
        return np.logical_or.reduce(np.asarray(masks, dtype=bool), axis=0)

    def rows_not(self, mask: Any, num_rows: int) -> Any:
        return ~_np().asarray(mask, dtype=bool)

    def mask_count(self, mask: Any) -> int:
        return int(_np().count_nonzero(mask))

    def mask_to_rows(self, mask: Any) -> list[int]:
        return _np().flatnonzero(mask).tolist()

    def splice_mask(self, mask: Any, literal_mask: Any, runs: Sequence[tuple[int, int]]) -> Any:
        np = _np()
        parts = []
        cursor = 0
        for start, count in runs:
            if not count:
                continue
            if start < 0:
                parts.append(literal_mask[cursor : cursor + count])
                cursor += count
            else:
                parts.append(mask[start : start + count])
        if not parts:
            return np.zeros(0, dtype=bool)
        return np.concatenate(parts)

    def group_rows(self, codes: Any, num_groups: int, min_size: int = 1) -> list[list[int]]:
        np = _np()
        codes = np.asarray(codes)
        if codes.size == 0:
            return []
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        if min_size > 1:
            # Materialise only the surviving groups (usually a tiny minority
            # when stripping singletons) instead of splitting everything.
            counts = np.bincount(codes, minlength=num_groups)
            kept = np.flatnonzero(counts >= min_size)
            if kept.size == 0:
                return []
            starts = np.searchsorted(sorted_codes, kept, side="left")
            groups = [
                order[start : start + counts[code]].tolist()
                for start, code in zip(starts, kept)
            ]
        else:
            boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
            groups = [chunk.tolist() for chunk in np.split(order, boundaries)]
        # A stable sort keeps rows ascending inside each chunk; ordering the
        # chunks by their first row restores the canonical order.
        groups.sort(key=lambda group: group[0])
        return groups

    # ------------------------------------------------------------------
    # Stripped-partition product (flat representation)
    # ------------------------------------------------------------------
    # A stripped partition is held as ``(rows, gids, num_groups, gid_limit)``
    # — parallel arrays of member rows and their group ids (``gid_limit`` is
    # an exclusive upper bound on the ids, used for pairing).  Products chain
    # flat-to-flat without ever materialising python lists; ``.groups`` is
    # recovered on demand in canonical order via :meth:`materialize_groups`.

    def stripped_from_codes(self, codes: Any, num_values: int) -> tuple:
        np = _np()
        codes = np.asarray(codes)
        counts = np.bincount(codes, minlength=num_values)
        keep = counts[codes] >= 2
        rows = np.flatnonzero(keep)
        gids = codes[rows]
        num_groups = int((counts >= 2).sum())
        return rows, gids, num_groups, num_values

    def stripped_product_flat(self, flat_a: tuple, flat_b: tuple, num_rows: int) -> tuple:
        np = _np()
        rows_a, gids_a, _, _ = flat_a
        rows_b, gids_b, _, limit_b = flat_b
        empty = np.empty(0, dtype=np.int64)
        if rows_a.size == 0 or rows_b.size == 0:
            return empty, empty, 0, 0
        table = np.full(num_rows, -1, dtype=np.int64)
        table[rows_a] = gids_a
        own = table[rows_b]
        mask = own >= 0
        rows = rows_b[mask]
        if rows.size == 0:
            return empty, empty, 0, 0
        key = own[mask] * int(limit_b) + gids_b[mask]
        _, inverse = np.unique(key, return_inverse=True)
        counts = np.bincount(inverse)
        keep = counts[inverse] >= 2
        rows = rows[keep]
        compacted = np.unique(inverse[keep], return_inverse=True)[1]
        num_groups = int(compacted.max()) + 1 if rows.size else 0
        return rows, compacted, num_groups, num_groups

    def stripped_error(self, flat: tuple) -> int:
        rows, _, num_groups, _ = flat
        return int(rows.size) - num_groups

    def materialize_groups(self, flat: tuple) -> list[list[int]]:
        np = _np()
        rows, gids, _, _ = flat
        if rows.size == 0:
            return []
        order = np.lexsort((rows, gids))
        sorted_gids = gids[order]
        sorted_rows = rows[order]
        boundaries = np.flatnonzero(sorted_gids[1:] != sorted_gids[:-1]) + 1
        groups = [chunk.tolist() for chunk in np.split(sorted_rows, boundaries)]
        groups.sort(key=lambda group: group[0])
        return groups

    # ------------------------------------------------------------------
    # Bulk byte XOR
    # ------------------------------------------------------------------
    def xor_blocks(self, first: bytes, second: bytes) -> bytes:
        np = _np()
        if len(first) != len(second):
            raise BackendError("xor_blocks requires equal-length buffers")
        if not first:
            return b""
        a = np.frombuffer(first, dtype=np.uint8)
        b = np.frombuffer(second, dtype=np.uint8)
        return np.bitwise_xor(a, b).tobytes()
