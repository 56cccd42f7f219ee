"""The pure-Python reference backend.

Always available, no dependencies, and the semantic ground truth: the NumPy
backend is tested for result-identity against this implementation.  Code
arrays are plain ``list[int]``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.backend.base import ComputeBackend, factorize_values
from repro.exceptions import BackendError


class PythonBackend(ComputeBackend):
    """Reference implementation over lists and dicts."""

    name = "python"
    vectorized = False

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def factorize(self, values: Sequence[Any]) -> tuple[list[int], list[Any]]:
        return factorize_values(values)

    def as_code_array(self, codes: Sequence[int]) -> list[int]:
        return list(codes)

    # ------------------------------------------------------------------
    # Grouping / counting
    # ------------------------------------------------------------------
    def combine_codes(
        self, code_arrays: list[Any], cardinalities: list[int]
    ) -> tuple[list[int], int]:
        if not code_arrays:
            raise BackendError("combine_codes requires at least one code array")
        if len(code_arrays) == 1:
            return list(code_arrays[0]), cardinalities[0]
        seen: dict[tuple[int, ...], int] = {}
        combined: list[int] = []
        for combo in zip(*code_arrays):
            code = seen.get(combo)
            if code is None:
                code = len(seen)
                seen[combo] = code
            combined.append(code)
        return combined, len(seen)

    def counts(self, codes: Any, num_groups: int) -> list[int]:
        histogram = [0] * num_groups
        for code in codes:
            histogram[code] += 1
        return histogram

    def has_duplicates(self, codes: Any, num_groups: int) -> bool:
        seen = bytearray(num_groups)
        for code in codes:
            if seen[code]:
                return True
            seen[code] = 1
        return False

    def group_rows(self, codes: Any, num_groups: int, min_size: int = 1) -> list[list[int]]:
        buckets: list[list[int]] = [[] for _ in range(num_groups)]
        for row, code in enumerate(codes):
            buckets[code].append(row)
        groups = [rows for rows in buckets if len(rows) >= min_size]
        groups.sort(key=lambda rows: rows[0])
        return groups

    # ------------------------------------------------------------------
    # Stripped-partition product
    # ------------------------------------------------------------------
    def stripped_product(
        self,
        groups_a: list[list[int]],
        groups_b: list[list[int]],
        num_rows: int,
    ) -> list[list[int]]:
        table: dict[int, int] = {}
        for group_index, group in enumerate(groups_a):
            for row in group:
                table[row] = group_index
        buckets: dict[tuple[int, int], list[int]] = {}
        for group_index, group in enumerate(groups_b):
            for row in group:
                own_group = table.get(row)
                if own_group is not None:
                    buckets.setdefault((own_group, group_index), []).append(row)
        groups = [sorted(rows) for rows in buckets.values() if len(rows) > 1]
        groups.sort(key=lambda rows: rows[0])
        return groups
