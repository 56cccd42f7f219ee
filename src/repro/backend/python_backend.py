"""The pure-Python reference backend.

Always available, no dependencies, and the semantic ground truth: the NumPy
backend is tested for result-identity against this implementation.  Code
arrays are plain ``list[int]``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import add, mul
from typing import Any

from repro.backend.base import ComputeBackend, factorize_values
from repro.exceptions import BackendError


class PythonBackend(ComputeBackend):
    """Reference implementation over lists and dicts."""

    name = "python"

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
    # Flat stripped partitions
    # ------------------------------------------------------------------
    # A partition is held as ``(codes, num_classes)``: one code per row,
    # every code below the row count, equal codes iff same class.
    # Singletons are kept: stripping them would cost a pass per partition
    # and on real tables drops few rows, while a full code array makes the
    # product three C-level passes with no per-row bytecode.

    def stripped_from_codes(self, codes: Any, num_values: int) -> tuple:
        return codes, len(set(codes))

    def stripped_product_flat(self, flat_a: tuple, flat_b: tuple, num_rows: int) -> tuple:
        codes_a, classes_a = flat_a
        codes_b, classes_b = flat_b
        if classes_a == num_rows or classes_b == num_rows:
            # A key refines everything: the product is the identity.
            return range(num_rows), num_rows
        # Pair the codes (a * n + b is unique per pair) and number each
        # pair by the row where it first occurs, which keeps codes below n.
        seen: dict[int, int] = {}
        codes = list(
            map(
                seen.setdefault,
                map(add, map(mul, codes_a, repeat(num_rows)), codes_b),
                range(num_rows),
            )
        )
        return codes, len(seen)

    def stripped_error(self, flat: tuple) -> int:
        codes, num_classes = flat
        return len(codes) - num_classes

    def materialize_groups(self, flat: tuple) -> list[list[int]]:
        codes, num_classes = flat
        if num_classes == len(codes):
            return []
        return self.group_rows(codes, len(codes), min_size=2)
