"""Unit tests of the pluggable compute backends (repro.backend).

Two layers of guarantees:

* selection — explicit name > ``REPRO_BACKEND`` > pure-Python default, with
  an actionable error when NumPy is requested but missing;
* result identity — every primitive returns exactly the same values on the
  NumPy backend as on the pure-Python reference, on randomised inputs.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    ComputeBackend,
    PythonBackend,
    available_backends,
    get_backend,
    numpy_available,
)
from repro.exceptions import BackendError, BackendUnavailableError

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")


class TestSelection:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend(None).name == "python"
        assert get_backend("auto").name == "python"

    def test_explicit_names(self):
        assert get_backend("python").name == "python"
        assert isinstance(get_backend("python"), PythonBackend)

    def test_instance_passthrough(self):
        backend = PythonBackend()
        assert get_backend(backend) is backend

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert get_backend(None).name == "python"

    @needs_numpy
    def test_env_variable_numpy(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend(None).name == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError):
            get_backend("fortran")

    def test_numpy_unavailable_error(self, monkeypatch):
        import repro.backend.base as base_module
        from repro.backend import numpy_backend

        monkeypatch.setattr(numpy_backend, "numpy_available", lambda: False)
        with pytest.raises(BackendUnavailableError, match="perf"):
            base_module.get_backend("numpy")

    def test_available_backends_reports_python(self):
        availability = available_backends()
        assert availability["python"] is True
        assert "numpy" in availability


def _backends() -> list[ComputeBackend]:
    backends = [get_backend("python")]
    if numpy_available():
        backends.append(get_backend("numpy"))
    return backends


def _random_codes(rng: random.Random, n: int, domain: int) -> list[int]:
    # Dense first-occurrence codes, like factorize produces.
    values = [rng.randrange(domain) for _ in range(n)]
    return PythonBackend().factorize(values)[0]


@needs_numpy
class TestResultIdentity:
    """The NumPy backend must agree with the reference on every primitive."""

    @pytest.mark.parametrize("seed", range(8))
    def test_factorize(self, seed):
        rng = random.Random(seed)
        values = [f"v{rng.randrange(6)}" for _ in range(rng.randrange(1, 60))]
        py_codes, py_dict = get_backend("python").factorize(values)
        np_codes, np_dict = get_backend("numpy").factorize(values)
        assert list(np_codes) == py_codes
        assert np_dict == py_dict

    @pytest.mark.parametrize("seed", range(8))
    def test_grouping_primitives(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(1, 80)
        columns = [_random_codes(rng, n, rng.randrange(2, 7)) for _ in range(rng.randrange(1, 4))]
        cards = [max(col) + 1 for col in columns]
        python, numpy_ = get_backend("python"), get_backend("numpy")
        py_codes, py_groups_count = python.combine_codes(columns, cards)
        np_codes, np_groups_count = numpy_.combine_codes(
            [numpy_.as_code_array(col) for col in columns], cards
        )
        # Code numbering is backend-internal; what must agree is the induced
        # grouping, the counts multiset, and the duplicate test.
        for min_size in (1, 2):
            assert python.group_rows(py_codes, py_groups_count, min_size) == numpy_.group_rows(
                np_codes, np_groups_count, min_size
            )
        assert sorted(python.counts(py_codes, py_groups_count)) == sorted(
            numpy_.counts(np_codes, np_groups_count)
        )
        assert python.has_duplicates(py_codes, py_groups_count) == numpy_.has_duplicates(
            np_codes, np_groups_count
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_stripped_product(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randrange(2, 90)
        python, numpy_ = get_backend("python"), get_backend("numpy")

        def stripped(domain: int) -> list[list[int]]:
            codes = _random_codes(rng, n, domain)
            return python.group_rows(codes, max(codes) + 1, min_size=2)

        groups_a = stripped(rng.randrange(2, 8))
        groups_b = stripped(rng.randrange(2, 8))
        assert python.stripped_product(groups_a, groups_b, n) == numpy_.stripped_product(
            groups_a, groups_b, n
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_flat_stripped_roundtrip(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randrange(2, 90)
        python, numpy_ = get_backend("python"), get_backend("numpy")
        codes = _random_codes(rng, n, rng.randrange(2, 8))
        num_values = max(codes) + 1
        flat = numpy_.stripped_from_codes(numpy_.as_code_array(codes), num_values)
        assert numpy_.materialize_groups(flat) == python.group_rows(codes, num_values, min_size=2)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("group_size", [1, 2, 4, 7])
    def test_greedy_collision_free_groups(self, seed, group_size):
        rng = random.Random(400 + seed)
        num_members = rng.randrange(0, 70)
        num_attrs = rng.randrange(1, 4)
        matrix = [
            tuple(rng.randrange(5) for _ in range(num_attrs)) for _ in range(num_members)
        ]
        python, numpy_ = get_backend("python"), get_backend("numpy")
        py_groups = python.greedy_collision_free_groups(matrix, group_size)
        np_groups = numpy_.greedy_collision_free_groups(matrix, group_size)
        assert np_groups == py_groups
        # Sanity: the groups partition the members and are collision-free.
        flattened = sorted(index for group in py_groups for index in group)
        assert flattened == list(range(num_members))
        for group in py_groups:
            for i, first in enumerate(group):
                for second in group[i + 1 :]:
                    assert not any(
                        a == b for a, b in zip(matrix[first], matrix[second])
                    ), "greedy groups must be collision-free"


def _reference_greedy(code_matrix, group_size):
    """The paper's greedy scan, compared pairwise: the oracle for
    ``greedy_collision_free_groups`` on every backend."""
    unassigned = list(range(len(code_matrix)))
    groups = []
    while unassigned:
        group = [unassigned.pop(0)]
        remaining = []
        for candidate in unassigned:
            if len(group) >= group_size or any(
                any(a == b for a, b in zip(code_matrix[candidate], code_matrix[member]))
                for member in group
            ):
                remaining.append(candidate)
            else:
                group.append(candidate)
        unassigned = remaining
        groups.append(group)
    return groups


class TestGreedyCollisionFreeGroups:
    """Every backend reproduces the pairwise greedy scan exactly."""

    @pytest.mark.parametrize("backend_name", [backend.name for backend in _backends()])
    @pytest.mark.parametrize("group_size", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_reference_scan(self, backend_name, group_size, seed):
        rng = random.Random(700 + seed)
        backend = get_backend(backend_name)
        # Domains of 1-2 values make heavily colliding columns; wider ones
        # let groups fill.  Past 64 members a value can be held by more
        # than 64 of them, which the python backend tracks as a bitset.
        num_members = rng.choice([0, 1, 2, rng.randrange(3, 64), rng.randrange(64, 300)])
        domains = [rng.choice([1, 2, 3, 8, 40]) for _ in range(rng.randrange(1, 5))]
        matrix = [
            tuple(rng.randrange(domain) for domain in domains) for _ in range(num_members)
        ]
        assert backend.greedy_collision_free_groups(matrix, group_size) == _reference_greedy(
            matrix, group_size
        )

    @pytest.mark.parametrize("backend_name", [backend.name for backend in _backends()])
    def test_saturated_columns_and_tail_members(self, backend_name):
        # Column 1 has two values, so no group of three fits; the scan must
        # leave every skipped member, in order, for the next groups.
        matrix = [(index, index % 2) for index in range(11)] + [(20, 5), (21, 5)]
        backend = get_backend(backend_name)
        for group_size in (1, 2, 3, 4):
            assert backend.greedy_collision_free_groups(
                matrix, group_size
            ) == _reference_greedy(matrix, group_size)


def _reference_membership_mask(codes, wanted):
    wanted_set = set(wanted)
    mask = 0
    for row, code in enumerate(codes):
        if code in wanted_set:
            mask |= 1 << row
    return mask


def _reference_mask_to_rows(mask):
    rows = []
    while mask:
        lowest = mask & -mask
        rows.append(lowest.bit_length() - 1)
        mask ^= lowest
    return rows


class TestRowMaskPrimitives:
    """The reference row-mask scans equal the bit-at-a-time definitions."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_codes_and_subsets(self, seed):
        rng = random.Random(900 + seed)
        backend = PythonBackend()
        num_rows = rng.choice([1, 2, 63, 64, 65, 130, rng.randrange(1, 400)])
        codes = _random_codes(rng, num_rows, rng.randrange(1, 9))
        wanted = rng.sample(range(max(codes) + 3), rng.randrange(0, 4))
        mask = backend.membership_mask(codes, wanted)
        assert mask == _reference_membership_mask(codes, wanted)
        assert backend.mask_to_rows(mask) == _reference_mask_to_rows(mask)

    @pytest.mark.parametrize("num_rows", [1, 64, 65, 200])
    def test_edge_subsets(self, num_rows):
        backend = PythonBackend()
        codes = [row % 3 for row in range(num_rows)]
        for wanted in ([], [0, 1, 2], [7]):
            mask = backend.membership_mask(codes, wanted)
            assert mask == _reference_membership_mask(codes, wanted)
            assert backend.mask_to_rows(mask) == _reference_mask_to_rows(mask)
        one_row = [0] * num_rows
        one_row[-1] = 1  # the highest row alone
        mask = backend.membership_mask(one_row, [1])
        assert mask == 1 << (num_rows - 1)
        assert backend.mask_to_rows(mask) == [num_rows - 1]
        assert backend.mask_to_rows(backend.rows_not(0, num_rows)) == list(range(num_rows))
        assert backend.membership_mask([], [0]) == 0
        assert backend.mask_to_rows(0) == []
        # Segment-store columns are stdlib arrays.
        assert backend.membership_mask(array("q", codes), [2]) == _reference_membership_mask(
            codes, [2]
        )
