"""Tests for FD discovery: the naive oracle, TANE, and their agreement."""

import random

import pytest

from repro.backend import numpy_available
from repro.exceptions import DiscoveryError
from repro.fd.discovery import discover_fds_naive
from repro.fd.fd import FunctionalDependency
from repro.fd.tane import tane, tane_with_stats
from repro.fd.verify import fd_holds, fd_preservation_report, fds_equivalent, violating_row_pairs
from repro.relational.table import Relation

from tests.conftest import make_random_table

BACKENDS = ["python", "numpy"] if numpy_available() else ["python"]


@pytest.fixture
def chain_table() -> Relation:
    """Zipcode -> City -> State chain with a free Street column."""
    rows = [
        ["07030", "Hoboken", "NJ", "s1"],
        ["07030", "Hoboken", "NJ", "s2"],
        ["07302", "JerseyCity", "NJ", "s3"],
        ["07302", "JerseyCity", "NJ", "s4"],
        ["10001", "NewYork", "NY", "s5"],
        ["10001", "NewYork", "NY", "s6"],
    ]
    return Relation(["Zip", "City", "State", "Street"], rows)


class TestNaiveDiscovery:
    def test_finds_planted_chain(self, chain_table):
        fds = discover_fds_naive(chain_table)
        assert fds.implies(FunctionalDependency(["Zip"], "City"))
        assert fds.implies(FunctionalDependency(["Zip"], "State"))
        assert fds.implies(FunctionalDependency(["City"], "State"))

    def test_does_not_report_absent_fd(self, chain_table):
        fds = discover_fds_naive(chain_table)
        assert not fds.implies(FunctionalDependency(["State"], "City"))

    def test_minimal_only_suppresses_supersets(self, chain_table):
        fds = discover_fds_naive(chain_table)
        assert FunctionalDependency(["Zip", "City"], "State") not in fds

    def test_max_lhs_size_limits_search(self, chain_table):
        fds = discover_fds_naive(chain_table, max_lhs_size=1)
        assert all(len(fd.lhs) == 1 for fd in fds)

    def test_empty_relation_raises(self):
        with pytest.raises(DiscoveryError):
            discover_fds_naive(Relation(["A"]))


class TestTane:
    def test_matches_naive_on_chain(self, chain_table):
        assert fds_equivalent(tane(chain_table), discover_fds_naive(chain_table))

    def test_matches_naive_on_figure1(self, paper_figure1_table):
        assert fds_equivalent(
            tane(paper_figure1_table), discover_fds_naive(paper_figure1_table)
        )

    def test_matches_naive_on_figure3(self, paper_figure3_table):
        assert fds_equivalent(
            tane(paper_figure3_table), discover_fds_naive(paper_figure3_table)
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_on_random_tables(self, seed):
        table = make_random_table(seed)
        assert fds_equivalent(tane(table), discover_fds_naive(table))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_on_wider_tables(self, seed):
        table = make_random_table(seed + 100, num_attributes=5)
        assert fds_equivalent(tane(table), discover_fds_naive(table))

    def test_emits_minimal_dependencies_only(self, chain_table):
        fds = tane(chain_table)
        for fd in fds:
            for other in fds:
                if fd != other and fd.rhs == other.rhs:
                    assert not set(other.lhs) < set(fd.lhs)

    def test_unique_column_determines_everything(self):
        table = Relation(["K", "A"], [["k1", "a1"], ["k2", "a1"], ["k3", "a2"]])
        fds = tane(table)
        assert fds.implies(FunctionalDependency(["K"], "A"))

    def test_stats_counters(self, chain_table):
        result = tane_with_stats(chain_table)
        assert result.elapsed_seconds >= 0
        assert result.levels_processed >= 1
        assert result.candidates_examined > 0
        assert result.partitions_computed >= chain_table.num_attributes

    def test_max_lhs_size_cap(self, chain_table):
        fds = tane(chain_table, max_lhs_size=1)
        assert all(len(fd.lhs) <= 1 for fd in fds)

    def test_key_pruning_honours_max_lhs_size(self):
        # {A0, A3} is a key found at the capped level 2; key pruning there
        # used to emit {A0, A3} -> A2 (and two more) past a cap of 1.
        table = Relation(
            [f"A{index}" for index in range(6)],
            [
                ["v0", "v1", "v1", "v1", "v0", "v0"],
                ["v2", "v0", "v2", "v0", "v0", "v1"],
                ["v0", "v1", "v0", "v0", "v0", "v0"],
            ],
        )
        fds = tane(table, max_lhs_size=1)
        assert all(len(fd.lhs) <= 1 for fd in fds)
        assert fds_equivalent(fds, discover_fds_naive(table, max_lhs_size=1))

    def test_empty_relation_raises(self):
        with pytest.raises(DiscoveryError):
            tane(Relation(["A"]))

    def test_no_fds_on_all_unique_independent_columns(self):
        table = Relation(
            ["A", "B"],
            [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
        )
        assert len(tane(table)) == 0


def _oracle_table(seed: int) -> Relation:
    """A random table with constant and key columns and duplicate rows."""
    rng = random.Random(seed)
    num_rows = rng.randint(1, 24)
    columns = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(["constant", "key", "random", "random"])
        if kind == "constant":
            columns.append(["c"] * num_rows)
        elif kind == "key":
            columns.append([f"k{row}" for row in range(num_rows)])
        else:
            domain = rng.randint(2, 4)
            columns.append([f"v{rng.randrange(domain)}" for _ in range(num_rows)])
    rows = [list(row) for row in zip(*columns)]
    for _ in range(rng.randint(0, 3)):
        rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    return Relation([f"A{index}" for index in range(len(columns))], rows)


class TestTaneOracle:
    """TANE equals the exhaustive oracle under every LHS cap, on every
    backend, and reports the same counters whichever backend runs."""

    @pytest.mark.parametrize("max_lhs_size", [None, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_naive_on_every_backend(self, seed, max_lhs_size):
        table = _oracle_table(2000 + seed)
        expected = discover_fds_naive(table, max_lhs_size=max_lhs_size)
        results = [
            tane_with_stats(table, max_lhs_size=max_lhs_size, backend=backend)
            for backend in BACKENDS
        ]
        for result in results:
            assert fds_equivalent(result.fds, expected)
            if max_lhs_size is not None:
                assert all(len(fd.lhs) <= max_lhs_size for fd in result.fds)
        counters = {
            (r.levels_processed, r.candidates_examined, r.partitions_computed) for r in results
        }
        assert len(counters) == 1


class TestVerifyHelpers:
    def test_fd_holds(self, chain_table):
        assert fd_holds(chain_table, FunctionalDependency(["Zip"], "City"))
        assert not fd_holds(chain_table, FunctionalDependency(["State"], "Zip"))

    def test_violating_row_pairs_empty_for_valid_fd(self, chain_table):
        assert violating_row_pairs(chain_table, FunctionalDependency(["Zip"], "City")) == []

    def test_violating_row_pairs_found_for_invalid_fd(self, chain_table):
        pairs = violating_row_pairs(chain_table, FunctionalDependency(["State"], "City"))
        assert pairs
        for first, second in pairs:
            assert chain_table.value(first, "State") == chain_table.value(second, "State")
            assert chain_table.value(first, "City") != chain_table.value(second, "City")

    def test_violating_row_pairs_respects_limit(self, chain_table):
        pairs = violating_row_pairs(chain_table, FunctionalDependency(["State"], "City"), limit=1)
        assert len(pairs) == 1

    def test_preservation_report_identical_tables(self, chain_table):
        report = fd_preservation_report(chain_table, chain_table.copy())
        assert report["preserved"]
        assert report["lost"] == [] and report["introduced"] == []

    def test_preservation_report_detects_differences(self, chain_table):
        broken = chain_table.copy()
        broken.set_value(0, "City", "Weehawken")  # breaks Zip -> City
        report = fd_preservation_report(chain_table, broken)
        assert not report["preserved"]
        assert report["lost"]
