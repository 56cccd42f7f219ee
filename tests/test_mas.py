"""Tests for MAS (maximal attribute set) discovery — Step 1 of F2."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import DataOwner
from repro.api.stages import MasDiscoveryStage
from repro.backend import numpy_available
from repro.core.config import F2Config
from repro.datasets.tpch import generate_customer
from repro.exceptions import DiscoveryError
from repro.fd.mas import (
    MaximalAttributeSet,
    find_mas_with_stats,
    find_maximal_attribute_sets,
)
from repro.relational.table import Relation

from tests.conftest import make_random_table

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def brute_force_mas(relation: Relation) -> set[frozenset[str]]:
    """Reference implementation: enumerate every subset (exponential)."""
    attributes = list(relation.attributes)

    def non_unique(attrs) -> bool:
        return any(count > 1 for count in relation.value_frequencies(attrs).values())

    all_subsets = [
        frozenset(subset)
        for size in range(1, len(attributes) + 1)
        for subset in combinations(attributes, size)
    ]
    non_unique_sets = {subset for subset in all_subsets if non_unique(subset)}
    return {
        subset
        for subset in non_unique_sets
        if not any(subset < other for other in non_unique_sets)
    }


class TestMasOnPaperExamples:
    def test_figure1_single_mas(self, paper_figure1_table):
        masses = find_maximal_attribute_sets(paper_figure1_table)
        assert {mas.as_set for mas in masses} == {frozenset({"A", "B", "C"})}

    def test_figure3_two_overlapping_mas(self, paper_figure3_table):
        masses = find_maximal_attribute_sets(paper_figure3_table)
        assert {mas.as_set for mas in masses} == {
            frozenset({"A", "B"}),
            frozenset({"B", "C"}),
        }

    def test_figure4_single_mas(self, paper_figure4_table):
        masses = find_maximal_attribute_sets(paper_figure4_table)
        assert {mas.as_set for mas in masses} == {frozenset({"A", "B"})}

    def test_mas_contains_every_fd(self, zipcode_table):
        # Property stated in Section 3.1: every FD's attributes fit in a MAS.
        from repro.fd.tane import tane

        masses = find_maximal_attribute_sets(zipcode_table)
        for fd in tane(zipcode_table):
            if all(
                count <= 1
                for count in zipcode_table.value_frequencies(fd.lhs).values()
            ):
                continue  # key-based FDs need not be covered by a MAS
            assert any(fd.attributes <= mas.as_set for mas in masses)


@st.composite
def relations(draw) -> Relation:
    """Relations of 1-8 attributes and 1-40 rows over small domains.

    A domain of one value makes a column constant, so whole-schema MASs
    occur; a row may repeat an earlier one (duplicate rows); one row, or
    wide domains, leave no MAS at all.
    """
    width = draw(st.integers(1, 8))
    domains = [draw(st.integers(1, 6)) for _ in range(width)]
    rows: list[list[str]] = []
    for _ in range(draw(st.integers(1, 40))):
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(
                [f"v{draw(st.integers(0, size - 1))}" for size in domains]
            )
    return Relation([f"X{index}" for index in range(width)], rows, name="random")


class TestMasStrategies:
    @pytest.mark.parametrize("seed", range(10))
    def test_ducc_matches_brute_force(self, seed):
        table = make_random_table(seed, num_attributes=5)
        found = {mas.as_set for mas in find_maximal_attribute_sets(table)}
        assert found == brute_force_mas(table)

    def test_all_unique_table_has_no_mas(self):
        table = Relation(["A", "B"], [["a1", "b1"], ["a2", "b2"], ["a3", "b3"]])
        assert find_maximal_attribute_sets(table) == []

    def test_all_identical_rows(self):
        table = Relation(["A", "B"], [["x", "y"]] * 4)
        masses = find_maximal_attribute_sets(table)
        assert {mas.as_set for mas in masses} == {frozenset({"A", "B"})}

    def test_empty_relation_rejected(self):
        with pytest.raises(DiscoveryError):
            find_maximal_attribute_sets(Relation(["A"]))


class TestExactDeterministicMax:
    """MAX is one exact walk: it equals the exponential oracle and draws
    no randomness."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=80, deadline=None)
    @given(table=relations())
    @example(table=Relation(["A", "B", "C"], [["a", "b", "c"]] * 3))  # whole schema
    @example(table=Relation(["A", "B"], [["a1", "b1"], ["a2", "b2"]]))  # no MAS
    @example(table=Relation(["A"], [["a"]]))  # one row
    @example(
        table=Relation(["A", "B", "C"], [["a1", "b", "c1"], ["a1", "b", "c1"], ["a2", "b", "c2"]])
    )  # a duplicate row
    def test_matches_brute_force_oracle(self, backend, table):
        result = find_mas_with_stats(table, backend=backend)
        assert {mas.as_set for mas in result.masses} == brute_force_mas(table)
        assert [mas.attributes for mas in result.masses] == sorted(
            (mas.attributes for mas in result.masses), key=sorted
        )

    def test_max_draws_no_randomness(self, monkeypatch):
        """MAX runs inside a real outsource on a 21-attribute schema with
        every ``random`` entry point patched to raise."""

        def forbidden(*args, **kwargs):
            raise AssertionError("MAS discovery drew randomness")

        run = MasDiscoveryStage.run
        calls = []

        def guarded(self, ctx):
            with monkeypatch.context() as patch:
                for name in ("Random", "random", "choice", "shuffle", "sample", "randrange"):
                    patch.setattr(random, name, forbidden)
                run(self, ctx)
            calls.append(len(ctx.mas_result.masses))

        monkeypatch.setattr(MasDiscoveryStage, "run", guarded)
        owner = DataOwner.from_seed(7, config=F2Config(alpha=0.5, seed=3))
        owner.outsource(generate_customer(60, seed=0))
        assert calls and calls[0] >= 1


class TestMasResult:
    def test_stats_counters(self, paper_figure3_table):
        result = find_mas_with_stats(paper_figure3_table)
        assert result.partitions_computed > 0
        assert result.elapsed_seconds >= 0
        assert result.parameters["attributes"] == paper_figure3_table.num_attributes

    def test_overlapping_pairs(self, paper_figure3_table):
        result = find_mas_with_stats(paper_figure3_table)
        assert len(result.overlapping_pairs()) == 1

    def test_descriptor_fields(self, paper_figure4_table):
        (mas,) = find_maximal_attribute_sets(paper_figure4_table)
        assert isinstance(mas, MaximalAttributeSet)
        assert mas.attributes == ("A", "B")
        assert mas.num_equivalence_classes == 4
        assert mas.num_duplicate_classes == 4
        assert len(mas) == 2
        assert str(mas) == "{A, B}"

    def test_overlap_predicate(self):
        first = MaximalAttributeSet(("A", "B"), 1, 1)
        second = MaximalAttributeSet(("B", "C"), 1, 1)
        third = MaximalAttributeSet(("C", "D"), 1, 1)
        assert first.overlaps(second)
        assert not first.overlaps(third)
