"""Unit tests for partitions and equivalence classes (Definition 3.3)."""

import pytest

from repro.backend import numpy_available
from repro.exceptions import RelationError
from repro.relational.partition import EquivalenceClass, Partition, StrippedPartition
from repro.relational.table import Relation


@pytest.fixture
def relation() -> Relation:
    return Relation(
        ["A", "B", "C"],
        [
            ["a1", "b1", "c1"],
            ["a1", "b1", "c2"],
            ["a2", "b1", "c3"],
            ["a2", "b2", "c4"],
            ["a1", "b1", "c5"],
        ],
        name="partition-test",
    )


class TestPartitionBuild:
    def test_single_attribute_partition(self, relation):
        partition = Partition.build(relation, ["A"])
        assert len(partition) == 2
        sizes = sorted(ec.size for ec in partition)
        assert sizes == [2, 3]

    def test_multi_attribute_partition(self, relation):
        partition = Partition.build(relation, ["A", "B"])
        assert len(partition) == 3

    def test_partition_covers_all_rows(self, relation):
        partition = Partition.build(relation, ["B"])
        assert sum(ec.size for ec in partition) == relation.num_rows

    def test_empty_attribute_set_raises(self, relation):
        with pytest.raises(RelationError):
            Partition.build(relation, [])

    def test_class_of_row(self, relation):
        partition = Partition.build(relation, ["A"])
        assert 0 in partition.class_of_row(1).rows

    def test_class_of_row_unknown(self, relation):
        partition = Partition.build(relation, ["A"])
        with pytest.raises(RelationError):
            partition.class_of_row(99)

    def test_non_singleton_classes(self, relation):
        partition = Partition.build(relation, ["A", "B", "C"])
        assert partition.non_singleton_classes() == []
        partition = Partition.build(relation, ["A", "B"])
        assert len(partition.non_singleton_classes()) == 1

    def test_has_duplicates(self, relation):
        assert Partition.build(relation, ["A"]).has_duplicates()
        assert not Partition.build(relation, ["C"]).has_duplicates()

    def test_error_count_zero_for_key(self, relation):
        assert Partition.build(relation, ["C"]).error_count() == 0
        assert Partition.build(relation, ["A"]).error_count() == 3

    def test_average_class_size(self, relation):
        assert Partition.build(relation, ["C"]).average_class_size() == 1.0

    def test_repr(self, relation):
        assert "classes" in repr(Partition.build(relation, ["A"]))


class TestEquivalenceClass:
    def test_representative_matches_rows(self, relation):
        partition = Partition.build(relation, ["A", "B"])
        for ec in partition:
            for row in ec.rows:
                assert relation.project_row(row, ["A", "B"]) == ec.representative

    def test_value_of(self, relation):
        ec = Partition.build(relation, ["A", "B"]).class_of_row(0)
        assert ec.value_of("A") == "a1"
        with pytest.raises(RelationError):
            ec.value_of("C")

    def test_collision_detection(self):
        first = EquivalenceClass(("A", "B"), ("a1", "b1"), (0,))
        second = EquivalenceClass(("A", "B"), ("a2", "b1"), (1,))
        third = EquivalenceClass(("A", "B"), ("a2", "b2"), (2,))
        assert first.collides_with(second)
        assert not first.collides_with(third)

    def test_collision_requires_same_attributes(self):
        first = EquivalenceClass(("A",), ("a1",), (0,))
        second = EquivalenceClass(("B",), ("a1",), (1,))
        with pytest.raises(RelationError):
            first.collides_with(second)

    def test_len(self):
        assert len(EquivalenceClass(("A",), ("a1",), (0, 3, 5))) == 3


class TestRefinementAndProduct:
    def test_refines_when_fd_holds(self, relation):
        # C is a key, so C -> B holds and pi_C refines pi_B; a multi-attribute
        # partition always refines the partitions of its subsets.
        assert Partition.build(relation, ["C"]).refines(Partition.build(relation, ["B"]))
        assert Partition.build(relation, ["A", "B"]).refines(Partition.build(relation, ["B"]))

    def test_does_not_refine_when_fd_fails(self, relation):
        # B -> A fails (b1 maps to a1 and a2), A -> B fails (a2 maps to b1, b2).
        assert not Partition.build(relation, ["B"]).refines(Partition.build(relation, ["A"]))
        assert not Partition.build(relation, ["A"]).refines(Partition.build(relation, ["B"]))

    def test_refines_requires_same_relation_size(self, relation):
        other = Relation(["A"], [["x"]])
        with pytest.raises(RelationError):
            Partition.build(relation, ["A"]).refines(Partition.build(other, ["A"]))

    def test_product_equals_direct_partition(self, relation):
        product = Partition.build(relation, ["A"]).product(Partition.build(relation, ["B"]))
        direct = Partition.build(relation, ["A", "B"])
        product_groups = sorted(tuple(ec.rows) for ec in product)
        direct_groups = sorted(tuple(ec.rows) for ec in direct)
        assert product_groups == direct_groups

    def test_product_representatives_are_consistent(self, relation):
        product = Partition.build(relation, ["A"]).product(Partition.build(relation, ["C"]))
        for ec in product:
            assert len(ec.representative) == 2

    def test_product_requires_same_relation_size(self, relation):
        other = Relation(["A"], [["x"]])
        with pytest.raises(RelationError):
            Partition.build(relation, ["A"]).product(Partition.build(other, ["A"]))


class TestStrippedPartition:
    def test_strips_singletons(self, relation):
        stripped = StrippedPartition.build(relation, ["A", "B"])
        assert all(len(group) > 1 for group in stripped.groups)

    def test_error_measure(self, relation):
        stripped = StrippedPartition.build(relation, ["A"])
        full = Partition.build(relation, ["A"])
        assert stripped.error == full.error_count()

    def test_error_zero_for_key(self, relation):
        assert StrippedPartition.build(relation, ["C"]).error == 0

    def test_product_matches_direct(self, relation):
        product = StrippedPartition.build(relation, ["A"]).product(
            StrippedPartition.build(relation, ["B"])
        )
        direct = StrippedPartition.build(relation, ["A", "B"])
        assert sorted(map(tuple, product.groups)) == sorted(map(tuple, direct.groups))

    def test_product_requires_same_relation(self, relation):
        other = Relation(["A"], [["x"], ["x"]])
        with pytest.raises(RelationError):
            StrippedPartition.build(relation, ["A"]).product(StrippedPartition.build(other, ["A"]))

    @pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")
    def test_product_requires_same_backend(self, relation):
        # Flat forms differ by backend, so they must not be mixed.
        with pytest.raises(RelationError):
            StrippedPartition.build(relation, ["A"], backend="python").product(
                StrippedPartition.build(relation, ["B"], backend="numpy")
            )
