"""Tests of the owner's persistent state: chunked sequences, layered maps,
and an insert that shares the previous state instead of copying it.

The chunked splice must equal the flat splice it replaced (kept here as
the oracle), two versions made from one base must never see each other's
additions, and a one-row insert must share what it did not change.
"""

import copy
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DataOwner, insert_rows
from repro.core.config import F2Config
from repro.datasets import generate_fd_table
from repro.relational.persistent import CHUNK, Chunks, LayeredMap, splice, stacked
from repro.relational.table import Relation

from tests.test_insert_incremental import (
    assert_same_tail,
    full_tail,
    incremental_rows,
    make_pipeline,
    seeded_urandom,
    view_text,
)

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def flat_apply(segments, base, pending) -> list:
    """The splice on flat lists: base slices and pending runs in segment order."""
    out: list = []
    taken = 0
    for start, count in segments:
        if start < 0:
            out.extend(pending[taken : taken + count])
            taken += count
        else:
            out.extend(base[start : start + count])
    return out


def check_shape(chunks: Chunks) -> None:
    """No empty or oversized chunk, adjacent chunks more than CHUNK
    together, and ends that are the running totals."""
    sizes = [len(chunk) for chunk in chunks.chunks]
    assert all(0 < size <= CHUNK for size in sizes)
    assert all(first + second > CHUNK for first, second in zip(sizes, sizes[1:]))
    running, total = [], 0
    for size in sizes:
        total += size
        running.append(total)
    assert chunks.ends == running


@st.composite
def splice_maps(draw, base_size: int):
    """A segment map over a base of ``base_size`` items: copy runs anywhere
    in the base (in order, with gaps, or none), pending runs between them,
    sometimes a whole 64-row batch."""
    segments = []
    pending = 0
    for _ in range(draw(st.integers(0, 12))):
        if base_size and draw(st.booleans()):
            start = draw(st.integers(0, base_size - 1))
            count = draw(st.integers(1, base_size - start))
            segments.append([start, count])
        else:
            count = draw(st.sampled_from([1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 150]))
            segments.append([-1, count])
            pending += count
    return segments, pending


@st.composite
def spliced_versions(draw):
    """A base built by a few splices, then a segment map over it."""
    items = list(range(draw(st.integers(0, 400))))
    base = Chunks.of(items)
    for version in range(draw(st.integers(0, 3))):
        segments, pending = draw(splice_maps(len(items)))
        new_items = [f"v{version}-{index}" for index in range(pending)]
        base = splice([base], [new_items], segments)[0]
        items = flat_apply(segments, items, new_items)
    segments, pending = draw(splice_maps(len(items)))
    return items, base, segments, pending


class TestChunks:
    @PROPERTY
    @given(spliced_versions())
    def test_splice_equals_the_flat_oracle(self, drawn):
        items, base, segments, pending = drawn
        assert list(base) == items
        new_items = [f"p{index}" for index in range(pending)]
        # Two sequences with one ends list, as a relation's columns have.
        twin = Chunks([tuple(str(item) for item in chunk) for chunk in base.chunks], base.ends)
        first, second = splice([base, twin], [new_items, [str(i) for i in new_items]], segments)
        expected = flat_apply(segments, items, new_items)
        assert list(first) == expected
        assert list(second) == [str(item) for item in expected]
        assert first.ends is second.ends
        check_shape(first)
        assert len(first.chunks) <= 2 * len(expected) / CHUNK + 1
        for index in range(0, len(expected), 5):
            assert first[index] == expected[index]
        # Every base chunk a copy run covers whole is shared, not copied.
        reused = {id(chunk) for chunk in first.chunks}
        for start, count in segments:
            if start < 0:
                continue
            for chunk, end in zip(base.chunks, base.ends):
                if start <= end - len(chunk) and end <= start + count and len(chunk) == CHUNK:
                    assert id(chunk) in reused
        assert list(base) == items, "the base must be left as it was"

    @PROPERTY
    @given(st.integers(0, 300), st.sampled_from([0, 1, 2, CHUNK - 1, CHUNK, 64, 200]))
    def test_extended_equals_the_flat_oracle(self, size, added):
        base = Chunks.of(range(size))
        grown = base.extended([f"n{index}" for index in range(added)])
        assert list(grown) == list(range(size)) + [f"n{index}" for index in range(added)]
        check_shape(grown)
        # Every chunk but the last is shared.
        assert all(new is old for new, old in zip(grown.chunks, base.chunks[:-1]))
        assert list(base) == list(range(size))

    def test_an_all_pending_run_and_an_empty_base(self):
        assert list(Chunks.of([])) == [] and Chunks.of([]).chunks == []
        built = splice(None, [list(range(200))])[0]
        assert list(built) == list(range(200))
        assert [len(chunk) for chunk in built.chunks] == [CHUNK, CHUNK, CHUNK, 200 - 3 * CHUNK]
        assert splice([Chunks()], [["a"]], [[-1, 1]])[0] == ["a"]

    def test_sequence_behaviour(self):
        chunks = Chunks.of(range(150))
        assert chunks[-1] == 149 and chunks[10:75] == list(range(10, 75))
        assert chunks[::50] == [0, 50, 100]
        assert chunks == list(range(150)) and list(range(150)) == chunks
        assert chunks != list(range(149))
        with pytest.raises(IndexError):
            chunks[150]


class TestLayeredMap:
    def test_versions_never_see_each_other(self):
        base = {"a": 1}
        first = LayeredMap.over(base)
        first["b"] = 2
        left, right = LayeredMap.over(first), LayeredMap.over(first)
        left["c"] = 3
        right["d"] = 4
        first["e"] = 5  # the shared version writes on after both children
        assert base == {"a": 1}
        assert dict(first) == {"a": 1, "b": 2, "e": 5}
        assert dict(left) == {"a": 1, "b": 2, "c": 3}
        assert dict(right) == {"a": 1, "b": 2, "d": 4}
        assert left == {"a": 1, "b": 2, "c": 3} and "d" not in left

    def test_insert_only(self):
        layered = LayeredMap.over({"a": 1})
        layered["a"] = 1  # the same value again is a no-op
        with pytest.raises(KeyError):
            layered["a"] = 2
        with pytest.raises(TypeError):
            del layered["a"]
        assert len(layered) == 1

    def test_layers_stay_logarithmic_and_shared_ones_unchanged(self):
        version = LayeredMap.over({index: index for index in range(1000)})
        snapshots = []
        for step in range(300):
            version = LayeredMap.over(version)
            version[f"k{step}"] = step
            if step % 50 == 0:
                snapshots.append((version, dict(version)))
            assert version.layers <= 12
        assert len(version) == 1300
        for held, contents in snapshots:
            assert dict(held) == contents

    def test_stacked_merges_into_new_objects(self):
        bottom, top = {1, 2}, {3}
        layers = stacked((bottom,), top)
        assert layers == ({1, 2, 3},) and bottom == {1, 2} and top == {3}
        assert stacked(layers, set()) is layers


def owner_with(rows: int) -> DataOwner:
    owner = DataOwner.from_seed(7, config=F2Config(alpha=0.2, seed=11))
    owner.outsource(generate_fd_table(rows, num_zipcodes=40, num_extra_columns=2, seed=1))
    return owner


def duplicated_row(relation: Relation, tag: str) -> list:
    """A row on a duplicated combination off ``Street``, with a fresh Street."""
    return incremental_rows(relation, 1, tag)[0]


class TestSharingInserts:
    def test_a_one_row_insert_shares_the_previous_state(self):
        owner = owner_with(2000)
        owner.insert_rows([duplicated_row(owner.plaintext, "warm")])
        plaintext, view = owner.plaintext.chunked(), owner.encrypted.relation.chunked()
        provenance = owner.encrypted.provenance
        owner.insert_rows([duplicated_row(owner.plaintext, "measured")])
        assert owner.last_update_report.tail_fallback is None
        new_plaintext = owner.plaintext.chunked()
        for old, new in zip(plaintext, new_plaintext):
            kept = {id(chunk) for chunk in new.chunks}
            assert all(id(chunk) in kept for chunk in old.chunks if len(chunk) == CHUNK)
        new_view = [*owner.encrypted.relation.chunked(), owner.encrypted.provenance]
        for old, new in zip([*view, provenance], new_view):
            kept = {id(chunk) for chunk in new.chunks}
            shared = sum(id(chunk) in kept for chunk in old.chunks)
            assert shared >= 0.9 * len(old.chunks)

    def test_a_one_row_insert_copies_and_flattens_nothing(self):
        owner = owner_with(400)
        owner.insert_rows([duplicated_row(owner.plaintext, "warm")])
        flattened: list[str] = []
        column_at = Relation._column_at

        def counting(self, position):
            if self._columns[position] is None:
                flattened.append(f"{self.name}:{self.attributes[position]}")
            return column_at(self, position)

        row = duplicated_row(owner.plaintext, "measured")
        with mock.patch.object(Relation, "copy", side_effect=AssertionError("copied")), \
                mock.patch.object(Relation, "_column_at", counting):
            owner.insert_rows([row])
        assert owner.last_update_report.mode == "incremental"
        assert flattened == []

    def test_two_versions_from_one_base_stay_independent(self, zipcode_table):
        pipeline = make_pipeline()
        base = pipeline.new_context(zipcode_table.copy())
        pipeline.execute(base)
        base, _, _ = insert_rows(pipeline, base, incremental_rows(base.relation, 1, "warm"))
        before = (view_text(base.layout.relation), list(base.layout.provenance),
                  dict(base.nonce_log), dict(base.instance_cache), view_text(base.relation))
        versions = []
        for tag, seed in (("left", 1), ("right", 2)):
            batch = incremental_rows(base.relation, 2, tag)
            reference = full_tail(pipeline, base, batch, seed)
            with seeded_urandom(seed):
                spliced = insert_rows(pipeline, base, batch)
            assert_same_tail(spliced, reference)
            versions.append((spliced[0], batch))
        (left, left_batch), (right, right_batch) = versions
        # Neither version sees the other's rows, cells or projections.
        added = range(base.relation.num_rows, left.relation.num_rows)
        assert [list(row) for row in left_batch] == [list(left.relation.row(i)) for i in added]
        assert not set(left.nonce_log) & (set(right.nonce_log) - set(base.nonce_log))
        assert left.mas_border.extended([tuple(right_batch[0])]) is not None
        assert right.mas_border.extended([tuple(left_batch[0])]) is not None
        assert base.mas_border.extended([tuple(left_batch[0])]) is not None
        # And the base is exactly as it was.
        assert (view_text(base.layout.relation), list(base.layout.provenance),
                dict(base.nonce_log), dict(base.instance_cache), view_text(base.relation)) == before
        # A later insert on one version still equals a whole-tail run.
        batch = incremental_rows(left.relation, 1, "again")
        reference = full_tail(pipeline, left, batch, 3)
        with seeded_urandom(3):
            assert_same_tail(insert_rows(pipeline, left, batch), reference)

    def test_plain_dict_maps_become_bottom_layers(self, zipcode_table):
        pipeline = make_pipeline()
        ctx = pipeline.new_context(zipcode_table.copy())
        pipeline.execute(ctx)
        carried = copy.copy(ctx)
        nonce_log = carried.nonce_log = dict(ctx.nonce_log)
        cache = carried.instance_cache = {}
        new, _, report = insert_rows(pipeline, carried, incremental_rows(ctx.relation, 1, "x"))
        assert report.mode == "incremental"
        assert nonce_log == ctx.nonce_log and cache == {}
        assert isinstance(new.nonce_log, LayeredMap) and new.nonce_log.items() >= nonce_log.items()


class TestChunkedRelation:
    def test_every_read_matches_list_storage(self):
        rows = [[f"a{index % 7}", index, f"c{index}"] for index in range(300)]
        flat = Relation(["A", "B", "C"], rows, name="t")
        chunked = flat.extended([["z", -1, "new"]])
        reference = Relation(["A", "B", "C"], rows + [["z", -1, "new"]], name="t")
        assert chunked.num_rows == 301 and len(chunked) == 301
        assert chunked.row(300) == ("z", -1, "new") and chunked.row(5) == reference.row(5)
        assert chunked.value(-1, "C") == "new"
        assert chunked.project_row(7, ["C", "A"]) == reference.project_row(7, ["C", "A"])
        assert chunked.select_rows([3, 299, 0, -1]) == reference.select_rows([3, 299, 0, -1])
        assert chunked.copy() == reference and chunked == reference
        assert list(chunked.rows()) == list(reference.rows())
        assert chunked.column("B") == reference.column("B")
        assert chunked.value_frequencies(["A"]) == reference.value_frequencies(["A"])
        assert chunked.coded().column("A").code_list() == reference.coded().column("A").code_list()
        assert flat.num_rows == 300, "extended leaves its source as it was"

    def test_a_mutation_drops_the_chunks(self):
        flat = Relation(["A"], [["x"], ["y"]])
        chunked = flat.extended([["z"]])
        copied = chunked.copy()
        chunked.set_value(0, "A", "changed")
        chunked.append(["w"])
        assert list(chunked.rows()) == [("changed",), ("y",), ("z",), ("w",)]
        assert list(copied.rows()) == [("x",), ("y",), ("z",)]
        assert chunked.extended([["v"]]).row(4) == ("v",)
