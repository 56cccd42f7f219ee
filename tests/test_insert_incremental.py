"""Tests of the owner-side incremental insert's append-invariant shortcuts.

Three things an append cannot change are no longer recomputed per insert:

* the MAS family — decided by :class:`repro.fd.mas.MasBorder`, one
  projection set per minimal unique attribute set, checked against the
  batch only;
* the MAS partition counts — derived from the partitions the plan update
  builds anyway;
* the instance ciphertexts — carried in the context's ``instance_cache``
  and placed directly by the materialiser.

Each shortcut must agree exactly with the whole-table computation it
replaces: the border check with a fresh MAS discovery, the counts with
``find_mas_with_stats``, and the ciphertext bytes with an insert that
starts from an empty cache.
"""

import copy
import dataclasses
import random
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import DataOwner, insert_rows
from repro.api.pipeline import EncryptionPipeline
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.crypto.probabilistic import ProbabilisticCipher
from repro.fd.mas import MasBorder, find_mas_with_stats, minimal_unique_sets
from repro.relational.table import Relation

from tests.conftest import make_random_table

SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def mas_sets(relation: Relation) -> set[frozenset]:
    return {mas.as_set for mas in find_mas_with_stats(relation).masses}


def border_says_stable(relation: Relation, batch: list[list]) -> bool:
    border = MasBorder.build(relation, mas_sets(relation))
    assert border is not None, "the true MAS family must yield a unique border"
    updated = relation.copy()
    updated.extend(batch)
    rows = (updated.row(index) for index in range(relation.num_rows, updated.num_rows))
    return border.extended(rows) is not None


def discovery_says_stable(relation: Relation, batch: list[list]) -> bool:
    updated = relation.copy()
    updated.extend(batch)
    return mas_sets(updated) == mas_sets(relation)


@st.composite
def relation_and_batch(draw):
    """A small categorical table plus an append batch over its domains.

    Small domains make collisions common; batch rows are drawn from the
    same domains, may copy existing rows outright, and may repeat each
    other, so every way a batch can change the MAS family is reachable.
    """
    width = draw(st.integers(min_value=1, max_value=4))
    domains = [draw(st.integers(min_value=1, max_value=6)) for _ in range(width)]
    value = lambda col: st.integers(0, domains[col] - 1).map(lambda v: f"a{col}_{v}")  # noqa: E731
    row = st.tuples(*(value(col) for col in range(width))).map(list)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    relation = Relation([f"A{col}" for col in range(width)], rows, name="r")
    fresh_or_copied = st.one_of(row, st.sampled_from(rows))
    batch = draw(st.lists(fresh_or_copied, min_size=1, max_size=4))
    if draw(st.booleans()):
        batch.append(list(batch[0]))  # an in-batch duplicate
    return relation, batch


def rel(rows, attrs=("A", "B", "C")) -> Relation:
    return Relation(list(attrs), [list(row) for row in rows], name="r")


# ----------------------------------------------------------------------
# The border check against a fresh MAS discovery
# ----------------------------------------------------------------------
class TestMasBorder:
    @SLOW
    @given(relation_and_batch())
    @example((rel([["x", "1", "p"], ["y", "2", "q"]]), [["z", "3", "r"]]))  # no MAS, stays
    @example((rel([["x", "1", "p"], ["y", "2", "q"]]), [["x", "4", "s"]]))  # no MAS -> {A}
    @example((rel([["x", "1", "p"], ["x", "1", "p"]]), [["x", "1", "p"]]))  # schema is a MAS
    @example((rel([["x", "1", "p"], ["x", "1", "q"]]), [["y", "5", "s"], ["y", "6", "t"]]))
    def test_stable_iff_rediscovery_agrees(self, case):
        relation, batch = case
        assert border_says_stable(relation, batch) == discovery_says_stable(relation, batch)

    def test_no_mas_border_is_every_attribute(self):
        relation = rel([["x", "1", "p"], ["y", "2", "q"]])
        assert mas_sets(relation) == set()
        assert minimal_unique_sets([], relation.attributes) == [
            frozenset({"A"}), frozenset({"B"}), frozenset({"C"})
        ]
        assert border_says_stable(relation, [["z", "3", "r"]])
        assert not border_says_stable(relation, [["z", "3", "p"]])

    def test_full_schema_mas_has_an_empty_border(self):
        relation = rel([["x", "1", "p"], ["x", "1", "p"], ["y", "2", "q"]])
        assert mas_sets(relation) == {frozenset({"A", "B", "C"})}
        assert minimal_unique_sets(mas_sets(relation), relation.attributes) == []
        # Nothing an append adds can grow past the whole schema.
        assert border_says_stable(relation, [["x", "1", "p"], ["w", "9", "z"]])

    def test_in_batch_duplicate_changes_the_family(self):
        relation = rel([["x", "1", "p"], ["x", "1", "q"], ["y", "2", "r"]])
        # {A, B} is the MAS; C is unique.  Two batch rows sharing a fresh
        # C value collide with each other, not with the table.
        assert mas_sets(relation) == {frozenset({"A", "B"})}
        batch = [["z", "7", "s"], ["w", "8", "s"]]
        assert not border_says_stable(relation, batch)
        assert not discovery_says_stable(relation, batch)

    def test_wrong_mas_family_is_refused(self):
        relation = rel([["x", "1", "p"], ["x", "2", "q"]])
        # Claiming "no MAS" makes {A} a border set, but A is duplicated.
        assert MasBorder.build(relation, []) is None

    def test_extended_leaves_the_source_untouched(self):
        relation = rel([["x", "1", "p"], ["x", "1", "q"]])
        border = MasBorder.build(relation, mas_sets(relation))
        grown = border.extended([("y", "2", "r")])
        assert grown is not None and grown is not border
        # The source border still accepts the row it never saw.
        assert border.extended([("y", "2", "r")]) is not None
        assert grown.extended([("y", "2", "r")]) is None


# ----------------------------------------------------------------------
# The owner's incremental path
# ----------------------------------------------------------------------
def incremental_rows(table: Relation, count: int, tag: str) -> list[list]:
    """Rows on the table's most frequent combination off ``Street``, with
    fresh Streets, so the MAS family stays put."""
    index = table.schema.index_of("Street")
    combos = Counter(
        tuple(value for position, value in enumerate(row) if position != index)
        for row in table.rows()
    )
    combo, _ = combos.most_common(1)[0]
    rows = []
    for offset in range(count):
        row = list(combo)
        row.insert(index, f"street-{tag}-{offset}")
        rows.append(row)
    return rows


def seeded_urandom(seed: int):
    rng = random.Random(seed)
    return mock.patch(
        "repro.crypto.probabilistic.os.urandom",
        lambda count: bytes(rng.getrandbits(8) for _ in range(count)),
    )


def make_pipeline(backend=None) -> EncryptionPipeline:
    return EncryptionPipeline(
        key=KeyGen.symmetric_from_seed(42),
        config=F2Config(alpha=0.25, seed=7, backend=backend),
    )


def view_text(relation: Relation) -> list[tuple]:
    return [tuple(str(cell) for cell in row) for row in relation.rows()]


class TestIncrementalMasses:
    def test_masses_match_rediscovery_after_every_insert(self, zipcode_table):
        owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7))
        owner.outsource(zipcode_table)
        for round_index in range(4):
            encrypted = owner.insert_rows(
                incremental_rows(owner.plaintext, 1 + round_index, f"r{round_index}")
            )
            assert owner.last_update_report.mode == "incremental"
            assert encrypted.masses == find_mas_with_stats(owner.plaintext).masses

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=400))
    def test_masses_match_rediscovery_on_random_tables(self, seed):
        table = make_random_table(seed, num_attributes=3)
        rng = random.Random(seed)
        owner = DataOwner.from_seed(seed, config=F2Config(alpha=0.5, seed=seed))
        owner.outsource(table)
        for _ in range(3):
            batch = [
                [rng.choice(table.column(attr)) for attr in table.attributes]
                for _ in range(rng.randint(1, 3))
            ]
            encrypted = owner.insert_rows(batch)
            # Both modes must describe the updated relation exactly.
            assert encrypted.masses == find_mas_with_stats(owner.plaintext).masses
            assert owner.decrypt().to_dicts() == owner.plaintext.to_dicts()


class TestInstanceCache:
    def test_bytes_equal_an_empty_cache(self, zipcode_table):
        pipeline = make_pipeline()
        with seeded_urandom(5):
            ctx = pipeline.new_context(zipcode_table.copy())
            pipeline.execute(ctx)
        assert ctx.instance_cache, "a full run fills the cache"
        for round_index in range(3):
            batch = incremental_rows(ctx.relation, 2, f"b{round_index}")
            cold = dataclasses.replace(
                ctx, fresh_factory=copy.deepcopy(ctx.fresh_factory), instance_cache={}
            )
            with seeded_urandom(100 + round_index):
                _, cold_table, cold_report = insert_rows(pipeline, cold, batch)
            warm = dataclasses.replace(ctx, fresh_factory=copy.deepcopy(ctx.fresh_factory))
            with seeded_urandom(100 + round_index):
                ctx, warm_table, warm_report = insert_rows(pipeline, warm, batch)
            assert cold_report.mode == warm_report.mode == "incremental"
            assert view_text(warm_table.server_view()) == view_text(cold_table.server_view())

    def test_cached_instances_skip_the_cipher(self, zipcode_table):
        pipeline = make_pipeline()
        ctx = pipeline.new_context(zipcode_table.copy())
        pipeline.execute(ctx)
        batch = incremental_rows(ctx.relation, 1, "n")
        encrypted: list[int] = []
        original = ProbabilisticCipher.encrypt_batch

        def counting(self, items, *args, **kwargs):
            encrypted.append(len(items))
            return original(self, items, *args, **kwargs)

        counts = {}
        for label, cache in (("cold", {}), ("warm", ctx.instance_cache)):
            encrypted.clear()
            run = dataclasses.replace(
                ctx, fresh_factory=copy.deepcopy(ctx.fresh_factory), instance_cache=cache
            )
            with mock.patch.object(ProbabilisticCipher, "encrypt_batch", counting):
                insert_rows(pipeline, run, batch)
            counts[label] = sum(encrypted)
        # The cold run re-encrypts every instance; the warm one only what
        # the re-planned group and the new row need.
        assert counts["warm"] < counts["cold"] / 2

    def test_previous_context_is_left_untouched(self, zipcode_table):
        pipeline = make_pipeline()
        ctx = pipeline.new_context(zipcode_table.copy())
        pipeline.execute(ctx)
        first, _, _ = insert_rows(pipeline, ctx, incremental_rows(ctx.relation, 1, "a"))
        nonce_log = dict(first.nonce_log)
        cache = dict(first.instance_cache)
        border = first.mas_border
        assert border is not None
        second, _, report = insert_rows(
            pipeline, first, incremental_rows(first.relation, 2, "b")
        )
        assert report.mode == "incremental"
        assert first.nonce_log == nonce_log
        assert first.instance_cache == cache
        assert first.mas_border is border
        assert second.nonce_log is not first.nonce_log
        assert second.instance_cache is not first.instance_cache
        assert second.mas_border is not border
        # The carried border still describes the previous relation.
        row = incremental_rows(first.relation, 1, "b")[0]
        assert border.extended([tuple(row)]) is not None

    def test_full_fallback_starts_from_empty_caches(self, zipcode_table):
        pipeline = make_pipeline()
        ctx = pipeline.new_context(zipcode_table.copy())
        pipeline.execute(ctx)
        new_ctx, table, report = insert_rows(pipeline, ctx, [list(zipcode_table.row(0))])
        assert report.mode == "full" and report.reason == "mas-changed"
        assert new_ctx.mas_border is None
        assert new_ctx.instance_cache is not ctx.instance_cache
        assert table.masses == find_mas_with_stats(new_ctx.relation).masses
