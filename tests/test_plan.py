"""Tests for the symbolic cell/row plan primitives."""

import random

import pytest

from repro.core.plan import (
    FreshCell,
    FreshValueFactory,
    InstanceCell,
    RandomCell,
    RowPlan,
)
from repro.core.encrypted import RowProvenance
from repro.crypto.probabilistic import Ciphertext


class TestCellSpecs:
    def test_instance_cell_cache_key(self):
        cell = InstanceCell(value="a1", variant="mas0|ecg1|inst0")
        assert cell.cache_key() == ("instance", "a1", "mas0|ecg1|inst0")

    def test_cell_specs_are_hashable_values(self):
        assert InstanceCell("a", "v") == InstanceCell("a", "v")
        assert RandomCell("a") == RandomCell("a")
        assert FreshCell("t1") != FreshCell("t2")

    def test_row_plan_replace_cell(self):
        plan = RowPlan(
            cells={"A": RandomCell("x")},
            provenance=RowProvenance(kind="original", source_row=0),
        )
        plan.replace_cell("A", FreshCell("tok"))
        assert plan.cells["A"] == FreshCell("tok")


class TestFreshValueFactory:
    def test_tokens_are_unique(self):
        factory = FreshValueFactory(seed=0)
        tokens = {factory.new_token("x") for _ in range(100)}
        assert len(tokens) == 100
        assert factory.tokens_issued == 100

    def test_same_token_materializes_to_same_value(self):
        factory = FreshValueFactory(seed=0)
        token = factory.new_token()
        assert factory.materialize(token) == factory.materialize(token)

    def test_different_tokens_materialize_to_different_values(self):
        factory = FreshValueFactory(seed=0)
        first = factory.materialize(factory.new_token())
        second = factory.materialize(factory.new_token())
        assert first != second

    def test_materialized_values_look_like_ciphertexts(self):
        factory = FreshValueFactory(seed=0, nonce_length=16)
        value = factory.materialize(factory.new_token())
        assert isinstance(value, Ciphertext)
        assert len(value.nonce) == 16

    def test_seeded_factories_are_reproducible(self):
        first = FreshValueFactory(seed=5)
        second = FreshValueFactory(seed=5)
        assert first.materialize("token") == second.materialize("token")

    def test_fresh_cell_helper(self):
        factory = FreshValueFactory(seed=0)
        cell = factory.fresh_cell("label")
        assert isinstance(cell, FreshCell)
        assert cell.token.startswith("label#")


class TestFreshValueStream:
    """A seeded factory's values are exactly the per-byte draw stream:
    ``getrandbits(8)`` per byte, nonce then payload, token after token."""

    @staticmethod
    def _reference(seed, tokens, nonce_length, payload_length):
        rng = random.Random(seed)
        values = {}
        for token in tokens:
            if token not in values:
                nonce = bytes(rng.getrandbits(8) for _ in range(nonce_length))
                payload = bytes(rng.getrandbits(8) for _ in range(payload_length))
                values[token] = Ciphertext(nonce=nonce, payload=payload)
        return [values[token] for token in tokens]

    @pytest.mark.parametrize("lengths", [(16, 24), (5, 3), (0, 7)])
    def test_materialize_matches_per_byte_reference(self, lengths):
        tokens = ["a", "b", "a", "c", "b", "d", "d", "e"]
        factory = FreshValueFactory(seed=11, nonce_length=lengths[0], payload_length=lengths[1])
        produced = [factory.materialize(token) for token in tokens]
        assert produced == self._reference(11, tokens, *lengths)
        assert all(len(value.nonce) == lengths[0] for value in produced)
        assert all(len(value.payload) == lengths[1] for value in produced)

    @pytest.mark.parametrize("lengths", [(16, 24), (5, 3)])
    def test_materialize_many_continues_the_same_stream(self, monkeypatch, lengths):
        # Small draw chunks, so the batches cross chunk boundaries.
        monkeypatch.setattr("repro.core.plan._DRAW_CHUNK", 4)
        tokens = [f"t{index % 13}" for index in range(40)]
        factory = FreshValueFactory(seed=3, nonce_length=lengths[0], payload_length=lengths[1])
        # One token first, then batches that repeat known and new tokens.
        produced = [factory.materialize(tokens[0])]
        produced += factory.materialize_many(tokens[1:20])
        produced += factory.materialize_many(tokens[20:])
        assert produced == self._reference(3, tokens, *lengths)
