"""Owner-side select resolution: the cached provenance index and batched decrypt.

A provider's plan-query reply lists matched *ciphertext rows*; the owner
turns it into the plaintext selection through her row provenance.  These
tests pin that the resolution

* agrees with the plaintext selection, including the conflict-split
  records no single ciphertext row carries the predicate attributes for;
* touches only the matched records (and those split records), never the
  whole table;
* decrypts with one ``decrypt_batch`` per query, each repeated instance
  ciphertext once;
* rebuilds its cached structures whenever the encrypted table changes.
"""

import itertools

import pytest

from repro.api import DataOwner, RemoteOwnerSession, ServiceProvider
from repro.core.config import F2Config
from repro.core.encrypted import EncryptedTable, ProvenanceIndex, RowProvenance
from repro.core.stats import EncryptionStats
from repro.exceptions import DecryptionError
from repro.query import And, Eq, Or
from repro.relational.table import Relation
from tests.conftest import make_random_table


def conflict_owner() -> DataOwner:
    """An owner whose table has conflict-split records (overlapping MASs)."""
    owner = DataOwner.from_seed(8, config=F2Config(alpha=0.5, seed=8))
    owner.outsource(make_random_table(608, num_attributes=4))
    return owner


def zipcode_owner(table: Relation) -> DataOwner:
    owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7))
    owner.outsource(table)
    return owner


def naive_groups(encrypted: EncryptedTable) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for index, row in enumerate(encrypted.provenance):
        if row.source_row is not None and not row.is_artificial:
            groups.setdefault(row.source_row, []).append(index)
    return groups


def predicates(owner: DataOwner):
    """Every one- and two-leaf Eq/And/Or predicate over queryable attributes."""
    plaintext = owner.plaintext
    leaves = [
        Eq(attr, value)
        for attr in sorted(owner.queryable_attributes())
        for value in sorted(set(plaintext.column(attr)))
    ]
    yield from leaves
    for left, right in itertools.combinations(leaves, 2):
        yield And((left, right))
        yield Or((left, right))


class CipherCalls:
    """Counts the owner cipher's decrypt calls and cells."""

    def __init__(self, monkeypatch, owner: DataOwner):
        cipher = owner.pipeline.cipher
        self.single = 0
        self.batches: list[int] = []
        decrypt, decrypt_batch = cipher.decrypt, cipher.decrypt_batch

        def counted_decrypt(ciphertext):
            self.single += 1
            return decrypt(ciphertext)

        def counted_batch(ciphertexts, backend=None):
            self.batches.append(len(ciphertexts))
            return decrypt_batch(ciphertexts, backend)

        monkeypatch.setattr(cipher, "decrypt", counted_decrypt)
        monkeypatch.setattr(cipher, "decrypt_batch", counted_batch)


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------
class TestProvenanceIndex:
    def test_groups_equal_a_walk_over_the_provenance(self):
        encrypted = conflict_owner().encrypted
        index = encrypted.provenance_index()
        assert index.groups() == naive_groups(encrypted)
        assert index.num_rows == encrypted.num_rows

    def test_original_row_groups_hands_out_copies(self):
        encrypted = conflict_owner().encrypted
        groups = encrypted.original_row_groups()
        first = next(iter(groups))
        groups[first].append(10**6)
        assert encrypted.original_row_groups() == naive_groups(encrypted)

    def test_split_sources_match_their_definition(self):
        owner = conflict_owner()
        encrypted = owner.encrypted
        index = encrypted.provenance_index()
        attributes = sorted(owner.queryable_attributes())
        seen_split = False
        for size in range(1, len(attributes) + 1):
            for combo in itertools.combinations(attributes, size):
                wanted = frozenset(combo)
                expected = sorted(
                    source
                    for source, rows in naive_groups(encrypted).items()
                    if not any(
                        wanted <= encrypted.provenance[row].authentic_attributes
                        for row in rows
                    )
                )
                assert sorted(index.split_sources(wanted)) == expected
                seen_split = seen_split or bool(expected)
        assert seen_split, "the fixture table must exercise conflict-split records"

    def test_covering_sources(self):
        encrypted = conflict_owner().encrypted
        index = encrypted.provenance_index()
        rows = range(encrypted.num_rows)
        everything = index.covering_sources(rows, frozenset())
        assert everything == set(naive_groups(encrypted))
        artificial = encrypted.artificial_row_indexes()
        assert index.covering_sources(artificial, frozenset()) == set()

    def test_index_is_cached_until_the_provenance_changes(self):
        relation = Relation(["A"], [["a0"], ["a1"]])
        provenance = [
            RowProvenance("original", 0, frozenset({"A"})),
            RowProvenance("scaling", None, frozenset()),
        ]
        encrypted = EncryptedTable(
            relation=relation,
            provenance=provenance,
            config=F2Config(),
            stats=EncryptionStats(rows_original=1),
        )
        index = encrypted.provenance_index()
        assert encrypted.provenance_index() is index
        assert index.groups() == {0: [0]}
        relation.append(["a2"])
        encrypted.provenance.append(RowProvenance("original", 1, frozenset({"A"})))
        grown = encrypted.provenance_index()
        assert grown is not index and grown.groups() == {0: [0], 1: [2]}
        encrypted.provenance = list(encrypted.provenance)
        assert encrypted.provenance_index() is not grown

    def test_index_is_not_part_of_table_equality(self):
        owner = conflict_owner()
        encrypted = owner.encrypted
        twin = EncryptedTable(
            relation=encrypted.relation,
            provenance=encrypted.provenance,
            config=encrypted.config,
            stats=encrypted.stats,
            masses=encrypted.masses,
            ecg_summaries=encrypted.ecg_summaries,
            metadata=encrypted.metadata,
        )
        encrypted.provenance_index()
        assert twin == encrypted
        assert "ProvenanceIndex" not in repr(encrypted)

    def test_missing_attribute_is_a_decryption_error(self):
        index = ProvenanceIndex(
            [RowProvenance("conflict", 0, frozenset({"A"}))], ("A", "B")
        )
        with pytest.raises(DecryptionError, match="missing attributes \\['B'\\]"):
            index.cell_rows(0)

    def test_insert_yields_a_fresh_index(self, zipcode_table):
        owner = zipcode_owner(zipcode_table)
        before = owner.encrypted.provenance_index()
        owner.insert_rows([["07030", "Hoboken", "street-new", "N"]])
        after = owner.encrypted.provenance_index()
        assert after is not before
        assert after.num_rows == owner.encrypted.num_rows
        assert after.groups() == naive_groups(owner.encrypted)


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_equals_the_plaintext_selection_on_a_conflict_table(self):
        owner = conflict_owner()
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        index = owner.encrypted.provenance_index()
        judged = 0
        for predicate in predicates(owner):
            plan = owner.plan_query(predicate)
            result = provider.answer_plan_query(plan.server)
            got = owner.decrypt_plan_result(plan, result)
            want = owner.select_plaintext_where(predicate)
            assert list(got.rows()) == list(want.rows()), str(predicate)
            judged += len(index.split_sources(plan.server_attributes))
        assert judged, "no predicate reached the conflict-split path"

    def test_only_candidate_records_are_resolved(self, monkeypatch):
        owner = conflict_owner()
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        resolved: list[int] = []
        cell_rows = ProvenanceIndex.cell_rows

        def counted(index, source):
            resolved.append(source)
            return cell_rows(index, source)

        monkeypatch.setattr(ProvenanceIndex, "cell_rows", counted)
        index = owner.encrypted.provenance_index()
        for predicate in predicates(owner):
            plan = owner.plan_query(predicate)
            result = provider.answer_plan_query(plan.server)
            resolved.clear()
            owner.decrypt_plan_result(plan, result)
            matched = index.covering_sources(result.row_indexes, plan.server_attributes)
            split = set(index.split_sources(plan.server_attributes))
            assert sorted(resolved) == sorted(matched | split), str(predicate)

    def test_empty_match_set_decrypts_nothing(self, zipcode_table, monkeypatch):
        owner = zipcode_owner(zipcode_table)
        plan = owner.plan_query("City = Hoboken")
        assert not owner.encrypted.provenance_index().split_sources(plan.server_attributes)
        calls = CipherCalls(monkeypatch, owner)
        assert owner.decrypt_plan_result(plan, []).num_rows == 0
        assert calls.batches == [] and calls.single == 0

    def test_one_batch_of_distinct_cells_per_query(self, zipcode_table, monkeypatch):
        owner = zipcode_owner(zipcode_table)
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        calls = CipherCalls(monkeypatch, owner)
        got = session.select("City = Hoboken and Side = N")
        assert got.num_rows > 1
        assert calls.single == 0
        assert len(calls.batches) == 1
        result_cells = got.num_rows * got.num_attributes
        # Zipcode/City instance ciphertexts repeat across the matched records
        # and are decrypted once each.
        assert calls.batches[0] < result_cells
        assert list(got.rows()) == list(
            owner.select_plaintext_where("City = Hoboken and Side = N").rows()
        )

    def test_equality_query_path_uses_one_batch(self, zipcode_table, monkeypatch):
        owner = zipcode_owner(zipcode_table)
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        plan = owner.plan_query(Eq("City", "Hoboken"))
        result = provider.answer_plan_query(plan.server)
        calls = CipherCalls(monkeypatch, owner)
        got = owner.decrypt_plan_result(plan, result)
        assert len(calls.batches) == 1 and calls.single == 0
        assert list(got.rows()) == list(owner.select_plaintext("City", "Hoboken").rows())

    def test_whole_table_decrypt_is_one_batch(self, monkeypatch):
        owner = conflict_owner()
        calls = CipherCalls(monkeypatch, owner)
        assert owner.decrypt() == owner.plaintext
        assert len(calls.batches) == 1 and calls.single == 0


# ----------------------------------------------------------------------
# Search-token cache
# ----------------------------------------------------------------------
class TestTokenCache:
    def test_repeat_derivation_is_served_from_the_cache(self, zipcode_table):
        owner = zipcode_owner(zipcode_table)
        token = owner.derive_search_token("City", "Hoboken")
        assert owner.derive_search_token("City", "Hoboken") is token

    def test_insert_invalidates_the_cache(self, zipcode_table):
        owner = zipcode_owner(zipcode_table)
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        token = owner.derive_search_token("City", "Hoboken")
        session.insert_rows([["07030", "Hoboken", "street-new", "N"]])
        assert owner.derive_search_token("City", "Hoboken") is not token
        got = session.select("City = Hoboken")
        assert list(got.rows()) == list(owner.select_plaintext_where("City = Hoboken").rows())

    def test_derivation_racing_an_insert_is_not_cached(self, zipcode_table, monkeypatch):
        owner = zipcode_owner(zipcode_table)
        cipher = owner.pipeline.cipher
        encrypt = cipher.encrypt
        raced: list[bool] = []

        def insert_midway(*args, **kwargs):
            if not raced:
                raced.append(True)
                monkeypatch.setattr(cipher, "encrypt", encrypt)
                owner.insert_rows([["07030", "Hoboken", "street-race", "N"]])
            return encrypt(*args, **kwargs)

        monkeypatch.setattr(cipher, "encrypt", insert_midway)
        stale = owner.derive_search_token("City", "Hoboken")
        assert raced
        # The token derived from the pre-insert plans never reaches the
        # cache of the table that replaced them.
        assert owner.derive_search_token("City", "Hoboken") is not stale

    def test_cache_is_bounded(self, zipcode_table, monkeypatch):
        owner = zipcode_owner(zipcode_table)
        monkeypatch.setattr(DataOwner, "TOKEN_CACHE_SIZE", 2)
        for value in ("Hoboken", "JerseyCity", "Nowhere", "Hoboken"):
            owner.derive_search_token("City", value)
            assert len(owner._tokens) <= 2


def test_coded_column_inverse_dictionary_is_cached():
    relation = Relation(["A"], [["x"], ["y"], ["x"], ["z"]])
    column = relation.coded().column("A")
    code_of = column.code_of()
    assert column.code_of() is code_of
    assert {column.dictionary[code]: code for code in code_of.values()} == code_of
    coded = relation.coded()
    assert coded.backend.mask_to_rows(coded.match_mask("A", ["x", "absent"])) == [0, 2]
