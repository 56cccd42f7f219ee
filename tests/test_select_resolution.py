"""Owner-side select resolution: the cached provenance index and the token memo.

A provider's plan-query reply lists matched *ciphertext rows*; the owner
turns it into the plaintext selection through her row provenance.  These
tests pin that the resolution

* agrees with the plaintext selection, including the conflict-split
  records no single ciphertext row carries the predicate attributes for;
* reads the records from the owner's plaintext and decrypts nothing
  (whole-table decryption stays one ``decrypt_batch``);
* rebuilds its cached structures whenever the encrypted table changes,
  and keeps the search tokens an insert left unchanged.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DataOwner, RemoteOwnerSession, ServiceProvider
from repro.api.protocol import LoopbackTransport, ProtocolClient, ProtocolServer
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
                        wanted
                        <= encrypted.provenance[row].authentic_attributes
                        - encrypted.provenance[row].unsearchable_attributes
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

    def test_empty_match_set_decrypts_nothing(self, zipcode_table, monkeypatch):
        owner = zipcode_owner(zipcode_table)
        plan = owner.plan_query("City = Hoboken")
        assert not owner.encrypted.provenance_index().split_sources(plan.server_attributes)
        calls = CipherCalls(monkeypatch, owner)
        assert owner.decrypt_plan_result(plan, []).num_rows == 0
        assert calls.batches == [] and calls.single == 0

    def test_only_candidate_records_are_resolved(self, monkeypatch):
        # Resolution reads only the matched and the conflict-split records
        # from the owner's plaintext, judges every split record locally, and
        # decrypts nothing.
        owner = conflict_owner()
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        plaintext = owner.plaintext
        read: list[int] = []
        selected: list[int] = []
        row_dict, select_rows = Relation.row_dict, Relation.select_rows

        def counted_row_dict(relation, index):
            if relation is plaintext:
                read.append(index)
            return row_dict(relation, index)

        def counted_select_rows(relation, indexes, name=None):
            indexes = list(indexes)
            if relation is plaintext:
                selected.extend(indexes)
            return select_rows(relation, indexes, name)

        index = owner.encrypted.provenance_index()
        results = []
        for predicate in predicates(owner):
            plan = owner.plan_query(predicate)
            results.append((predicate, plan, provider.answer_plan_query(plan.server)))
        monkeypatch.setattr(Relation, "row_dict", counted_row_dict)
        monkeypatch.setattr(Relation, "select_rows", counted_select_rows)
        calls = CipherCalls(monkeypatch, owner)
        judged = 0
        for predicate, plan, result in results:
            read.clear()
            selected.clear()
            owner.decrypt_plan_result(plan, result)
            matched = index.covering_sources(result.row_indexes, plan.server_attributes)
            split = set(index.split_sources(plan.server_attributes))
            candidates = matched | split
            assert set(read) <= candidates, str(predicate)
            assert split <= set(read), str(predicate)
            assert set(selected) <= candidates, str(predicate)
            judged += len(split)
        assert judged, "no predicate reached the conflict-split path"
        assert calls.batches == [] and calls.single == 0

    def test_one_batch_of_distinct_cells_per_query(self, zipcode_table, monkeypatch):
        # The batch of distinct cells a served select decrypts is empty:
        # every record it returns is in the owner's plaintext.
        owner = zipcode_owner(zipcode_table)
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        calls = CipherCalls(monkeypatch, owner)
        for predicate in ("City = Hoboken and Side = N", "City = Hoboken", Eq("Zipcode", "07302")):
            got = session.select(predicate)
            assert got.num_rows > 1
            assert list(got.rows()) == list(owner.select_plaintext_where(predicate).rows())
        assert calls.batches == [] and calls.single == 0

    def test_equality_query_path_uses_one_batch(self, zipcode_table, monkeypatch):
        # The equality path answers from the plaintext: no batch at all.
        owner = zipcode_owner(zipcode_table)
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        plan = owner.plan_query(Eq("City", "Hoboken"))
        result = provider.answer_plan_query(plan.server)
        calls = CipherCalls(monkeypatch, owner)
        got = owner.decrypt_plan_result(plan, result)
        assert calls.batches == [] and calls.single == 0
        assert got.num_rows > 1
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

    def test_insert_keeps_the_tokens_it_left_unchanged(self, zipcode_table):
        # The insert grows a Hoboken class, so its group is re-planned and
        # every value of that group's members drops out of the memo; 07302
        # lives only in untouched groups, and its token survives.
        owner = zipcode_owner(zipcode_table)
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        touched = owner.derive_search_token("City", "Hoboken")
        untouched = owner.derive_search_token("Zipcode", "07302")
        memo = owner._tokens
        session.insert_rows([["07030", "Hoboken", "street-new", "N"]])
        assert owner._tokens is not memo
        assert owner.derive_search_token("Zipcode", "07302") is untouched
        assert owner.derive_search_token("City", "Hoboken") is not touched
        # Every carried token is the one the new plans derive.
        carried = dict(owner._tokens)
        owner._tokens = {}
        for (attribute, value), token in carried.items():
            assert owner.derive_search_token(attribute, value) == token
        for predicate in ("City = Hoboken", "Zipcode = 07302"):
            got = session.select(predicate)
            assert list(got.rows()) == list(owner.select_plaintext_where(predicate).rows())

    def test_derivations_racing_inserts_leave_a_consistent_memo(self, zipcode_table):
        # Sessions sharing one owner derive tokens on their own threads
        # while another inserts: no derivation may fail, and every token
        # the final memo holds must be the one the final plans derive.
        import sys
        import threading

        owner = zipcode_owner(zipcode_table)
        keys = [
            (attribute, value)
            for attribute in ("Zipcode", "City", "Side")
            for value in sorted(set(zipcode_table.column(attribute)))
        ]
        errors: list[BaseException] = []
        done = threading.Event()

        def derive() -> None:
            try:
                while not done.is_set():
                    for key in keys:
                        owner.derive_search_token(*key)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=derive) for _ in range(4)]
        try:
            for worker in workers:
                worker.start()
            for step in range(8):
                owner.insert_rows([["07030", "Hoboken", f"street-race-{step}", "N"]])
        finally:
            done.set()
            for worker in workers:
                worker.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        carried = dict(owner._tokens)
        owner._tokens = {}
        for (attribute, value), token in carried.items():
            assert owner.derive_search_token(attribute, value) == token

    def test_full_run_starts_an_empty_memo(self, zipcode_table):
        owner = zipcode_owner(zipcode_table)
        owner.derive_search_token("Zipcode", "07302")
        # A full-record duplicate changes the MAS structure.
        owner.insert_rows([list(zipcode_table.row(0))])
        assert owner.last_update_report.mode == "full"
        assert owner._tokens == {}

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


# ----------------------------------------------------------------------
# Served selects over typed plaintexts
# ----------------------------------------------------------------------
CITIES = {7030: "Hoboken", 7302: "JerseyCity", 7310: "JerseyCity", 10001: "NYC"}


def typed_table(rows: int, seed: int = 11) -> Relation:
    """Zipcode -> City with ``int`` Zipcode and Street cells."""
    rng = random.Random(seed)
    zipcodes = sorted(CITIES)
    return Relation(
        ["Zipcode", "City", "Street", "Side"],
        [
            [zipcode, CITIES[zipcode], street, rng.choice("NS")]
            for street, zipcode in enumerate(rng.choice(zipcodes) for _ in range(rows))
        ],
        name="typed",
    )


def typed_session(verify: bool) -> RemoteOwnerSession:
    owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7))
    return RemoteOwnerSession(
        owner, ProtocolClient(LoopbackTransport(ProtocolServer())), verify=verify
    )


class TestUnsearchableCells:
    def test_a_record_whose_binding_was_dropped_is_judged_locally(self):
        # Street stops being unique, so three overlapping MASs appear and
        # conflict resolution drops the (Zipcode, City, Side) binding on one
        # replacement row of a record: its Zipcode stays authentic but is a
        # fresh-nonce ciphertext no token matches.  That row must not count
        # as carrying Zipcode, or the record silently drops out of the
        # answer.
        table = typed_table(24, seed=1)
        table.extend([[7030, "Hoboken", 0, "N"], [7310, "JerseyCity", 0, "S"]])
        owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7))
        owner.outsource(table)
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        assert any(row.unsearchable_attributes for row in owner.encrypted.provenance)
        for attribute in sorted(owner.queryable_attributes()):
            for value in sorted(set(map(str, table.column(attribute)))):
                plan = owner.plan_query(Eq(attribute, value))
                got = owner.decrypt_plan_result(plan, provider.answer_plan_query(plan.server))
                want = owner.select_plaintext_where(plan.predicate)
                assert list(got.rows()) == list(want.rows()), (attribute, value)


class TestTypedCells:
    @pytest.mark.parametrize("verify", [False, True])
    def test_served_select_keeps_the_cell_types(self, verify):
        session = typed_session(verify)
        table = typed_table(40)
        session.outsource(table)
        got = session.select("City = Hoboken")
        want = session.owner.select_plaintext_where("City = Hoboken")
        assert got.num_rows > 0
        assert list(got.rows()) == list(want.rows())
        zipcode, city, street, side = next(got.rows())
        assert (type(zipcode), type(city), type(street), type(side)) == (int, str, int, str)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        verify=st.booleans(),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(CITIES) + [7311]),
                    st.sampled_from("NSE"),
                    st.booleans(),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ),
        asks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=3, max_size=3),
    )
    def test_served_selects_equal_the_plaintext_after_inserts(self, seed, verify, batches, asks):
        # Tokens asked before an insert and carried over it, and tokens the
        # insert dropped and re-derived, must both serve exactly the
        # plaintext selection — typed cells included.
        session = typed_session(verify)
        session.outsource(typed_table(24, seed))
        owner = session.owner
        streets = itertools.count(1000)

        def ask(pick: int) -> None:
            zipcodes = sorted(set(owner.plaintext.column("Zipcode")))
            zipcode = zipcodes[pick % len(zipcodes)]
            city = CITIES.get(zipcode, "Elsewhere")
            for predicate in (
                Eq("Zipcode", str(zipcode)),
                And((Eq("City", city), Eq("Side", "NS"[pick % 2]))),
                Or((Eq("Zipcode", str(zipcode)), Eq("Side", "E"))),
            ):
                got = session.select(predicate)
                want = owner.select_plaintext_where(predicate)
                assert list(got.rows()) == list(want.rows()), str(predicate)

        for pick in asks:
            ask(pick)
        for batch in batches:
            session.insert_rows(
                [
                    [zipcode, CITIES.get(zipcode, "Elsewhere"), next(streets) if fresh else 0, side]
                    for zipcode, side, fresh in batch
                ]
            )
            for pick in asks:
                ask(pick)
