"""Tests of the repro.store package: engines, crash recovery, refused formats."""

import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.delta import apply_view_delta, compute_view_delta
from repro.api.session import DataOwner, RemoteOwnerSession
from repro.api.protocol import (
    InsertDelta,
    LoopbackTransport,
    OutsourceRequest,
    PlanQueryRequest,
    ProtocolClient,
    ProtocolServer,
)
from repro.backend import get_backend, numpy_available
from repro.backend import numpy_backend, python_backend
from repro.core.config import F2Config
from repro.crypto.probabilistic import Ciphertext
from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    StoreError,
    StoreIntegrityWarning,
)
from repro.integrity import merkle as merkle_module
from repro.integrity.merkle import MerkleTree, hash_row, relation_leaves
from repro.query.server import ServerOr, TokenLeaf
from repro.relational.table import Relation
from repro.store import (
    FOLD_LOG_RECORDS,
    FOLD_VIEW_SLICES,
    MemoryTableStore,
    SegmentTableStore,
    STORE_SUFFIX,
    TokenBitsetCache,
    is_segment_store,
    recover_log,
)
from repro.store import manifest as manifest_module
from repro.store import segment as segment_module
from repro.store.manifest import (
    CURRENT_NAME,
    FRAME,
    LOG_HEADER,
    encode_snapshot,
    frame,
    log_name,
    scan_log,
)
from repro.wire import decode_relation, encode_relation
from tests.conftest import write_legacy_store

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="NumPy not installed")

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def small_relation(name: str = "orders") -> Relation:
    return Relation.from_columns(
        {
            "city": ["hoboken", "nyc", "hoboken", "jersey"],
            "zip": ["07030", "10001", "07030", "07302"],
        },
        name=name,
    )


def grown_relation(name: str = "orders") -> Relation:
    base = small_relation(name)
    return Relation.from_columns(
        {
            "city": list(base.column("city")) + ["nyc", "hoboken"],
            "zip": list(base.column("zip")) + ["10002", "07030"],
        },
        name=name,
    )


def matched_rows(store, attribute: str, token) -> list[int]:
    """Ascending indexes of the rows a one-leaf plan matches on ``store``."""
    return store.backend.mask_to_rows(store.match_mask(attribute, token))


# ----------------------------------------------------------------------
# TokenBitsetCache
# ----------------------------------------------------------------------
class TestTokenBitsetCache:
    def test_hit_miss_counters(self):
        cache = TokenBitsetCache(get_backend("python"))
        key = cache.key("city", ("hoboken",))
        assert cache.get_mask(key) is None
        cache.put_mask(key, 0b101)
        assert cache.get_mask(key) == 0b101
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = TokenBitsetCache(get_backend("python"), max_entries=2)
        for index in range(3):
            cache.put_mask(("a", (index,)), 1 << index)
        assert cache.get_mask(("a", (0,))) is None  # evicted
        assert cache.get_mask(("a", (2,))) == 0b100

    def test_invalidate_clears_everything(self):
        cache = TokenBitsetCache(get_backend("python"))
        cache.put_mask(("a", (1,)), 0b10)
        cache.put_mask(("b", (1,)), 0b10)
        cache.invalidate()
        assert cache.entries == 0
        assert cache.stats()["invalidations"] == 1
        cache.invalidate()  # empty: not counted again
        assert cache.stats()["invalidations"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_delta_splices_on_the_next_hit(self, backend):
        base, new = small_relation(), grown_relation()
        resolved = get_backend(backend)
        cache = TokenBitsetCache(resolved)
        key = cache.key("city", ("hoboken",))
        cache.put_mask(key, base.coded(resolved).match_mask(*key))
        delta = compute_view_delta(base, new)
        cache.advance(delta.row_map(), delta.literals)
        assert cache.stats()["splices"] == 0  # nothing is spliced on the write
        mask = cache.get_mask(key)
        assert resolved.mask_to_rows(mask) == [0, 2, 5]
        assert cache.get_mask(key) is mask  # re-stored at the current version
        assert cache.stats() == {
            "hits": 2, "misses": 0, "entries": 1, "splices": 1,
            "backlog_misses": 0, "invalidations": 0,
        }

    def test_an_entry_older_than_the_backlog_is_a_miss(self):
        from repro.store.cache import BACKLOG_DELTAS

        cache = TokenBitsetCache(get_backend("python"))
        key = cache.key("city", ("hoboken",))
        cache.put_mask(key, 0b101)
        for _ in range(BACKLOG_DELTAS + 1):
            cache.advance([(0, 3)], None)
        assert cache.get_mask(key) is None
        assert cache.entries == 0
        assert cache.stats()["backlog_misses"] == 1
        assert cache.stats()["misses"] == 1


# ----------------------------------------------------------------------
# Splicing cached masks through deltas
# ----------------------------------------------------------------------
SPLICE_DOMAIN = [f"v{index}" for index in range(6)]


@st.composite
def spliced_histories(draw):
    """A base view and a chain of deltas: in-order and reordered copies,
    deletions, literal runs over the queried domain, and empty views."""
    base_rows = draw(st.integers(min_value=0, max_value=10))
    cell = st.sampled_from(SPLICE_DOMAIN)
    base = Relation.from_columns(
        {"a": [draw(cell) for _ in range(base_rows)], "b": [draw(cell) for _ in range(base_rows)]},
        name="h",
    )
    steps = []
    rows = base_rows
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        segments: list[list] = []
        literal: list[list[str]] = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            if rows and draw(st.booleans()):
                start = draw(st.integers(min_value=0, max_value=rows - 1))
                count = draw(st.integers(min_value=1, max_value=rows - start))
                segments.append(["c", start, count])
            else:
                count = draw(st.integers(min_value=0, max_value=3))
                segments.append(["l", count])
                literal += [[draw(cell), draw(cell)] for _ in range(count)]
        if not segments:
            segments = [["l", 0]]
        steps.append((segments, literal))
        rows = sum(seg[2] if seg[0] == "c" else seg[1] for seg in segments)
    return base, steps


SPLICE_KEYS = [("a", ("v0",)), ("a", ("v1", "v2")), ("b", ("v3",)), ("b", ("absent",))]


class TestCacheSpliceProperty:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        history=spliced_histories(),
        backend=st.sampled_from(BACKENDS),
        engine=st.sampled_from(["memory", "segment"]),
        backlog=st.sampled_from([2, 16]),
        asks=st.lists(st.lists(st.booleans(), min_size=4, max_size=4), min_size=24, max_size=24),
    )
    def test_a_carried_mask_equals_a_scan(self, history, backend, engine, backlog, asks):
        # Whatever the chain of deltas — and however many the entry missed —
        # a cached mask served after it equals a scan of the new view; an
        # entry within the backlog is a (spliced) hit, an older one a miss.
        import tempfile
        from pathlib import Path
        from unittest import mock

        from repro.api.delta import ViewDelta
        from repro.store import cache as cache_module

        base, steps = history
        resolved = get_backend(backend)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cache_module, "BACKLOG_DELTAS", backlog
        ), mock.patch.multiple(segment_module, FOLD_VIEW_SLICES=6, FOLD_LOG_RECORDS=3):
            if engine == "segment":
                store = SegmentTableStore(Path(tmp) / f"h{STORE_SUFFIX}", resolved, create=True)
            else:
                store = MemoryTableStore(resolved)
            store.replace(base)
            current = base
            cached_at: dict = {}
            splices = backlog_misses = 0

            def ask(key, version):
                nonlocal splices, backlog_misses
                if key in cached_at and cached_at[key] != version:
                    if version - cached_at[key] <= backlog:
                        splices += 1
                    else:
                        backlog_misses += 1
                cached_at[key] = version
                want = current.coded(resolved).match_mask(*key) if current.num_rows else None
                got = store.match_mask(*key)
                assert resolved.mask_to_rows(got) == (
                    resolved.mask_to_rows(want) if want is not None else []
                ), (key, version)

            for key in SPLICE_KEYS:
                ask(key, 0)
            for version, ((segments, literal), wanted) in enumerate(zip(steps, asks), start=1):
                delta = ViewDelta(
                    base_rows=current.num_rows,
                    segments=segments,
                    literals=Relation(["a", "b"], literal, name="h") if literal else None,
                    table_name="h",
                )
                store.apply_delta(delta)
                current = apply_view_delta(current, delta)
                for key, asked in zip(SPLICE_KEYS, wanted):
                    if asked:
                        ask(key, version)
            for key in SPLICE_KEYS:
                ask(key, len(steps))
            stats = store.cache_stats()
            assert stats["splices"] == splices
            assert stats["backlog_misses"] == backlog_misses
            assert stats["invalidations"] == 0
            store.close()


# ----------------------------------------------------------------------
# Segment engine
# ----------------------------------------------------------------------
class TestSegmentTableStore:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replace_roundtrip_and_reopen(self, tmp_path, backend):
        relation = small_relation()
        store = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", get_backend(backend), create=True)
        store.replace(relation)
        assert store.attributes == ("city", "zip")
        assert store.num_rows == 4
        assert store.relation() == relation
        assert store.verify() is True
        store.close()
        reopened = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", get_backend(backend))
        assert reopened.relation() == relation
        reopened.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_parity_with_coded_relation(self, tmp_path, backend):
        relation = small_relation()
        resolved = get_backend(backend)
        store = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", resolved, create=True)
        store.replace(relation)
        coded = relation.coded(resolved)
        for token in [("hoboken",), ("nyc", "jersey"), ("nowhere",), ()]:
            assert resolved.mask_to_rows(store.match_mask("city", token)) == (
                resolved.mask_to_rows(coded.match_mask("city", token))
            )
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_delta_matches_apply_view_delta(self, tmp_path, backend):
        base, new = small_relation(), grown_relation()
        store = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", get_backend(backend), create=True)
        store.replace(base)
        delta = compute_view_delta(base, new)
        assert store.apply_delta(delta) == new.num_rows
        assert store.relation() == apply_view_delta(base, delta)
        assert store.verify() is True
        store.close()

    def test_stale_delta_is_rejected_with_mismatch_code(self, tmp_path):
        base, new = small_relation(), grown_relation()
        store = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", get_backend("python"), create=True)
        store.replace(base)
        delta = compute_view_delta(base, new)
        store.apply_delta(delta)
        with pytest.raises(ProtocolError) as excinfo:
            store.apply_delta(delta)  # base moved on: the row count no longer matches
        assert excinfo.value.code == "DELTA_MISMATCH"
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dictionary_growth_across_code_widths(self, tmp_path, backend):
        # The first segment is written with 1-byte codes (< 256 distinct
        # values); deltas push the dictionary past 256 so later segments
        # use 2-byte codes.  Tokens from both ranges must match exactly —
        # a wide code cast into the narrow mmap'd array would wrap around.
        store = SegmentTableStore(tmp_path / f"g{STORE_SUFFIX}", get_backend(backend), create=True)
        current = Relation.from_columns({"v": [f"v{i}" for i in range(200)]}, name="g")
        store.replace(current)
        for start in (200, 400):
            grown = Relation.from_columns(
                {"v": list(current.column("v")) + [f"v{i}" for i in range(start, start + 200)]},
                name="g",
            )
            store.apply_delta(compute_view_delta(current, grown))
            current = grown
        assert store.num_rows == 600
        assert matched_rows(store, "v", ("v599",)) == [599]
        assert matched_rows(store, "v", ("v10",)) == [10]
        # v300 appears once, in the second segment, with a code >= 256 % 256
        # colliding against an early narrow code if wrapped.
        assert matched_rows(store, "v", ("v300",)) == [300]
        assert store.relation() == current
        store.close()
        reopened = SegmentTableStore(tmp_path / f"g{STORE_SUFFIX}", get_backend(backend))
        assert matched_rows(reopened, "v", ("v599",)) == [599]
        assert reopened.verify() is True
        reopened.close()

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StoreError, match="not a segment store"):
            SegmentTableStore(tmp_path / "absent.f2s", get_backend("python"))

    def test_single_attribute_query_decodes_only_that_column(self, tmp_path, monkeypatch):
        """Column pruning pin (ROADMAP open item 2): a one-attribute query on
        a reopened store must decode exactly one dictionary and materialise
        exactly one code column, however wide the schema is."""
        relation = Relation.from_columns(
            {
                "city": ["hoboken", "nyc", "hoboken", "jersey"],
                "zip": ["07030", "10001", "07030", "07302"],
                "side": ["E", "W", "E", "N"],
            },
            name="orders",
        )
        backend = get_backend("python")
        store = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", backend, create=True)
        store.replace(relation)
        store.close()

        import repro.store.segment as segment_module

        dictionary_decodes = []
        real_decode = segment_module.decode_cell_run

        def counting_decode(data, values):
            dictionary_decodes.append(values)
            return real_decode(data, values)

        monkeypatch.setattr(segment_module, "decode_cell_run", counting_decode)

        column_decodes = []
        real_from_code_bytes = type(backend).from_code_bytes

        def counting_from_code_bytes(self, data, width, count):
            column_decodes.append(count)
            return real_from_code_bytes(self, data, width, count)

        monkeypatch.setattr(type(backend), "from_code_bytes", counting_from_code_bytes)

        reopened = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", backend)
        assert dictionary_decodes == []  # opening only skims the manifest
        assert column_decodes == []
        assert matched_rows(reopened, "zip", ("07030",)) == [0, 2]
        assert len(dictionary_decodes) == 1  # only the zip dictionary
        assert len(column_decodes) == 1  # only the zip code column
        # A second query on the same attribute hits the lazy caches.
        assert matched_rows(reopened, "zip", ("10001",)) == [1]
        assert len(dictionary_decodes) == 1
        assert len(column_decodes) == 1
        reopened.close()


# ----------------------------------------------------------------------
# Crash consistency
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# A relation received over the wire
# ----------------------------------------------------------------------
def received_views(scheme, table) -> list[Relation]:
    """An F2 server view and a small typed relation (``int``, ``str``, ``None``)."""
    return [
        scheme.encrypt(table).server_view(),
        Relation(["n", "s", "x"], [[1, "a", None], [2, "a", None], [1, "b", None]], name="typed"),
    ]


def spy_on_the_coders(monkeypatch) -> dict[str, int]:
    """Count ``factorize_values`` (either backend) and ``hash_row`` calls."""
    calls = {"factorize_values": 0, "hash_row": 0}

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    for module in (python_backend, numpy_backend):
        monkeypatch.setattr(
            module, "factorize_values", counting("factorize_values", module.factorize_values)
        )
    monkeypatch.setattr(merkle_module, "hash_row", counting("hash_row", merkle_module.hash_row))
    return calls


class TestReceivedRelation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_received_relation_is_stored_byte_for_byte_like_a_local_copy(
        self, tmp_path, seeded_scheme, zipcode_table, backend
    ):
        resolved = get_backend(backend)
        for index, view in enumerate(received_views(seeded_scheme, zipcode_table)):
            expected_root = MerkleTree([hash_row(row) for row in view.rows()]).root
            directories = {}
            for kind, relation in (
                ("wire", decode_relation(encode_relation(view))),
                ("local", view.copy()),
            ):
                directory = directories[kind] = tmp_path / f"{kind}{index}{STORE_SUFFIX}"
                store = SegmentTableStore(directory, resolved, create=True)
                store.replace(relation)
                assert store.merkle_root() == expected_root
                store.close()
            assert snapshot_files(directories["wire"]) == snapshot_files(directories["local"])
            for directory in directories.values():
                reopened = SegmentTableStore(directory, resolved)
                assert reopened.merkle_root() == expected_root
                assert reopened.relation() == view
                assert reopened.verify() is True
                reopened.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_receive_path_never_factorises_nor_hashes_per_row(
        self, tmp_path, monkeypatch, seeded_scheme, zipcode_table, backend
    ):
        view = seeded_scheme.encrypt(zipcode_table).server_view()
        payload = encode_relation(view)
        calls = spy_on_the_coders(monkeypatch)
        store = SegmentTableStore(tmp_path / f"t{STORE_SUFFIX}", get_backend(backend), create=True)
        received = decode_relation(payload)
        store.replace(received)
        assert store.merkle_root() == MerkleTree(relation_leaves(view)).root
        assert received.coded(backend).column("Zipcode").num_values > 1
        assert calls == {"factorize_values": 0, "hash_row": 0}
        # The spies do count: a relation without a coded view factorises.
        view.copy().coded(backend).column("Zipcode")
        assert calls["factorize_values"] == 1
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_verified_outsource_factorises_once_on_the_owner_only(
        self, tmp_path, monkeypatch, seeded_scheme, zipcode_table, backend
    ):
        # The owner's encode codes the view; her Merkle leaves and the
        # server's decode, store and tree all reuse that one coding.
        view = seeded_scheme.encrypt(zipcode_table).server_view()
        server = ProtocolServer(storage_dir=tmp_path, storage_engine="segment", backend=backend)
        calls = spy_on_the_coders(monkeypatch)
        ack = make_client(server).call(
            OutsourceRequest(table_id="orders", relation=view, with_root=True)
        )
        assert calls["factorize_values"] == len(view.attributes)
        assert ack.fields["merkle_root"] == MerkleTree(relation_leaves(view)).root
        assert calls == {"factorize_values": len(view.attributes), "hash_row": 0}

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_replica_shares_the_coding_its_outsource_built(
        self, monkeypatch, zipcode_table, backend, verify
    ):
        # A session ships the owner's replica itself, so the coded form its
        # encode builds also serves her first select (leakage report and
        # answer check): one factorisation per ciphertext column in all.
        coded = []
        for module in (python_backend, numpy_backend):

            def spy(values, real=module.factorize_values):
                coded.append(any(isinstance(value, Ciphertext) for value in values))
                return real(values)

            monkeypatch.setattr(module, "factorize_values", spy)
        owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7, backend=backend))
        session = RemoteOwnerSession(owner, make_client(ProtocolServer()), verify=verify)
        session.outsource(zipcode_table)
        assert session.select("City = Hoboken and Side = N").num_rows > 0
        assert sum(coded) == zipcode_table.num_attributes


def grow_by_one(relation: Relation, tag: str) -> Relation:
    """``relation`` with one new row inserted in the middle, which splits a
    view slice and adds a literal segment (the shape of an owner splice)."""
    middle = relation.num_rows // 2
    return Relation.from_columns(
        {
            attr: (
                list(relation.column(attr))[:middle]
                + [f"{attr}-{tag}"]
                + list(relation.column(attr))[middle:]
            )
            for attr in relation.attributes
        },
        name=relation.name,
    )


def build_two_generation_store(directory):
    """A store at version 2: a snapshot (version 1, base) plus one delta record."""
    base, new = small_relation(), grown_relation()
    store = SegmentTableStore(directory, get_backend("python"), create=True)
    store.replace(base)
    store.apply_delta(compute_view_delta(base, new))
    store.close()
    return base, new


def live_log(directory):
    """Path, bytes and ``(payload offset, payload)`` records of the live log."""
    path = directory / (directory / CURRENT_NAME).read_text().strip()
    data = path.read_bytes()
    records, end = scan_log(data, path.name)
    assert end == len(data)
    return path, data, records


class TestCrashConsistency:
    def test_torn_tail_is_truncated_and_committed_data_served(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        base, new = build_two_generation_store(directory)
        # A crash mid-append leaves bytes beyond every committed length: a
        # partial frame at the end of the log, garbage after the data files.
        path, data, records = live_log(directory)
        with open(path, "ab") as handle:
            handle.write(data[records[1][0] - FRAME.size : records[1][0] + 3])
        for name in os.listdir(directory):
            if name.endswith((".seg", ".blob")):
                with open(directory / name, "ab") as handle:
                    handle.write(b"\xde\xad\xbe\xef torn tail")
        with pytest.warns(StoreIntegrityWarning, match="torn"):
            store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == new
        assert store.commit_version == 2
        assert store.verify() is True
        assert store.store_stats()["torn_tails_truncated"] == 1
        # The next append cuts the tail off before writing its record.
        grown = grow_by_one(new, "after-torn")
        store.apply_delta(compute_view_delta(new, grown))
        store.close()
        _, data, records = live_log(directory)
        assert len(records) == 3
        reopened = SegmentTableStore(directory, get_backend("python"))
        assert reopened.relation() == grown
        assert reopened.verify() is True
        reopened.close()

    def test_torn_record_falls_back_to_the_previous_version(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        base, _ = build_two_generation_store(directory)
        # Kill the delta's record (version 2) mid-append.
        path, data, records = live_log(directory)
        os.truncate(path, records[1][0] + 5)
        with pytest.warns(StoreIntegrityWarning, match="serving committed version 1"):
            store = SegmentTableStore(directory, get_backend("python"))
        assert store.commit_version == 1
        assert store.relation() == base
        assert store.verify() is True
        store.close()

    def test_corrupt_snapshot_record_is_refused(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        build_two_generation_store(directory)
        # A bit flip inside a committed record is corruption, not a torn
        # tail: the log is refused, never replayed past or served short.
        path, data, records = live_log(directory)
        flipped = bytearray(data)
        flipped[records[0][0] + 4] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(StoreError, match="fails its checksum"):
            SegmentTableStore(directory, get_backend("python"))

    def test_dangling_current_pointer_recovers_newest(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        _, new = build_two_generation_store(directory)
        (directory / CURRENT_NAME).write_text(log_name(999999) + "\n", encoding="utf-8")
        with pytest.warns(
            StoreIntegrityWarning, match="falling back to log LOG-000001.log at committed version 2"
        ):
            store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == new
        store.close()

    def test_unrecoverable_store_raises(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        build_two_generation_store(directory)
        for name in list(os.listdir(directory)):
            if name.startswith("LOG-"):
                (directory / name).write_bytes(b"garbage")
        with pytest.raises(StoreError, match="no usable table log"):
            SegmentTableStore(directory, get_backend("python"))

    def test_server_skips_corrupt_store_but_serves_the_rest(self, tmp_path):
        good = SegmentTableStore(tmp_path / f"good{STORE_SUFFIX}", get_backend("python"), create=True)
        good.replace(small_relation())
        good.close()
        bad_dir = tmp_path / f"bad{STORE_SUFFIX}"
        build_two_generation_store(bad_dir)
        for name in list(os.listdir(bad_dir)):
            if name.startswith("LOG-"):
                (bad_dir / name).write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="skipping corrupt table store"):
            server = ProtocolServer(
                storage_dir=tmp_path, storage_engine="segment", backend="python"
            )
        assert server.table_ids() == ["good"]
        assert server.store("good") == small_relation()

    def test_orphan_files_are_ignored_at_open(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        _, new = build_two_generation_store(directory)
        # A crash inside a checkpoint, before the CURRENT rename, leaves
        # unreferenced files; they must not confuse recovery.
        (directory / "seg-000009.seg").write_bytes(b"F2SG\x01orphan")
        (directory / "dict-000009-000.blob").write_bytes(b"orphan")
        (directory / log_name(9)).write_bytes(LOG_HEADER + b"orphan")
        store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == new
        # The next checkpoint deletes them.
        store.replace(new)
        assert sorted(os.listdir(directory)) == [
            CURRENT_NAME, "LOG-000003.log", "dict-000003-000.blob",
            "dict-000003-001.blob", "seg-000003.seg",
        ]
        store.close()

    def test_unparseable_json_manifest_is_refused(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        directory.mkdir()
        (directory / "MANIFEST-000001.json").write_text("{ not json")
        with pytest.raises(StoreError, match="is not a segment store"):
            SegmentTableStore(directory, get_backend("python"))

    def test_failed_fold_commit_keeps_previous_generation(self, tmp_path, monkeypatch):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        store = SegmentTableStore(directory, get_backend("python"), create=True)
        current = small_relation()
        store.replace(current)
        while store.store_stats()["log_records"] < FOLD_LOG_RECORDS:
            grown = grow_by_one(current, f"g{store.commit_version}")
            store.apply_delta(compute_view_delta(current, grown))
            current = grown
        grown = grow_by_one(current, "folding")
        committed = store.commit_version
        segments = store.store_stats()["segments"]
        real_switch = segment_module.switch_current

        def crash(directory, name):
            raise OSError("disk full")

        monkeypatch.setattr(segment_module, "switch_current", crash)
        with pytest.raises(OSError, match="disk full"):
            store.apply_delta(compute_view_delta(current, grown))
        assert store.commit_version == committed
        assert store.relation() == current
        store.close()
        monkeypatch.setattr(segment_module, "switch_current", real_switch)

        reopened = SegmentTableStore(directory, get_backend("python"))
        assert reopened.commit_version == committed
        assert reopened.store_stats()["segments"] == segments
        assert reopened.relation() == current
        assert reopened.verify() is True
        assert reopened.apply_delta(compute_view_delta(current, grown)) == grown.num_rows
        assert reopened.store_stats()["segments"] == 1
        assert reopened.store_stats()["log_records"] == 0
        assert reopened.relation() == grown
        assert reopened.verify() is True
        reopened.close()

    def test_flipped_byte_in_any_committed_record_fails_verify(self, tmp_path, capsys):
        from repro.cli import main

        directory = tmp_path / f"t{STORE_SUFFIX}"
        build_two_generation_store(directory)
        path, data, records = live_log(directory)
        for offset in range(len(LOG_HEADER), len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(StoreError):
                SegmentTableStore(directory, get_backend("python"))
        # A flip in the delta record's payload, through the CLI.
        flipped = bytearray(data)
        flipped[records[1][0] + 2] ^= 0x01
        path.write_bytes(bytes(flipped))
        assert main(["verify", "--storage", str(tmp_path)]) == 7
        assert "fails its checksum" in capsys.readouterr().err
        path.write_bytes(data)
        assert main(["verify", "--storage", str(tmp_path)]) == 0


# ----------------------------------------------------------------------
# The commit protocol
# ----------------------------------------------------------------------
class TestCommitProtocol:
    def test_log_activity_is_counted(self, tmp_path):
        from repro.obs import metrics

        def counts():
            snapshot = metrics.snapshot()
            values = {c["name"]: c["value"] for c in snapshot["counters"]}
            slices = [h for h in snapshot["histograms"] if h["name"] == "store.view_slices"]
            return values, (slices[0]["count"] if slices else 0)

        directory = tmp_path / f"t{STORE_SUFFIX}"
        before, observed = counts()
        _, new = build_two_generation_store(directory)
        path, data, records = live_log(directory)
        with open(path, "ab") as handle:
            handle.write(data[records[1][0] - FRAME.size : records[1][0]])
        with pytest.warns(StoreIntegrityWarning):
            store = SegmentTableStore(directory, get_backend("python"))
        after, observed_after = counts()
        delta = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in (
                "store.log_records", "store.log_bytes", "store.checkpoints",
                "store.records_replayed", "store.torn_tails_truncated",
            )
        }
        if metrics.enabled():
            assert delta == {
                "store.log_records": 1,
                "store.log_bytes": len(data) - records[1][0] + FRAME.size,
                "store.checkpoints": 1,
                "store.records_replayed": 1,
                "store.torn_tails_truncated": 1,
            }
            assert observed_after - observed == 1
        stats = store.store_stats()
        assert {key: stats[key] for key in (
            "segments", "view_slices", "log_records", "log_bytes", "checkpoints",
            "records_replayed", "torn_tails_truncated",
        )} == {
            "segments": 2, "view_slices": 3, "log_records": 1, "log_bytes": len(data),
            "checkpoints": 0, "records_replayed": 1, "torn_tails_truncated": 1,
        }
        store.close()

    def test_non_folding_apply_delta_is_one_fsyncd_append(self, tmp_path, monkeypatch):
        """A delta commit calls os.fsync exactly once, creates no file,
        renames nothing, and returns only after that fsync."""
        directory = tmp_path / f"t{STORE_SUFFIX}"
        base, new = small_relation(), grown_relation()
        store = SegmentTableStore(directory, get_backend("python"), create=True)
        store.replace(base)
        path = directory / log_name(1)
        events = []
        real_fsync, real_open = os.fsync, os.open

        def fsync(fd):
            real_fsync(fd)
            events.append(("fsync", store.commit_version, path.stat().st_size))

        def open_(file, flags, *args, **kwargs):
            events.append(("open", os.path.basename(file), bool(flags & os.O_CREAT)))
            return real_open(file, flags, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a delta commit renamed or deleted a file")

        listing = sorted(os.listdir(directory))
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "open", open_)
        for name in ("replace", "rename", "unlink", "truncate"):
            monkeypatch.setattr(os, name, refuse)
        assert store.apply_delta(compute_view_delta(base, new)) == new.num_rows
        monkeypatch.undo()
        # One fsync, of the fully written record, before the new version
        # became visible; the one open reuses the existing log.
        assert events == [
            ("open", log_name(1), False),
            ("fsync", 1, path.stat().st_size),
        ]
        assert store.commit_version == 2
        assert sorted(os.listdir(directory)) == listing
        stats = store.store_stats()
        assert (stats["log_records"], stats["checkpoints"]) == (1, 1)
        store.close()

    def test_checkpoint_fsyncs_the_directory_around_the_current_flip(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        store = SegmentTableStore(directory, get_backend("python"), create=True)
        store.replace(small_relation())
        calls = []
        real = {name: getattr(os, name) for name in ("fsync", "replace", "open")}
        fds = {}

        def open_(file, flags, *args, **kwargs):
            fd = real["open"](file, flags, *args, **kwargs)
            fds[fd] = os.path.basename(file)
            return fd

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(("fsync", fds[fd])), real["fsync"](fd)))
        monkeypatch.setattr(
            os, "replace", lambda a, b: (calls.append(("rename", os.path.basename(b))), real["replace"](a, b))
        )
        store.replace(grown_relation())
        monkeypatch.undo()
        table = directory.name
        assert calls == [
            ("fsync", "dict-000002-000.blob"),
            ("fsync", "dict-000002-001.blob"),
            ("fsync", "seg-000002.seg"),
            ("fsync", "LOG-000002.log"),
            ("fsync", table),
            ("fsync", ".CURRENT.tmp"),
            ("rename", CURRENT_NAME),
            ("fsync", table),
        ]
        store.close()


# ----------------------------------------------------------------------
# Replay: random multi-delta histories
# ----------------------------------------------------------------------
@st.composite
def delta_histories(draw):
    """A base view and a chain of random deltas (copies, literals, deletions)."""
    base_rows = draw(st.integers(min_value=0, max_value=12))
    base = Relation.from_columns(
        {
            "a": [f"a{draw(st.integers(0, 5))}" for _ in range(base_rows)],
            "b": [f"b{i % 3}" for i in range(base_rows)],
        },
        name="h",
    )
    steps = []
    rows = base_rows
    for step in range(draw(st.integers(min_value=1, max_value=12))):
        segments, literal = [], []
        cursor = 0
        while cursor < rows or not segments:
            if cursor < rows and draw(st.booleans()):
                count = draw(st.integers(min_value=1, max_value=rows - cursor))
                if draw(st.integers(0, 3)):  # else the rows are deleted
                    segments.append(["c", cursor, count])
                cursor += count
            else:
                count = draw(st.integers(min_value=0, max_value=3))
                segments.append(["l", count])
                literal += [
                    [f"a{draw(st.integers(0, 300))}", f"s{step}-{len(literal)}"]
                    for _ in range(count)
                ]
                if cursor >= rows:
                    break
        steps.append((segments, literal))
        rows = sum(seg[2] if seg[0] == "c" else seg[1] for seg in segments)
    return base, steps


class TestLogReplayProperty:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        history=delta_histories(),
        backend=st.sampled_from(BACKENDS),
        folds=st.sampled_from([(FOLD_VIEW_SLICES, FOLD_LOG_RECORDS), (6, 3)]),
    )
    def test_random_histories_replay_to_the_same_rows_and_root(self, history, backend, folds):
        import tempfile
        from pathlib import Path
        from unittest import mock

        from repro.api.delta import ViewDelta

        base, steps = history
        resolved = get_backend(backend)
        # Small fold thresholds put folds and log rotations inside short
        # histories; the real ones keep every record in one log.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            segment_module, FOLD_VIEW_SLICES=folds[0], FOLD_LOG_RECORDS=folds[1]
        ):
            directory = Path(tmp) / f"h{STORE_SUFFIX}"
            store = SegmentTableStore(directory, resolved, create=True)
            store.replace(base)
            current = base
            for segments, literal in steps:
                delta = ViewDelta(
                    base_rows=current.num_rows,
                    segments=segments,
                    literals=Relation(["a", "b"], literal, name="h") if literal else None,
                    table_name="h",
                )
                store.apply_delta(delta)
                current = apply_view_delta(current, delta)
                assert store.relation() == current
            root = store.merkle_root()
            assert root == MerkleTree(relation_leaves(current)).root
            assert store.verify() is True
            stats = store.store_stats()
            assert stats["log_records"] <= folds[1]
            assert stats["checkpoints"] > len(steps) // (folds[1] + 1)
            store.close()
            reopened = SegmentTableStore(directory, resolved)
            assert reopened.relation() == current
            assert reopened.recorded_merkle_root() == root
            assert reopened.merkle_root() == root
            assert reopened.store_stats()["records_replayed"] == stats["log_records"]
            reopened.close()


# ----------------------------------------------------------------------
# The protocol server over both engines
# ----------------------------------------------------------------------
def make_client(server: ProtocolServer) -> ProtocolClient:
    return ProtocolClient(LoopbackTransport(server))


class TestServerEngines:
    def test_segment_engine_requires_storage_dir(self):
        with pytest.raises(ConfigurationError, match="needs a storage_dir"):
            ProtocolServer(storage_engine="segment")

    def test_unknown_engine_rejected(self, tmp_path):
        for engine in ("parquet", "snapshot"):
            with pytest.raises(ConfigurationError, match="unknown storage engine"):
                ProtocolServer(storage_dir=tmp_path, storage_engine=engine)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_query_sees_delta_inserts(self, tmp_path, backend):
        # A delta keeps the hot-token cache: the same query before and
        # after it returns the updated rows from a spliced hit, not a
        # rescan, and the two backends agree exactly.  A replace still
        # empties the cache.
        base, new = small_relation(), grown_relation()
        server = ProtocolServer(
            storage_dir=tmp_path, storage_engine="segment", backend=backend
        )
        client = make_client(server)
        ack = client.call(OutsourceRequest(table_id="orders", relation=base))
        query = PlanQueryRequest(
            table_id="orders", expr=TokenLeaf(attribute="city", token=("hoboken",))
        )
        assert client.call(query).row_indexes == (0, 2)
        assert client.call(query).row_indexes == (0, 2)  # cache hit
        store = server.table_store("orders")
        assert store.cache_stats()["hits"] >= 1
        client.call(
            InsertDelta(
                table_id="orders",
                delta=compute_view_delta(base, new),
                base_version=ack.fields["version"],
            )
        )
        before = store.cache_stats()
        assert client.call(query).row_indexes == (0, 2, 5)
        after = store.cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["splices"] == before["splices"] + 1
        assert after["invalidations"] == 0
        client.call(OutsourceRequest(table_id="orders", relation=base))
        assert client.call(query).row_indexes == (0, 2)
        assert store.cache_stats()["invalidations"] == 1

    @pytest.mark.parametrize("engine", [None, "segment"])
    def test_restart_resumes_serving(self, tmp_path, engine):
        relation = small_relation()
        server = ProtocolServer(storage_dir=tmp_path, storage_engine=engine, backend="python")
        make_client(server).call(OutsourceRequest(table_id="orders", relation=relation))
        revived = ProtocolServer(storage_dir=tmp_path, storage_engine=engine, backend="python")
        assert revived.table_ids() == ["orders"]
        assert revived.store("orders") == relation
        result = make_client(revived).call(
            PlanQueryRequest(
                table_id="orders", expr=TokenLeaf(attribute="city", token=("nyc",))
            )
        )
        assert result.row_indexes == (1,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plan_query_runs_against_the_store(self, tmp_path, backend):
        server = ProtocolServer(
            storage_dir=tmp_path, storage_engine="segment", backend=backend
        )
        client = make_client(server)
        client.call(OutsourceRequest(table_id="orders", relation=small_relation()))
        expr = ServerOr(
            children=(
                TokenLeaf(index=0, attribute="city", token=("nyc",)),
                TokenLeaf(index=1, attribute="zip", token=("07030",)),
            )
        )
        result = client.call(PlanQueryRequest(table_id="orders", expr=expr))
        assert result.row_indexes == (0, 1, 2)
        assert result.leaf_match_counts == (1, 2)
        assert result.num_rows == 4

    def test_segment_server_loads_tenant_subdirectories(self, tmp_path):
        inv = Relation.from_columns({"sku": ["a", "b"]}, name="inv")
        tenant_store = SegmentTableStore(
            tmp_path / "acme" / f"inv{STORE_SUFFIX}", get_backend("python"), create=True
        )
        tenant_store.replace(inv)
        tenant_store.close()
        server = ProtocolServer(storage_dir=tmp_path, storage_engine="segment", backend="python")
        assert server.table_ids(None) == ["acme/inv"]
        assert server.store("inv", tenant_id="acme") == inv


# ----------------------------------------------------------------------
# Formats this code does not read: refused, never imported or overwritten
# ----------------------------------------------------------------------
def write_json_manifest_store(directory) -> None:
    """A store from before the table log: ``CURRENT`` names a JSON manifest."""
    write_legacy_store(directory, small_relation(), generation=2)


def write_format_1_store(directory) -> None:
    """A table log whose snapshot record holds a binary-tree (format 1) root.

    An importer of JSON manifests used to write these when a legacy root
    did not match the stored rows.
    """
    store = SegmentTableStore(directory, get_backend("python"), create=True)
    store.replace(small_relation())
    store.close()
    manifest, _ = recover_log(directory)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifest_module, "ROOT_FORMAT", 1)
        payload = encode_snapshot(manifest)
    (directory / manifest.log_name).write_bytes(LOG_HEADER + frame(payload))


UNREADABLE = {
    "json-current": (write_json_manifest_store, "CURRENT names 'MANIFEST-000002.json'"),
    "format-1-root": (write_format_1_store, "merkle root has format 1"),
}


def snapshot_files(directory) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
class TestUnreadableStoreIsRefused:
    def build(self, tmp_path, case):
        directory = tmp_path / f"old{STORE_SUFFIX}"
        writer, reason = UNREADABLE[case]
        writer(directory)
        return directory, reason

    def test_open_raises(self, tmp_path, case):
        directory, reason = self.build(tmp_path, case)
        assert is_segment_store(directory)
        with pytest.raises(StoreError, match=reason):
            SegmentTableStore(directory, get_backend("python"))

    def test_create_refuses_and_leaves_the_files(self, tmp_path, case):
        directory, reason = self.build(tmp_path, case)
        before = snapshot_files(directory)
        with pytest.raises(StoreError, match=reason):
            SegmentTableStore(directory, get_backend("python"), create=True)
        assert snapshot_files(directory) == before

    def test_server_warns_and_serves_the_other_tables(self, tmp_path, case):
        directory, reason = self.build(tmp_path, case)
        good = SegmentTableStore(tmp_path / f"good{STORE_SUFFIX}", get_backend("python"), create=True)
        good.replace(grown_relation())
        good.close()
        before = snapshot_files(directory)
        with pytest.warns(StoreIntegrityWarning, match=f"old{STORE_SUFFIX}.*{reason}"):
            server = ProtocolServer(storage_dir=tmp_path, backend="python")
        assert server.table_ids() == ["good"]
        assert server.store("good") == grown_relation()
        # A write to the refused table fails instead of overwriting it.
        with pytest.raises(ProtocolError, match=reason):
            make_client(server).call(OutsourceRequest(table_id="old", relation=small_relation()))
        assert snapshot_files(directory) == before

    def test_verify_exits_7(self, tmp_path, case, capsys):
        from repro.cli import main

        self.build(tmp_path, case)
        assert main(["verify", "--storage", str(tmp_path)]) == 7
        assert "FAIL old: " in capsys.readouterr().err


def test_snapshot_file_is_not_a_table(tmp_path):
    # A whole-table ``.f2t`` file is neither served nor verified.
    (tmp_path / "orders.f2t").write_bytes(encode_relation(small_relation(), get_backend("python")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        server = ProtocolServer(storage_dir=tmp_path, backend="python")
    assert server.table_ids() == []
    assert server.verify_stores() == []


# ----------------------------------------------------------------------
# Memory store specifics
# ----------------------------------------------------------------------
class TestMemoryTableStore:
    def test_empty_store_raises(self):
        store = MemoryTableStore(get_backend("python"))
        with pytest.raises(StoreError, match="no table yet"):
            store.relation()

    def test_apply_delta_updates_and_bumps_version(self):
        base, new = small_relation(), grown_relation()
        store = MemoryTableStore(get_backend("python"))
        store.replace(base)
        version = store.version
        assert store.apply_delta(compute_view_delta(base, new)) == new.num_rows
        assert store.relation() == new
        assert store.version > version

    def test_generation_pruning_keeps_directory_bounded(self, tmp_path):
        # Past the fold threshold on both backends: after every delta the
        # view and the log stay within their bounds, the rows equal the
        # apply_view_delta chain, the root equals a from-scratch tree, and
        # the directory verifies and reopens to the same rows.  The base
        # holds 250 distinct cities, so the dictionary outgrows one-byte
        # codes mid-history and the fold must widen the older slices.
        base = Relation.from_columns(
            {
                "city": [f"city{i}" for i in range(250)],
                "zip": [f"{i % 7:05d}" for i in range(250)],
            },
            name="orders",
        )
        for backend in BACKENDS:
            directory = tmp_path / f"{backend}{STORE_SUFFIX}"
            store = SegmentTableStore(directory, get_backend(backend), create=True)
            current = base
            store.replace(current)
            folds = 0
            for step in range(FOLD_LOG_RECORDS + 8):
                grown = grow_by_one(current, f"{backend}{step}")
                delta = compute_view_delta(current, grown)
                files_before = store.store_stats()["segments"]
                store.apply_delta(delta)
                current = apply_view_delta(current, delta)
                stats = store.store_stats()
                folds += stats["segments"] == 1 and files_before > 1
                assert stats["view_slices"] <= FOLD_VIEW_SLICES
                assert stats["log_records"] <= FOLD_LOG_RECORDS
                assert store.relation() == current
                assert store.merkle_root() == MerkleTree(relation_leaves(current)).root
                assert store.verify() is True
                reopened = SegmentTableStore(directory, get_backend(backend))
                assert reopened.relation() == current
                reopened.close()
            assert folds >= 1
            store.close()
            # One committed state: CURRENT, one log, one segment, one blob
            # per column — the fold deleted everything it superseded.
            names = sorted(os.listdir(directory))
            assert [n for n in names if n.startswith("LOG-")] == [
                (directory / CURRENT_NAME).read_text().strip()
            ]
            assert len([n for n in names if n.endswith(".seg")]) == 1
            assert len([n for n in names if n.endswith(".blob")]) == 2
