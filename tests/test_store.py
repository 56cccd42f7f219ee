"""Tests of the repro.store package: engines, crash recovery, migration."""

import json
import os

import pytest

from repro.api.delta import apply_view_delta, compute_view_delta
from repro.api.protocol import (
    InsertDelta,
    LoadSnapshot,
    LoopbackTransport,
    OutsourceRequest,
    PlanQueryRequest,
    ProtocolClient,
    ProtocolServer,
    QueryRequest,
    SaveSnapshot,
)
from repro.backend import get_backend, numpy_available
from repro.exceptions import ConfigurationError, ProtocolError, StoreError
from repro.query.server import ServerOr, TokenLeaf
from repro.relational.table import Relation
from repro.store import (
    MemoryTableStore,
    SegmentTableStore,
    STORE_SUFFIX,
    TokenBitsetCache,
    is_segment_store,
    list_generations,
    migrate_storage_dir,
)
from repro.store.manifest import CURRENT_NAME, manifest_name
from repro.wire import WIRE_BINARY, encode_relation

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


# ----------------------------------------------------------------------
# TokenBitsetCache
# ----------------------------------------------------------------------
class TestTokenBitsetCache:
    def test_hit_miss_counters(self):
        cache = TokenBitsetCache()
        key = cache.key("city", ("hoboken",))
        assert cache.get_rows(key) is None
        cache.put_rows(key, [0, 2])
        assert cache.get_rows(key) == (0, 2)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = TokenBitsetCache(max_entries=2)
        for index in range(3):
            cache.put_rows(("a", (index,)), [index])
        assert cache.get_rows(("a", (0,))) is None  # evicted
        assert cache.get_rows(("a", (2,))) == (2,)

    def test_invalidate_clears_everything(self):
        cache = TokenBitsetCache()
        cache.put_rows(("a", (1,)), [1])
        cache.put_mask(("a", (1,)), 0b10)
        cache.invalidate()
        assert cache.entries == 0
        assert cache.stats()["invalidations"] == 1
        cache.invalidate()  # empty: not counted again
        assert cache.stats()["invalidations"] == 1


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
            assert store.rows_matching("city", token) == coded.rows_matching("city", token)
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
        assert store.rows_matching("v", ("v599",)) == [599]
        assert store.rows_matching("v", ("v10",)) == [10]
        # v300 appears once, in the second segment, with a code >= 256 % 256
        # colliding against an early narrow code if wrapped.
        assert store.rows_matching("v", ("v300",)) == [300]
        assert store.relation() == current
        store.close()
        reopened = SegmentTableStore(tmp_path / f"g{STORE_SUFFIX}", get_backend(backend))
        assert reopened.rows_matching("v", ("v599",)) == [599]
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
        assert reopened.rows_matching("zip", ("07030",)) == [0, 2]
        assert len(dictionary_decodes) == 1  # only the zip dictionary
        assert len(column_decodes) == 1  # only the zip code column
        # A second query on the same attribute hits the lazy caches.
        assert reopened.rows_matching("zip", ("10001",)) == [1]
        assert len(dictionary_decodes) == 1
        assert len(column_decodes) == 1
        reopened.close()

    def test_save_and_reload(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        store = SegmentTableStore(directory, get_backend("python"), create=True)
        store.replace(small_relation())
        assert store.save() == directory
        assert store.reload() == 4
        assert store.relation() == small_relation()
        store.close()


# ----------------------------------------------------------------------
# Crash consistency
# ----------------------------------------------------------------------
def build_two_generation_store(directory):
    """A store with gen 1 (base) and gen 2 (base + delta rows) committed."""
    base, new = small_relation(), grown_relation()
    store = SegmentTableStore(directory, get_backend("python"), create=True)
    store.replace(base)
    store.apply_delta(compute_view_delta(base, new))
    store.close()
    return base, new


class TestCrashConsistency:
    def test_torn_tail_is_truncated_and_committed_data_served(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        _, new = build_two_generation_store(directory)
        # A crash mid-append leaves bytes beyond every committed length.
        for name in os.listdir(directory):
            if name.endswith((".seg", ".blob")):
                with open(directory / name, "ab") as handle:
                    handle.write(b"\xde\xad\xbe\xef torn tail")
        store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == new
        assert store.verify() is True  # tails were truncated at recovery
        store.close()

    def test_truncated_segment_falls_back_a_generation(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        base, _ = build_two_generation_store(directory)
        # Kill the delta's literal segment (gen 2's new file) mid-write.
        os.truncate(directory / "seg-000002.seg", 3)
        with pytest.warns(RuntimeWarning, match="falling back to committed generation 1"):
            store = SegmentTableStore(directory, get_backend("python"))
        assert store.generation == 1
        assert store.relation() == base
        store.close()

    def test_corrupt_manifest_falls_back_a_generation(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        base, _ = build_two_generation_store(directory)
        (directory / manifest_name(2)).write_bytes(b"{ not json")
        with pytest.warns(RuntimeWarning, match="falling back to committed generation 1"):
            store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == base
        store.close()

    def test_dangling_current_pointer_recovers_newest(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        _, new = build_two_generation_store(directory)
        (directory / CURRENT_NAME).write_text("MANIFEST-999999.json\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="falling back to committed generation 2"):
            store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == new
        store.close()

    def test_unrecoverable_store_raises(self, tmp_path):
        directory = tmp_path / f"t{STORE_SUFFIX}"
        build_two_generation_store(directory)
        for name in list(os.listdir(directory)):
            if name.startswith("MANIFEST-"):
                (directory / name).write_bytes(b"garbage")
        with pytest.raises(StoreError, match="no usable manifest generation"):
            SegmentTableStore(directory, get_backend("python"))

    def test_server_skips_corrupt_store_but_serves_the_rest(self, tmp_path):
        good = SegmentTableStore(tmp_path / f"good{STORE_SUFFIX}", get_backend("python"), create=True)
        good.replace(small_relation())
        good.close()
        bad_dir = tmp_path / f"bad{STORE_SUFFIX}"
        build_two_generation_store(bad_dir)
        for name in list(os.listdir(bad_dir)):
            if name.startswith("MANIFEST-"):
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
        # A crash after writing data files but before the manifest commit
        # leaves unreferenced files; they must not confuse recovery.
        (directory / "seg-000009.seg").write_bytes(b"F2SG\x01orphan")
        (directory / "dict-000009-000.blob").write_bytes(b"orphan")
        store = SegmentTableStore(directory, get_backend("python"))
        assert store.relation() == new
        store.close()

    def test_manifest_with_legacy_view_digest_loads(self, tmp_path):
        # Manifests committed before the delta base check moved to the
        # commit version carry a whole-view ``view_digest``; it is ignored.
        directory = tmp_path / f"t{STORE_SUFFIX}"
        _, new = build_two_generation_store(directory)
        path = directory / manifest_name(2)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert "view_digest" not in doc
        doc["view_digest"] = "0" * 64
        path.write_text(json.dumps(doc), encoding="utf-8")
        store = SegmentTableStore(directory, get_backend("python"))
        assert store.generation == 2
        assert store.relation() == new
        grown = Relation.from_columns(
            {attr: list(new.column(attr)) + [f"x-{attr}"] for attr in new.attributes},
            name=new.name,
        )
        assert store.apply_delta(compute_view_delta(new, grown)) == grown.num_rows
        assert store.relation() == grown
        store.close()


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
        with pytest.raises(ConfigurationError, match="unknown storage engine"):
            ProtocolServer(storage_dir=tmp_path, storage_engine="parquet")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_query_sees_delta_inserts(self, tmp_path, backend):
        # The hot-token cache must be invalidated by the insert: the same
        # query before and after a delta returns the updated rows, and the
        # two backends agree exactly.
        base, new = small_relation(), grown_relation()
        server = ProtocolServer(
            storage_dir=tmp_path, storage_engine="segment", backend=backend
        )
        client = make_client(server)
        ack = client.call(OutsourceRequest(table_id="orders", relation=base))
        query = QueryRequest(table_id="orders", attribute="city", token=("hoboken",))
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
        assert client.call(query).row_indexes == (0, 2, 5)

    @pytest.mark.parametrize("engine", ["snapshot", "segment"])
    def test_restart_resumes_serving(self, tmp_path, engine):
        relation = small_relation()
        server = ProtocolServer(storage_dir=tmp_path, storage_engine=engine, backend="python")
        make_client(server).call(OutsourceRequest(table_id="orders", relation=relation))
        revived = ProtocolServer(storage_dir=tmp_path, storage_engine=engine, backend="python")
        assert revived.table_ids() == ["orders"]
        assert revived.store("orders") == relation
        result = make_client(revived).call(
            QueryRequest(table_id="orders", attribute="city", token=("nyc",))
        )
        assert result.row_indexes == (1,)

    def test_engines_agree_byte_for_byte(self, tmp_path):
        # Decrypt-relevant equality: both engines return the same relation
        # (and therefore identical wire bytes) after the same traffic.
        base, new = small_relation(), grown_relation()
        delta = compute_view_delta(base, new)
        relations = {}
        for engine in ("snapshot", "segment"):
            server = ProtocolServer(
                storage_dir=tmp_path / engine, storage_engine=engine, backend="python"
            )
            client = make_client(server)
            ack = client.call(OutsourceRequest(table_id="orders", relation=base))
            client.call(
                InsertDelta(
                    table_id="orders", delta=delta, base_version=ack.fields["version"]
                )
            )
            relations[engine] = server.store("orders")
        assert relations["snapshot"] == relations["segment"]
        assert encode_relation(relations["snapshot"], WIRE_BINARY) == encode_relation(
            relations["segment"], WIRE_BINARY
        )

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

    def test_save_and_load_snapshot_on_segment_engine(self, tmp_path):
        server = ProtocolServer(storage_dir=tmp_path, storage_engine="segment", backend="python")
        client = make_client(server)
        client.call(OutsourceRequest(table_id="orders", relation=small_relation()))
        ack = client.call(SaveSnapshot(table_id="orders"))
        assert ack.fields["path"].endswith(f"orders{STORE_SUFFIX}")
        ack = client.call(LoadSnapshot(table_id="orders"))
        assert ack.fields["num_rows"] == 4
        with pytest.raises(ProtocolError, match="no snapshot for table"):
            client.call(LoadSnapshot(table_id="absent"))

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
# Lazy snapshot loading
# ----------------------------------------------------------------------
class TestLazySnapshotLoading:
    def test_restart_skims_without_decoding(self, tmp_path, monkeypatch):
        relation = small_relation()
        server = ProtocolServer(storage_dir=tmp_path, backend="python")
        make_client(server).call(OutsourceRequest(table_id="orders", relation=relation))

        import repro.store.memory as memory_module

        calls = []
        real_decode = memory_module.decode_relation

        def counting_decode(data):
            calls.append(len(data))
            return real_decode(data)

        monkeypatch.setattr(memory_module, "decode_relation", counting_decode)
        revived = ProtocolServer(storage_dir=tmp_path, backend="python")
        assert calls == []  # construction only skims
        store = revived.table_store("orders")
        assert isinstance(store, MemoryTableStore)
        assert not store.loaded
        assert store.attributes == ("city", "zip")
        assert store.num_rows == 4
        result = make_client(revived).call(
            QueryRequest(table_id="orders", attribute="city", token=("nyc",))
        )
        assert result.row_indexes == (1,)
        assert len(calls) == 1  # the first touch decoded, exactly once
        assert store.loaded

    def test_corrupt_snapshot_still_warns_at_construction(self, tmp_path):
        relation = small_relation()
        server = ProtocolServer(storage_dir=tmp_path, backend="python")
        make_client(server).call(OutsourceRequest(table_id="orders", relation=relation))
        snapshot = tmp_path / "orders.f2t"
        snapshot.write_bytes(snapshot.read_bytes()[:-10])  # torn tail
        with pytest.warns(RuntimeWarning, match="corrupt snapshot"):
            revived = ProtocolServer(storage_dir=tmp_path, backend="python")
        assert revived.table_ids() == []


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
class TestMigrate:
    def seed_snapshot_dir(self, tmp_path):
        orders, inv = small_relation("orders"), Relation.from_columns(
            {"sku": ["a", "b", "a"]}, name="inv"
        )
        server = ProtocolServer(storage_dir=tmp_path, backend="python")
        make_client(server).call(OutsourceRequest(table_id="orders", relation=orders))
        (tmp_path / "acme").mkdir()
        (tmp_path / "acme" / "inv.f2t").write_bytes(
            encode_relation(inv, WIRE_BINARY, get_backend("python"))
        )
        return orders, inv

    def test_migrate_roundtrip_is_byte_identical(self, tmp_path):
        orders, inv = self.seed_snapshot_dir(tmp_path)
        records = migrate_storage_dir(tmp_path, backend="python")
        assert [(r["tenant"], r["table"], r["rows"]) for r in records] == [
            ("", "orders", 4),
            ("acme", "inv", 3),
        ]
        for record, original, snapshot in [
            (records[0], orders, tmp_path / "orders.f2t"),
            (records[1], inv, tmp_path / "acme" / "inv.f2t"),
        ]:
            store = SegmentTableStore(record["store"], get_backend("python"))
            migrated = store.relation()
            assert migrated == original
            # Byte-identical round trip: re-encoding the migrated table
            # reproduces the snapshot file exactly.
            assert (
                encode_relation(migrated, WIRE_BINARY, get_backend("python"))
                == snapshot.read_bytes()
            )
            store.close()

    def test_migrated_dir_serves_under_the_segment_engine(self, tmp_path):
        orders, inv = self.seed_snapshot_dir(tmp_path)
        migrate_storage_dir(tmp_path, backend="python", remove_snapshots=True)
        assert not (tmp_path / "orders.f2t").exists()
        server = ProtocolServer(storage_dir=tmp_path, storage_engine="segment", backend="python")
        assert server.store("orders") == orders
        assert server.store("inv", tenant_id="acme") == inv

    def test_migrate_skips_corrupt_snapshots(self, tmp_path):
        self.seed_snapshot_dir(tmp_path)
        (tmp_path / "bad.f2t").write_bytes(b"F2WB definitely not a frame")
        with pytest.warns(RuntimeWarning, match="skipping corrupt snapshot"):
            records = migrate_storage_dir(tmp_path, backend="python")
        assert {r["table"] for r in records} == {"orders", "inv"}

    def test_cli_store_migrate(self, tmp_path, capsys):
        from repro.cli import main

        self.seed_snapshot_dir(tmp_path)
        assert main(["store", "migrate", "--storage", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 2 table(s)" in out
        assert is_segment_store(tmp_path / f"orders{STORE_SUFFIX}")
        assert is_segment_store(tmp_path / "acme" / f"inv{STORE_SUFFIX}")

    def test_cli_store_migrate_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["store", "migrate", "--storage", str(tmp_path / "absent")]) == 3
        assert "does not exist" in capsys.readouterr().err


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
        directory = tmp_path / f"t{STORE_SUFFIX}"
        store = SegmentTableStore(directory, get_backend("python"), create=True)
        current = small_relation()
        store.replace(current)
        for extra in range(5):
            grown = Relation.from_columns(
                {
                    "city": list(current.column("city")) + [f"city{extra}"],
                    "zip": list(current.column("zip")) + [f"{extra:05d}"],
                },
                name="orders",
            )
            store.apply_delta(compute_view_delta(current, grown))
            current = grown
        store.close()
        assert len(list_generations(directory)) == 2  # KEEP_GENERATIONS
        reopened = SegmentTableStore(directory, get_backend("python"))
        assert reopened.relation() == current
        assert reopened.verify() is True
        reopened.close()
