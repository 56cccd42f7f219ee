"""Round-trip tests of the binary wire codec."""

import random
import types

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.wire
from repro.api.pipeline import EncryptionPipeline
from repro.backend import get_backend, numpy_available
from repro.bench.harness import dataset_by_name
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.crypto.probabilistic import Ciphertext
from repro.exceptions import WireError
from repro.fd.fd import FDSet, FunctionalDependency
from repro.fd.tane import TaneResult, tane_with_stats
from repro.integrity.merkle import MerkleTree, hash_row, relation_leaves
from repro.relational.table import Relation
from repro.wire import (
    decode_cell_run,
    decode_cells,
    decode_relation,
    decode_tane_result,
    encode_cell_run,
    encode_cells,
    encode_relation,
    encode_tane_result,
)
from repro.wire.binary import ByteReader, ByteWriter, code_width, pack_codes
from repro.wire.codec import BINARY_MAGIC, BINARY_VERSION

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

FAST = settings(max_examples=60, deadline=None)
SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
cell_strings = st.text(min_size=0, max_size=12)
ciphertexts = st.builds(
    Ciphertext,
    nonce=st.binary(min_size=1, max_size=20),
    payload=st.binary(min_size=0, max_size=24),
)
cells = st.one_of(
    cell_strings,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
    st.none(),
    ciphertexts,
)


@st.composite
def relations(draw, max_attributes=4, max_rows=12):
    """Relations mixing plain strings, ints, and ciphertext cells."""
    num_attributes = draw(st.integers(min_value=1, max_value=max_attributes))
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    attributes = [f"X{i}" for i in range(num_attributes)]
    # Per-column value pools: repeated draws exercise the dictionary paths.
    pools = [
        draw(st.lists(cells, min_size=1, max_size=4, unique=True))
        for _ in range(num_attributes)
    ]
    rows = [
        [pools[i][draw(st.integers(min_value=0, max_value=len(pools[i]) - 1))]
         for i in range(num_attributes)]
        for _ in range(num_rows)
    ]
    return Relation(attributes, rows, name=draw(st.sampled_from(["t", "orders", "ζ-table"])))


@st.composite
def typed_relations(draw):
    """Relations whose columns each hold one cell type: ciphertext, ``str``,
    ``int`` or ``None`` (pools of 1 to 4 values, 0 to 12 rows)."""
    kinds = {
        "ciphertext": ciphertexts,
        "str": cell_strings,
        "int": st.integers(min_value=-(2**40), max_value=2**40),
        "none": st.none(),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4))
    num_rows = draw(st.integers(min_value=0, max_value=12))
    pools = [draw(st.lists(kinds[kind], min_size=1, max_size=4, unique=True)) for kind in chosen]
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(num_rows)]
    return Relation([f"{kind}{i}" for i, kind in enumerate(chosen)], rows, name="t")


@st.composite
def fdsets(draw):
    attributes = [f"X{i}" for i in range(5)]
    fds = FDSet()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        lhs = draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=3, unique=True))
        rhs = draw(st.sampled_from([a for a in attributes if a not in lhs]))
        fds.add(FunctionalDependency(lhs, rhs))
    return fds


# ----------------------------------------------------------------------
# Property tests: encode -> decode is the identity
# ----------------------------------------------------------------------
class TestRoundTripProperties:
    @FAST
    @given(relations())
    def test_relation_roundtrip(self, relation):
        decoded = decode_relation(encode_relation(relation))
        assert decoded == relation
        assert decoded.name == relation.name
        assert decoded.attributes == relation.attributes

    @FAST
    @given(st.lists(cells, max_size=12))
    def test_cells_roundtrip(self, values):
        assert decode_cells(encode_cells(values)) == values

    @FAST
    @given(fdsets(), st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_tane_result_roundtrip(self, fds, elapsed):
        result = TaneResult(
            fds=fds,
            elapsed_seconds=elapsed,
            levels_processed=3,
            candidates_examined=17,
            partitions_computed=9,
            parameters={"validated": True, "backend": "python", "max_lhs": None},
        )
        decoded = decode_tane_result(encode_tane_result(result))
        assert decoded.fds == result.fds
        assert decoded.elapsed_seconds == result.elapsed_seconds  # exact floats
        assert decoded.levels_processed == result.levels_processed
        assert decoded.candidates_examined == result.candidates_examined
        assert decoded.partitions_computed == result.partitions_computed
        assert decoded.parameters == result.parameters


# ----------------------------------------------------------------------
# Frame behaviour
# ----------------------------------------------------------------------
class TestForms:
    def test_dictionaries_serialized_once(self, seeded_scheme, zipcode_table):
        # The ciphertext relation repeats instance ciphertexts by design;
        # the columnar encoding must not repeat their bytes.
        view = seeded_scheme.encrypt(zipcode_table).server_view()
        encoded = len(encode_relation(view))
        naive = sum(
            len(cell.to_bytes())
            for attr in view.attributes
            for cell in view.column(attr)
        )
        # Well under the per-cell total: repeated ciphertexts cost one
        # dictionary entry plus a small fixed-width code each.
        assert encoded < naive * 0.8

    def test_unknown_form_rejected(self):
        # A JSON document is not a frame.
        with pytest.raises(WireError):
            decode_relation(
                b'{"type":"relation","name":"t","attributes":["A"],'
                b'"num_rows":1,"columns":[{"dictionary":["x"],"codes":[0]}]}'
            )
        with pytest.raises(WireError):
            decode_cells(b'{"type":"cells","cells":[]}')

    def test_truncated_binary_rejected(self, zipcode_table):
        data = encode_relation(zipcode_table)
        with pytest.raises(WireError):
            decode_relation(data[: len(data) // 2])

    def test_wrong_type_tag_rejected(self, zipcode_table):
        data = encode_relation(zipcode_table)
        with pytest.raises(WireError):
            decode_tane_result(data)

    def test_malformed_documents_raise_wire_error_not_raw_exceptions(self, zipcode_table):
        # A code outside its dictionary (would be IndexError), corrupted
        # embedded JSON blobs (would be UnicodeDecodeError/JSONDecodeError):
        # all must surface as WireError, the codec's documented contract.
        data = bytearray(encode_relation(Relation(["A"], [["x"]])))
        data[-1] = 7  # the one row's code; the dictionary holds one value
        with pytest.raises(WireError):
            decode_relation(bytes(data))
        result = tane_with_stats(zipcode_table)
        data = bytearray(encode_tane_result(result))
        data[-3:] = b"\xff\xfe\xfd"  # corrupt the trailing parameters blob
        with pytest.raises(WireError):
            decode_tane_result(bytes(data))

    def test_float_cells_roundtrip_exactly(self):
        values = [0.1, -2.5, 1e300, 5e-324]
        assert decode_cells(encode_cells(values)) == values

    def test_none_cells_roundtrip(self):
        relation = Relation(["A", "B"], [[None, "x"], ["y", None]])
        assert decode_relation(encode_relation(relation)) == relation

    def test_unsupported_cell_type_rejected(self):
        with pytest.raises(WireError):
            encode_cells([object()])

    def test_tane_result_from_real_run(self, zipcode_table):
        result = tane_with_stats(zipcode_table)
        decoded = decode_tane_result(encode_tane_result(result))
        assert decoded.fds == result.fds
        assert decoded.elapsed_seconds == result.elapsed_seconds

    def test_exports_match_the_package(self):
        # One export list: __all__ names exactly the public names the
        # package defines (its submodules aside).
        public = {
            name
            for name, value in vars(repro.wire).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert set(repro.wire.__all__) == public
        assert len(repro.wire.__all__) == len(public)


# ----------------------------------------------------------------------
# The decoded relation's coded view
# ----------------------------------------------------------------------
#: Merkle root of :func:`f2_view` on either backend, computed with the
#: per-row ``hash_row`` leaves before leaves were hashed from coded columns
#: (``ROOT_FORMAT`` 2).  Any change is a change of the root format.
GOLDEN_VIEW_ROOT = "30c9bdd6bf071fa903b8ac066769ae493142899103aa92fa0d31976df612c498"


def f2_view(monkeypatch, backend: str = "python") -> Relation:
    """The server view of 300 seed-0 ``orders`` rows at alpha 0.2, with
    ``os.urandom`` patched to ``random.Random(1234)`` (732 rows)."""
    rng = random.Random(1234)
    monkeypatch.setattr(
        "repro.crypto.probabilistic.os.urandom",
        lambda n: bytes(rng.getrandbits(8) for _ in range(n)),
    )
    pipeline = EncryptionPipeline(
        key=KeyGen.symmetric_from_seed(0),
        config=F2Config(alpha=0.2, seed=0, backend=backend),
    )
    return pipeline.run(dataset_by_name("orders", 300, seed=0)).server_view()


def relation_frame(columns, num_rows: int, name: str = "t") -> bytes:
    """A hand-built relation frame, one ``(attribute, dictionary, codes,
    width)`` per column; a ``bytes`` dictionary is one raw cell."""
    writer = ByteWriter()
    writer.raw(BINARY_MAGIC)
    writer.raw(bytes([BINARY_VERSION]))
    writer.lp_str("relation")
    writer.lp_str(name)
    writer.uvarint(len(columns))
    writer.uvarint(num_rows)
    for attribute, dictionary, codes, width in columns:
        writer.lp_str(attribute)
        if isinstance(dictionary, bytes):
            writer.uvarint(1)
            writer.raw(dictionary)
        else:
            writer.uvarint(len(dictionary))
            writer.raw(encode_cell_run(dictionary))
        writer.packed_code_array(pack_codes(codes, width), width)
    return writer.getvalue()


def plain(codes) -> list[int]:
    tolist = getattr(codes, "tolist", None)
    return tolist() if tolist is not None else list(codes)


class TestCodedDecode:
    @SLOW
    @given(typed_relations())
    @example(Relation(["str0"], [], name="t"))
    @example(Relation(["int0", "ciphertext1"], [[7, Ciphertext(b"n", b"p")]] * 3, name="t"))
    def test_decoded_coded_view_equals_a_fresh_factorisation(self, relation):
        decoded = decode_relation(encode_relation(relation))
        assert decoded == relation
        for backend in BACKENDS:
            resolved = get_backend(backend)
            seeded = decoded.coded(resolved)
            fresh = decoded.copy().coded(resolved)  # a copy carries no coded view
            for attribute in decoded.attributes:
                got, want = seeded.column(attribute), fresh.column(attribute)
                assert type(got.codes) is type(want.codes)
                assert plain(got.codes) == plain(want.codes)
                assert got.dictionary == want.dictionary
                assert got.code_of() == want.code_of()

    def test_decoded_columns_keep_their_wire_bytes(self, seeded_scheme, zipcode_table):
        view = seeded_scheme.encrypt(zipcode_table).server_view()
        payload = encode_relation(view)
        decoded = decode_relation(payload)
        for attribute in view.attributes:
            column = decoded.coded().column(attribute)
            assert column.run == encode_cell_run(column.dictionary)
            assert column.run in payload
            assert column.packed == pack_codes(column.codes, code_width(column.num_values))
        assert encode_relation(decoded) == payload

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_relation_leaves_equal_per_row_hashes_on_f2_views(
        self, monkeypatch, seeded_scheme, zipcode_table, backend
    ):
        # relation_leaves reads the default backend's coded view.
        monkeypatch.setenv("REPRO_BACKEND", backend)
        for view in (seeded_scheme.encrypt(zipcode_table).server_view(), f2_view(monkeypatch)):
            expected = [hash_row(row) for row in view.rows()]
            assert relation_leaves(view) == expected
            assert relation_leaves(decode_relation(encode_relation(view))) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_golden_merkle_root_of_an_f2_view(self, monkeypatch, backend):
        view = f2_view(monkeypatch, backend)
        assert view.num_rows == 732
        assert MerkleTree(relation_leaves(view)).root == GOLDEN_VIEW_ROOT
        received = decode_relation(encode_relation(view))
        assert MerkleTree(relation_leaves(received)).root == GOLDEN_VIEW_ROOT


class TestCraftedFrames:
    def test_the_helper_builds_what_the_encoder_does(self):
        relation = Relation(["A", "B"], [["x", 1], ["y", 1], ["x", 2]], name="t")
        frame = relation_frame(
            [("A", ["x", "y"], [0, 1, 0], 1), ("B", [1, 2], [0, 0, 1], 1)], 3
        )
        assert frame == encode_relation(relation)
        assert decode_relation(frame) == relation

    @pytest.mark.parametrize(
        "dictionary, codes, width, message",
        [
            (["x", "x"], [0, 1], 1, "repeats a value"),
            ([1, True], [0, 1], 1, "repeats a value"),
            (["x", "y"], [1, 0], 1, "first-occurrence order"),
            (["x", "y"], [0, 0], 1, "no row uses"),
            (["x", "y"], [0, 2], 1, "outside its dictionary"),
            (["x", "y"], [0, 1], 2, "2-byte codes"),
        ],
        ids=["repeated", "equal-values", "out-of-order", "unused", "out-of-range", "wide"],
    )
    def test_a_column_factorising_would_not_build_is_refused(
        self, dictionary, codes, width, message
    ):
        with pytest.raises(WireError, match=message):
            decode_relation(relation_frame([("A", dictionary, codes, width)], len(codes)))

    def test_a_dictionary_for_no_rows_is_refused(self):
        with pytest.raises(WireError, match="no row uses"):
            decode_relation(relation_frame([("A", ["x"], [], 1)], 0))

    @pytest.mark.parametrize(
        "cell",
        [b"\x02\x00", b"\x02\x03\x05ab"],
        ids=["empty-body", "nonce-past-the-body"],
    )
    def test_a_malformed_ciphertext_cell_is_a_wire_error(self, cell):
        with pytest.raises(WireError, match="ciphertext"):
            decode_relation(relation_frame([("A", cell, [0], 1)], 1))
        with pytest.raises(WireError, match="ciphertext"):
            decode_cell_run(cell, 1)
        with pytest.raises(WireError, match="ciphertext"):
            decode_cells(encode_cells([])[:-1] + b"\x01" + cell)  # a count of 1


# ----------------------------------------------------------------------
# Binary primitives
# ----------------------------------------------------------------------
class TestBinaryPrimitives:
    @FAST
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_uvarint_roundtrip(self, value):
        writer = ByteWriter()
        writer.uvarint(value)
        assert ByteReader(writer.getvalue()).uvarint() == value

    @FAST
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_svarint_roundtrip(self, value):
        writer = ByteWriter()
        writer.svarint(value)
        assert ByteReader(writer.getvalue()).svarint() == value

    @FAST
    @given(
        st.lists(st.integers(min_value=0, max_value=2**17), max_size=40),
    )
    def test_code_array_roundtrip(self, codes):
        num_values = max(codes, default=0) + 1
        writer = ByteWriter()
        writer.code_array(codes, num_values)
        assert ByteReader(writer.getvalue()).code_array() == codes

    def test_code_array_width_selection(self):
        from repro.wire.binary import code_width

        assert code_width(1) == 1
        assert code_width(256) == 1
        assert code_width(257) == 2
        assert code_width(1 << 16) == 2
        assert code_width((1 << 16) + 1) == 4
        assert code_width(1 << 33) == 8

    def test_reader_bounds_checked(self):
        reader = ByteReader(b"\x05")
        with pytest.raises(WireError):
            reader.lp_bytes()
