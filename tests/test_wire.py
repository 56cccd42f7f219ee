"""Round-trip tests of the binary wire codec."""

import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.wire
from repro.crypto.probabilistic import Ciphertext
from repro.exceptions import WireError
from repro.fd.fd import FDSet, FunctionalDependency
from repro.fd.tane import TaneResult, tane_with_stats
from repro.relational.table import Relation
from repro.wire import (
    decode_cells,
    decode_relation,
    decode_tane_result,
    encode_cells,
    encode_relation,
    encode_tane_result,
)
from repro.wire.binary import ByteReader, ByteWriter

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
