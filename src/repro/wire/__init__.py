"""repro.wire: serialization of everything the two protocol parties exchange.

The codec (:mod:`repro.wire.codec`) round-trips ciphertext cells, relations,
and TANE results through one compact length-prefixed binary frame
(:mod:`repro.wire.binary`), columnar and dictionary-encoded on top of the
coded view from PR 2 so each distinct ciphertext is serialized once per
column.

Encoded objects decode to values that compare equal to the originals.  The
protocol endpoints in :mod:`repro.api.protocol` frame these payloads into
typed request/response messages.
"""

from repro.wire.codec import (
    BINARY_MAGIC,
    BINARY_VERSION,
    decode_cell_run,
    decode_cells,
    decode_relation,
    decode_tane_result,
    encode_cell_run,
    encode_cells,
    encode_relation,
    encode_tane_result,
    sanitize_json,
)

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "decode_cell_run",
    "decode_cells",
    "decode_relation",
    "decode_tane_result",
    "encode_cell_run",
    "encode_cells",
    "encode_relation",
    "encode_tane_result",
    "sanitize_json",
]
