"""Wire form of Merkle inclusion proofs (JSON and binary, auto-detected).

A proof blob rides as one attachment of a ``PlanQueryResult``: the tree's
leaf count plus one sibling-digest path per matched row, aligned with the
result's ``row_indexes`` order (the indexes themselves are in the message
meta, so they are not repeated here).

Binary layout (after the 4-byte magic)::

    num_leaves(varint) || num_paths(varint) ||
    repeat: path_len(varint) || path_len * 32 digest bytes

The JSON form spells the digests as hex inside a self-describing document.
Like every other codec in :mod:`repro.wire`, decoding auto-detects the form
from the leading bytes.
"""

from __future__ import annotations

import json

from repro.exceptions import WireError
from repro.wire.binary import ByteReader, ByteWriter

#: Leading bytes of the binary proof form (versioned).
PROOFS_MAGIC = b"F2P\x01"

_PROOFS_FORMAT = "f2-merkle-proofs/1"
_DIGEST_LEN = 32


def encode_merkle_proofs(
    num_leaves: int, paths: list[list[bytes]], form: str = "binary"
) -> bytes:
    """Serialize the proofs of one query result in the requested wire form."""
    if form == "json":
        doc = {
            "format": _PROOFS_FORMAT,
            "num_leaves": int(num_leaves),
            "paths": [[digest.hex() for digest in path] for path in paths],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")
    writer = ByteWriter()
    writer.raw(PROOFS_MAGIC)
    writer.uvarint(int(num_leaves))
    writer.uvarint(len(paths))
    for path in paths:
        writer.uvarint(len(path))
        for digest in path:
            if len(digest) != _DIGEST_LEN:
                raise WireError(
                    f"merkle proof digest must be {_DIGEST_LEN} bytes, "
                    f"got {len(digest)}"
                )
            writer.raw(digest)
    return writer.getvalue()


def decode_merkle_proofs(data: bytes) -> tuple[int, list[list[bytes]]]:
    """Inverse of :func:`encode_merkle_proofs` (either form)."""
    if data[:4] == PROOFS_MAGIC:
        reader = ByteReader(data)
        reader.skip(4)
        num_leaves = reader.uvarint()
        paths: list[list[bytes]] = []
        for _ in range(reader.uvarint()):
            block = reader.raw(reader.uvarint() * _DIGEST_LEN)
            paths.append(
                [
                    block[start : start + _DIGEST_LEN]
                    for start in range(0, len(block), _DIGEST_LEN)
                ]
            )
        reader.expect_end()
        return num_leaves, paths
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("unrecognised merkle proof blob") from exc
    if not isinstance(doc, dict) or doc.get("format") != _PROOFS_FORMAT:
        raise WireError("unrecognised merkle proof document")
    try:
        num_leaves = int(doc["num_leaves"])
        paths = [
            [bytes.fromhex(digest) for digest in path] for path in doc["paths"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError("malformed merkle proof document") from exc
    for path in paths:
        for digest in path:
            if len(digest) != _DIGEST_LEN:
                raise WireError("malformed merkle proof digest")
    return num_leaves, paths
