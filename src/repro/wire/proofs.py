"""Wire form of Merkle inclusion proofs.

A proof blob rides as one attachment of a ``PlanQueryResult``: the tree's
leaf count plus one sibling-digest path per matched row, aligned with the
result's ``row_indexes`` order (the indexes themselves are in the message
meta, so they are not repeated here).

Layout (after the 4-byte magic)::

    num_leaves(varint) || num_paths(varint) ||
    repeat: path_len(varint) || path_len * 32 digest bytes
"""

from __future__ import annotations

from repro.exceptions import WireError
from repro.wire.binary import ByteReader, ByteWriter

#: Leading bytes of a proof blob (versioned).
PROOFS_MAGIC = b"F2P\x01"

_DIGEST_LEN = 32


def encode_merkle_proofs(num_leaves: int, paths: list[list[bytes]]) -> bytes:
    """Serialize the proofs of one query result."""
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
    """Inverse of :func:`encode_merkle_proofs`."""
    if data[:4] != PROOFS_MAGIC:
        raise WireError("unrecognised merkle proof blob")
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
