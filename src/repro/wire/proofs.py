"""Wire form of Merkle multiproofs.

A proof blob rides as one attachment of a ``PlanQueryResult``: the tree's
leaf count, the digests of one :class:`~repro.integrity.merkle.Multiproof`
split into one path per matched row (aligned with the result's
``row_indexes`` order — the indexes themselves are in the message meta, so
they are not repeated here), and the chunk geometry that places them.
Row *k*'s path holds only the sibling digests rows before it did not
already carry, so a digest two matches share travels once.

Layout (after the 4-byte magic)::

    num_leaves(varint) || num_paths(varint) ||
    repeat: path_len(varint) || path_len * 32 digest bytes ||
    geometry: one code array (width(u8) || count(varint) || packed ints)
"""

from __future__ import annotations

from repro.exceptions import WireError
from repro.wire.binary import ByteReader, ByteWriter

#: Leading bytes of a proof blob (versioned; ``F2P\x01`` carried per-row
#: binary-tree paths and no geometry).
PROOFS_MAGIC = b"F2P\x02"

_DIGEST_LEN = 32


def encode_merkle_proofs(
    num_leaves: int, paths: list[list[bytes]], geometry: "tuple[int, ...] | list[int]"
) -> bytes:
    """Serialize the multiproof of one query result."""
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
    writer.code_array(list(geometry), max(geometry, default=0) + 1)
    return writer.getvalue()


def decode_merkle_proofs(data: bytes) -> tuple[int, list[list[bytes]], tuple[int, ...]]:
    """Inverse of :func:`encode_merkle_proofs`: ``(num_leaves, paths, geometry)``."""
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
    geometry = tuple(reader.code_array())
    reader.expect_end()
    return num_leaves, paths, geometry
