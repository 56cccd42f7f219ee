"""Low-level primitives of the length-prefixed binary wire form.

Everything the binary codec writes is built from four primitives — unsigned
LEB128 varints, length-prefixed byte strings, fixed-width little-endian code
arrays, and IEEE-754 doubles — so a reader can always skip a section it does
not understand by honouring the length prefixes.  The :class:`ByteReader` /
:class:`ByteWriter` pair keeps the framing logic in one place; the codec in
:mod:`repro.wire.codec` only decides *what* to write, never how.

Code arrays (the bulk of a serialized relation) are packed through the
standard-library :mod:`array` module at the smallest fixed width that holds
the column's dictionary size (1, 2, 4, or 8 bytes per code), which keeps the
pure-Python encode/decode path a single memory copy instead of a per-value
loop.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterable

from repro.exceptions import WireError

#: array typecodes per code byte-width (unsigned).
_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def code_width(num_values: int) -> int:
    """Smallest fixed byte-width holding codes ``0 .. num_values - 1``."""
    if num_values <= 0x100:
        return 1
    if num_values <= 0x10000:
        return 2
    if num_values <= 0x100000000:
        return 4
    return 8


#: Every one-byte varint (values below 128), prebuilt.
_SMALL_VARINTS = [bytes([value]) for value in range(0x80)]


def uvarint_bytes(value: int) -> bytes:
    """``value`` as an unsigned LEB128 varint."""
    if 0 <= value < 0x80:
        return _SMALL_VARINTS[value]
    if value < 0:
        raise WireError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def uvarint_at(data: bytes, pos: int) -> tuple[int, int]:
    """The unsigned varint starting at ``data[pos]``, and the offset after it."""
    value = 0
    shift = 0
    size = len(data)
    while True:
        if pos >= size:
            raise WireError("truncated varint in binary frame")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise WireError("varint longer than 10 bytes in binary frame")


class ByteWriter:
    """Accumulates one binary frame."""

    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def uvarint(self, value: int) -> None:
        """Append an unsigned LEB128 varint."""
        self._chunks.append(uvarint_bytes(value))

    def svarint(self, value: int) -> None:
        """Append a signed (zigzag) varint."""
        self.uvarint((value << 1) if value >= 0 else ((-value << 1) - 1))

    def raw(self, data: bytes) -> None:
        """Append raw bytes (caller manages any framing)."""
        self._chunks.append(data)

    def lp_bytes(self, data: bytes) -> None:
        """Append a length-prefixed byte string."""
        self.uvarint(len(data))
        self._chunks.append(data)

    def lp_str(self, text: str) -> None:
        """Append a length-prefixed UTF-8 string."""
        self.lp_bytes(text.encode("utf-8"))

    def double(self, value: float) -> None:
        """Append an IEEE-754 big-endian double (exact float round-trip)."""
        self._chunks.append(struct.pack(">d", value))

    def code_array(self, codes: Iterable[int], num_values: int) -> None:
        """Append a dictionary-code array at the smallest fixed width.

        Layout: ``width(u8) || count(varint) || count * width bytes`` in
        little-endian order.  ``num_values`` is the column's dictionary size
        (codes are guaranteed in ``[0, num_values)``).
        """
        width = code_width(num_values)
        packed = pack_codes(codes, width)
        self.packed_code_array(packed, width)

    def packed_code_array(self, packed: bytes, width: int) -> None:
        """Append a code array already packed at ``width`` (see :meth:`code_array`)."""
        self._chunks.append(bytes([width]))
        self.uvarint(len(packed) // width)
        self._chunks.append(packed)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class ByteReader:
    """Sequential reader over one binary frame with bounds checking."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        if count < 0 or self.remaining < count:
            raise WireError(
                f"truncated binary frame: needed {count} bytes, {self.remaining} left"
            )
        start = self._pos
        self._pos = start + count
        return self._data[start : self._pos]

    def u8(self) -> int:
        """Read one unsigned byte."""
        return self._take(1)[0]

    def raw(self, count: int) -> bytes:
        """Read ``count`` raw bytes (bounds-checked, no length prefix)."""
        return self._take(count)

    def skip(self, count: int) -> None:
        """Advance past ``count`` bytes without materialising them.

        Bounds-checked like :meth:`_take` (a short frame raises
        :class:`WireError`), but never slices.
        """
        if count < 0 or self.remaining < count:
            raise WireError(
                f"truncated binary frame: needed {count} bytes, {self.remaining} left"
            )
        self._pos += count

    def uvarint(self) -> int:
        value, self._pos = uvarint_at(self._data, self._pos)
        return value

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def lp_bytes(self) -> bytes:
        return self._take(self.uvarint())

    def lp_str(self) -> str:
        try:
            return self.lp_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid UTF-8 in binary frame") from exc

    def double(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def code_array(self) -> list[int]:
        """Inverse of :meth:`ByteWriter.code_array`."""
        packed, width = self.packed_code_array()
        return unpack_codes(packed, width).tolist()

    def packed_code_array(self) -> tuple[bytes, int]:
        """A code array's packed bytes and width, without unpacking them."""
        width = self._take(1)[0]
        if width not in _TYPECODES:
            raise WireError(f"unknown code-array width {width}")
        count = self.uvarint()
        return self._take(count * width), width

    @property
    def position(self) -> int:
        """Offset of the next unread byte in the frame."""
        return self._pos

    @property
    def buffer(self) -> bytes:
        """The whole frame (for a codec that scans a run in one pass)."""
        return self._data

    def expect_end(self) -> None:
        if self.remaining:
            raise WireError(f"{self.remaining} trailing bytes after binary frame")


def pack_codes(codes: Iterable[int], width: int) -> bytes:
    """Codes as ``width``-byte little-endian unsigned integers."""
    if not isinstance(codes, list):
        tolist = getattr(codes, "tolist", None)
        codes = tolist() if tolist is not None else list(codes)
    packed = array(_TYPECODES[width], codes)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI/dev hosts
        packed.byteswap()
    return packed.tobytes()


def unpack_codes(packed: bytes, width: int) -> array:
    """Inverse of :func:`pack_codes`, as a stdlib :class:`array.array`."""
    codes = array(_TYPECODES[width])
    codes.frombytes(packed)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI/dev hosts
        codes.byteswap()
    return codes
