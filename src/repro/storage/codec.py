"""Binary encoding primitives for the ORC-like file format.

Column chunks are encoded with a presence bitmap followed by type-specific
value streams: zigzag varints for integers, IEEE doubles for floats,
length-prefixed UTF-8 for strings, and packed bits for booleans. The codec
is deliberately byte-exact and versioned so files round-trip across
writer/reader revisions.

Encoding walks the values; decoding works a lane at a time (one integer
for a bitmap, one ``struct`` call for the doubles, one table look-up per
one-byte varint) over the same bytes. What those bytes mean is defined
by the per-value decoder kept in ``tests/storage/reference_codec.py``,
which the differential suite holds this one to.
"""

from __future__ import annotations

import struct
import zlib

from .schema import DataType

__all__ = [
    "CodecError",
    "checksum_of",
    "write_varint",
    "read_varint",
    "zigzag_encode",
    "zigzag_decode",
    "encode_column",
    "decode_column",
]


class CodecError(Exception):
    """Corrupt or truncated encoded data."""


def checksum_of(data: bytes) -> int:
    """CRC32 of a byte span (detects every single-byte flip).

    Used by the ORC-like format for per-stripe and footer integrity:
    readers verify before decoding so corruption surfaces as a typed
    error instead of garbage values.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError("varint requires a non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def zigzag_encode(value: int) -> int:
    """Map a signed int to unsigned so small magnitudes stay small
    (arbitrary precision: Python ints are unbounded)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_presence(out: bytearray, values: list[object]) -> None:
    bits = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v is not None:
            bits[i >> 3] |= 1 << (i & 7)
    out.extend(bits)


_TYPE_TAGS = {
    DataType.INT64: 1,
    DataType.FLOAT64: 2,
    DataType.STRING: 3,
    DataType.BOOL: 4,
}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


def encode_column(dtype: DataType, values: list[object]) -> bytes:
    """Encode one column chunk: tag, count, presence bitmap, values."""
    out = bytearray()
    out.append(_TYPE_TAGS[dtype])
    write_varint(out, len(values))
    _encode_presence(out, values)
    if dtype is DataType.INT64:
        for v in values:
            if v is not None:
                write_varint(out, zigzag_encode(int(v)))
    elif dtype is DataType.FLOAT64:
        for v in values:
            if v is not None:
                out.extend(struct.pack("<d", float(v)))
    elif dtype is DataType.STRING:
        for v in values:
            if v is not None:
                raw = str(v).encode("utf-8")
                write_varint(out, len(raw))
                out.extend(raw)
    elif dtype is DataType.BOOL:
        bits = bytearray((len(values) + 7) // 8)
        for i, v in enumerate(values):
            if v:
                bits[i >> 3] |= 1 << (i & 7)
        out.extend(bits)
    else:  # pragma: no cover - the tag table is exhaustive
        raise CodecError(f"unsupported dtype {dtype}")
    return bytes(out)


#: ``zigzag_decode`` of every one-byte varint.
_ZIGZAG_BYTE = tuple(map(zigzag_decode, range(0x80)))


def _flags(bits: int, count: int) -> str:
    """Bits 0..count-1 of ``bits`` as a string of "0"/"1", bit 0 first."""
    return bin(bits & (1 << count) - 1 | 1 << count)[:2:-1]


def decode_column(
    data: bytes, pos: int = 0, end: int | None = None
) -> tuple[DataType, list[object], int]:
    """Decode a column chunk a lane at a time; returns (dtype, values, new_pos).

    ``end`` bounds the chunk (default: the end of ``data``): nothing at or
    past it is read, exactly as if ``data`` stopped there. The present
    values are decoded densely in one pass, then scattered through the
    presence bitmap once if the lane has nulls.
    """
    if end is None or end > len(data):
        end = len(data)
    if pos >= end:
        raise CodecError("empty column chunk")
    dtype = _TAG_TYPES.get(data[pos])
    if dtype is None:
        raise CodecError(f"unknown type tag {data[pos]}")
    count, pos = read_varint(data, pos + 1)
    nbytes = (count + 7) // 8
    if pos + nbytes > end:
        raise CodecError("truncated presence bitmap")
    full = (1 << count) - 1
    presence = int.from_bytes(data[pos : pos + nbytes], "little") & full
    pos += nbytes
    n = count if presence == full else presence.bit_count()
    dense: list[object]
    if dtype is DataType.INT64:
        lane = data[pos : min(pos + n, end)]
        if len(lane) == n and lane.isascii():  # n one-byte varints
            table = _ZIGZAG_BYTE
            dense = [table[b] for b in lane]
            pos += n
        else:
            dense = []
            append = dense.append
            for _ in range(n):
                raw = shift = 0
                while True:
                    if pos >= end:
                        raise CodecError("truncated varint")
                    byte = data[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift > 70:
                        raise CodecError("varint too long")
                append((raw >> 1) ^ -(raw & 1))
    elif dtype is DataType.FLOAT64:
        if pos + 8 * n > end:
            raise CodecError("truncated float64")
        dense = list(struct.unpack_from(f"<{n}d", data, pos))
        pos += 8 * n
    elif dtype is DataType.STRING:
        dense = []
        append = dense.append
        for _ in range(n):
            if pos >= end:
                raise CodecError("truncated varint")
            length = data[pos]
            pos += 1
            if length >= 0x80:  # a length of two bytes or more
                length, pos = read_varint(data, pos - 1)
            if pos + length > end:
                raise CodecError("truncated string")
            append(str(data[pos : pos + length], "utf-8"))
            pos += length
    else:
        if pos + nbytes > end:
            raise CodecError("truncated bool bitmap")
        bits = int.from_bytes(data[pos : pos + nbytes], "little")
        pos += nbytes
        if n == count:
            return dtype, [c == "1" for c in _flags(bits, count)], pos
        values = [
            (c == "1") if p == "1" else None
            for p, c in zip(_flags(presence, count), _flags(bits, count))
        ]
        return dtype, values, pos
    if n == count:
        return dtype, dense, pos
    take = iter(dense).__next__
    return dtype, [take() if p == "1" else None for p in _flags(presence, count)], pos
