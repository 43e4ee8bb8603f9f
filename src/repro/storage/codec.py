"""Binary encoding primitives for the ORC-like file format.

A column chunk is a type tag, a count, a presence bitmap, then the
present values: IEEE doubles (tag 2), packed bits (tag 4), a *narrow int
lane* of the ints (tag 5), or a narrow int lane of the strings' UTF-8
lengths, then their bytes (tag 6). Any other tag is refused. Strings
encode with ``surrogatepass``: a lone surrogate (valid JSON,
``"\\ud800"``) round-trips.

A narrow int lane is a varint width, then signed little-endian ints of
that width: 1, 2, 4 or 8 bytes from the lane's min and max, wider only
past int64. The lane frame's ``i`` lane (:mod:`repro.engine.frame`) is
the same ints through the same :func:`encode_ints` / :func:`decode_ints`.
Decoding works a lane at a time; what the bytes mean is defined by the
per-value decoder in ``tests/storage/reference_codec.py``, which the
differential suite holds this one to.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from itertools import accumulate, compress

from .schema import DataType

__all__ = [
    "CodecError",
    "checksum_of",
    "write_varint",
    "read_varint",
    "encode_ints",
    "decode_ints",
    "encode_column",
    "decode_column",
]


class CodecError(Exception):
    """Corrupt or truncated encoded data."""


def checksum_of(data) -> int:
    """CRC32 of a byte span or buffer (detects every single-byte flip).

    Used by the ORC-like format for per-chunk and footer integrity:
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


def read_varint(data: bytes, pos: int, end: int | None = None) -> tuple[int, int]:
    """Read an unsigned LEB128 varint before ``end`` (default: len(data)); returns (value, new_pos)."""
    end = len(data) if end is None else end
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


#: The ``struct`` / ``array`` code of each narrow width (``array`` is native-endian).
_INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_SWAP = sys.byteorder == "big"


def encode_ints(values: list[int]) -> tuple[int, bytes]:
    """``(width, lane)``: the ints as signed little-endian ints of one
    width, 1, 2, 4 or 8 bytes from their min and max, wider past int64."""
    top = max(max(values), ~min(values)) if values else 0
    width = (top.bit_length() + 8) // 8
    if width > 8:
        return width, b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    width = 1 << (width - 1).bit_length()
    return width, struct.pack(f"<{len(values)}{_INT_CODES[width]}", *values)


def decode_ints(lane, width: int) -> list[int]:
    """The ints of an :func:`encode_ints` lane; ``len(lane)`` must be a
    multiple of ``width`` (> 0), which the callers check."""
    if width not in _INT_CODES:  # past int64: one int per value
        starts = range(0, len(lane), width)
        return [int.from_bytes(lane[at : at + width], "little", signed=True) for at in starts]
    ints = array(_INT_CODES[width])
    ints.frombytes(lane)
    if _SWAP:  # pragma: no cover - little-endian hosts
        ints.byteswap()
    return ints.tolist()


def _bitmap(flags: list) -> bytes:
    bits = bytearray((len(flags) + 7) // 8)
    for i, flag in enumerate(flags):
        if flag:
            bits[i >> 3] |= 1 << (i & 7)
    return bytes(bits)


_TYPE_TAGS = {DataType.INT64: 5, DataType.FLOAT64: 2, DataType.STRING: 6, DataType.BOOL: 4}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


def _write_ints(out: bytearray, values: list[int]) -> None:
    width, lane = encode_ints(values)
    write_varint(out, width)
    out.extend(lane)


def encode_column(dtype: DataType, values: list[object]) -> bytes:
    """Encode one column chunk: tag, count, presence bitmap, values."""
    out = bytearray()
    out.append(_TYPE_TAGS[dtype])
    write_varint(out, len(values))
    out.extend(_bitmap([v is not None for v in values]))
    present = [v for v in values if v is not None]
    raw: list[bytes] = []  # the strings' bytes, joined to the chunk once
    if dtype is DataType.INT64:
        _write_ints(out, present)
    elif dtype is DataType.FLOAT64:
        out.extend(struct.pack(f"<{len(present)}d", *present))
    elif dtype is DataType.STRING:
        raw = [str(v).encode("utf-8", "surrogatepass") for v in present]
        _write_ints(out, list(map(len, raw)))
    else:
        out.extend(_bitmap(values))
    return b"".join([out, *raw])


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
    tag = data[pos]
    dtype = _TAG_TYPES.get(tag)
    if dtype is None:
        raise CodecError(f"unknown type tag {tag}")
    count, pos = read_varint(data, pos + 1)
    nbytes = (count + 7) // 8
    if pos + nbytes > end:
        raise CodecError("truncated presence bitmap")
    full = (1 << count) - 1
    presence = int.from_bytes(data[pos : pos + nbytes], "little") & full
    pos += nbytes
    n = count if presence == full else presence.bit_count()
    dense: list[object] = []
    if tag >= 5:  # a narrow int lane: the ints, or the string lengths
        width, pos = read_varint(data, pos, end)
        stop = pos + width * n
        if not width or stop > end:
            raise CodecError("truncated int lane" if width else "zero-width int lane")
        dense = decode_ints(data[pos:stop], width)
        pos = stop
        if tag == 6:
            offsets = list(accumulate(dense, initial=pos))
            if n and (min(dense) < 0 or offsets[-1] > end):
                raise CodecError("truncated string")
            spans = zip(offsets, offsets[1:])
            dense = [data[a:b].decode("utf-8", "surrogatepass") for a, b in spans]
            pos = offsets[-1]
    elif tag == 2:
        if pos + 8 * n > end:
            raise CodecError("truncated float64")
        dense = list(struct.unpack_from(f"<{n}d", data, pos))
        pos += 8 * n
    else:
        if pos + nbytes > end:
            raise CodecError("truncated bool bitmap")
        bits = int.from_bytes(data[pos : pos + nbytes], "little")
        pos += nbytes
        dense = [c == "1" for c in _flags(bits, count)]
        if n < count:
            dense = list(compress(dense, map(int, _flags(presence, count))))
    if n == count:
        return dtype, dense, pos
    take = iter(dense).__next__
    return dtype, [take() if p == "1" else None for p in _flags(presence, count)], pos
