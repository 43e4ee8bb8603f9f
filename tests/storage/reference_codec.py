"""The per-value column codec: the oracle for ``storage.codec``.

``decode_column`` is the decoder the repository shipped until the
lane-at-a-time one replaced it (one ``read_varint`` call per integer, one
presence test per row, one ``struct.unpack_from`` per double), extended
to MORC version 3 the same way: one width read per narrow int lane, one
``int.from_bytes`` per value, one length per string. It defines what a
chunk's bytes *mean*; production code never imports it.

``encode_column_v2`` is the version-2 writer that left ``src/`` with the
format bump, kept byte for byte so the differential suite can still make
varint chunks, and :func:`writing_v2` makes ``OrcWriter`` write whole
version-2 files with it; :func:`writing_v3` makes it write version 3
(narrow lanes, a CRC per stripe, one-value-chunk statistics).
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from unittest import mock

from repro.storage import orc
from repro.storage.codec import CodecError, read_varint, write_varint
from repro.storage.schema import DataType

I, F, S, B = DataType.INT64, DataType.FLOAT64, DataType.STRING, DataType.BOOL
#: tag -> dtype; 1 and 3 are varint lanes (MORC 1, 2), 5 and 6 narrow ones (MORC 3).
_TAGS = {1: I, 2: F, 3: S, 4: B, 5: I, 6: S}


def zigzag_encode(value: int) -> int:
    """Map a signed int to unsigned so small magnitudes stay small
    (arbitrary precision: Python ints are unbounded)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def encode_column_v2(dtype: DataType, values: list[object]) -> bytes:
    """Encode one column chunk as MORC version 2 wrote it."""
    out = bytearray()
    out.append({I: 1, F: 2, S: 3, B: 4}[dtype])
    write_varint(out, len(values))
    bits = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v is not None:
            bits[i >> 3] |= 1 << (i & 7)
    out.extend(bits)
    if dtype is I:
        for v in values:
            if v is not None:
                write_varint(out, zigzag_encode(int(v)))
    elif dtype is F:
        for v in values:
            if v is not None:
                out.extend(struct.pack("<d", float(v)))
    elif dtype is S:
        for v in values:
            if v is not None:
                raw = str(v).encode("utf-8", "surrogatepass")
                write_varint(out, len(raw))
                out.extend(raw)
    else:
        bits = bytearray((len(values) + 7) // 8)
        for i, v in enumerate(values):
            if v:
                bits[i >> 3] |= 1 << (i & 7)
        out.extend(bits)
    return bytes(out)


@contextmanager
def writing_v2():
    """Inside this block ``OrcWriter`` writes MORC version 2 files."""
    with mock.patch.multiple(orc, encode_column=encode_column_v2, VERSION=2):
        yield


@contextmanager
def writing_v3():
    """Inside this block ``OrcWriter`` writes MORC version 3 files."""
    with mock.patch.object(orc, "VERSION", 3):
        yield


def _decode_presence(data: bytes, pos: int, count: int) -> tuple[list[bool], int]:
    nbytes = (count + 7) // 8
    if pos + nbytes > len(data):
        raise CodecError("truncated presence bitmap")
    bits = data[pos : pos + nbytes]
    present = [bool(bits[i >> 3] & (1 << (i & 7))) for i in range(count)]
    return present, pos + nbytes


def decode_column(data: bytes, pos: int = 0) -> tuple[DataType, list[object], int]:
    """Decode a column chunk; returns (dtype, values, new_pos)."""
    if pos >= len(data):
        raise CodecError("empty column chunk")
    tag = data[pos]
    pos += 1
    if tag not in _TAGS:
        raise CodecError(f"unknown type tag {tag}")
    dtype = _TAGS[tag]
    count, pos = read_varint(data, pos)
    present, pos = _decode_presence(data, pos, count)
    values: list[object] = [None] * count
    if tag in (5, 6):
        width, pos = read_varint(data, pos)
        if width == 0:
            raise CodecError("zero-width int lane")
        for i in range(count):
            if present[i]:
                if pos + width > len(data):
                    raise CodecError("truncated int lane")
                values[i] = int.from_bytes(data[pos : pos + width], "little", signed=True)
                pos += width
        if tag == 6:
            # Every length is checked before any string is decoded.
            lengths = [values[i] for i in range(count) if present[i]]
            if any(length < 0 for length in lengths) or pos + sum(lengths) > len(data):
                raise CodecError("truncated string")
            for i in range(count):
                if present[i]:
                    length = values[i]
                    values[i] = data[pos : pos + length].decode("utf-8", "surrogatepass")
                    pos += length
    elif dtype is DataType.INT64:
        for i in range(count):
            if present[i]:
                raw, pos = read_varint(data, pos)
                values[i] = zigzag_decode(raw)
    elif dtype is DataType.FLOAT64:
        for i in range(count):
            if present[i]:
                if pos + 8 > len(data):
                    raise CodecError("truncated float64")
                (values[i],) = struct.unpack_from("<d", data, pos)
                pos += 8
    elif dtype is DataType.STRING:
        for i in range(count):
            if present[i]:
                length, pos = read_varint(data, pos)
                if pos + length > len(data):
                    raise CodecError("truncated string")
                values[i] = data[pos : pos + length].decode("utf-8", "surrogatepass")
                pos += length
    elif dtype is DataType.BOOL:
        nbytes = (count + 7) // 8
        if pos + nbytes > len(data):
            raise CodecError("truncated bool bitmap")
        bits = data[pos : pos + nbytes]
        pos += nbytes
        for i in range(count):
            if present[i]:
                values[i] = bool(bits[i >> 3] & (1 << (i & 7)))
    return dtype, values, pos
