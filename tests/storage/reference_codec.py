"""The per-value column codec: the oracle for ``storage.codec``.

``decode_column`` is the decoder the repository shipped until the
lane-at-a-time one replaced it (one presence test per row, one
``struct.unpack_from`` per double), in the chunk layout MORC writes: one
width read per narrow int lane, one ``int.from_bytes`` per value, one
length per string. It defines what a chunk's bytes *mean* for the four
tags written (2, 4, 5 and 6) and refuses every other tag, as production
does; production code never imports it.
"""

from __future__ import annotations

import struct

from repro.storage.codec import CodecError, read_varint
from repro.storage.schema import DataType

I, F, S, B = DataType.INT64, DataType.FLOAT64, DataType.STRING, DataType.BOOL
#: tag -> dtype: IEEE doubles, packed bits, and narrow int lanes of ints or string lengths.
_TAGS = {2: F, 4: B, 5: I, 6: S}


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
    elif dtype is DataType.FLOAT64:
        for i in range(count):
            if present[i]:
                if pos + 8 > len(data):
                    raise CodecError("truncated float64")
                (values[i],) = struct.unpack_from("<d", data, pos)
                pos += 8
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
