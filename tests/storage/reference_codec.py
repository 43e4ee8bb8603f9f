"""The per-value column decoder: the oracle for ``storage.codec.decode_column``.

This is the decoder the repository shipped until the lane-at-a-time one
replaced it, moved here verbatim (one ``read_varint`` call per integer,
one presence test per row, one ``struct.unpack_from`` per double). It
defines what a chunk's bytes *mean*; production code never imports it.
"""

from __future__ import annotations

import struct

from repro.storage.codec import (
    _TAG_TYPES,
    CodecError,
    read_varint,
    zigzag_decode,
)
from repro.storage.schema import DataType


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
    if tag not in _TAG_TYPES:
        raise CodecError(f"unknown type tag {tag}")
    dtype = _TAG_TYPES[tag]
    count, pos = read_varint(data, pos)
    present, pos = _decode_presence(data, pos, count)
    values: list[object] = [None] * count
    if dtype is DataType.INT64:
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
                values[i] = data[pos : pos + length].decode("utf-8")
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
