"""The one lane frame: a :class:`ColumnBatch` as typed, positional lanes.

Shared-memory result segments (:mod:`repro.engine.procpool`), result-cache
entries (:mod:`repro.engine.resultcache`) and the body of an RPC reply
(:mod:`repro.cluster.rpc`) all hold these bytes, so a result is encoded
once and forwarded as it is. All integers are little-endian::

    u32 rows | u32 columns | u32 lanes
    columns x u32                   lane of each column (aliases share one)
    lanes x (u8 tag, u32 nulls, u64 bytes)
    per lane: nulls x u32 row indices, then the lane's data

    tag  values                     data
    b    bool / all-NULL            one byte a row: 0 NULL, 1 False, 2 True
    i    int within int64           rows x int64; a NULL row holds 0
    f    float                      rows x float64, bit-exact; NULL holds 0.0
    s    str without NUL            UTF-8 (surrogates pass), NUL-separated
    j    anything else              one JSON array: mixed, nested, big ints

A frame carries no column names: they travel in the JSON header beside it
(the SHM segment's, the RPC envelope's), which is what lets a re-aliased
recurrence reuse stored bytes. Decoding refuses (:class:`FrameError`) any
body whose lanes do not decode to exactly ``rows`` values or whose sizes
do not sum to the body, and allocates nothing the body's length does not
bound (a frame with rows always has a lane; a batch with no columns gets
an unreferenced ``b`` lane).
"""

from __future__ import annotations

import json
import struct
from itertools import repeat

from .batch import ColumnBatch
from .errors import ExecutionError

__all__ = [
    "FrameError",
    "encode_frame",
    "decode_frame",
    "frame_rows",
    "encode_batch",
    "decode_batch_frame",
]

_HEAD = struct.Struct("<III")
_LANE = struct.Struct("<cIQ")
_SEGMENT_HEAD = struct.Struct("<Q")
_NULL = type(None)
_BOOL_CODE = {None: 0, False: 1, True: 2}
_BOOL_VALUE = (None, False, True)
#: type -> (lane tag, ``struct`` code, the value a NULL row holds)
_TYPED = {int: (b"i", "q", 0), float: (b"f", "d", 0.0), str: (b"s", "", "")}


class FrameError(ExecutionError):
    """The bytes are not a well-formed lane frame."""


def _pack(code: str, values) -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def _unpack(code: str, data) -> list:
    count = len(data) // struct.calcsize(code)
    return list(struct.unpack(f"<{count}{code}", data))


def _encode_lane(values: list) -> tuple[bytes, bytes, bytes]:
    """``(tag, null row indices, data)`` of one column."""
    kinds = set(map(type, values))
    holes = _NULL in kinds
    kinds.discard(_NULL)
    if kinds <= {bool}:
        return b"b", b"", bytes(map(_BOOL_CODE.__getitem__, values))
    kind = kinds.pop()
    if not kinds and kind in _TYPED:
        tag, code, fill = _TYPED[kind]
        nulls, dense = b"", values
        if holes:
            nulls = _pack("I", [i for i, v in enumerate(values) if v is None])
            dense = [fill if v is None else v for v in values]
        if kind is str:
            text = "\x00".join(dense)
            if text.count("\x00") == len(dense) - 1:
                return tag, nulls, text.encode("utf-8", "surrogatepass")
        else:
            try:
                return tag, nulls, _pack(code, dense)
            except struct.error:  # an int beyond int64
                pass
    return b"j", b"", json.dumps(values, separators=(",", ":")).encode()


def _decode_lane(tag: bytes, nulls, data, rows: int) -> list:
    if tag == b"b":
        out = list(map(_BOOL_VALUE.__getitem__, data))
    elif tag == b"i":
        out = _unpack("q", data)
    elif tag == b"f":
        out = _unpack("d", data)
    elif tag == b"s":
        out = str(data, "utf-8", "surrogatepass").split("\x00")
    elif tag == b"j":
        out = json.loads(bytes(data))
    else:
        raise FrameError(f"unknown lane tag {tag!r}")
    if type(out) is not list or len(out) != rows:
        raise FrameError(f"lane {tag!r} does not hold {rows} values")
    if len(nulls):
        for index in _unpack("I", nulls):
            out[index] = None
    return out


def encode_frame(batch: ColumnBatch) -> bytes:
    """The batch's lanes, encoded once per batch (memoised on it: the
    result cache's admission and a shard's reply share one encode)."""
    if batch._frame is None:
        lane_of: dict[int, int] = {}
        lanes: list[tuple[bytes, bytes, bytes]] = []
        for name in batch.names:
            column = batch.columns[name]
            if id(column) not in lane_of:
                lane_of[id(column)] = len(lanes)
                lanes.append(_encode_lane(column))
        if not lanes and batch.length:
            lanes.append((b"b", b"", bytes(batch.length)))
        parts = [
            _HEAD.pack(batch.length, len(batch.names), len(lanes)),
            _pack("I", [lane_of[id(batch.columns[n])] for n in batch.names]),
        ]
        parts += [_LANE.pack(t, len(nulls) // 4, len(d)) for t, nulls, d in lanes]
        for _, nulls, data in lanes:
            parts += (nulls, data)
        batch._frame = b"".join(parts)
    return batch._frame


def decode_frame(body, names) -> tuple[int, list[list]]:
    """``(rows, one value list per name)`` of an :func:`encode_frame` body;
    columns that shared a lane share one list."""
    view = memoryview(body)
    try:
        rows, columns, count = _HEAD.unpack_from(view)
        if rows > len(view) or (rows and not count):
            raise FrameError(f"{rows} rows do not fit {len(view)} bytes")
        if columns != len(names):
            raise FrameError(f"{len(names)} names for {columns} columns")
        at = _HEAD.size + 4 * columns
        lane_of = _unpack("I", view[_HEAD.size : at])
        if len(lane_of) != columns:
            raise FrameError("truncated column directory")
        directory = [
            _LANE.unpack_from(view, at + i * _LANE.size) for i in range(count)
        ]
        at += count * _LANE.size
        lanes = []
        for tag, nulls, nbytes in directory:
            data = at + 4 * nulls
            end = data + nbytes
            if end > len(view):
                raise FrameError("lane runs past the end of the body")
            lanes.append(_decode_lane(tag, view[at:data], view[data:end], rows))
            at = end
        if at != len(view):
            raise FrameError(f"{len(view) - at} bytes after the last lane")
        return rows, [lanes[index] for index in lane_of]
    except (struct.error, ValueError, IndexError, RecursionError) as exc:
        raise FrameError(f"malformed lane frame: {exc}") from exc


def frame_rows(body, names) -> list[dict]:
    """Fresh row dicts of a frame, under the caller's column names."""
    rows, columns = decode_frame(body, names)
    if not names:
        return [{} for _ in range(rows)]
    return list(map(dict, map(zip, repeat(names), zip(*columns))))


def encode_batch(batch: ColumnBatch, trace: dict | None = None) -> bytes:
    """A shared-memory segment: ``[u64 header length][JSON header][frame]``.

    The header names the columns and carries ``trace`` (a worker span
    subtree from :func:`repro.obs.trace.export_subtree`) — the
    "result-segment header frame" of the cross-process trace-propagation
    protocol — so span shipment costs no extra pipe message or segment.
    """
    header: dict = {"names": list(batch.names)}
    if trace is not None:
        header["trace"] = trace
    blob = json.dumps(header, separators=(",", ":"), default=str).encode()
    return b"".join([_SEGMENT_HEAD.pack(len(blob)), blob, encode_frame(batch)])


def decode_batch_frame(buf) -> tuple[ColumnBatch, dict]:
    """``(batch, header extras)`` of an :func:`encode_batch` segment;
    extras carry the optional ``trace`` subtree."""
    view = memoryview(buf)
    try:
        (length,) = _SEGMENT_HEAD.unpack_from(view)
        header = json.loads(bytes(view[8 : 8 + length]))
        names = tuple(header.pop("names"))
    except (struct.error, ValueError, KeyError, AttributeError, TypeError) as exc:
        raise FrameError(f"malformed segment header: {exc}") from exc
    rows, columns = decode_frame(view[8 + length :], names)
    return ColumnBatch(names, dict(zip(names, columns)), rows), header

