"""The lane frame round-trips every batch and refuses every damaged one.

``repro.engine.frame`` is the one codec behind shared-memory result
segments, result-cache entries and RPC reply bodies. A frame must decode
to its batch value for value — floats bit for bit, ``True`` never ``1``,
aliased columns still one list — and any truncation or byte flip must
either raise :class:`FrameError` or decode to columns of the row count the
damaged frame declares: never another exception, a short column or an
allocation the buffer does not bound.

``run_differential(cases)`` is the seeded run (tier-1: ``CASES``; CI's
bench-smoke step: ten times that) and returns a tally, so a generator
that drifted into producing one kind of frame is visible.
"""

from __future__ import annotations

import math
import random
import struct

import pytest

from repro.engine.batch import ColumnBatch
from repro.engine.frame import (
    FrameError,
    decode_batch_frame,
    decode_frame,
    encode_batch,
    encode_frame,
    frame_rows,
)

CASES = 300
NAN_WITH_PAYLOAD = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
_LENGTHS = [0, 1, 7, 8, 9, 1000]
_KINDS = {
    "int": lambda r: r.randrange(-2000, 2000),
    "int64 edge": lambda r: r.choice([2**63 - 1, -(2**63), 0, -1]),
    "int beyond": lambda r: r.choice([2**63, -(2**63) - 1, 10**29, 5]),
    "float": lambda r: r.choice(
        [0.0, -0.0, 1.5, math.inf, -math.inf, math.nan, NAN_WITH_PAYLOAD, 5e-324, 1e308]
    ),
    "str": lambda r: r.choice(["", "a", "é", "✓", "𝄞", "x" * 130, "naïve café"]),
    "str odd": lambda r: r.choice(["\x00", "a\x00b", "\ud800", "plain", ""]),
    "bool": lambda r: r.random() < 0.5,
    "bool and int": lambda r: r.choice([True, False, 1, 0]),
    "mixed": lambda r: r.choice([1, 1.0, True, "1", [1, "x", None], {"k": {"n": -0.0}}]),
}


def _bitwise(value: object) -> object:
    """NaN payloads, −0.0 and bool-vs-int all stay apart."""
    return struct.pack("<d", value) if type(value) is float else repr(value)


def _column(rng: random.Random, kind: str, rows: int) -> list:
    nulls = rng.choice([0.0, 0.0, 0.2, 1.0])
    return [None if rng.random() < nulls else _KINDS[kind](rng) for _ in range(rows)]


def _batch(rng: random.Random, rows: int, kinds: list[str]) -> ColumnBatch:
    columns = {f"c{i}": _column(rng, kind, rows) for i, kind in enumerate(kinds)}
    if kinds and rng.random() < 0.3:
        columns["alias"] = columns["c0"]  # two names, one list
    return ColumnBatch(list(columns), columns, rows)


def check_round_trip(batch: ColumnBatch) -> None:
    segment = encode_batch(batch, trace={"name": "split"})
    got, extras = decode_batch_frame(memoryview(segment))
    assert extras == {"trace": {"name": "split"}}
    assert (got.names, got.length) == (batch.names, batch.length)
    for name in batch.names:
        assert list(map(_bitwise, got.columns[name])) == list(
            map(_bitwise, batch.columns[name])
        ), name
        for other in batch.names:  # SHM merges dedup by list identity
            assert (got.columns[name] is got.columns[other]) == (
                batch.columns[name] is batch.columns[other]
            )
    assert repr(frame_rows(encode_frame(batch), batch.names)) == repr(batch.to_rows())


def check_damaged(body: bytes, names) -> bool:
    """True when the damaged frame was refused."""
    try:
        rows, columns = decode_frame(body, names)
    except FrameError:
        return True
    assert rows <= len(body) and all(len(column) == rows for column in columns)
    return False


def test_every_flip_and_truncation_of_small_frames():
    rng = random.Random(7)
    for kinds in (list(_KINDS), ["int"], []):
        names = (batch := _batch(rng, 9, kinds)).names
        body = encode_frame(batch)
        for cut in range(len(body)):
            assert check_damaged(body[:cut], names), cut
        assert check_damaged(body + b"\x00", names)
        for position in range(len(body)):
            for flip in (0xFF, 0x80, 0x01):
                damaged = bytearray(body)
                damaged[position] ^= flip
                check_damaged(bytes(damaged), names)


def test_declared_rows_are_bounded_by_the_body():
    empty = encode_frame(ColumnBatch([], {}, 5))  # rows ride on a filler lane
    assert frame_rows(empty, ()) == [{}] * 5
    with pytest.raises(FrameError, match="rows do not fit"):
        decode_frame(struct.pack("<III", 2**31, 0, 0), ())
    with pytest.raises(FrameError, match="unknown lane tag"):
        decode_frame(empty.replace(b"b", b"?", 1), ())
    with pytest.raises(FrameError, match="names for"):
        frame_rows(empty, ("a",))
    for bad in (b"", b"\x00" * 8, struct.pack("<Q", 2) + b"[]", struct.pack("<Q", 2) + b"{}"):
        with pytest.raises(FrameError):
            decode_batch_frame(bad)


def run_differential(cases: int, seed: int = 20200420) -> dict[str, int]:
    rng = random.Random(seed)
    tally = {"round trips": 0, "refused": 0, "accepted damaged": 0}
    for _ in range(cases):
        rows = rng.choice(_LENGTHS) if rng.random() < 0.8 else rng.randrange(40)
        kinds = rng.choices(list(_KINDS), k=rng.choice([0, 1, 2, 5]))
        batch = _batch(rng, rows, kinds)
        check_round_trip(batch)
        tally["round trips"] += 1
        body = encode_frame(batch)
        for _ in range(8):
            position = rng.randrange(len(body))
            if rng.random() < 0.3:
                damaged = body[:position]
            else:
                flip = rng.choice([0xFF, 0x80, 0x01, 1 << rng.randrange(8)])
                damaged = body[:position] + bytes([body[position] ^ flip]) + body[position + 1 :]
            refused = check_damaged(damaged, batch.names)
            tally["refused" if refused else "accepted damaged"] += 1
    return tally


def test_seeded_differential():
    tally = run_differential(CASES)
    assert tally["refused"] > CASES and tally["accepted damaged"] > CASES // 4, tally
