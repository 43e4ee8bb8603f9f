"""Lane-at-a-time ``decode_column`` ≡ the per-value decoder it replaced.

``reference_codec.decode_column`` (beside this file, nowhere under
``src/``) defines what a chunk's bytes mean; the production decoder must
return the same dtype, the same values — floats compared bit for bit,
``True`` never equal to ``1`` — and the same end position, and must raise
the same error class wherever the reference refuses. With an ``end`` it
must behave as the reference does on ``data[:end]``.

``run_differential(cases)`` is the whole seeded run: generated lanes of
every dtype and null pattern, back to back, then truncations and byte
flips of them. Tier-1 calls it with ``CASES``, CI's bench-smoke step with
ten times that. A mismatch is shrunk and printed as hex.
"""

from __future__ import annotations

import math
import random
import struct

import pytest
import reference_codec

from repro.storage.codec import CodecError, decode_column, encode_column
from repro.storage.schema import DataType

CASES = 2500


# ----------------------------------------------------------------------
# the two sides
# ----------------------------------------------------------------------
def _bitwise(value: object) -> object:
    """NaN payloads, −0.0 and bool-vs-int all stay apart."""
    if type(value) is float:
        return struct.pack("<d", value)
    return (type(value).__name__, value)


def outcome(decode, data: bytes, pos: int, *end) -> object:
    """What a decoder makes of ``data``: the error class it raises, or all
    it returns. Any error the reference never raises escapes and fails."""
    try:
        dtype, values, new_pos = decode(data, pos, *end)
    except (CodecError, UnicodeDecodeError) as exc:
        return type(exc).__name__
    return dtype, [_bitwise(v) for v in values], new_pos


def agree(data: bytes, pos: int, end: int | None) -> bool:
    if end is None:
        return outcome(decode_column, data, pos) == outcome(
            reference_codec.decode_column, data, pos
        )
    bounded = outcome(decode_column, data, pos, end)
    if bounded != outcome(reference_codec.decode_column, data[:end], pos):
        return False
    # A wrong ``end`` never yields values the unbounded reference would not.
    return isinstance(bounded, str) or bounded == outcome(
        reference_codec.decode_column, data, pos
    )


def shrink(data: bytes, pos: int, end: int | None) -> bytes:
    """Greedy: drop ever smaller slices after ``pos`` while the two sides
    still disagree (``end`` is kept as given; past the data it is inert)."""
    size = (len(data) - pos) // 2
    while size:
        start = pos
        while start < len(data):
            candidate = data[:start] + data[start + size :]
            if not agree(candidate, pos, end):
                data = candidate
            else:
                start += size
        size //= 2
    return data


def check(data: bytes, pos: int = 0, end: int | None = None) -> None:
    if agree(data, pos, end):
        return
    data = shrink(data, pos, end)
    bulk = outcome(decode_column, data, pos, *(() if end is None else (end,)))
    cut = data if end is None else data[:end]
    pytest.fail(
        f"decoders disagree on data={data.hex()} pos={pos} end={end}\n"
        f"bulk:      {bulk}\n"
        f"reference: {outcome(reference_codec.decode_column, cut, pos)}"
    )


# ----------------------------------------------------------------------
# named cases
# ----------------------------------------------------------------------
NAN_WITH_PAYLOAD = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
I, F, S, B = DataType.INT64, DataType.FLOAT64, DataType.STRING, DataType.BOOL

NAMED = {
    "int one-byte dense": (I, list(range(-64, 64))),
    "int one-byte sparse": (I, [None if i % 3 == 0 else i - 30 for i in range(61)]),
    "int multi-byte": (I, [0, 64, -65, 8191, -8192, 2**31, -(2**31), 2**63 - 1, -(2**63)]),
    "int beyond 64 bits": (I, [2**64, -(2**64), 2**70, -(2**70) - 1, 1]),
    "int first byte high, rest low": (I, [64, 1, 2, 3]),
    "int all null": (I, [None] * 13),
    "int empty": (I, []),
    "float specials": (F, [math.nan, NAN_WITH_PAYLOAD, -0.0, 0.0, math.inf, -math.inf, 5e-324]),
    "float sparse": (F, [None, 1.5, None, None, -2.25, 1e308, None, None, 3.0]),
    "float all null": (F, [None] * 8),
    "float empty": (F, []),
    "string kinds": (S, ["", "a", "é", "✓", "𝄞", "x" * 127, "x" * 128, "é" * 100, "y" * 20000]),
    "string sparse": (S, [None, "", None, "𝄞𝄞", None] * 3),
    "string all null": (S, [None] * 9),
    "string empty": (S, []),
    "bool dense": (B, [i % 3 == 0 for i in range(17)]),
    "bool sparse": (B, [None if i % 4 == 1 else i % 3 == 0 for i in range(23)]),
    "bool all null": (B, [None] * 16),
    "bool empty": (B, []),
    "count 150": (I, [i * 7 - 500 for i in range(150)]),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_lane(name):
    dtype, values = NAMED[name]
    chunk = encode_column(dtype, values)
    blob = b"\x07\xff" + chunk + b"\x01\x02\x03"
    for end in (None, 2 + len(chunk), len(blob), len(blob) + 5):
        check(blob, 2, end)
    got_dtype, got, pos = decode_column(blob, 2, 2 + len(chunk))
    assert (got_dtype, pos) == (dtype, 2 + len(chunk))
    assert [_bitwise(v) for v in got] == [_bitwise(v) for v in values]
    # Every truncation (of a long chunk, some 500 of them), both spellings.
    for cut in range(2, 2 + len(chunk), len(chunk) // 500 + 1):
        check(blob[:cut], 2)
        check(blob, 2, cut)


def test_errors_are_the_reference_errors():
    for data, message in [
        (b"", "empty column chunk"),
        (b"\x09\x01\x01", "unknown type tag 9"),
        (b"\x01" + b"\xff" * 12, "varint too long"),
        (b"\x01\x09\xff", "truncated presence bitmap"),
        (b"\x01\x02\x03\x05", "truncated varint"),
        (b"\x01\x01\x01" + b"\x80" * 11 + b"\x01", "varint too long"),
        (b"\x02\x01\x01\x00\x00\x00", "truncated float64"),
        (b"\x03\x01\x01\x05ab", "truncated string"),
        (b"\x03\x01\x01", "truncated varint"),
        (b"\x04\x09\xff\x01\x00", "truncated bool bitmap"),
    ]:
        with pytest.raises(CodecError) as bulk:
            decode_column(data)
        with pytest.raises(CodecError) as expected:
            reference_codec.decode_column(data)
        assert str(bulk.value) == str(expected.value) == message
    with pytest.raises(UnicodeDecodeError):
        decode_column(b"\x03\x01\x01\x01\xff")


# ----------------------------------------------------------------------
# the seeded generator
# ----------------------------------------------------------------------
_COUNTS = [0, 1, 2, 7, 8, 9, 15, 16, 17, 50, 66, 150]
_STRINGS = ["", "a", "abc", "é", "✓", "𝄞", "naïve café", "x" * 127, "x" * 128, "𝄞" * 40, "z" * 300]
_FLOATS = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, NAN_WITH_PAYLOAD, 5e-324, 1e308]


def _int(rng: random.Random, kind: int) -> int:
    if kind == 0:
        return rng.randrange(-64, 64)  # one-byte varints only
    if kind == 1:
        return rng.randrange(-2000, 2000)  # one and two bytes mixed
    magnitude = rng.choice([2**6, 2**13, 2**31, 2**62, 2**63, 2**64, 2**70])
    return rng.randrange(-magnitude - 1, magnitude + 1)


def _lane(rng: random.Random) -> tuple[DataType, list[object]]:
    dtype = rng.choice([I, I, F, S, S, B])
    count = rng.choice(_COUNTS) if rng.random() < 0.8 else rng.randrange(200)
    kind = rng.randrange(3)
    if dtype is I:
        values: list[object] = [_int(rng, kind) for _ in range(count)]
    elif dtype is F:
        values = [rng.choice(_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6) for _ in range(count)]
    elif dtype is S:
        values = [rng.choice(_STRINGS) if kind else rng.choice(_STRINGS[:4]) for _ in range(count)]
    else:
        values = [rng.random() < 0.5 for _ in range(count)]
    nulls = rng.choice([0.0, 0.0, 0.1, 0.5, 0.9, 1.0])
    return dtype, [None if rng.random() < nulls else v for v in values]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    roll = rng.random()
    position = rng.randrange(len(data))
    if roll < 0.3:
        return data[:position]
    if roll < 0.8:
        flip = rng.choice([0xFF, 0x80, 0x01, 1 << rng.randrange(8)])
        return data[:position] + bytes([data[position] ^ flip]) + data[position + 1 :]
    if roll < 0.9:
        return data[:position] + data[position + 1 :]
    return data[:position] + bytes([rng.randrange(256)]) + data[position:]


def run_differential(cases: int, seed: int = 20200420) -> dict[str, int]:
    """Check ``cases`` generated blobs; return how many chunk decodes were
    accepted and how many refused, so a generator that drifted into
    producing only one kind is visible."""
    rng = random.Random(seed)
    tally = {"accepted": 0, "refused": 0}
    for _ in range(cases):
        lanes = [_lane(rng) for _ in range(rng.choice([1, 1, 2, 3]))]
        chunks = [encode_column(dtype, values) for dtype, values in lanes]
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(3))) + b"".join(chunks)
        pos = len(blob) - sum(map(len, chunks))
        mutated = rng.random() < 0.6
        if mutated:
            for _ in range(rng.choice([1, 1, 2])):
                blob = _mutate(rng, blob) or b"\x00"
            pos = min(pos, len(blob))
        # Chunks back to back: each starts where the reference says the
        # last one ended, so the returned positions are compared too.
        for (dtype, values), chunk in zip(lanes, chunks):
            true_end = pos + len(chunk)
            for end in (None, true_end, rng.randrange(len(blob) + 3)):
                check(blob, pos, end)
            expected = outcome(reference_codec.decode_column, blob, pos)
            tally["refused" if isinstance(expected, str) else "accepted"] += 1
            if isinstance(expected, str):
                break
            if not mutated:
                assert expected == (dtype, [_bitwise(v) for v in values], true_end)
            pos = expected[2]
    return tally


def test_seeded_differential():
    tally = run_differential(CASES)
    assert tally["accepted"] > CASES // 2 and tally["refused"] > CASES // 4, tally
