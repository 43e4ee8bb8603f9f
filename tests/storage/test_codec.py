"""Unit tests for the column codec."""

import pytest

from repro.storage.codec import (
    CodecError,
    decode_column,
    encode_column,
    read_varint,
    write_varint,
)
from repro.storage.orc import _decode_bare, _encode_bare
from repro.storage.schema import DataType


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_round_trip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, pos = read_varint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_varint(bytearray(), -1)

    def test_truncated(self):
        out = bytearray()
        write_varint(out, 300)
        with pytest.raises(CodecError):
            read_varint(bytes(out[:-1]), 0)

    def test_overlong_rejected(self):
        with pytest.raises(CodecError):
            read_varint(b"\xff" * 12, 0)


class TestZigzag:
    """A footer statistic's int is a zigzag varint."""

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**40, -(2**40)])
    def test_round_trip(self, value):
        out = bytearray()
        _encode_bare(out, value)
        assert _decode_bare(bytes(out), 0) == (value, len(out))

    def test_small_magnitudes_stay_small(self):
        for value, zigzag in [(-1, 1), (1, 2), (-64, 127)]:
            out = bytearray()
            _encode_bare(out, value)
            assert out[1:] == bytes([zigzag])


class TestColumnRoundTrip:
    @pytest.mark.parametrize(
        "dtype, values",
        [
            (DataType.INT64, [1, -5, None, 0, 2**50]),
            (DataType.FLOAT64, [1.5, None, -2.25, 0.0]),
            (DataType.STRING, ["a", None, "", "éclair", "x" * 500]),
            (DataType.BOOL, [True, False, None, True]),
            (DataType.INT64, []),
            (DataType.STRING, [None, None]),
        ],
    )
    def test_round_trip(self, dtype, values):
        data = encode_column(dtype, values)
        decoded_dtype, decoded, pos = decode_column(data)
        assert decoded_dtype == dtype
        assert decoded == values
        assert pos == len(data)

    def test_sequential_chunks(self):
        a = encode_column(DataType.INT64, [1, 2])
        b = encode_column(DataType.STRING, ["x"])
        blob = a + b
        dtype_a, values_a, pos = decode_column(blob, 0)
        dtype_b, values_b, end = decode_column(blob, pos)
        assert values_a == [1, 2]
        assert values_b == ["x"]
        assert end == len(blob)

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_column(b"\x99\x01\x00")

    @pytest.mark.parametrize("tag", [1, 3])
    def test_varint_tags_are_refused(self, tag):
        """Tags 1 and 3 (varint ints and strings) are not a chunk layout
        MORC writes: a chunk that carries one is refused, not decoded."""
        data = bytes([tag]) + encode_column(DataType.INT64, [1, 2])[1:]
        with pytest.raises(CodecError, match=f"unknown type tag {tag}"):
            decode_column(data)

    def test_truncated_string(self):
        data = encode_column(DataType.STRING, ["hello"])
        with pytest.raises(CodecError):
            decode_column(data[:-2])

    def test_truncated_float(self):
        data = encode_column(DataType.FLOAT64, [1.0])
        with pytest.raises(CodecError):
            decode_column(data[:-1])

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_column(b"")
