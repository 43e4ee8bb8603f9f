"""MORC v2 integrity: per-stripe checksums and the footer CRC."""

import struct

import pytest
from reference_codec import writing_v2

from repro.storage import DataType, OrcWriter, Schema, checksum_of
from repro.storage.orc import (
    MAGIC,
    CorruptStripeError,
    OrcError,
    OrcFileReader,
    _encode_footer,
)

SCHEMA = Schema.of(("id", DataType.INT64), ("name", DataType.STRING))


def build_file(rows=40, row_group_size=10, rows_per_stripe=20) -> bytes:
    writer = OrcWriter(SCHEMA, row_group_size=row_group_size, stripe_bytes=1 << 30)
    for i in range(rows):
        writer.write_row((i, f"n{i}"))
        if (i + 1) % rows_per_stripe == 0:
            writer._flush_stripe()
    return writer.finish()


class TestRoundTrip:
    def test_v2_files_round_trip(self):
        with writing_v2():
            blob = build_file()
        reader = OrcFileReader(blob)
        assert reader.version == 2
        assert reader.read_rows() == [(i, f"n{i}") for i in range(40)]

    def test_v3_files_round_trip(self):
        reader = OrcFileReader(build_file())
        assert reader.version == 3
        assert reader.read_rows() == [(i, f"n{i}") for i in range(40)]

    def test_every_stripe_carries_a_checksum(self):
        reader = OrcFileReader(build_file())
        assert reader.stripe_count == 2
        for stripe in reader.stripes:
            span = reader._data[stripe.offset : stripe.offset + stripe.length]
            assert stripe.checksum == checksum_of(span)


class TestCorruptionDetection:
    def test_stripe_payload_flip_raises(self):
        blob = bytearray(build_file())
        stripe = OrcFileReader(bytes(blob)).stripes[0]
        blob[stripe.offset + stripe.length // 2] ^= 0xFF
        corrupted = OrcFileReader(bytes(blob))  # footer still intact
        with pytest.raises(CorruptStripeError):
            corrupted.read_rows()

    def test_footer_flip_raises_at_open(self):
        blob = bytearray(build_file())
        last = OrcFileReader(bytes(blob)).stripes[-1]
        # flip a byte just past the stripes (inside the footer)
        blob[last.offset + last.length + 2] ^= 0xFF
        with pytest.raises(OrcError):
            OrcFileReader(bytes(blob))

    def test_every_position_flip_is_detected(self):
        """Any single-byte flip anywhere in the file raises before any
        value is returned — corruption degrades, never lies."""
        blob = build_file(rows=20, row_group_size=5, rows_per_stripe=10)
        for position in range(len(blob)):
            mutated = bytearray(blob)
            mutated[position] ^= 0xFF
            with pytest.raises(OrcError):
                OrcFileReader(bytes(mutated)).read_rows()

    def test_skipped_stripe_is_not_verified(self):
        """Lazy verification: a corrupt stripe whose row groups are all
        masked out never gets hashed, so the read still succeeds."""
        blob = bytearray(build_file())
        first = OrcFileReader(bytes(blob)).stripes[0]
        blob[first.offset + 1] ^= 0xFF
        corrupted = OrcFileReader(bytes(blob))
        groups_in_first = len(first.row_groups)
        total_groups = len(corrupted.row_group_layout())
        mask = [False] * groups_in_first + [True] * (
            total_groups - groups_in_first
        )
        rows = corrupted.read_rows(row_group_mask=mask)
        assert [r[0] for r in rows] == list(range(20, 40))
        # touching the corrupt stripe still raises
        with pytest.raises(CorruptStripeError):
            corrupted.read_rows()


def as_v1(blob: bytes) -> bytes:
    """Re-serialise a v2 or v3 file as v1: version byte 1, v1 footer, no
    CRCs. The chunks are kept, and their tags still say how to read them."""
    reader = OrcFileReader(blob)
    footer = _encode_footer(reader.schema, reader.stripes, version=1)
    body_end = max(s.offset + s.length for s in reader.stripes)
    v1 = bytearray()
    v1 += MAGIC
    v1.append(1)
    v1 += blob[len(MAGIC) + 1 : body_end]
    v1 += footer
    v1 += struct.pack("<I", len(footer))
    v1 += MAGIC
    return bytes(v1)


class TestBackwardCompatibility:
    def test_v1_files_still_readable(self):
        """A pre-checksum (version 1) file opens and reads normally."""
        blob = build_file()
        v1_reader = OrcFileReader(as_v1(blob))
        assert v1_reader.version == 1
        assert v1_reader.read_rows() == OrcFileReader(blob).read_rows()

    def test_v1_damage_is_an_orc_error_or_nothing(self):
        """No checksum catches a flipped byte in a v1 file, so the decoders
        meet it: whatever they make of it (bad UTF-8, a short chunk, an
        unknown dtype code) surfaces as ``OrcError`` — the one storage
        error the scan's split fallback catches — or the read returns."""
        v1 = as_v1(build_file(rows=20, row_group_size=5, rows_per_stripe=10))
        raised = 0
        for position in range(len(v1)):
            for flip in (0xFF, 0x80, 0x01):
                mutated = bytearray(v1)
                mutated[position] ^= flip
                try:
                    OrcFileReader(bytes(mutated)).read_rows()
                except OrcError:
                    raised += 1
        assert raised > len(v1)  # the sweep does reach the decoders
