"""MORC integrity: per-chunk checksums, the footer CRC, and the version
byte."""

import random
import struct
from dataclasses import replace
from itertools import combinations
from unittest import mock

import pytest

from repro.storage import DataType, OrcWriter, Schema, checksum_of, orc
from repro.storage.orc import (
    MAGIC,
    VERSION,
    CorruptStripeError,
    OrcError,
    OrcFileReader,
    StripeInfo,
    _encode_footer,
)

SCHEMA = Schema.of(("id", DataType.INT64), ("name", DataType.STRING))
FLIP_SCHEMA = Schema.of(
    ("i", DataType.INT64), ("f", DataType.FLOAT64), ("s", DataType.STRING), ("b", DataType.BOOL)
)
#: Small files the byte-flip sweep writes in tier-1 (CI runs ten times as many).
FLIP_FILES = 1


def build_file(rows=40, row_group_size=10, rows_per_stripe=20) -> bytes:
    writer = OrcWriter(SCHEMA, row_group_size=row_group_size, stripe_bytes=1 << 30)
    for i in range(rows):
        writer.write_row((i, f"n{i}"))
        if (i + 1) % rows_per_stripe == 0:
            writer._flush_stripe()
    return writer.finish()


def with_version(blob: bytes, version: int) -> bytes:
    """``blob`` with another version byte; its CRCs still match."""
    return blob[: len(MAGIC)] + bytes([version]) + blob[len(MAGIC) + 1 :]


def assert_refused(blob: bytes, version: int) -> None:
    with pytest.raises(OrcError, match=f"^unsupported MORC version {version}$"):
        OrcFileReader(blob)


class TestRoundTrip:
    def test_v2_files_round_trip(self):
        """Only the version written is read: a version-2 byte is refused
        at open, before the footer is looked at."""
        blob = build_file()
        assert OrcFileReader(blob).read_rows() == [(i, f"n{i}") for i in range(40)]
        assert_refused(with_version(blob, 2), 2)

    def test_v3_files_round_trip(self):
        blob = build_file()
        assert blob[len(MAGIC)] == VERSION == 5
        for version in (3, 4, 6, 0, 255):
            assert_refused(with_version(blob, version), version)

    def test_every_stripe_carries_a_checksum(self):
        """Every chunk of every stripe carries its CRC32 in the row-group
        directory, and a stripe has no CRC of its own."""
        reader = OrcFileReader(build_file())
        assert reader.stripe_count == 2
        assert "checksum" not in StripeInfo.__dataclass_fields__
        for stripe in reader.stripes:
            pos = stripe.offset
            for rg in stripe.row_groups:
                for length, crc in zip(rg.chunk_lengths, rg.chunk_checksums, strict=True):
                    assert crc == checksum_of(reader._data[pos : pos + length])
                    pos += length
            assert pos == stripe.offset + stripe.length


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

    def test_flip_in_an_unread_chunk_is_harmless(self):
        """A read verifies only the chunks it decodes: damage in a pruned
        column's chunk raises for that column and for ``verify``, and
        nowhere else."""
        blob = bytearray(build_file())
        first = OrcFileReader(bytes(blob)).stripes[0]
        blob[first.offset + first.row_groups[0].chunk_lengths[0] + 1] ^= 0xFF  # a "name" chunk
        corrupted = OrcFileReader(bytes(blob))
        assert corrupted.read_rows(["id"]) == [(i,) for i in range(40)]
        for check in (lambda: corrupted.read_rows(["name"]), corrupted.verify):
            with pytest.raises(CorruptStripeError):
                check()

    def test_a_read_hashes_only_the_chunks_it_decodes(self):
        schema = Schema.of(("a", DataType.INT64), ("b", DataType.STRING), ("c", DataType.BOOL))
        writer = OrcWriter(schema, row_group_size=5)
        writer.write_rows((i, "json" * i, i % 3 == 0) for i in range(20))
        reader = OrcFileReader(writer.finish())
        hashed = []

        def counting(span):
            hashed.append(len(span))
            return checksum_of(span)

        with mock.patch.object(orc, "checksum_of", counting):
            columns, decoded = reader.read_columns(["a", "c"])
        assert columns["c"] == [i % 3 == 0 for i in range(20)]
        assert len(hashed) == 2 * 4 and sum(hashed) == decoded
        assert decoded < reader.stripes[0].length // 4


def small_file(rng: random.Random) -> tuple[list[tuple], bytes]:
    """Two stripes of two row groups of three rows: every dtype, NULLs."""
    writer = OrcWriter(FLIP_SCHEMA, row_group_size=3, stripe_bytes=1 << 30)
    rows = [
        tuple(
            None if rng.random() < 0.2 else value
            for value in (rng.randint(-300, 300), rng.random(), "é" * rng.randint(0, 3), rng.random() < 0.5)
        )
        for _ in range(12)
    ]
    for n, row in enumerate(rows, 1):
        writer.write_row(row)
        if n == 6:
            writer._flush_stripe()
    return rows, writer.finish()


def run_flips(files: int, seed: int = 20201101) -> dict[str, int]:
    """Flip each byte of ``files`` small version-4 files in turn and read
    every column subset: each read raises ``OrcError`` (which
    ``CorruptStripeError`` is) or returns exactly the written values.
    Returns how many reads did which; fails if either never happened."""
    rng = random.Random(seed)
    subsets = [list(c) for k in range(1, 5) for c in combinations(FLIP_SCHEMA.names, k)]
    tally = {"raised": 0, "returned": 0}
    for _ in range(files):
        rows, blob = small_file(rng)
        written = dict(zip(FLIP_SCHEMA.names, map(list, zip(*rows))))
        for position in range(len(blob)):
            mutated = bytearray(blob)
            mutated[position] ^= rng.choice((0xFF, 0x80, 0x01))
            try:
                reader = OrcFileReader(bytes(mutated))
            except OrcError:
                tally["raised"] += len(subsets)
                continue
            for names in subsets:
                try:
                    columns, _ = reader.read_columns(names)
                except OrcError:
                    tally["raised"] += 1
                    continue
                assert repr(columns) == repr({n: written[n] for n in names}), (position, names)
                tally["returned"] += 1
    assert tally["raised"] and tally["returned"], tally
    return tally


def test_any_byte_flip_raises_or_reads_true():
    run_flips(FLIP_FILES)


def resealed(blob: bytes, body: bytes) -> bytes:
    """``body`` (``blob``'s magic, version and stripes, edited in place)
    under ``blob``'s footer with every chunk CRC and the footer CRC
    recomputed to match it: damage only the decoders can meet."""
    reader = OrcFileReader(blob)
    stripes = []
    for stripe in reader.stripes:
        pos, groups = stripe.offset, []
        for rg in stripe.row_groups:
            sums = []
            for length in rg.chunk_lengths:
                sums.append(checksum_of(body[pos : pos + length]))
                pos += length
            groups.append(replace(rg, chunk_checksums=tuple(sums)))
        stripes.append(replace(stripe, row_groups=tuple(groups)))
    footer = _encode_footer(reader.schema, stripes)
    return bytes(body) + footer + struct.pack("<II", checksum_of(footer), len(footer)) + MAGIC


class TestBackwardCompatibility:
    def test_v1_files_still_readable(self):
        """A version-1 file is refused at open: no reader of it is left."""
        blob = build_file()
        assert_refused(with_version(blob, 1), 1)
        v1 = bytearray(blob)  # version 1's layout had no footer CRC either
        v1[len(MAGIC)] = 1
        del v1[-12:-8]
        assert_refused(bytes(v1), 1)

    def test_v1_damage_is_an_orc_error_or_nothing(self):
        """A flipped chunk byte under recomputed chunk and footer CRCs
        passes every checksum, so the decoders meet it: whatever they make
        of it (bad UTF-8, a short chunk, an unknown tag) surfaces as
        ``OrcError`` — the one storage error the scan's split fallback
        catches — or the read returns."""
        blob = build_file(rows=20, row_group_size=5, rows_per_stripe=10)
        body_end = max(s.offset + s.length for s in OrcFileReader(blob).stripes)
        raised = 0
        for position in range(len(MAGIC) + 1, body_end):
            for flip in (0xFF, 0x80, 0x01):
                body = bytearray(blob[:body_end])
                body[position] ^= flip
                try:
                    OrcFileReader(resealed(blob, body)).read_rows()
                except OrcError:
                    raised += 1
        assert raised > body_end  # the sweep does reach the decoders
