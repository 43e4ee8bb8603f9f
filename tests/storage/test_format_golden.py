"""The MORC bytes are pinned: what the writer emits cannot move.

``stored_bytes_per_user_byte`` is a benchmark metric with a 1 % bound; a
reader-side optimisation must leave every written byte where it was. The
version-2 digest was computed at the commit *before* the lane-at-a-time
decoder landed; the file it names is committed beside this one
(``golden_v2.morc``, written by the last version-2 writer) and must still
read back. Version 3 (narrow int lanes) moved the writer's bytes once,
and version 4 (a CRC per chunk, bare statistics) once more: the file the
last version-3 writer wrote is committed too (``golden_v3.morc``), and
the version-4 digest and the demo's cache bytes are pinned anew. All are
compared, not regenerated.
"""

from hashlib import blake2b
from pathlib import Path

import pytest
from reference_codec import writing_v2, writing_v3

from repro.core import MaxsonSystem
from repro.storage import DataType, OrcFileReader, OrcWriter, Schema
from repro.storage.orc import VERSION, CorruptStripeError
from repro.workload import PathKey
from repro.workload.tables import TABLE_SPECS, DocumentFactory

SCHEMA = Schema.of(
    ("i", DataType.INT64),
    ("f", DataType.FLOAT64),
    ("s", DataType.STRING),
    ("b", DataType.BOOL),
)
ROWS = [
    (
        None if i % 7 == 3 else (i - 20) * 3 ** (i % 40),
        None if i % 5 == 1 else (i - 11) / 8,
        None if i % 6 == 2 else "é✓𝄞"[: i % 4] + "x" * (i * 9 % 140),
        None if i % 4 == 0 else i % 3 == 0,
    )
    for i in range(45)
]
GOLDEN_FILE = "b8e86d664ad68496b0d7c9cbe5ca947d3f9880d5ad5240240753efbfa0bde749"
GOLDEN_V2 = Path(__file__).with_name("golden_v2.morc")
GOLDEN_FILE_V3 = "bd27c027ae8255d1362a90b76ca20a4b0216c2d89e0a16385977125c48aeae24"
GOLDEN_V3 = Path(__file__).with_name("golden_v3.morc")
GOLDEN_FILE_V4 = "456625e0aad23669cfa83a76ec7d9d08e3843b58390bea1c8e1a36c577866454"
#: The demo's cache tables in MORC 4; version 3 wrote 164,737 bytes and
#: version 2 166,581.
GOLDEN_DEMO_BYTES = 163_572


def golden_bytes() -> bytes:
    """All four dtypes, nulls, two row groups a stripe, two stripes."""
    writer = OrcWriter(SCHEMA, row_group_size=15, stripe_bytes=1 << 30)
    for n, row in enumerate(ROWS, 1):
        writer.write_row(row)
        if n == 30:
            writer._flush_stripe()
    return writer.finish()


def test_writer_output_is_byte_identical_to_the_parent():
    data = GOLDEN_V2.read_bytes()
    assert len(data) == 3950 and data[4] == 2
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE
    reader = OrcFileReader(data)
    assert [len(s.row_groups) for s in reader.stripes] == [2, 1]
    assert reader.read_rows() == ROWS
    with writing_v2():  # the oracle's version-2 writer is that writer
        assert golden_bytes() == data


def test_v3_writer_output_is_pinned():
    """The committed version-3 file reads back and is verified a stripe at
    a time: a flip in one chunk fails a read of another in its stripe."""
    data = GOLDEN_V3.read_bytes()
    assert len(data) == 4072 and data[4] == 3
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE_V3
    reader = OrcFileReader(data)
    assert [len(s.row_groups) for s in reader.stripes] == [2, 1]
    assert reader.read_rows() == ROWS
    reader.verify()
    with writing_v3():
        assert golden_bytes() == data
    first = reader.stripes[0]
    flipped = bytearray(data)
    flipped[first.offset + first.length - 1] ^= 0xFF  # the second group's "b" chunk
    with pytest.raises(CorruptStripeError):
        OrcFileReader(bytes(flipped)).read_columns(["i"])


def test_v4_writer_output_is_pinned():
    data = golden_bytes()
    assert VERSION == 4 and data[4] == 4
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE_V4
    reader = OrcFileReader(data)
    assert [len(s.row_groups) for s in reader.stripes] == [2, 1]
    assert reader.read_rows() == ROWS


def test_demo_cache_tables_cost_the_same_bytes():
    system = MaxsonSystem.for_demo(300)
    keys = [
        PathKey(spec.database, spec.table, spec.json_column, path)
        for spec in TABLE_SPECS
        for path in DocumentFactory(spec).query_paths()
    ]
    report = system.cache_paths_directly(keys, budget_bytes=1 << 40)
    assert report.build.bytes_written == GOLDEN_DEMO_BYTES <= 164_737
