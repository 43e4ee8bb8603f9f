"""The MORC bytes are pinned: what the writer emits cannot move.

``stored_bytes_per_user_byte`` is a benchmark metric with a 1 % bound; a
reader-side optimisation must leave every written byte where it was. The
version-5 digest (a CRC per chunk, bare statistics, no string bound past
64 characters) and the demo's cache bytes are pinned; they are compared,
not regenerated.

The files the last version-2, -3 and -4 writers wrote are committed
beside this one (``golden_v2.morc``, ``golden_v3.morc``,
``golden_v4.morc``) under their pinned digests. A reader opens only the
version written, so all three are refused at open, with their version in
the message.
"""

from hashlib import blake2b
from pathlib import Path

import pytest

from repro.core import MaxsonSystem
from repro.storage import DataType, OrcFileReader, OrcWriter, Schema
from repro.storage.orc import VERSION, OrcError
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
GOLDEN_V4 = Path(__file__).with_name("golden_v4.morc")
GOLDEN_FILE_V5 = "68d63abd3d2a295b437bfec4ed05874a7f1794122d0259cd114ef8daaaaefc02"
#: The demo's cache tables in MORC 5; version 4 wrote 163,572 bytes,
#: version 3 164,737 and version 2 166,581.
GOLDEN_DEMO_BYTES = 161_796


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
    with pytest.raises(OrcError, match="unsupported MORC version 2"):
        OrcFileReader(data)


def test_v3_writer_output_is_pinned():
    data = GOLDEN_V3.read_bytes()
    assert len(data) == 4072 and data[4] == 3
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE_V3
    with pytest.raises(OrcError, match="unsupported MORC version 3"):
        OrcFileReader(data)


def test_v4_writer_output_is_pinned():
    data = GOLDEN_V4.read_bytes()
    assert len(data) == 4022 and data[4] == 4
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE_V4
    with pytest.raises(OrcError, match="unsupported MORC version 4"):
        OrcFileReader(data)


def test_v5_writer_output_is_pinned():
    data = golden_bytes()
    assert VERSION == 5 and data[4] == 5
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE_V5
    reader = OrcFileReader(data)
    assert [len(s.row_groups) for s in reader.stripes] == [2, 1]
    assert reader.read_rows() == ROWS
    # Every group holds a string past 64 characters: no string bound.
    for rg in reader.row_group_layout():
        stats = rg.column_stats["s"]
        assert (stats.minimum, stats.maximum) == (None, None) and not stats.all_null


def test_demo_cache_tables_cost_the_same_bytes():
    system = MaxsonSystem.for_demo(300)
    keys = [
        PathKey(spec.database, spec.table, spec.json_column, path)
        for spec in TABLE_SPECS
        for path in DocumentFactory(spec).query_paths()
    ]
    report = system.cache_paths_directly(keys, budget_bytes=1 << 40)
    assert report.build.bytes_written == GOLDEN_DEMO_BYTES <= 163_572
