"""The MORC bytes are pinned: what the writer emits cannot move.

``stored_bytes_per_user_byte`` is a benchmark metric with a 1 % bound; a
reader-side optimisation must leave every written byte where it was. The
digests below were computed at the commit *before* the lane-at-a-time
decoder landed and are compared, not regenerated.
"""

from hashlib import blake2b

from repro.core import MaxsonSystem
from repro.storage import DataType, OrcFileReader, OrcWriter, Schema
from repro.storage.orc import VERSION
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
GOLDEN_DEMO_BYTES = 166_581


def golden_bytes() -> bytes:
    """All four dtypes, nulls, two row groups a stripe, two stripes."""
    writer = OrcWriter(SCHEMA, row_group_size=15, stripe_bytes=1 << 30)
    for n, row in enumerate(ROWS, 1):
        writer.write_row(row)
        if n == 30:
            writer._flush_stripe()
    return writer.finish()


def test_writer_output_is_byte_identical_to_the_parent():
    data = golden_bytes()
    assert VERSION == 2 and data[4] == 2
    assert blake2b(data, digest_size=32).hexdigest() == GOLDEN_FILE
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
    assert report.build.bytes_written == GOLDEN_DEMO_BYTES
