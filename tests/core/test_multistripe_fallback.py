"""The paper only shares skip masks for single-stripe files (§IV-F);
multi-stripe files must fall back to full reads — correctly."""

import pytest

from repro.core import MaxsonSystem
from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey


def build_multistripe_system() -> MaxsonSystem:
    """Raw table whose single file holds multiple stripes."""
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [(i, dumps({"m": i, "pad": "x" * 60})) for i in range(400)]
    session.catalog.append_rows(
        "db", "t", rows, row_group_size=20, stripe_bytes=4000
    )
    return MaxsonSystem(session=session)


SQL = (
    "select id, get_json_object(payload, '$.m') as m from db.t "
    "where get_json_object(payload, '$.m') >= 380"
)


class TestMultiStripe:
    def test_raw_file_is_multi_stripe(self):
        system = build_multistripe_system()
        from repro.storage import OrcFileReader

        path = system.catalog.table_files("db", "t")[0]
        reader = OrcFileReader(system.session.fs.read(path))
        assert reader.stripe_count > 1

    def test_results_correct_without_mask_sharing(self):
        system = build_multistripe_system()
        baseline = system.baseline_sql(SQL)
        system.cacher.populate([PathKey("db", "t", "payload", "$.m")])
        result = system.sql(SQL)
        assert result.rows == baseline.rows
        assert [r["m"] for r in result.rows] == list(range(380, 400))
        # no parsing, but also no row-group elimination (fallback)
        assert result.metrics.parse_documents == 0
        assert result.metrics.row_groups_skipped == 0

    def test_misaligned_split_opens_each_file_once(self):
        """The split's readers drop their SARGs instead of reopening."""
        system = build_multistripe_system()
        baseline = system.baseline_sql(SQL)
        system.cacher.populate([PathKey("db", "t", "payload", "$.m")])
        stats = system.session.fs.stats
        reads = stats.reads
        result = system.sql(SQL)
        assert stats.reads - reads == 2  # the raw file and its cache file
        assert result.rows == baseline.rows

    def test_cache_only_read_still_works(self):
        system = build_multistripe_system()
        sql = "select get_json_object(payload, '$.m') as m from db.t"
        baseline = system.baseline_sql(sql)
        system.cacher.populate([PathKey("db", "t", "payload", "$.m")])
        result = system.sql(sql)
        assert result.rows == baseline.rows
