"""Integration: Maxson caches XML paths through the same machinery.

The paper's conclusion proposes applying the pre-caching technique to
other formats such as XML; these tests verify that ``get_xml_object``
calls flow through the collector, scorer, cacher, plan rewriter, Value
Combiner and predicate pushdown exactly like JSON ones.
"""

import pytest

from repro.core import MaxsonSystem
from repro.engine import Session
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey


def xml_doc(i: int) -> str:
    return (
        f'<event id="{i}" kind="k{i % 5}">'
        f"<metric>{i}</metric><who><user>u{i % 9}</user></who>"
        "</event>"
    )


@pytest.fixture
def xml_system() -> MaxsonSystem:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "events", schema)
    rows = [(i, xml_doc(i)) for i in range(200)]
    session.catalog.append_rows("db", "events", rows, row_group_size=20)
    return MaxsonSystem(session=session)


SQL = (
    "select id, get_xml_object(payload, '/event/metric') as m, "
    "get_xml_object(payload, '/event/who/user') as u "
    "from db.events where get_xml_object(payload, '/event/metric') >= 180"
)


class TestUncachedXml:
    def test_query_runs_and_parses(self, xml_system):
        result = xml_system.baseline_sql(SQL)
        assert [r["m"] for r in result.rows] == list(range(180, 200))
        assert result.rows[0]["u"] == "u0"
        assert result.metrics.parse_documents > 0

    def test_xml_paths_collected(self, xml_system):
        planned = xml_system.session.compile(SQL)
        assert ("db", "events", "payload", "/event/metric") in set(
            planned.referenced_json_paths
        )

    def test_attribute_paths(self, xml_system):
        result = xml_system.baseline_sql(
            "select get_xml_object(payload, '/event/@kind') as k, "
            "count(*) as n from db.events "
            "group by get_xml_object(payload, '/event/@kind')"
        )
        assert len(result.rows) == 5
        assert sum(r["n"] for r in result.rows) == 200


class TestCachedXml:
    KEYS = [
        PathKey("db", "events", "payload", "/event/metric"),
        PathKey("db", "events", "payload", "/event/who/user"),
    ]

    def test_results_identical_and_no_parsing(self, xml_system):
        baseline = xml_system.baseline_sql(SQL)
        xml_system.cacher.populate(self.KEYS)
        result = xml_system.sql(SQL)
        assert result.rows == baseline.rows
        assert result.metrics.parse_documents == 0
        assert xml_system.modifier.last_report.hits >= 2

    def test_degraded_split_equals_its_cache_file(
        self, xml_system, assert_fallback_equals_build
    ):
        keys = self.KEYS + [PathKey("db", "events", "payload", "/event/@kind")]
        xml_system.cacher.populate(keys)
        assert_fallback_equals_build(xml_system, "db", "events")

    def test_cached_columns_typed(self, xml_system):
        report = xml_system.cacher.populate(self.KEYS)
        dtypes = {e.key.path: e.dtype for e in report.entries}
        assert dtypes["/event/metric"] == DataType.INT64
        assert dtypes["/event/who/user"] == DataType.STRING

    def test_pushdown_on_cached_xml_value(self, xml_system):
        xml_system.cacher.populate(self.KEYS)
        result = xml_system.sql(SQL)
        assert result.metrics.row_groups_skipped > 0

    def test_mixed_json_xml_cache(self, xml_system):
        # add a JSON column to the same system and cache both formats
        from repro.jsonlib import dumps

        session = xml_system.session
        schema = Schema.of(("id", DataType.INT64), ("doc", DataType.STRING))
        session.catalog.create_table("db", "mixed", schema)
        session.catalog.append_rows(
            "db", "mixed", [(i, dumps({"v": i})) for i in range(50)],
            row_group_size=10,
        )
        keys = self.KEYS + [PathKey("db", "mixed", "doc", "$.v")]
        xml_system.cacher.populate(keys)
        sql = "select get_json_object(doc, '$.v') as v from db.mixed"
        baseline = xml_system.baseline_sql(sql)
        result = xml_system.sql(sql)
        assert result.rows == baseline.rows
        assert result.metrics.parse_documents == 0

    def test_scoring_measures_xml_paths(self, xml_system):
        stats = xml_system.scoring.measure(self.KEYS[0])
        assert stats.avg_value_bytes > 0
        assert stats.estimated_total_bytes > 0

    def test_stale_xml_cache_invalidated(self):
        ticks = iter(float(i) for i in range(1000))
        session = Session(fs=BlockFileSystem(clock=lambda: next(ticks)))
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "events", schema)
        session.catalog.append_rows(
            "db", "events", [(i, xml_doc(i)) for i in range(30)]
        )
        system = MaxsonSystem(session=session)
        system.cacher.populate(self.KEYS[:1])
        session.catalog.append_rows("db", "events", [(999, xml_doc(999))])
        result = system.sql(
            "select get_xml_object(payload, '/event/metric') as m from db.events"
        )
        assert system.modifier.last_report.hits == 0
        assert len(result.rows) == 31
