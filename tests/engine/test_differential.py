"""Differential tests: the batch path must be row-identical, always.

Every query family the engine supports runs through both execution
paths — the vectorized batch compiler and the per-row interpreter — and
must produce exactly the same rows in the same order. The same property
is then asserted on the Maxson-modified plan (Value Combiner stitching
cached columns) and under PR-2 fault profiles, where batch-mode scans
must still fall back split-by-split and degrade rather than diverge.
"""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

from irregular_documents import irregular_documents, with_irregular_sales

#: The parity matrix: one query per engine feature family.
QUERIES = [
    "select mall_id, date from mydb.T",
    "select * from mydb.T limit 7",
    "select date from mydb.T where date = '20190102'",
    "select date from mydb.T where date between '20190101' and '20190102'",
    "select mall_id from mydb.T where date in ('20190101', '20190103')",
    "select get_json_object(sale_logs, '$.item_name') as name from mydb.T",
    "select get_json_object(sale_logs, '$.turnover') as t from mydb.T "
    "where get_json_object(sale_logs, '$.turnover') > 900",
    "select mall_id from mydb.T "
    "where get_json_object(sale_logs, '$.ghost') = 1",
    "select get_json_object(sale_logs, '$.price') * 2 + 1 as p from mydb.T "
    "where not (get_json_object(sale_logs, '$.price') < 10)",
    "select cast(get_json_object(sale_logs, '$.item_id') as string) as s "
    "from mydb.T limit 9",
    "select get_json_object(sale_logs, '$.price') as p from mydb.T "
    "where get_json_object(sale_logs, '$.price') > 10 "
    "and get_json_object(sale_logs, '$.turnover') > 100 "
    "or get_json_object(sale_logs, '$.item_id') = 3",
    "select count(*) as n from mydb.T",
    "select date, count(*) as n from mydb.T group by date",
    "select get_json_object(sale_logs, '$.item_id') as item, "
    "sum(get_json_object(sale_logs, '$.price')) as s, "
    "avg(get_json_object(sale_logs, '$.turnover')) as a "
    "from mydb.T group by get_json_object(sale_logs, '$.item_id') "
    "having count(*) > 11",
    "select count(distinct get_json_object(sale_logs, '$.item_id')) as n "
    "from mydb.T",
    "select count(*) as n from mydb.T where date = '29990101'",
    "select get_json_object(sale_logs, '$.item_id') as item, "
    "get_json_object(sale_logs, '$.price') as p from mydb.T "
    "order by get_json_object(sale_logs, '$.price') desc, "
    "get_json_object(sale_logs, '$.item_id') limit 12",
    "select count(*) as n from mydb.T a join mydb.T b "
    "on get_json_object(a.sale_logs, '$.item_id') = "
    "get_json_object(b.sale_logs, '$.item_id') "
    "where a.date = '20190101' and b.date = '20190102'",
]


@pytest.fixture
def sales_session(sales_session):
    """Every differential below also runs over irregular documents."""
    return with_irregular_sales(sales_session)


class TestRowBatchParity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_batch_rows_identical_to_row_interpreter(self, sales_session, sql):
        batch = sales_session.sql(sql, execution_mode="batch")
        row = sales_session.sql(sql, execution_mode="row")
        assert batch.rows == row.rows

    def test_join_and_null_keys_parity(self, session):
        schema = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))
        session.catalog.create_table("db", "n1", schema)
        session.catalog.create_table("db", "n2", schema)
        session.catalog.append_rows("db", "n1", [(None, "x"), (1, "y"), (2, "z")])
        session.catalog.append_rows("db", "n2", [(None, "a"), (1, "b"), (3, "c")])
        sql = (
            "select a.v, b.v from db.n1 a join db.n2 b on a.k = b.k "
            "order by a.v"
        )
        assert (
            session.sql(sql, execution_mode="batch").rows
            == session.sql(sql, execution_mode="row").rows
        )


def build_cached_system(fs=None) -> tuple[MaxsonSystem, list[str]]:
    """A system with a Fig-1-style table and both JSONPaths pre-cached."""
    session = Session(fs=fs or BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [
        (i, dumps({"hot": i % 5, "warm": f"w{i % 3}", "cold": i * 7}))
        for i in range(60)
    ]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    # A second file of irregular documents: the cache build, the stitched
    # read and the degraded fallback all project them.
    odd = irregular_documents({"hot": 4, "warm": "w1", "cold": 70})
    session.catalog.append_rows(
        "db", "t", list(enumerate(odd, start=60)), row_group_size=10
    )
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    system.cache_paths_directly(
        [
            PathKey("db", "t", "payload", "$.hot"),
            PathKey("db", "t", "payload", "$.warm"),
        ],
        budget_bytes=1 << 40,
    )
    queries = [
        # pure cached projection (cache-only read path)
        "select get_json_object(payload, '$.hot') as h from db.t",
        # cached + uncached path on the same column (stitch + raw parse)
        "select get_json_object(payload, '$.hot') as h, "
        "get_json_object(payload, '$.cold') as c from db.t",
        # cached path in a predicate, scalar column projected
        "select id from db.t where get_json_object(payload, '$.warm') = 'w1'",
        # aggregation over a cached path
        "select get_json_object(payload, '$.warm') as w, count(*) as n "
        "from db.t group by get_json_object(payload, '$.warm')",
    ]
    return system, queries


def run_both_modes(system: MaxsonSystem, sql: str):
    system.session.execution_mode = "batch"
    batch = system.sql(sql)
    system.session.execution_mode = "row"
    row = system.sql(sql)
    system.session.execution_mode = "batch"
    return batch, row


class TestMaxsonParity:
    def test_value_combiner_identical_across_paths(self):
        system, queries = build_cached_system()
        for sql in queries:
            baseline = system.baseline_sql(sql)
            batch, row = run_both_modes(system, sql)
            assert batch.rows == row.rows == baseline.rows, sql
            assert batch.metrics.cache_hits > 0

    def test_batch_cached_query_parses_nothing(self):
        system, queries = build_cached_system()
        system.session.execution_mode = "batch"
        result = system.sql(queries[0])
        assert result.metrics.parse_documents == 0
        assert result.metrics.cache_hits > 0


class TestFaultDifferential:
    """Batch scans under PR-2 fault profiles: degraded, never divergent."""

    def test_corrupt_cache_falls_back_per_split_in_batch_mode(self):
        faulty = FaultyFileSystem()
        system, queries = build_cached_system(fs=faulty)
        baselines = [system.baseline_sql(sql).rows for sql in queries]
        # Every cache read corrupt from here on; raw files stay intact.
        faulty.policy = FaultPolicy(corrupt_rate=1.0, seed=3)
        for sql, expected in zip(queries, baselines):
            batch, row = run_both_modes(system, sql)
            assert batch.rows == row.rows == expected, sql
        assert system.resilience.snapshot()["fallback_splits"] > 0
        assert system.resilience.snapshot()["corruption_events"] > 0

    def test_flaky_cache_reads_still_row_identical(self):
        faulty = FaultyFileSystem()
        system, queries = build_cached_system(fs=faulty)
        baselines = [system.baseline_sql(sql).rows for sql in queries]
        from repro.faults import CACHE_PATH_PREFIX

        faulty.policy = FaultPolicy(
            read_error_rate=0.5, seed=11, error_path_prefix=CACHE_PATH_PREFIX
        )
        for sql, expected in zip(queries, baselines):
            batch, row = run_both_modes(system, sql)
            assert batch.rows == row.rows == expected, sql
