"""Differential tests: the engine must agree with the reference, always.

Every query family the engine supports runs through the engine and
through ``tests/reference_engine.py`` — a row interpreter over the
logical plan that shares only scalar kernels with it — and must produce
exactly the same rows in the same order. The same property is then
asserted on the Maxson-modified plan (Value Combiner stitching cached
columns) and under fault profiles, where scans must still fall back
split-by-split and degrade rather than diverge. Generated statements on
every backend, tier and entry point are the cells of
``tests/test_differential_matrix.py``.
"""

import pytest

from repro.faults import FaultyFileSystem, parse_fault_profile
from repro.storage import DataType, Schema

from reference_engine import reference_rows
from test_differential_matrix import build_system
from test_parallel_differential import CORRUPT, MAXSON_QUERIES, QUERIES

# sales_session: conftest's, plus a partition of irregular documents
from test_parallel_differential import sales_session  # noqa: F401


class TestRowBatchParity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_batch_rows_identical_to_row_interpreter(self, sales_session, sql):
        assert sales_session.sql(sql).rows == reference_rows(sales_session, sql)

    def test_join_and_null_keys_parity(self, session):
        schema = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))
        session.catalog.create_table("db", "n1", schema)
        session.catalog.create_table("db", "n2", schema)
        session.catalog.append_rows("db", "n1", [(None, "x"), (1, "y"), (2, "z")])
        session.catalog.append_rows("db", "n2", [(None, "a"), (1, "b"), (3, "c")])
        sql = "select a.v, b.v from db.n1 a join db.n2 b on a.k = b.k order by a.v"
        assert session.sql(sql).rows == reference_rows(session, sql)


class TestMaxsonParity:
    def test_value_combiner_identical_across_paths(self):
        system = build_system()
        for sql in MAXSON_QUERIES:
            expected = reference_rows(system.session, sql)
            assert system.baseline_sql(sql).rows == expected, sql
            cached = system.sql(sql)
            assert cached.rows == expected, sql
            assert cached.metrics.cache_hits > 0

    def test_batch_cached_query_parses_nothing(self, matrix):
        result = matrix.world("serial").system.sql(MAXSON_QUERIES[0])
        assert result.metrics.parse_documents == 0
        assert result.metrics.cache_hits > 0

    def test_degraded_split_equals_its_cache_file(
        self, matrix, sales_session, assert_fallback_equals_build
    ):
        """Over the 7-split table (one split of irregular documents) and
        the sale-logs table whose irregular members also change type."""
        from repro.core import MaxsonSystem
        from repro.workload import PathKey

        assert_fallback_equals_build(matrix.world("serial").system, "db", "t")
        system = MaxsonSystem(session=sales_session)
        names = ("item_id", "item_name", "sale_count", "turnover", "price", "ghost")
        system.cache_paths_directly(
            [PathKey("mydb", "T", "sale_logs", f"$.{name}") for name in names],
            budget_bytes=1 << 40,
        )
        assert_fallback_equals_build(system, "mydb", "T")


class TestFaultDifferential:
    """Scans under fault profiles: degraded, never divergent."""

    def run_under(self, profile: str):
        faulty = FaultyFileSystem()
        system = build_system(fs=faulty)
        expected = [reference_rows(system.session, sql) for sql in MAXSON_QUERIES]
        faulty.policy = parse_fault_profile(profile)  # cache reads only
        for sql, rows in zip(MAXSON_QUERIES, expected):
            assert system.sql(sql).rows == rows, sql
        return system.resilience.snapshot()

    def test_corrupt_cache_falls_back_per_split_in_batch_mode(self):
        counters = self.run_under(CORRUPT)
        assert counters["fallback_splits"] > 0
        assert counters["corruption_events"] > 0

    def test_flaky_cache_reads_still_row_identical(self):
        self.run_under("read_error=0.5,error_prefix=/warehouse/maxson_cache,seed=11")
