"""Result-cache-on vs -off differentials: caching must change nothing.

The strongest correctness statement for the result cache is that it is
invisible in the answers: an identical query stream against identical
data returns bit-identical rows (values *and* order) whether results
are served from cache or re-executed — and the rows the reference
interpreter derives — across morsel parallelism and deterministic fault
profiles (where degraded answers are never admitted, so the cached
stream can never go stale-by-fault either). Generated statements and
their near misses are the ``result`` cells of
``tests/test_differential_matrix.py``.
"""

import pytest

from repro.engine import Session
from repro.faults import FaultyFileSystem, parse_fault_profile

from reference_engine import reference_rows
from test_differential_matrix import build_system
from test_parallel_differential import CORRUPT, READ_ERRORS

# sales_session: conftest's, plus a partition of irregular documents
from test_parallel_differential import sales_session  # noqa: F401

#: A recurring trace: every statement runs twice, several statements are
#: semantic recurrences of earlier ones (recased, realiased, reordered
#: predicates) or near misses of them (ORDER BY/LIMIT over a cached
#: projection).
TRACE = [
    "select mall_id, date from mydb.T",
    "SELECT  mall_id , date FROM mydb.T",
    "select mall_id as m, date as d from mydb.T",
    "select * from mydb.T limit 7",
    "select date from mydb.T where date = '20190102'",
    "select date from mydb.T where '20190102' = date",
    "select get_json_object(sale_logs, '$.item_name') as name from mydb.T",
    "select get_json_object(sale_logs, '$.turnover') as t from mydb.T "
    "where get_json_object(sale_logs, '$.turnover') > 900",
    "select count(*) as n from mydb.T",
    "select date, count(*) as n from mydb.T group by date",
    "select mall_id, date from mydb.T order by date desc limit 5",
    "select count(*) as n from mydb.T where date = '29990101'",
]


def run_trace(sql_fn) -> list:
    out = []
    for _ in range(2):  # the second pass recurs entirely
        for sql in TRACE:
            out.append(sql_fn(sql))
    return out


class TestSessionDifferential:
    @pytest.mark.parametrize("against", ["batch", "row"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_on_off_rows_identical(self, sales_session, against, workers):
        """The cached stream against the uncached engine ("batch") and
        against the reference row interpreter ("row")."""
        sales_session.scan_workers = workers
        if against == "row":
            baseline = run_trace(lambda sql: reference_rows(sales_session, sql))
        else:
            baseline = run_trace(lambda sql: sales_session.sql(sql).rows)
        cached = Session(
            fs=sales_session.fs,
            catalog=sales_session.catalog,
            result_cache_enabled=True,
        )
        cached.scan_workers = workers
        served = run_trace(lambda sql: cached.sql(sql).rows)
        assert served == baseline  # values and order, every statement
        stats = cached.result_cache_stats()
        assert stats["hits"] > 0  # the cache actually served recurrences


MAXSON_TRACE = [
    "select get_json_object(payload, '$.hot') as h from db.t",
    "SELECT get_json_object(payload, '$.hot') AS hh FROM db.t",
    "select id from db.t where get_json_object(payload, '$.warm') = 'w1'",
    "select get_json_object(payload, '$.warm') as w, count(*) as n "
    "from db.t group by get_json_object(payload, '$.warm')",
    "select id, get_json_object(payload, '$.hot') as h from db.t "
    "order by id desc limit 9",
]


class TestMaxsonDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_on_off_identical_through_cached_scans(self, workers):
        baseline = build_system(scan_workers=workers)
        cached = build_system(scan_workers=workers)
        cached.session.configure(result_cache_enabled=True)
        for _ in range(2):
            for sql in MAXSON_TRACE:
                assert cached.sql(sql).rows == baseline.sql(sql).rows, sql
        stats = cached.session.result_cache_stats()
        assert stats["hits"] > 0

    @pytest.mark.parametrize(
        "profile",
        [CORRUPT, READ_ERRORS],
        ids=["corrupt-cache-reads", "cache-read-errors"],
    )
    def test_on_off_identical_under_faults(self, profile):
        results = {}
        for result_cache in (False, True):
            faulty = FaultyFileSystem()
            system = build_system(fs=faulty)
            system.session.configure(result_cache_enabled=result_cache)
            faulty.policy = parse_fault_profile(profile)
            rows = []
            for _ in range(2):
                rows.extend(system.sql(sql).rows for sql in MAXSON_TRACE)
            results[result_cache] = (rows, system)
        (baseline_rows, _), (cached_rows, cached) = results[False], results[True]
        assert cached_rows == baseline_rows
        # degraded executions were excluded from admission...
        assert cached.resilience.snapshot()["fallback_splits"] > 0
        stats = cached.session.result_cache_stats()
        degraded = [
            sql
            for sql in MAXSON_TRACE
            if "get_json_object(payload, '$.hot')" in sql
        ]
        assert degraded  # the profile really targets cached reads
        # ...so anything served from the cache came from a clean run
        assert stats["admissions"] + stats["rejections"] <= 2 * len(MAXSON_TRACE)
