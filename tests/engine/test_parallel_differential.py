"""Serial vs parallel differentials: morsel workers must change nothing.

``scan_workers=1`` runs the exact morsel code inline, so a 4-worker run
differs only in which thread executes each split. These tests assert
the strong form of that claim: identical rows (including order) and
identical count-valued metrics for every query family, equal to the
reference interpreter's rows, with the Value Combiner stitching cached
columns, and under deterministic fault injection (where per-split fallback decisions
must stay split-local regardless of which worker hits them).
"""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

from irregular_documents import irregular_documents, with_irregular_sales
from reference_engine import reference_rows

#: Metrics that must be bit-identical serial vs parallel (timing fields
#: are excluded — wall/read seconds legitimately differ).
COUNT_METRICS = (
    "rows_scanned",
    "rows_output",
    "bytes_read",
    "row_groups_total",
    "row_groups_skipped",
    "parse_documents",
    "parse_bytes",
    "cache_hits",
    "cache_misses",
    "shared_parse_hits",
    "duplicate_extractions_eliminated",
    "doc_cache_evictions",
)

#: One query per engine feature family (shared by the differential suites).
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
    "select min(get_json_object(sale_logs, '$.price')) as lo, "
    "max(get_json_object(sale_logs, '$.price')) as hi from mydb.T",
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


def assert_metric_parity(serial, parallel, sql):
    s, p = serial.metrics, parallel.metrics
    for name in COUNT_METRICS:
        assert getattr(s, name) == getattr(p, name), (sql, name)


class TestSerialParallelParity:
    """Same session, same query, 1 vs 4 workers: rows and counters."""

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rows_and_metrics_identical(self, sales_session, sql):
        sales_session.scan_workers = 1
        serial = sales_session.sql(sql)
        sales_session.scan_workers = 4
        parallel = sales_session.sql(sql)
        # including order
        assert serial.rows == parallel.rows == reference_rows(sales_session, sql)
        assert_metric_parity(serial, parallel, sql)


def build_system(
    fs=None,
    scan_workers: int = 1,
    worker_backend: str = "thread",
    result_cache: bool = False,
):
    """One cached Maxson system over a 7-split table."""
    session = Session(
        fs=fs or BlockFileSystem(),
        scan_workers=scan_workers,
        worker_backend=worker_backend,
        result_cache_enabled=result_cache,
    )
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for day in range(6):
        rows = [
            (
                day * 20 + i,
                dumps(
                    {
                        "hot": (day * 20 + i) % 5,
                        "warm": f"w{(day * 20 + i) % 3}",
                        "cold": (day * 20 + i) * 7,
                    }
                ),
            )
            for i in range(20)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    # A seventh split of irregular documents (duplicate keys, escaped
    # key spellings, malformed text): every backend projects them.
    odd = irregular_documents({"hot": 4, "warm": "w1", "cold": 70})
    session.catalog.append_rows(
        "db", "t", list(enumerate(odd, start=120)), row_group_size=10
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
    return system


MAXSON_QUERIES = [
    "select get_json_object(payload, '$.hot') as h from db.t",
    "select get_json_object(payload, '$.hot') as h, "
    "get_json_object(payload, '$.cold') as c from db.t",
    "select id from db.t where get_json_object(payload, '$.warm') = 'w1'",
    "select get_json_object(payload, '$.warm') as w, count(*) as n "
    "from db.t group by get_json_object(payload, '$.warm')",
]

#: cache_summary keys that legitimately differ between two systems
#: (timings and the knob under test itself).
SUMMARY_EXCLUDE = {
    "build_seconds",
    "scan_workers",
    "worker_backend",
    "plan_cache",
}


def summary_view(system):
    return {
        k: v
        for k, v in system.cache_summary().items()
        if k not in SUMMARY_EXCLUDE
    }


class TestMaxsonParallelParity:
    def test_combiner_stitching_identical(self):
        system = build_system()
        for sql in MAXSON_QUERIES:
            system.session.scan_workers = 1
            serial = system.sql(sql)
            system.session.scan_workers = 4
            parallel = system.sql(sql)
            expected = reference_rows(system.session, sql)
            assert serial.rows == parallel.rows == expected, sql
            assert_metric_parity(serial, parallel, sql)
            assert parallel.metrics.cache_hits > 0

    def test_cache_summary_identical_across_worker_counts(self):
        """Two independently built systems, identical query sequence,
        differing only in worker count: the whole efficacy/resilience
        accounting must agree."""
        serial = build_system(scan_workers=1)
        parallel = build_system(scan_workers=4)
        for sql in MAXSON_QUERIES:
            assert serial.sql(sql).rows == parallel.sql(sql).rows, sql
        assert summary_view(serial) == summary_view(parallel)
        assert (
            serial.resilience.snapshot() == parallel.resilience.snapshot()
        )


def run_fault_matrix(policy: FaultPolicy, configurations):
    """One seeded fault profile on each ``(backend, workers)``: rows,
    cache summary and resilience counters must equal the first one's."""
    outputs = []
    for backend, workers in configurations:
        faulty = FaultyFileSystem()
        system = build_system(
            fs=faulty, scan_workers=workers, worker_backend=backend
        )
        faulty.policy = policy
        try:
            rows = [system.sql(sql).rows for sql in MAXSON_QUERIES]
        finally:
            system.session.close_worker_pools()
        outputs.append((rows, system))
    serial_rows, serial = outputs[0]
    for (rows, system), key in zip(outputs, configurations):
        assert rows == serial_rows, key
        assert summary_view(system) == summary_view(serial), key
        assert system.resilience.snapshot() == serial.resilience.snapshot(), key
    return serial


class TestFaultParallelParity:
    """Deterministic fault profiles: degraded identically, never divergent."""

    PAIR = [("thread", 1), ("thread", 4)]

    def test_all_cache_reads_corrupt(self):
        system = run_fault_matrix(FaultPolicy(corrupt_rate=1.0, seed=3), self.PAIR)
        assert system.resilience.snapshot()["fallback_splits"] > 0

    def test_cache_prefix_read_errors(self):
        policy = FaultPolicy(
            read_error_rate=1.0, seed=7, error_path_prefix=CACHE_PATH_PREFIX
        )
        system = run_fault_matrix(policy, self.PAIR)
        assert system.resilience.snapshot()["fallback_queries"] > 0


class TestThreeRoutesOneAnswer:
    """An engine knob set by ``Session(...)`` keyword, by
    ``Session.configure`` or by a ``ServerConfig`` / ``ShardSpec.server``
    override: one set of rules, one set of rows."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"scan_workers": 0},
            {"worker_backend": "fork"},
            {"plan_cache_entries": -1},
            {"result_cache_entries": -1},
            {"cache_budget_bytes": -1},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_every_route_rejects_the_same_values(self, bad):
        from repro.cluster import ShardSpec, build_shard_server
        from repro.server import ServerConfig

        messages = set()
        routes = [lambda: Session(**bad), lambda: Session().configure(**bad)]
        if "result_cache_entries" not in bad:  # the knob no server overrides
            routes.append(lambda: ServerConfig(**bad))
            routes.append(lambda: build_shard_server(ShardSpec(server=bad)))
        for route in routes:
            with pytest.raises(ValueError) as info:
                route()
            messages.add(str(info.value))
        assert len(messages) == 1, messages

    @pytest.mark.parametrize("route", ["keyword", "configure", "override"])
    def test_good_values_give_identical_rows(self, route):
        from repro.server import MaxsonServer, ServerConfig

        serial = [build_system().sql(sql).rows for sql in MAXSON_QUERIES]
        for backend in ("thread", "process"):
            knobs = {"scan_workers": 4, "worker_backend": backend}
            system = build_system(**(knobs if route == "keyword" else {}))
            if route == "configure":
                system.session.configure(**knobs)
            config = ServerConfig(**(knobs if route == "override" else {}))
            with MaxsonServer(system, config):  # shutdown closes the worker pool
                session = system.session
                assert (session.scan_workers, session.worker_backend) == (4, backend)
                assert [system.sql(q).rows for q in MAXSON_QUERIES] == serial
