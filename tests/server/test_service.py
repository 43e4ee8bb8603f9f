"""Tests for MaxsonServer: execute/submit, ingest, status, lifecycle."""

import json
import time

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import DeadlineExceededError, QueryCancelledError, Session
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.server import MaxsonServer, ServerConfig
from repro.server.admission import AdmissionError
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

HOT_SQL = "select get_json_object(payload, '$.hot') as h from db.t"
COLD_SQL = "select get_json_object(payload, '$.cold') as c from db.t"

HOT_KEY = PathKey("db", "t", "payload", "$.hot")


def build_system(model="oracle", read_latency=0.0) -> MaxsonSystem:
    """60 rows in six files; with ``read_latency`` every file read
    stalls, so deadlines and drain cancellation fire mid-query."""
    fs = FaultyFileSystem(policy=FaultPolicy()) if read_latency else BlockFileSystem()
    session = Session(fs=fs)
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for start in range(0, 60, 10):
        rows = [
            (i, dumps({"hot": i % 5, "cold": f"c{i}", "big": "x" * 50}))
            for i in range(start, start + 10)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    if read_latency:
        fs.policy = FaultPolicy(read_latency_seconds=read_latency)
    config = MaxsonConfig(predictor=PredictorConfig(model=model))
    return MaxsonSystem(session=session, config=config)


@pytest.fixture
def server():
    with MaxsonServer(build_system(), ServerConfig(max_workers=4)) as srv:
        yield srv


class TestRequestPath:
    def test_execute_matches_baseline(self, server):
        baseline = server.system.baseline_sql(HOT_SQL)
        result = server.execute(HOT_SQL, day=0)
        assert result.rows == baseline.rows

    def test_submit_returns_future(self, server):
        future = server.submit(COLD_SQL, tenant="alpha", day=0)
        assert future.result().rows

    def test_failure_counted_and_raised(self, server):
        with pytest.raises(Exception):
            server.execute("select nope from db.missing", day=0)
        assert server.status().queries_failed == 1

    def test_execute_feeds_collector(self, server):
        server.execute(HOT_SQL, day=3)
        assert server.system.collector.count(HOT_KEY, 3) == 1

    def test_ingest_records_stats_event(self, server):
        server.ingest(5, (HOT_KEY, HOT_KEY))
        assert server.system.collector.count(HOT_KEY, 5) == 2
        assert server.status().stats_events_ingested == 1


class TestMaintenanceAndStatus:
    def test_midnight_cycle_swaps_generation(self, server):
        server.execute(HOT_SQL, day=0)
        server.execute(HOT_SQL, day=0)
        server.ingest(1, (HOT_KEY, HOT_KEY))
        server.run_midnight_cycle(day=1)
        assert server.system.generation == 1
        hot = server.execute(HOT_SQL, day=1)
        assert hot.metrics.parse_documents == 0
        assert hot.metrics.cache_hits > 0

    def test_status_snapshot_fields(self, server):
        server.execute(HOT_SQL, day=0)
        server.execute(HOT_SQL, day=0)
        server.ingest(1, (HOT_KEY, HOT_KEY))
        server.run_midnight_cycle(day=1)
        server.execute(HOT_SQL, day=1)
        status = server.status()
        assert status.queries_completed == 3
        assert status.qps > 0
        assert status.generation == 1
        assert status.cached_paths == 1
        assert status.cache_hits > 0
        assert 0.0 < status.cache_hit_ratio <= 1.0
        assert status.build_seconds > 0
        assert status.midnight_cycles == 0  # cycle ran directly, not via clock
        assert status.latency_p50_seconds > 0
        assert status.latency_p95_seconds >= status.latency_p50_seconds
        assert status.tenants == {"default": 3}

    def test_status_to_dict_is_json_safe(self, server):
        server.execute(COLD_SQL, day=0)
        payload = json.dumps(server.status().to_dict())
        assert "cache_hit_ratio" in payload

    def test_status_format_renders(self, server):
        server.execute(COLD_SQL, day=0)
        text = server.status().format()
        assert "Maxson server status" in text
        assert "hit_ratio" in text

    def test_scheduler_drives_cycles(self, server):
        server.execute(HOT_SQL, day=0)
        server.execute(HOT_SQL, day=0)
        server.ingest(1, (HOT_KEY, HOT_KEY))
        server.scheduler.advance_days(1)
        status = server.status()
        assert status.midnight_cycles == 1
        assert status.generation == 1


class TestLifecycle:
    def test_submit_after_shutdown_rejected(self):
        server = MaxsonServer(build_system(), ServerConfig(max_workers=2))
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.submit(HOT_SQL)

    def test_default_system(self):
        server = MaxsonServer()
        assert server.system is not None
        server.shutdown()


def _complete(server):
    assert server.execute(HOT_SQL, tenant="t").rows


def _fail(server):
    with pytest.raises(Exception):
        server.execute("select a from nodb.missing", tenant="t")


def _shed(server):
    server.admission.acquire("t")  # the tenant's only slot
    try:
        with pytest.raises(AdmissionError):
            server.execute(HOT_SQL, tenant="t")
    finally:
        server.admission.release("t")


def _exceed_deadline(server):
    with pytest.raises(DeadlineExceededError):
        server.execute(HOT_SQL, tenant="t", deadline_ms=15.0)


def _cancel(server):
    future = server.submit(HOT_SQL, tenant="t")
    time.sleep(0.015)  # let it get into execution
    server.shutdown(drain_timeout=0.005)
    with pytest.raises(QueryCancelledError):
        future.result(timeout=10)


class TestEveryOutcomeSettlesOnce:
    """The request path's invariant, per row of the outcome table: one
    ``system.queries`` row, one latency observation, one log event, and
    neither lease nor admission slot held afterwards."""

    @pytest.mark.parametrize(
        "status, event, scenario",
        [
            ("completed", "query", _complete),
            ("failed", "query_failed", _fail),
            ("shed", "query_shed", _shed),
            ("deadline_exceeded", "query_deadline_exceeded", _exceed_deadline),
            ("cancelled", "query_cancelled", _cancel),
        ],
    )
    def test_outcome(self, tmp_path, status, event, scenario):
        log = tmp_path / "server.ndjson"
        traces = tmp_path / "traces.jsonl"
        config = ServerConfig(
            max_workers=2,
            per_tenant_limit=1,
            admission_timeout_seconds=0.01,
            system_tables=True,
            trace_dir=str(tmp_path),
            log_file=str(log),
            log_all_queries=True,
        )
        server = MaxsonServer(build_system(read_latency=0.01), config)
        try:
            scenario(server)
        finally:
            server.shutdown()
        sql = server.system.session.sql
        rows = sql("SELECT query_id, status FROM system.queries").rows
        assert rows == [{"query_id": "q-1", "status": status}]
        snapshot = server.metrics_snapshot()
        assert snapshot["maxson_query_latency_seconds_count"]["{}"] == 1.0
        assert server.status().latency_max_seconds > 0
        assert snapshot["maxson_active_generation_leases"]["{}"] == 0.0
        assert server.admission.snapshot()["active"] == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert [
            e["event"] for e in events if e.get("query_id") == "q-1"
        ] == [event]
        # Whatever got as far as opening a span exports its (partial)
        # tree, to the sink and to system.spans; a shed never did.
        recorded = {r["name"] for r in sql("SELECT name FROM system.spans").rows}
        exported = {
            json.loads(line)["name"]
            for line in (traces.read_text() if traces.exists() else "").splitlines()
        }
        assert recorded == exported
        assert ("query" in exported) == (status != "shed")
