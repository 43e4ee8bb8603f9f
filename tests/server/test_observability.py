"""Server observability: percentiles, Prometheus metrics, traces, logs."""

import json
import re
import time
from pathlib import Path

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import QueryCancelledError, Session
from repro.jsonlib import dumps
from repro.obs.promlint import validate_text
from repro.server import MaxsonServer, ServerConfig
from repro.server.status import percentile
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

HOT_SQL = "select get_json_object(payload, '$.hot') as h from db.t"
COLD_SQL = "select get_json_object(payload, '$.cold') as c from db.t"
HOT_KEY = PathKey("db", "t", "payload", "$.hot")
PROVEN_SQL = "select count(*) as n from db.t where id >= 0 and id < 100"


def build_system(model="oracle") -> MaxsonSystem:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [
        (i, dumps({"hot": i % 5, "cold": f"c{i}", "big": "x" * 50}))
        for i in range(60)
    ]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    config = MaxsonConfig(predictor=PredictorConfig(model=model))
    return MaxsonSystem(session=session, config=config)


class TestPercentile:
    """Nearest-rank must use ceil: int(f*n) over-reported small samples."""

    def test_median_of_four_is_second_value(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_median_of_odd_sample_is_middle(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_p95_of_hundred(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0

    def test_extremes_clamped(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_single_element(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0


@pytest.fixture
def server():
    with MaxsonServer(build_system(), ServerConfig(max_workers=4)) as srv:
        yield srv


def run_cached_day(server):
    """Day 0 traffic + midnight so day 1 queries hit the cache."""
    server.execute(HOT_SQL, day=0)
    server.execute(HOT_SQL, day=0)
    server.ingest(1, (HOT_KEY, HOT_KEY))
    server.run_midnight_cycle(day=1)
    server.execute(HOT_SQL, day=1)


class TestPrometheusExport:
    def test_exposition_is_lint_clean(self, server):
        run_cached_day(server)
        text = server.metrics_text()
        assert validate_text(text) == []

    def test_core_series_present_and_counted(self, server):
        run_cached_day(server)
        server.execute(COLD_SQL, tenant="alpha", day=1)
        text = server.metrics_text()
        assert 'maxson_queries_total{tenant="default"} 3' in text
        assert 'maxson_queries_total{tenant="alpha"} 1' in text
        assert "maxson_query_latency_seconds_count 4" in text
        assert "maxson_query_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "maxson_cache_generation 1" in text
        assert "maxson_cached_paths 1" in text
        assert "maxson_cache_hits_total" in text

    def test_failures_counted(self, server):
        with pytest.raises(Exception):
            server.execute("select nope from db.missing", day=0)
        assert "maxson_queries_failed_total 1" in server.metrics_text()

    def test_efficacy_gauges_after_two_cycles(self, server):
        run_cached_day(server)
        server.ingest(2, (HOT_KEY, HOT_KEY))
        server.run_midnight_cycle(day=2)  # retires + scores generation 1
        text = server.metrics_text()
        assert 'maxson_generation_precision{generation="1"} 1' in text
        assert (
            'maxson_generation_byte_weighted_hit_ratio{generation="1"}' in text
        )
        assert validate_text(text) == []

    def test_snapshot_mirrors_exposition(self, server):
        run_cached_day(server)
        snap = json.loads(json.dumps(server.metrics_snapshot()))
        assert snap["maxson_queries_total"]['{tenant="default"}'] == 3.0
        assert snap["maxson_query_latency_seconds_count"]["{}"] == 3.0


@pytest.fixture(scope="module")
def scrapes():
    """Two scripted servers and what a scrape of each returns.

    ``cycles``: a cached day, then a second midnight that retires and
    scores generation 1. ``held`` / ``final``: one server with the result
    cache, the watchdog and system tables on, scraped once while a
    request waits for its tenant's only slot and a lease is out, and once
    at the end. ``store`` is the telemetry store's own snapshot at the
    final scrape — the cumulative source the ``telemetry_*`` series mirror.
    """
    with MaxsonServer(build_system(), ServerConfig(max_workers=2)) as server:
        run_cached_day(server)
        server.ingest(2, (HOT_KEY, HOT_KEY))
        server.run_midnight_cycle(day=2)
        # The ``id`` statistics of all six row groups prove the range.
        assert server.execute(PROVEN_SQL, day=2).metrics.row_groups_proven == 6
        out = {"cycles": server.metrics_snapshot()}
        out["names"] = set(server.metrics.names())
    config = ServerConfig(
        max_workers=2,
        per_tenant_limit=1,
        admission_timeout_seconds=5.0,
        system_tables=True,
        result_cache=True,
        memory_soft_limit_bytes=10**9,
        telemetry_budget_bytes=1024,
        telemetry_segment_bytes=256,
    )
    with MaxsonServer(build_system(), config) as server:
        session = server.system.session
        server.execute(HOT_SQL, day=0)  # result cache: miss, admitted
        server.execute(HOT_SQL, day=0)  # hit
        session.configure(cache_budget_bytes=1)
        server.execute(COLD_SQL, day=0)  # miss, rejected: no byte fits
        session.configure(cache_budget_bytes=None)
        server.admission.acquire("default")
        waiter = server.submit(HOT_SQL, day=0)
        lease = server.generation_guard.acquire()
        give_up = time.monotonic() + 5.0
        while not server.admission.snapshot()["waiting"]:
            assert time.monotonic() < give_up, "the waiter never queued"
            time.sleep(0.001)
        out["held"] = server.metrics_snapshot()
        server.generation_guard.release(lease)
        server.admission.release("default")
        assert waiter.result(timeout=10).rows  # hit
        real_sql = server.system.sql

        def cancelled_on_arrival(sql, **kwargs):
            kwargs["cancel_token"].cancel("scripted")
            return real_sql(sql, **kwargs)

        server.system.sql = cancelled_on_arrival
        with pytest.raises(QueryCancelledError):
            server.execute(HOT_SQL, day=0)
        del server.system.sql  # back to the class's method
        server.watchdog.soft_limit_bytes = 1  # next check shrinks every tier
        server.execute(HOT_SQL, day=0)  # its entry was evicted: miss, admitted
        server.watchdog.soft_limit_bytes = 10**9
        out["final"] = server.metrics_snapshot()
        out["store"] = server.telemetry.snapshot()
    assert out["store"]["segments_rotated"] > 0  # the script does rotate
    return out


class TestEverySeries:
    """No telemetry nothing reads: each series the other tests never
    name is asserted to the value its script must produce, and README
    "Observability" lists exactly the series the server exports."""

    @pytest.mark.parametrize(
        "series, labels, scrape, expected",
        [
            ("generation_recall", '{generation="1"}', "cycles", 1.0),
            ("stats_events_total", "{}", "cycles", 2.0),
            ("admission_queue_depth", "{}", "held", 1.0),
            ("active_generation_leases", "{}", "held", 1.0),
            ("shm_live_bytes", "{}", "final", 0.0),  # thread backend
            ("result_cache_hits_total", "{}", "final", 2.0),
            ("result_cache_misses_total", "{}", "final", 3.0),
            ("result_cache_admissions_total", "{}", "final", 2.0),
            ("result_cache_rejections_total", "{}", "final", 1.0),
            ("result_cache_evictions_total", "{}", "final", 1.0),
            ("watchdog_shrinks_total", "{}", "final", 1.0),
            ("queries_cancelled_total", "{}", "final", 1.0),
            ("telemetry_segments", "{}", "final", "segments"),
            ("telemetry_segments_rotated_total", "{}", "final", "segments_rotated"),
            ("telemetry_events_dropped_total", "{}", "final", "events_dropped"),
            ("row_groups_proven_total", "{}", "cycles", 6),
            ("cache_files_adopted_total", "{}", "cycles", 1),  # midnight 2's one file
        ],
    )
    def test_scripted_value(self, scrapes, series, labels, scrape, expected):
        if isinstance(expected, str):
            expected = scrapes["store"][expected]
        assert scrapes[scrape][f"maxson_{series}"][labels] == expected

    def test_readme_lists_exactly_the_exported_series(self, scrapes):
        readme = (Path(__file__).parents[2] / "README.md").read_text()
        listed = set(re.findall(r"^\| `(maxson_[a-z_]+)[`{]", readme, re.M))
        assert listed == scrapes["names"]


class TestStatusObservability:
    def test_status_carries_efficacy_records(self, server):
        run_cached_day(server)
        server.ingest(2, (HOT_KEY, HOT_KEY))
        server.run_midnight_cycle(day=2)
        status = server.status()
        assert len(status.cache_efficacy) == 1
        record = status.cache_efficacy[-1]
        assert record["generation"] == 1
        assert record["precision"] == 1.0
        assert record["recall"] == 1.0
        formatted = status.format()
        assert "efficacy:" in formatted and "gen 1" in formatted
        json.dumps(status.to_dict())  # stays JSON-safe

    def test_slow_queries_in_status(self):
        config = ServerConfig(max_workers=2, slow_query_seconds=1e-9)
        with MaxsonServer(build_system(), config) as server:
            server.execute(HOT_SQL, day=0)
            status = server.status()
            assert status.slow_queries == 1
            assert "slow queries" in status.format()


class TestTracesAndLogs:
    def test_trace_dir_collects_query_and_midnight_spans(self, tmp_path):
        config = ServerConfig(max_workers=2, trace_dir=str(tmp_path))
        with MaxsonServer(build_system(), config) as server:
            run_cached_day(server)
            status = server.status()
        lines = [
            json.loads(l)
            for l in (tmp_path / "traces.jsonl").read_text().splitlines()
        ]
        names = {l["name"] for l in lines}
        assert {"query", "scan", "project"} <= names
        assert {"midnight", "collect", "predict", "score", "build", "swap"} <= names
        # The score span says what the stage had to chew through: two
        # day-0 queries of one shape, one path measured for the first
        # time from the table's 60 (< sample size) documents.
        (score,) = [l for l in lines if l["name"] == "score"]
        assert score["attributes"] == {
            "history_records": 2,
            "distinct_shapes": 1,
            "paths_measured": 1,
            "documents_sampled": 60,
            "scored": 1,
            "selected": 1,
        }
        query_ids = {l.get("query_id") for l in lines if "query_id" in l}
        assert query_ids == {"q-1", "q-2", "q-3"}
        assert status.observability["trace"]["spans_written"] == len(lines)

    def test_midnight_report_carries_scoring_workload(self, server):
        server.execute(HOT_SQL, day=0)
        server.execute(HOT_SQL, day=0)
        server.ingest(1, (HOT_KEY, HOT_KEY))
        first = server.run_midnight_cycle(day=1)
        assert (first.history_records, first.distinct_shapes) == (2, 1)
        assert (first.paths_measured, first.documents_sampled) == (1, 60)
        # Next midnight: the window also holds day 1's other shape, and
        # the unchanged table is served from the memo — nothing re-parsed.
        second = server.run_midnight_cycle(day=2)
        assert (second.history_records, second.distinct_shapes) == (3, 2)
        assert (second.paths_measured, second.documents_sampled) == (0, 0)

    def test_structured_log_file(self, tmp_path):
        log = tmp_path / "server.ndjson"
        config = ServerConfig(
            max_workers=2, log_file=str(log), log_all_queries=True
        )
        with MaxsonServer(build_system(), config) as server:
            server.execute(HOT_SQL, tenant="alpha", day=0)
            server.run_midnight_cycle(day=1)
        events = [json.loads(l) for l in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "server_started"
        assert kinds[-1] == "server_stopped"
        assert "query" in kinds
        assert "midnight_cycle" in kinds
        query = next(e for e in events if e["event"] == "query")
        assert query["query_id"] == "q-1"
        assert query["tenant"] == "alpha"
        assert "seconds" in query

    def test_explain_analyze_through_server(self, server):
        report = server.explain_analyze(HOT_SQL, tenant="alpha")
        assert report.startswith("EXPLAIN ANALYZE")
        assert "scan" in report.lower()
        assert "metrics: read=" in report
