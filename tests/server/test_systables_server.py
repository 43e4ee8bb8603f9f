"""System tables through the server: every outcome leaves exactly one
``system.queries`` row, and the SQL-visible counts reconcile with the
replay report and the Prometheus counters — on both worker backends.

This is the paper's observability acceptance gate: the engine must be
able to answer, via its own SQL path, the same accounting questions the
external scrape answers, with no drift between the three ledgers.
"""

import json

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import DeadlineExceededError, Session
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.server import (
    MaxsonServer,
    ServerConfig,
    build_replay_workload,
    replay,
)
from repro.server.admission import AdmissionError
from repro.server.replay import ReplayRequest
from repro.storage import DataType, Schema
from repro.workload import build_queries, load_tables

SLOW_SQL = "select get_json_object(payload, '$.a') as a from db.t"


def make_replay_server(backend: str, **overrides) -> tuple[MaxsonServer, dict]:
    system = MaxsonSystem(
        config=MaxsonConfig(predictor=PredictorConfig(model="always"))
    )
    factories = load_tables(system.catalog, rows_per_table=60, days=2)
    queries = build_queries(factories)
    config = ServerConfig(
        max_workers=4,
        system_tables=True,
        scan_workers=2,
        worker_backend=backend,
        **overrides,
    )
    return MaxsonServer(system, config), queries


def build_slow_system(read_latency: float = 0.01, rows: int = 40) -> MaxsonSystem:
    """Latency-injected scans: deadlines fire deterministically."""
    session = Session(fs=FaultyFileSystem(policy=FaultPolicy()))
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for start in range(0, rows, 10):
        data = [
            (i, dumps({"a": i % 9, "pad": "x" * 40}))
            for i in range(start, min(start + 10, rows))
        ]
        session.catalog.append_rows("db", "t", data, row_group_size=10)
    session.fs.policy = FaultPolicy(read_latency_seconds=read_latency)
    return MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )


def breakdown(server: MaxsonServer) -> dict:
    rows = server.system.session.sql(
        "SELECT status, count(*) AS n FROM system.queries GROUP BY status"
    ).rows
    return {row["status"]: row["n"] for row in rows}


def prom_sum(text: str, name: str) -> float:
    """Sum every sample of ``maxson_<name>`` across its label sets."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if head.split("{")[0] == f"maxson_{name}":
            total += float(value)
    return total


class TestReplayReconciliation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_queries_rows_reconcile_with_report_and_metrics(self, backend):
        server, queries = make_replay_server(backend)
        try:
            requests = build_replay_workload(
                queries, days=2, per_day=8, tenants=2, seed=3
            )
            report = replay(server, requests)
            accounted = (
                report.completed
                + report.failed
                + report.shed
                + report.deadline_exceeded
                + report.cancelled
            )
            counts = breakdown(server)
            assert sum(counts.values()) == accounted == report.requests
            assert counts.get("completed", 0) == report.completed
            text = server.metrics_text()
            assert prom_sum(text, "queries_total") == report.completed
            assert prom_sum(text, "queries_failed_total") == report.failed
            assert prom_sum(text, "telemetry_events_total") >= report.requests
        finally:
            server.shutdown()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_span_rows_recorded_identically_per_backend(self, backend, tmp_path):
        """Traced queries land span rows attributed to their backend —
        the cross-process propagation leg, observed through SQL."""
        server, queries = make_replay_server(
            backend, trace_dir=str(tmp_path / "traces")
        )
        try:
            requests = build_replay_workload(
                queries, days=1, per_day=6, tenants=2, seed=3
            )
            replay(server, requests)
            rows = server.system.session.sql(
                "SELECT backend, count(*) AS n FROM system.spans "
                "GROUP BY backend"
            ).rows
            counts = {row["backend"]: row["n"] for row in rows}
            assert counts.get(backend, 0) > 0
            split_rows = server.system.session.sql(
                "SELECT name, worker FROM system.spans"
            ).rows
            splits = [r for r in split_rows if r["name"] == "split"]
            assert splits
            if backend == "process":
                assert all(
                    str(r["worker"]).startswith("pid-") for r in splits
                )
        finally:
            server.shutdown()


class TestMixedOutcomes:
    def test_every_outcome_leaves_one_row(self):
        system = build_slow_system()
        config = ServerConfig(
            max_workers=2,
            per_tenant_limit=1,
            admission_timeout_seconds=0.05,
            system_tables=True,
        )
        with MaxsonServer(system, config) as server:
            # Deadline first: with no service history the admission
            # estimator can't pre-shed, so the query starts and is then
            # cooperatively cancelled mid-scan.
            with pytest.raises(DeadlineExceededError):
                server.execute(SLOW_SQL, deadline_ms=15.0)
            for _ in range(3):
                assert server.execute(SLOW_SQL).rows
            with pytest.raises(Exception):
                server.execute("select a from nodb.missing")
            # Occupy blocked-tenant's only slot, then time out behind it.
            server.admission.acquire("tenant-00")
            try:
                with pytest.raises(AdmissionError):
                    server.execute(SLOW_SQL, tenant="tenant-00")
            finally:
                server.admission.release("tenant-00")
            counts = breakdown(server)
            assert counts == {
                "completed": 3,
                "failed": 1,
                "deadline_exceeded": 1,
                "shed": 1,
            }
            text = server.metrics_text()
            assert prom_sum(text, "queries_total") == 3
            assert prom_sum(text, "queries_failed_total") == 1
            assert prom_sum(text, "deadline_exceeded_total") == 1
            assert prom_sum(text, "shed_total") >= 1

    def test_failed_query_incident_renders(self):
        system = build_slow_system()
        config = ServerConfig(max_workers=2, system_tables=True)
        with MaxsonServer(system, config) as server:
            with pytest.raises(Exception):
                server.execute("select a from nodb.missing", tenant="t-9")
            rows = server.system.session.sql(
                "SELECT kind, payload FROM system.incidents"
            ).rows
            failed = [r for r in rows if r["kind"] == "failed"]
            assert len(failed) == 1
            doc = json.loads(failed[0]["payload"])
            assert doc["kind"] == "failed"
            assert doc["tenant"] == "t-9"
            assert "nodb.missing" in doc["sql"]
            assert doc["error"]
            # The flight record carries enough state to diagnose cold:
            # breaker + admission + watchdog snapshots are dicts, and
            # the (unplannable) statement still produced a record.
            assert isinstance(doc["breaker"], dict)
            assert isinstance(doc["admission"], dict)

    def test_slow_query_incident_has_plan_and_span_tree(self, tmp_path):
        system = build_slow_system()
        config = ServerConfig(
            max_workers=2,
            system_tables=True,
            slow_query_seconds=0.0001,
            trace_dir=str(tmp_path),
        )
        with MaxsonServer(system, config) as server:
            assert server.execute(SLOW_SQL).rows
            rows = server.system.session.sql(
                "SELECT kind, payload FROM system.incidents"
            ).rows
            slow = [r for r in rows if r["kind"] == "slow_query"]
            assert slow
            doc = json.loads(slow[0]["payload"])
            assert "ScanExec" in doc["plan"] or "Scan" in doc["plan"]
            assert doc["fingerprint"]
            assert doc["params_hash"]
            tree = doc["span_tree"]
            assert tree["name"] == "query"
            assert "execute" in {child["name"] for child in tree["children"]}

    def test_shedding_a_recurring_statement_parses_nothing(self, monkeypatch):
        """Shedding must stay cheaper than serving: the flight record of
        a shed takes the statement out of the canonicalisation memo and
        holds no plan (a shed request was never planned)."""
        from repro.engine import resultcache, session

        parses = []

        def count_parses(module, real):
            monkeypatch.setattr(
                module, "parse_sql", lambda sql: parses.append(sql) or real(sql)
            )

        config = ServerConfig(
            max_workers=2,
            per_tenant_limit=1,
            admission_timeout_seconds=0.001,
            system_tables=True,
        )
        with MaxsonServer(build_slow_system(read_latency=0.0), config) as server:
            assert server.execute(SLOW_SQL, tenant="t").rows
            server.admission.acquire("t")  # every further request is shed
            with pytest.raises(AdmissionError):
                server.execute(SLOW_SQL, tenant="t")  # first shed fills the memo
            count_parses(resultcache, resultcache.parse_sql)
            count_parses(session, session.parse_sql)
            for _ in range(5):
                with pytest.raises(AdmissionError):
                    server.execute(SLOW_SQL, tenant="t")
            assert parses == []
            server.admission.release("t")
            sheds = [
                json.loads(r["payload"])
                for r in server.system.session.sql(
                    "SELECT kind, payload FROM system.incidents"
                ).rows
                if r["kind"] == "shed"
            ]
            assert len(sheds) == 6
            assert all("plan" not in doc and doc["fingerprint"] for doc in sheds)
            assert len({doc["fingerprint"] for doc in sheds}) == 1


class TestDisabledByDefault:
    def test_no_system_tables_without_flag(self):
        system = build_slow_system()
        with MaxsonServer(system, ServerConfig(max_workers=2)) as server:
            assert server.telemetry is None
            assert server.execute(SLOW_SQL).rows
            assert not server.system.catalog.table_exists("system", "queries")
