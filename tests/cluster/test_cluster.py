"""Cluster integration: differential equivalence, shed propagation,
shard-aware audit, crash supervision, aggregated observability.

The differential suite's contract: a cluster answers **bit-identically**
to a single server over the same deterministic warehouse — same rows, in
the same order — and accounts sheds the same way; sharding may only
change *where* a query runs. Generated statements through the router
are the router cells of ``tests/test_differential_matrix.py``.
"""

import json
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterRouter,
    ShardCrashError,
    ShardSpec,
    build_shard_server,
)
from repro.cluster.replay import build_replay_workload, replay_cluster
from repro.cluster.rpc import ShardConnectionError
from repro.cluster.shard import spec_queries
from repro.jsonlib import get_json_object
from repro.obs.promlint import validate_text
from repro.server.admission import QueryShedError

from irregular_documents import irregular_documents
from reference_engine import reference_rows

SPEC = ShardSpec(
    rows_per_table=40,
    days=2,
    server={"max_workers": 4, "system_tables": True},
)


@pytest.fixture(scope="module")
def cluster():
    with ClusterRouter(2, spec=SPEC) as router:
        yield router


@pytest.fixture(scope="module")
def twin():
    """The single-process twin over the identical warehouse."""
    system, server = build_shard_server(SPEC)
    yield system, server
    server.shutdown(wait=False)


@pytest.fixture(scope="module")
def queries():
    return spec_queries(SPEC)


IRREGULAR_BASE = {"hot": 4, "warm": "w1", "cold": 70}


def literal_query(text: str, paths) -> tuple[str, list[dict]]:
    """A statement projecting ``paths`` out of the string literal ``text``
    and the rows it must return."""
    calls = ", ".join(
        f"get_json_object('{text}', '{path}') AS c{i}"
        for i, path in enumerate(paths)
    )
    row = {f"c{i}": get_json_object(text, p) for i, p in enumerate(paths)}
    return f"SELECT {calls} FROM prod.t_q7 LIMIT 3", [row] * 3


class TestDifferential:
    def test_rows_and_order_bit_identical(self, cluster, twin, queries):
        system, server = twin
        for query in queries.values():
            expected = server.execute(query.sql, tenant="t-diff")
            got = cluster.execute(query.sql, tenant="t-diff")
            assert got["rows"] == expected.rows, query.query_id
            assert expected.rows == reference_rows(system.session, query.sql)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_engine_overrides_in_the_spec_bit_identical(
        self, twin, queries, backend
    ):
        """``ShardSpec.server`` is a shard's only route to the engine
        knobs: they reach its session, and change no row."""
        overrides = {"scan_workers": 4, "worker_backend": backend}
        system, server = build_shard_server(
            replace(SPEC, server={**SPEC.server, **overrides})
        )
        with server:
            session = system.session
            assert (session.scan_workers, session.worker_backend) == (4, backend)
            for query in queries.values():
                got = server.execute(query.sql, tenant="t-diff")
                expected = twin[1].execute(query.sql, tenant="t-diff")
                assert got.rows == expected.rows, query.query_id

    def test_irregular_documents_bit_identical(self, cluster, twin):
        """The warehouse a ``ShardSpec`` generates holds only regular
        documents, so irregular ones (duplicate keys, escaped key
        spellings, malformed text) ride in as string literals: inside a
        shard the batch path projects them like any column value."""
        _, server = twin
        for text in irregular_documents(IRREGULAR_BASE, vary_types=True):
            sql, rows = literal_query(text, ("$.hot", "$.warm", "$.hot.x"))
            expected = server.execute(sql, tenant="t-odd")
            got = cluster.execute(sql, tenant="t-odd")
            assert got["rows"] == expected.rows == rows, text[:80]

    def test_replay_accounting_matches_single_server(
        self, cluster, twin, queries
    ):
        from repro.server.replay import replay

        requests = build_replay_workload(
            queries, days=2, per_day=6, tenants=3, seed=5
        )
        _, server = twin
        single = replay(server, requests)
        clustered = replay_cluster(cluster, requests)
        assert clustered.completed == single.completed == len(requests)
        assert (clustered.failed, clustered.shed) == (
            single.failed,
            single.shed,
        ) == (0, 0)
        assert clustered.crash_failed == 0
        assert sum(clustered.per_shard_completed.values()) == len(requests)

    def test_routing_is_sticky_per_tenant_table(self, cluster):
        sql = "SELECT count(*) AS n FROM prod.t_q3"
        shards = {
            cluster.execute(sql, tenant="t-sticky")["shard"]
            for _ in range(3)
        }
        assert len(shards) == 1

    def test_tenants_spread_across_shards(self, cluster, queries):
        shards = {
            cluster.shard_of(query.sql, tenant=f"tenant-{i:02d}")
            for i in range(8)
            for query in queries.values()
        }
        assert shards == {0, 1}


#: One document per lane kind a reply body has, NULs and a lone surrogate
#: included; ``true`` and ``1`` must come back as themselves.
LANE_DOCUMENT = (
    '{"nz":-0.0,"max":1e308,"big":123456789012345678901234567890,'
    '"yes":true,"one":1,"empty":"","nul":"a\\u0000b","lone":"\\ud800",'
    '"obj":{"k":[1,{"z":null}],"f":1.0}}'
)


class TestResultCacheDifferential:
    """The same differential with the result cache on in both: a *hit*
    crosses the wire as the entry's stored frame, and must still read
    bit-identically — types and the sign of zero, hence ``repr``."""

    SPEC = replace(SPEC, server={**SPEC.server, "result_cache": True})

    @pytest.fixture(scope="class")
    def pair(self):
        _, server = build_shard_server(self.SPEC)
        with ClusterRouter(1, spec=self.SPEC) as router, server:
            yield router, server

    @staticmethod
    def run(pair, sql, hits=(0, 1, 1)):
        router, server = pair
        for want in hits:
            expected = server.execute(sql, tenant="t-rc")
            got = router.execute(sql, tenant="t-rc")
            assert repr(got["rows"]) == repr(expected.rows), sql
            assert expected.metrics.extra.get("result_cache_hits", 0) == want
            assert got["metrics"]["result_cache_hits"] == want, sql
        return got["rows"]

    def test_miss_hit_hit_bit_identical(self, pair, queries):
        wire = as_json = 0
        for query in queries.values():
            rows = self.run(pair, query.sql)
            assert rows == reference_rows(pair[1].system.session, query.sql)
            hit = pair[1].execute(query.sql, tenant="t-rc")
            wire += len(json.dumps(list(hit.frame()[0]))) + len(hit.frame()[2])
            as_json += len(json.dumps(rows, separators=(",", ":")))
        assert wire < 0.9 * as_json  # names + lane bytes against JSON rows

    def test_recurrence_variants_hit_under_the_callers_names(self, pair, queries):
        sql = queries["Q8"].sql
        self.run(pair, sql, hits=(1,))  # warm since the test above
        renamed = self.run(pair, sql.replace(" as v", " as w"), hits=(1, 1))
        assert list(renamed[0]) == ["id", "w0", "w1", "w2", "w3", "w4"]
        recased = sql.replace("select ", "SELECT ").replace(" from ", "\nFROM ")
        assert self.run(pair, recased, hits=(1,)) != renamed
        # A LIMIT on top of a cached statement is a statement of its own.
        limited = self.run(pair, queries["Q1"].sql + " LIMIT 5")
        assert limited == self.run(pair, queries["Q1"].sql, hits=(1,))[:5]
        assert self.run(pair, "SELECT id FROM prod.t_q7 WHERE id < 0") == []

    def test_every_lane_kind_bit_identical(self, pair):
        lanes = [f"$.{name}" for name in json.loads(LANE_DOCUMENT)]
        sql, rows = literal_query(LANE_DOCUMENT, lanes)
        assert rows[0]["c1"] == 1e308 and rows[0]["c7"] == "\ud800"
        assert repr(self.run(pair, sql)) == repr(rows)
        for text in irregular_documents(IRREGULAR_BASE, vary_types=True):
            sql, rows = literal_query(text, ("$.hot", "$.warm", "$.hot.x"))
            assert repr(self.run(pair, sql)) == repr(rows), text[:80]


class TestShedPropagation:
    def test_deadline_shed_keeps_retry_after_and_reason(self, cluster):
        """Satellite #1: the typed shed crosses the router unchanged."""
        sql = "SELECT count(*) AS n FROM prod.t_q2"
        with pytest.raises(QueryShedError) as info:
            cluster.execute(sql, tenant="t-shed", deadline_ms=1e-4)
        assert info.value.retry_after_seconds > 0.0
        assert "deadline" in str(info.value)

    def test_shed_is_counted_not_failed(self, cluster, queries):
        requests = build_replay_workload(
            queries, days=1, per_day=4, tenants=1, seed=9
        )
        report = replay_cluster(cluster, requests, deadline_ms=1e-4)
        assert report.shed == len(requests)
        assert report.failed == 0 and report.completed == 0


class TestShardAwareAudit:
    def test_system_queries_sums_across_shards(self, cluster, queries):
        """Satellite #2: the audit reconciles against *summed* per-shard
        system.queries rows, and the sum equals the per-shard parts."""
        audit = cluster.audit_system_queries()
        assert set(audit["per_shard"]) == {0, 1}
        for status, total in audit["totals"].items():
            assert total == sum(
                by_status.get(status, 0)
                for by_status in audit["per_shard"].values()
            )
        assert audit["total_rows"] == sum(audit["totals"].values())
        assert audit["totals"].get("completed", 0) > 0
        assert audit["totals"].get("shed", 0) > 0  # the shed leg above


class TestMetadataCache:
    def test_hot_path_serves_from_coordinator(self, cluster):
        sql = "SELECT count(*) AS n FROM prod.t_q4"
        cluster.execute(sql, tenant="t-meta")  # warm
        cluster.metacache.reset_stats()
        for _ in range(5):
            cluster.execute(sql, tenant="t-meta")
        snap = cluster.metacache.snapshot()
        assert snap["hits"] == 5 and snap["misses"] == 0

    def test_midnight_swap_invalidates(self, cluster):
        sql = "SELECT count(*) AS n FROM prod.t_q6"
        cluster.execute(sql, tenant="t-gen")  # cache the schema
        before = cluster.metacache.invalidations
        cluster.run_midnight(day=7)
        cluster.execute(sql, tenant="t-gen")
        assert cluster.metacache.invalidations > before


class TestObservability:
    def test_status_aggregates_and_labels_shards(self, cluster):
        status = cluster.status()
        assert status["shards"] == 2
        assert set(status["per_shard"]) == {0, 1}
        assert status["cluster"]["queries_completed"] == sum(
            s["queries_completed"] for s in status["per_shard"].values()
        )
        assert status["cluster"]["queries_shed"] == sum(
            s["queries_shed"] for s in status["per_shard"].values()
        )

    def test_exposition_is_promlint_clean_with_shard_labels(self, cluster):
        text = cluster.metrics_text()
        assert validate_text(text, max_series=4000) == []
        assert 'shard="0"' in text and 'shard="1"' in text
        assert "maxson_metadata_cache_hits_total" in text
        assert "maxson_router_requests_total" in text


class TestCrashSupervision:
    def test_crash_fails_in_flight_then_respawns(self):
        import time

        # Latency-armed reads keep the victim query genuinely in flight
        # when the crash lands.
        spec = ShardSpec(
            rows_per_table=30,
            days=2,
            read_latency_seconds=0.2,
            server={"max_workers": 2},
        )
        with ClusterRouter(1, spec=spec) as router:
            sql = "SELECT count(*) AS n FROM prod.t_q2"
            expected = router.execute(sql, tenant="t0")["rows"]
            pid_before = router._shards[0].pid
            future = router.submit(sql, tenant="t0")
            time.sleep(0.1)  # the execute RPC is on the wire now
            try:
                router._shards[0].conn.call("crash", timeout=5.0)
            except ShardConnectionError:
                pass
            with pytest.raises(ShardCrashError):
                future.result(timeout=30)
            # The supervisor respawns shard 0 in place: same ring, new pid,
            # and the next query answers identically.
            after = router.execute(sql, tenant="t0")
            assert after["rows"] == expected
            assert router._shards[0].pid != pid_before
            assert router._respawns >= 1
            status = router.status()
            assert status["router"]["crash_failed"] >= 1

    def test_respawn_disabled_raises_for_followups(self):
        spec = ShardSpec(rows_per_table=30, days=1, server={"max_workers": 2})
        router = ClusterRouter(1, spec=spec, respawn=False)
        try:
            sql = "SELECT count(*) AS n FROM prod.t_q2"
            router.execute(sql, tenant="t0")
            try:
                router._shards[0].conn.call("crash", timeout=5.0)
            except ShardConnectionError:
                pass
            with pytest.raises(ShardCrashError):
                router.execute(sql, tenant="t0")
        finally:
            router.shutdown()

    def test_shutdown_kills_and_reaps_a_shard_that_ignores_it(self, monkeypatch):
        """A stopped shard answers no shutdown RPC and acts on no
        SIGTERM; ``shutdown`` must still leave no process behind."""
        import os
        import signal

        from repro.cluster import router as router_module

        monkeypatch.setattr(router_module, "_SHUTDOWN_GRACE", 0.3)
        monkeypatch.setattr(router_module, "_KILL_GRACE", 0.3)
        spec = ShardSpec(
            rows_per_table=10, days=1, table_ids=["Q7"], server={"max_workers": 1}
        )
        router = ClusterRouter(1, spec=spec, respawn=False)
        process = router._shards[0].process
        try:
            os.kill(process.pid, signal.SIGSTOP)
            router.shutdown()
            assert not process.is_alive()
            assert process.exitcode == -signal.SIGKILL  # joined: reaped
        finally:
            if process.is_alive():
                process.kill()
                process.join(timeout=10)


class TestFaultDifferential:
    def test_transient_faults_keep_answers_identical(self):
        """Fault profile leg: seeded transient read errors inside the
        shards; retries absorb them and rows still match the fault-free
        twin bit for bit."""
        faulty = ShardSpec(
            rows_per_table=30,
            days=1,
            fault_profile="read_error=0.05,seed=3",
            server={"max_workers": 2, "max_query_retries": 8},
        )
        clean = ShardSpec(
            rows_per_table=30, days=1, server={"max_workers": 1}
        )
        system, server = build_shard_server(clean)
        try:
            queries = spec_queries(clean)
            with ClusterRouter(2, spec=faulty) as router:
                for query_id in ("Q1", "Q2", "Q5"):
                    query = queries[query_id]
                    expected = server.execute(query.sql, tenant="t-f")
                    got = router.execute(query.sql, tenant="t-f")
                    assert got["rows"] == expected.rows, query_id
        finally:
            server.shutdown(wait=False)
