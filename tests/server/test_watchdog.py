"""Memory-pressure watchdog: shrink ordering, pressure shedding, and
the probable-hit exemption."""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.jsonlib import dumps
from repro.server import MaxsonServer, MemoryWatchdog, QueryShedError, ServerConfig
from repro.storage import BlockFileSystem, DataType, Schema

SQL = "select get_json_object(payload, '$.a') as a from db.t"
OTHER_SQL = "select get_json_object(payload, '$.b') as b from db.t"


def build_session() -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [(i, dumps({"a": i % 7, "b": f"x{i}"})) for i in range(50)]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    return session


def warm_caches(session: Session) -> None:
    """Put bytes in the result + plan tiers (two recurrences each)."""
    session.configure(result_cache_enabled=True)
    for _ in range(2):
        session.sql(SQL)
        session.sql(OTHER_SQL)


class TestMemoryWatchdog:
    def test_under_limit_is_a_no_op(self):
        session = build_session()
        warm_caches(session)
        watchdog = MemoryWatchdog(session, soft_limit_bytes=1 << 30)
        assert watchdog.check() is False
        snapshot = watchdog.snapshot()
        assert snapshot["shrinks"] == 0
        assert snapshot["under_pressure"] is False

    def test_over_limit_shrinks_result_then_plan_tiers(self):
        session = build_session()
        warm_caches(session)
        ledger = session.cache_ledger
        assert ledger.tier_bytes("result") > 0
        assert ledger.tier_bytes("plan") > 0
        document = ledger.tier_bytes("document")
        # A limit below the cache tiers but above the (unshrinkable)
        # document tier: the shrink pass must fully resolve pressure.
        watchdog = MemoryWatchdog(session, soft_limit_bytes=document + 1)
        still_over = watchdog.check()
        assert still_over is False
        assert ledger.tier_bytes("result") == 0
        assert ledger.tier_bytes("plan") == 0
        snapshot = watchdog.snapshot()
        assert snapshot["shrinks"] == 1
        assert snapshot["bytes_reclaimed"] > 0
        assert snapshot["pressure_events"] == 0

    def test_pressure_persists_when_document_tier_alone_exceeds_limit(self):
        session = build_session()
        warm_caches(session)
        # The document tier is transient per-query state the watchdog
        # cannot evict; pin it above the limit to model irreducible load.
        session.cache_ledger.set_tier("document", 10_000)
        watchdog = MemoryWatchdog(session, soft_limit_bytes=1_000)
        assert watchdog.check() is True
        snapshot = watchdog.snapshot()
        assert snapshot["under_pressure"] is True
        assert snapshot["pressure_events"] == 1
        # The shrinkable tiers were still drained first.
        assert session.cache_ledger.tier_bytes("result") == 0
        assert session.cache_ledger.tier_bytes("plan") == 0

    def test_invalid_configuration_rejected(self):
        session = build_session()
        with pytest.raises(ValueError):
            MemoryWatchdog(session, soft_limit_bytes=-1)
        with pytest.raises(ValueError):
            MemoryWatchdog(session, soft_limit_bytes=10, shrink_headroom=0.0)


class TestServerUnderPressure:
    def build_server(self) -> MaxsonServer:
        system = MaxsonSystem(
            session=build_session(),
            config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
        )
        return MaxsonServer(
            system,
            ServerConfig(max_workers=2, result_cache=True),
        )

    def test_cold_queries_shed_under_persistent_pressure(self):
        with self.build_server() as server:
            server.execute(OTHER_SQL)
            # Pin the (unshrinkable) document tier above the limit so
            # pressure survives the shrink pass.
            server.system.session.cache_ledger.set_tier("document", 10_000)
            server.watchdog = MemoryWatchdog(
                server.system.session, soft_limit_bytes=1_000
            )
            with pytest.raises(QueryShedError) as info:
                server.execute(SQL)
            assert info.value.retry_after_seconds > 0
            status = server.status()
            assert status.shed_breakdown == {"memory_pressure": 1}
            assert status.watchdog["under_pressure"] is True
            assert "memory_pressure 1" in server.metrics_text()

    def test_probable_result_cache_hits_exempt_from_pressure_shed(self):
        class AlwaysPressure:
            """Watchdog stub: pressure persists, nothing is evicted —
            isolates the server's shed/exempt policy from shrink
            mechanics (a real shrink would evict the cached result and
            make the exemption unobservable)."""

            def check(self):
                return True

            def snapshot(self):
                return {
                    "soft_limit_bytes": 1,
                    "shrinks": 0,
                    "bytes_reclaimed": 0,
                    "pressure_events": 1,
                    "under_pressure": True,
                }

        with self.build_server() as server:
            server.execute(SQL)
            server.execute(SQL)  # second run: admitted to the result cache
            assert server.system.session.probable_result_cache_hit(SQL)
            server.watchdog = AlwaysPressure()
            # Cold query: shed. Probable hit: admitted and served.
            with pytest.raises(QueryShedError):
                server.execute(OTHER_SQL)
            assert server.execute(SQL).rows
            status = server.status()
            assert status.shed_breakdown == {"memory_pressure": 1}
            assert status.queries_completed == 3

    def test_breaker_never_touched_by_watchdog(self):
        with self.build_server() as server:
            server.execute(SQL)
            server.system.session.cache_ledger.set_tier("document", 10_000)
            server.watchdog = MemoryWatchdog(
                server.system.session, soft_limit_bytes=1_000
            )
            for _ in range(3):
                with pytest.raises(QueryShedError):
                    server.execute(OTHER_SQL)
            assert server.system.breaker.snapshot() == {
                "quarantined": [],
                "half_open": [],
            }

    def test_config_wires_watchdog(self):
        system = MaxsonSystem(
            session=build_session(),
            config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
        )
        config = ServerConfig(max_workers=2, memory_soft_limit_bytes=1 << 30)
        with MaxsonServer(system, config) as server:
            assert server.watchdog is not None
            server.execute(SQL)
            status = server.status()
            assert status.watchdog["soft_limit_bytes"] == 1 << 30
            assert status.watchdog["under_pressure"] is False
