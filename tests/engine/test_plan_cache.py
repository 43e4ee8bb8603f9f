"""Plan cache: recurring statements reuse their compiled plan, safely.

The cache is keyed on (SQL fingerprint, catalog version, modifier
tokens), so the dangerous direction is *staleness*: a cached plan must
stop matching the moment anything that influenced planning changes — a
DDL statement, appended data, a cache-generation swap, a registry
repair. These tests pin each invalidation edge, plus the LRU mechanics
and the bypass rules (tracing, unkeyed modifiers, capacity 0).
"""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session, plan_fingerprint
from repro.jsonlib import dumps
from repro.obs.trace import Tracer
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey


@pytest.fixture
def tiny(session: Session) -> Session:
    schema = Schema.of(("a", DataType.INT64), ("b", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    session.catalog.append_rows("db", "t", [(i, f"s{i % 3}") for i in range(12)])
    return session


class TestFingerprint:
    def test_whitespace_insensitive(self):
        assert plan_fingerprint("select  a\nfrom db.t") == plan_fingerprint(
            "select a from db.t"
        )

    def test_quoted_literals_keep_their_spacing(self):
        a = plan_fingerprint("select a from db.t where b = 'x  y'")
        b = plan_fingerprint("select a from db.t where b = 'x y'")
        assert a != b

    def test_case_folds_outside_literals(self):
        # keywords and identifiers fold (the planner resolves
        # identifiers case-insensitively, SparkSQL-style)...
        assert plan_fingerprint("SELECT A FROM db.t") == plan_fingerprint(
            "select a from db.t"
        )

    def test_case_inside_literals_is_data(self):
        # ...but string literals are data and keep their case
        assert plan_fingerprint(
            "select a from db.t where b = 'X'"
        ) != plan_fingerprint("select a from db.t where b = 'x'")

    def test_recased_statement_hits_plan_cache(self, tiny):
        tiny.sql("select a from db.t")
        tiny.sql("SELECT A FROM DB.T")
        stats = tiny.plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1


class TestPlanCacheHits:
    def test_repeat_statement_hits(self, tiny):
        first = tiny.sql("select a from db.t")
        second = tiny.sql("select a   from db.t")  # same fingerprint
        stats = tiny.plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert first.metrics.extra.get("plan_cache_misses") == 1
        assert second.metrics.extra.get("plan_cache_hits") == 1
        assert first.rows == second.rows

    def test_distinct_statements_miss(self, tiny):
        tiny.sql("select a from db.t")
        tiny.sql("select b from db.t")
        assert tiny.plan_cache_stats()["misses"] == 2

    def test_lru_eviction_at_capacity(self, tiny):
        tiny.configure(plan_cache_entries=2)
        tiny.sql("select a from db.t")
        tiny.sql("select b from db.t")
        tiny.sql("select a, b from db.t")  # evicts "select a from db.t"
        stats = tiny.plan_cache_stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1
        tiny.sql("select a from db.t")  # recompiles
        assert tiny.plan_cache_stats()["misses"] == 4

    def test_reconfigured_cache_stays_on_the_ledger(self, tiny):
        ledger = tiny.cache_ledger
        tiny.sql("select a from db.t")
        assert ledger.tier_bytes("plan") > 0
        tiny.configure(plan_cache_entries=8)  # the old cache's charge is released
        assert ledger.tier_bytes("plan") == 0
        tiny.sql("select a from db.t")  # a plan cached afterwards is charged
        assert ledger.tier_bytes("plan") > 0
        assert tiny.shrink_caches_to(0) > 0  # ... and the watchdog can evict it
        assert ledger.tier_bytes("plan") == 0
        assert tiny.plan_cache_stats()["entries"] == 0

    def test_capacity_zero_disables(self, tiny):
        tiny.configure(plan_cache_entries=0)
        tiny.sql("select a from db.t")
        tiny.sql("select a from db.t")
        stats = tiny.plan_cache_stats()
        assert stats == {
            "entries": 0,
            "capacity": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
        }

    def test_traced_queries_bypass(self, tiny):
        tiny.sql("select a from db.t", tracer=Tracer())
        stats = tiny.plan_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        # and a traced run never consumes a previously cached plan
        tiny.sql("select a from db.t")
        traced = tiny.sql("select a from db.t", tracer=Tracer())
        assert "plan_cache_hits" not in traced.metrics.extra

    def test_unkeyed_modifier_bypasses(self, tiny):
        class Tagger:  # no plan_cache_token(): may rewrite differently
            def modify(self, planned, state):
                return planned.physical

        tiny.add_plan_modifier(Tagger())
        tiny.sql("select a from db.t")
        tiny.sql("select a from db.t")
        stats = tiny.plan_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestPlanCacheInvalidation:
    def test_append_rows_changes_key(self, tiny):
        before = tiny.sql("select count(*) as n from db.t")
        tiny.catalog.append_rows("db", "t", [(99, "s0")])
        after = tiny.sql("select count(*) as n from db.t")
        assert tiny.plan_cache_stats()["hits"] == 0
        assert after.rows[0]["n"] == before.rows[0]["n"] + 1

    def test_ddl_changes_key(self, tiny):
        tiny.sql("select a from db.t")
        schema = Schema.of(("a", DataType.INT64))
        tiny.catalog.create_table("db", "u", schema)
        tiny.sql("select a from db.t")
        assert tiny.plan_cache_stats()["hits"] == 0

    def test_explicit_invalidate_clears_entries(self, tiny):
        tiny.sql("select a from db.t")
        assert tiny.plan_cache_stats()["entries"] == 1
        tiny.invalidate_plan_cache()
        stats = tiny.plan_cache_stats()
        assert stats["entries"] == 0 and stats["invalidations"] == 1

    def test_reconfigure_resets(self, tiny):
        tiny.sql("select a from db.t")
        tiny.configure(plan_cache_entries=8)
        stats = tiny.plan_cache_stats()
        assert stats["entries"] == 0 and stats["capacity"] == 8


def _cached_system(fs=None):
    session = Session(fs=fs or BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [(i, dumps({"hot": i % 5, "cold": i * 7})) for i in range(40)]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    keys = [PathKey("db", "t", "payload", "$.hot")]
    system.cache_paths_directly(keys, budget_bytes=1 << 40)
    return system, keys


class TestMaxsonStaleness:
    SQL = "select get_json_object(payload, '$.hot') as h from db.t"

    def test_override_equal_to_what_runs_keeps_caches_warm(self):
        """A server override asking for what the session already has is a
        no-op; one asking for something else rebuilds that tier alone."""
        from repro.server import MaxsonServer, ServerConfig

        system, _ = _cached_system()
        session, ledger = system.session, system.session.cache_ledger
        session.configure(result_cache_enabled=True)
        for _ in range(2):
            system.sql(self.SQL)

        def warm():
            entries = [
                stats()["entries"]
                for stats in (session.plan_cache_stats, session.result_cache_stats)
            ]
            return (*entries, ledger.tier_bytes("plan"), ledger.tier_bytes("result"))

        before = warm()
        assert before[:2] == (1, 1) and min(before) > 0
        same = ServerConfig(result_cache=True, plan_cache_entries=64)
        with MaxsonServer(system, same):
            assert warm() == before
        with MaxsonServer(system, ServerConfig(plan_cache_entries=8)):
            assert warm() == (0, 1, 0, before[3])

    def test_generation_swap_invalidates(self):
        """A plan cached against generation N references __g{N} cache
        tables; after a swap it must recompile, never fall back."""
        system, keys = _cached_system()
        first = system.sql(self.SQL)
        assert first.metrics.cache_hits > 0
        hit = system.sql(self.SQL)
        assert hit.metrics.extra.get("plan_cache_hits") == 1
        system.cache_paths_directly(keys, budget_bytes=1 << 40)  # swap
        after = system.sql(self.SQL)
        assert after.rows == first.rows
        # the stale plan never touched the retired table: no degraded
        # read, and the new generation served the cached column
        assert system.resilience.snapshot()["fallback_queries"] == 0
        assert after.metrics.cache_hits > 0

    def test_registry_repair_invalidates(self):
        """Refresh repairs an invalidated cache table in place; the plan
        compiled while the table was invalid must not be replayed."""
        system, keys = _cached_system()
        system.sql(self.SQL)
        system.session.catalog.append_rows(
            "db", "t", [(100, dumps({"hot": 1, "cold": 2}))]
        )
        stale = system.sql(self.SQL)  # marks cache invalid, parses raw
        assert stale.metrics.parse_documents > 0
        system.cacher.refresh(keys)
        repaired = system.sql(self.SQL)
        assert repaired.metrics.parse_documents == 0
        assert repaired.metrics.cache_hits > 0

    def test_plan_cache_stats_in_cache_summary(self):
        system, _ = _cached_system()
        system.sql(self.SQL)
        system.sql(self.SQL)
        summary = system.cache_summary()
        assert summary["plan_cache"]["hits"] >= 1
        assert summary["scan_workers"] == 1
