"""Plan cache: recurring statements reuse their compiled plan, safely.

The cache is keyed on (canonical statement, catalog version, modifier
tokens), so the dangerous direction is *staleness*: a cached plan must
stop matching the moment anything that influenced planning changes — a
DDL statement, appended data, a cache-generation swap, a registry
repair. These tests pin each invalidation edge, plus the LRU mechanics
and the bypass rules (tracing, unkeyed modifiers, capacity 0).
"""

import pytest

from repro.engine import Session, SqlSyntaxError
from repro.engine.catalog import Catalog
from repro.jsonlib import dumps
from repro.obs.trace import Tracer
from repro.server import MaxsonServer, ServerConfig
from repro.storage import DataType, Schema

from reference_engine import reference_rows
from test_differential_matrix import build_system, comparable, one_per_plan_shape
import test_result_cache as near  # near-miss pairs, the cached Maxson system


@pytest.fixture
def tiny(session: Session) -> Session:
    schema = Schema.of(("a", DataType.INT64), ("b", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    session.catalog.append_rows("db", "t", [(i, f"s{i % 3}") for i in range(12)])
    return session


def shares_plan(session: Session, first: str, second: str) -> bool:
    """Whether ``second``, run right after ``first``, hit its plan."""
    session.sql(first)
    hits = session.plan_cache_stats()["hits"]
    session.sql(second)
    return session.plan_cache_stats()["hits"] == hits + 1


class TestFingerprint:
    """The plan key is the canonical statement (text, parameters, output
    names): spellings of one statement share a plan, data does not."""

    def test_whitespace_insensitive(self, tiny):
        assert shares_plan(tiny, "select a from db.t", "select  a\nfrom db.t")

    def test_quoted_literals_keep_their_spacing(self, tiny):
        where = "select a from db.t where b = "
        assert not shares_plan(tiny, where + "'x  y'", where + "'x y'")

    def test_case_folds_outside_literals(self, tiny):
        # keywords and identifiers fold (the planner resolves
        # identifiers case-insensitively, SparkSQL-style)...
        assert shares_plan(tiny, "select a from db.t", "SELECT A FROM db.t")

    def test_case_inside_literals_is_data(self, tiny):
        # ...but string literals are data and keep their case
        where = "select a from db.t where b = "
        assert not shares_plan(tiny, where + "'X'", where + "'x'")

    def test_recased_statement_hits_plan_cache(self, tiny):
        tiny.sql("select a from db.t")
        tiny.sql("SELECT A FROM DB.T")
        stats = tiny.plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_realiased_statements_keep_their_names(self, tiny):
        first = tiny.sql("select a as x, b from db.t where a < 3")
        second = tiny.sql("select a as y, b from db.t where a < 3")
        assert [list(first.rows[0]), list(second.rows[0])] == [["x", "b"], ["y", "b"]]
        assert tiny.plan_cache_stats()["hits"] == 0

    def test_near_miss_pairs_planned_back_to_back(self, request):
        """Each ``TestNearMissKeys`` pair planned back to back returns the
        reference rows (one per plan shape, all with ``--every-statement``)."""
        session, sqls = build_system().session, near.TestNearMissKeys.CORPUS
        if not request.config.getoption("--every-statement"):
            sqls = one_per_plan_shape(session, sqls)
        for sql in sqls:
            want = reference_rows(session, sql)
            pairs = [(hit(sql), want) for hit in near.NEAR_HITS.values()] + [
                (miss(sql), reference_rows(session, miss(sql)))
                for miss in near.NEAR_MISSES.values() if miss(sql) != sql
            ]
            for each, rows in [run for pair in pairs for run in ((sql, want), pair)]:
                assert comparable(sql, session.sql(each).rows) == comparable(sql, rows)
        assert session.plan_cache_stats()["hits"] > 0


#: Table II's Q5 shape, ad-hoc LIMIT: three extractions of two cached paths.
Q5_ADHOC = (
    "select id, get_json_object(payload, '$.hot') as h, "
    "get_json_object(payload, '$.warm') as w from db.t where id between 3 and 90 "
    "and get_json_object(payload, '$.warm') != 'w2' "
    "order by get_json_object(payload, '$.hot') desc limit 137"
)


class TestOneParse:
    """A miss through the server is parsed once (admission hint, result
    key and plan share the parse), a result-cache hit never; the Maxson
    rewrite reads a scanned table's mtime once (Algorithm 1, l. 16-19)."""

    def test_adhoc_miss_and_failure_parse_once_a_recurrence_never(self, parse_calls):
        bad = "select id from db.t where"
        with MaxsonServer(build_system(), ServerConfig(result_cache=True)) as server:
            first = server.submit(Q5_ADHOC).result(timeout=30)
            second = server.submit(Q5_ADHOC).result(timeout=30)
            with pytest.raises(SqlSyntaxError) as planned:
                server.system.session.compile(bad)  # the error a plan raises
            with pytest.raises(SqlSyntaxError) as served:
                server.submit(bad).result(timeout=30)
        assert first.metrics.extra["result_cache_admissions"] == 1
        assert second.metrics.extra["result_cache_hits"] == 1
        assert second.rows == first.rows and str(served.value) == str(planned.value)
        assert parse_calls == [Q5_ADHOC, bad, bad]  # compile's own, the served one

    def test_rewrite_reads_each_tables_mtime_once(self, monkeypatch):
        system, reads, real = build_system(), [], Catalog.modification_time
        count = lambda catalog, *table: reads.append(table) or real(catalog, *table)
        monkeypatch.setattr(Catalog, "modification_time", count)
        system.sql(Q5_ADHOC)
        assert system.modifier.last_report.hits == 3 and reads == [("db", "t")]


class TestPlanCacheHits:
    def test_repeat_statement_hits(self, tiny):
        first = tiny.sql("select a from db.t")
        second = tiny.sql("select a   from db.t")  # same canonical statement
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


class TestMaxsonStaleness:
    SQL = "select get_json_object(payload, '$.hot') as h from db.t"

    def test_override_equal_to_what_runs_keeps_caches_warm(self):
        """A server override asking for what the session already has is a
        no-op; one asking for something else rebuilds that tier alone."""
        from repro.server import MaxsonServer, ServerConfig

        system, _ = near.cached_result_system(result_cache=False)
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
        system, keys = near.cached_result_system(result_cache=False)
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
        system, keys = near.cached_result_system(result_cache=False)
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
        system, _ = near.cached_result_system(result_cache=False)
        system.sql(self.SQL)
        system.sql(self.SQL)
        summary = system.cache_summary()
        assert summary["plan_cache"]["hits"] >= 1
        assert summary["scan_workers"] == 1
