"""Integration tests for the MaxsonSystem facade (the midnight cycle)."""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey


def build_system(budget=10**9, strategy="score", model="oracle") -> MaxsonSystem:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [
        (i, dumps({"hot": i % 5, "cold": f"c{i}", "big": "x" * 50}))
        for i in range(60)
    ]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    config = MaxsonConfig(
        cache_budget_bytes=budget,
        selection_strategy=strategy,
        predictor=PredictorConfig(model=model),
    )
    return MaxsonSystem(session=session, config=config)


HOT_SQL = "select get_json_object(payload, '$.hot') as h from db.t"
COLD_SQL = "select get_json_object(payload, '$.cold') as c from db.t"


class TestDailyCycle:
    def test_oracle_cycle_caches_repeated_paths(self):
        system = build_system()
        # Day 0: hot path queried twice (MPJP), cold once.
        system.sql(HOT_SQL, day=0)
        system.sql(HOT_SQL, day=0)
        system.sql(COLD_SQL, day=0)
        # Oracle predictor needs day-1 ground truth: replay day 1 into the
        # collector before the midnight cycle for day 1.
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        report = system.run_midnight_cycle(day=1)
        cached = {sp.key.path for sp in report.selected}
        assert cached == {"$.hot"}
        assert system.current_day == 1

    def test_queries_after_cycle_hit_cache(self):
        system = build_system()
        system.sql(HOT_SQL, day=0)
        system.sql(HOT_SQL, day=0)
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.run_midnight_cycle(day=1)
        result = system.sql(HOT_SQL, day=1)
        assert result.metrics.parse_documents == 0
        assert result.metrics.cache_hits > 0

    def test_cycle_empties_previous_cache(self):
        system = build_system()
        system.cacher.populate([PathKey("db", "t", "payload", "$.cold")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.run_midnight_cycle(day=1)
        entries = {e.key.path for e in system.registry.entries()}
        assert "$.cold" not in entries

    def test_missing_tables_skipped(self):
        system = build_system()
        ghost = PathKey("nodb", "ghost", "payload", "$.x")
        system.collector.record_query(1, (ghost, ghost))
        report = system.run_midnight_cycle(day=1)
        assert report.skipped_missing_tables == 1


class TestBudgetAndStrategy:
    def test_zero_budget_caches_nothing(self):
        system = build_system(budget=0)
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        report = system.run_midnight_cycle(day=1)
        assert report.selected == []

    def test_tight_budget_prefers_high_score(self):
        system = build_system()
        keys = [
            PathKey("db", "t", "payload", "$.hot"),
            PathKey("db", "t", "payload", "$.big"),
        ]
        # hot is accessed by more queries -> higher O_j; also smaller.
        for _ in range(4):
            system.collector.record_query(0, (keys[0],))
        system.collector.record_query(0, tuple(keys))
        stats_hot = system.scoring.measure(keys[0])
        budget = stats_hot.estimated_total_bytes + 10
        report = system.cache_paths_directly(keys, budget_bytes=budget)
        assert [sp.key.path for sp in report.selected] == ["$.hot"]

    def test_random_strategy_within_budget(self):
        system = build_system(strategy="random")
        keys = [
            PathKey("db", "t", "payload", "$.hot"),
            PathKey("db", "t", "payload", "$.cold"),
            PathKey("db", "t", "payload", "$.big"),
        ]
        for k in keys:
            system.collector.record_query(0, (k, k))
        report = system.cache_paths_directly(keys, budget_bytes=10**9)
        assert len(report.selected) == 3  # everything fits

    def test_cache_summary(self):
        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        summary = system.cache_summary()
        assert summary["cached_paths"] == 1
        assert summary["cache_tables"] == 1
        assert summary["cache_bytes"] > 0

    def test_cache_summary_build_metrics(self):
        system = build_system()
        assert system.cache_summary()["build_seconds"] == 0.0
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        first = system.cache_summary()["build_seconds"]
        assert first > 0
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.cold")], budget_bytes=10**9
        )
        assert system.cache_summary()["build_seconds"] > first  # accumulates


class TestEfficacyByteWeights:
    def test_a_lost_table_costs_only_its_own_paths_their_weight(self):
        """One generation serves a cached path of a healthy table and a
        path of a table that is gone by the next midnight: the healthy
        path keeps its weight, the lost one weighs zero."""
        system = build_system()
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        system.catalog.create_table("db", "gone", schema)
        system.catalog.append_rows("db", "gone", [(0, dumps({"x": 1}))])
        hot = PathKey("db", "t", "payload", "$.hot")
        lost = PathKey("db", "gone", "payload", "$.x")
        system.cache_paths_directly([hot], budget_bytes=10**9)  # serves day 0
        system.collector.record_query(0, (hot, hot, lost, lost))
        system.catalog.drop_table("db", "gone")
        assert system._path_bytes({hot, lost}) == {
            hot: system.scoring.measure(hot).estimated_total_bytes
        }
        system.run_midnight_cycle(day=1)
        record = system.efficacy.latest()
        assert record.realized_paths == 2
        assert record.byte_weighted_hit_ratio == 1.0


class TestGenerationSwap:
    def test_cycle_increments_generation(self):
        system = build_system()
        assert system.generation == 0
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.run_midnight_cycle(day=1)
        assert system.generation == 1
        assert system.cache_summary()["generation"] == 1

    def test_old_generation_tables_dropped(self):
        from repro.core.cacher import CACHE_DATABASE

        system = build_system()
        for day in (1, 2):
            system.collector.record_planned(day, [("db", "t", "payload", "$.hot")])
            system.collector.record_planned(day, [("db", "t", "payload", "$.hot")])
        system.run_midnight_cycle(day=1)
        system.run_midnight_cycle(day=2)
        on_disk = {t.name for t in system.catalog.list_tables(CACHE_DATABASE)}
        assert on_disk == system.registry.cache_tables()
        assert len(on_disk) == 1  # only the live generation remains

    def test_modifier_follows_swapped_registry(self):
        system = build_system()
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.collector.record_planned(1, [("db", "t", "payload", "$.hot")])
        system.run_midnight_cycle(day=1)
        assert system.modifier.registry is system.registry
        assert system.cacher.registry is system.registry


class TestBaselineNesting:
    def test_back_to_back_baselines_restore_modifier(self):
        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        assert system.baseline_sql(HOT_SQL).metrics.parse_documents > 0
        system.baseline_sql(COLD_SQL)
        assert system.sql(HOT_SQL).metrics.parse_documents == 0

    def test_overlapping_baselines_keep_modifier_out(self):
        import threading

        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        entered = threading.Event()
        release = threading.Event()
        real_sql = system.session.sql

        def slow_sql(sql, tracer=None, deadline_ms=None, cancel_token=None,
                     modifiers=None, resolved=None):
            if "cold" in sql:
                entered.set()
                assert release.wait(10)
            return real_sql(sql, tracer, deadline_ms, cancel_token, modifiers, resolved)

        system.session.sql = slow_sql
        try:
            outer = threading.Thread(
                target=lambda: system.baseline_sql(COLD_SQL)
            )
            outer.start()
            assert entered.wait(10)
            # nested baseline while the outer one is still executing
            inner = system.baseline_sql(HOT_SQL)
            assert inner.metrics.parse_documents > 0
            # a query served meanwhile still runs through Maxson
            assert system.sql(HOT_SQL).metrics.parse_documents == 0
            release.set()
            outer.join(10)
        finally:
            system.session.sql = real_sql
        # modifier reinstalled exactly once the outermost baseline ends
        assert system.sql(HOT_SQL).metrics.parse_documents == 0

    def test_served_queries_read_the_cache_while_baselines_loop(self):
        import sys
        import threading

        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        stop = threading.Event()

        def baselines():
            while not stop.is_set():
                system.baseline_sql(HOT_SQL)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        looping = threading.Thread(target=baselines)
        looping.start()
        try:
            parsed = [system.sql(HOT_SQL).metrics.parse_documents for _ in range(50)]
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            looping.join(10)
        assert not looping.is_alive()
        assert parsed == [0] * 50


class TestBaselineToggle:
    def test_baseline_sql_ignores_cache(self):
        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        baseline = system.baseline_sql(HOT_SQL)
        assert baseline.metrics.parse_documents > 0
        cached = system.sql(HOT_SQL)
        assert cached.metrics.parse_documents == 0
        assert baseline.rows == cached.rows

    def test_modifier_restored_after_baseline(self):
        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        system.baseline_sql(HOT_SQL)
        # modifier back in place
        assert system.sql(HOT_SQL).metrics.parse_documents == 0

    def test_baseline_keeps_served_plans(self):
        system = build_system()
        system.cache_paths_directly(
            [PathKey("db", "t", "payload", "$.hot")], budget_bytes=10**9
        )
        system.sql(HOT_SQL)
        assert system.session.plan_cache_stats()["entries"] == 1
        assert system.baseline_sql(HOT_SQL).metrics.parse_documents > 0
        # the baseline's plan keys beside the served one, not over it
        assert system.session.plan_cache_stats()["entries"] == 2
        again = system.sql(HOT_SQL).metrics
        assert again.extra.get("plan_cache_hits") == 1
        assert again.parse_documents == 0

    def test_for_demo_constructor(self):
        system = MaxsonSystem.for_demo(rows_per_table=30)
        tables = system.catalog.list_tables("prod")
        assert len(tables) == 10
