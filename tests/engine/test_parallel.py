"""Unit tests for the morsel scheduler (repro.engine.parallel).

The differential suite proves serial == parallel end to end; these
tests pin the pieces individually — what parallelize_plan absorbs into
a pipeline, what it leaves alone, edge cases around empty inputs, and
the per-split observability contract.
"""

import pytest

from repro.engine import (
    AggregateExec,
    FilterExec,
    LimitExec,
    MorselAggregateExec,
    MorselPipelineExec,
    ProjectExec,
    ScanExec,
    Session,
    SortExec,
    parallelize_plan,
)
from repro.engine.rawfilter import SparserPlanModifier, SparserPrefilterExec
from repro.storage import DataType, Schema


@pytest.fixture
def multi(session: Session) -> Session:
    return load_multi(session)


def load_multi(session: Session) -> Session:
    schema = Schema.of(("a", DataType.INT64), ("b", DataType.STRING))
    session.catalog.create_table("db", "m", schema)
    for day in range(4):
        session.catalog.append_rows(
            "db", "m", [(day * 10 + i, f"s{i % 3}") for i in range(10)]
        )
    return session


def plan_for(session, sql):
    planned = session.compile(sql)
    return parallelize_plan(planned.physical)


class TestParallelizePlan:
    def test_scan_becomes_pipeline(self, multi):
        plan = plan_for(multi, "select a from db.m")
        assert isinstance(plan, MorselPipelineExec)
        assert isinstance(plan.scan, ScanExec)
        assert [type(stage) for stage in plan.stages] == [ProjectExec]

    def test_filter_and_project_absorbed(self, multi):
        plan = plan_for(multi, "select a from db.m where b = 's1'")
        assert isinstance(plan, MorselPipelineExec)
        assert [type(stage) for stage in plan.stages] == [FilterExec, ProjectExec]
        # absorbed nodes point at the operator below them, down to the scan
        assert plan.stages[1].child is plan.stages[0]
        assert plan.stages[0].child is plan.scan

    def test_aggregate_lowered_to_partials(self, multi):
        plan = plan_for(
            multi, "select b, count(*) as n from db.m group by b"
        )
        assert isinstance(plan, MorselAggregateExec)
        assert isinstance(plan.pipeline, MorselPipelineExec)

    def test_sort_and_limit_stay_above(self, multi):
        plan = plan_for(multi, "select a from db.m order by a desc limit 3")
        assert isinstance(plan, LimitExec)
        assert isinstance(plan.child, SortExec)
        assert isinstance(plan.child.child, MorselPipelineExec)

    def test_aggregate_over_sort_not_lowered(self, multi):
        # an AggregateExec whose child is not a bare pipeline keeps the
        # classic operator (partials need per-split row streams)
        plan = plan_for(
            multi,
            "select b, count(*) as n from db.m group by b "
            "having count(*) > 100",
        )
        # HAVING compiles to a filter above the aggregate
        assert isinstance(plan, FilterExec)
        assert isinstance(plan.child, (MorselAggregateExec, AggregateExec))

    def test_prefilter_absorbed_and_repointed(self, multi):
        multi.add_plan_modifier(SparserPlanModifier(json_columns={"b"}))
        planned = multi.compile(
            "select a from db.m where get_json_object(b, '$.k') = 'v'"
        )
        state = multi._make_state()
        for modifier in multi._plan_modifiers:
            planned.physical = modifier.modify(planned, state)
        plan = parallelize_plan(planned.physical)
        assert isinstance(plan, MorselPipelineExec)
        assert isinstance(plan.stages[0], SparserPrefilterExec)
        # the absorbed prefilter's child is the real scan, so describe()
        # still renders the full chain
        assert plan.stages[0].child is plan.scan
        text = plan.describe()
        assert "SparserPrefilter" in text and "Scan db.m" in text


class TestEdgeCases:
    def test_empty_table(self, session):
        schema = Schema.of(("a", DataType.INT64))
        session.catalog.create_table("db", "empty", schema)
        for workers in (1, 4):
            session.scan_workers = workers
            assert session.sql("select a from db.empty").rows == []
            agg = session.sql("select count(*) as n from db.empty")
            assert agg.rows == [{"n": 0}]

    def test_no_split_runs_no_stage(self, session):
        """The plan alone shapes an empty result: no stage body runs on
        the coordinator (no Sparser counters, no span outside a split)."""
        from repro.obs import Tracer

        schema = Schema.of(("a", DataType.INT64), ("b", DataType.STRING))
        session.catalog.create_table("db", "empty", schema)
        session.add_plan_modifier(SparserPlanModifier(json_columns={"b"}))
        where = "from db.empty where get_json_object(b, '$.k') = 'v'"
        planned, state, _ = session._prepare(f"select a as x, a as x, b {where}")
        assert planned.physical.execute_batch(state).names == ("x", "b")
        planned, state, _ = session._prepare(f"select * {where}")
        assert planned.physical.execute_batch(state).names == ("a", "b")
        tracer = Tracer()
        result = session.sql(f"select a {where}", tracer=tracer)
        assert "SparserPrefilter" in result.plan.describe()
        assert not [k for k in result.metrics.extra if k.startswith("sparser")]
        names = {span.name for span in tracer.root.find_all("execute")[0].walk()}
        assert names == {"execute", "morselpipeline"}

    def test_single_split(self, session):
        schema = Schema.of(("a", DataType.INT64))
        session.catalog.create_table("db", "one", schema)
        session.catalog.append_rows("db", "one", [(1,), (2,)])
        session.scan_workers = 4
        result = session.sql("select a from db.one")
        assert result.rows == [{"a": 1}, {"a": 2}]

    def test_scan_workers_validated(self):
        from repro.storage import BlockFileSystem

        with pytest.raises(ValueError):
            Session(fs=BlockFileSystem(), scan_workers=0)
        with pytest.raises(ValueError):
            Session(fs=BlockFileSystem(), plan_cache_entries=-1)

    def test_configured_session_is_the_session_that_runs(self):
        """A session's knobs survive ``MaxsonSystem(session=...)`` and a
        server with no overrides: reported, and run with."""
        from repro.core import MaxsonSystem
        from repro.obs import Tracer
        from repro.server import MaxsonServer, ServerConfig
        from repro.storage import BlockFileSystem

        knobs = dict(scan_workers=4, worker_backend="process", plan_cache_entries=8)
        caching = dict(result_cache_enabled=True, result_cache_entries=16)
        session = load_multi(Session(fs=BlockFileSystem(), **knobs, **caching))
        system = MaxsonSystem(session=session)
        with MaxsonServer(system, ServerConfig()) as server:
            summary = system.cache_summary()
            assert (summary["scan_workers"], summary["worker_backend"]) == (4, "process")
            assert summary["plan_cache"]["capacity"] == 8
            assert summary["result_cache"]["capacity"] == 16
            assert server.status().worker_backend == "process"
            traced = system.sql("select a from db.m", tracer=Tracer())
            splits = traced.trace.find_all("split")
            assert [s.attributes["backend"] for s in splits] == ["process"] * 4
