"""Unit tests for the vectorized execution building blocks.

Covers :class:`~repro.engine.batch.ColumnBatch`,
:class:`~repro.engine.batch.BatchCompiler` (memoised CSE, per-batch
result cache, extraction accounting), the parse-once
:class:`~repro.jsonlib.doccache.DocumentCache`, and what a session
reports of them.
"""

import pytest

from repro.engine import ExecutionError, Session
from repro.engine.batch import BatchCompiler, ColumnBatch
from repro.engine.expressions import (
    BinaryOp,
    Column,
    EvalContext,
    GetJsonObject,
    Literal,
)
from repro.engine.metrics import QueryMetrics
from repro.jsonlib import INVALID, DocumentCache, JacksonParser, JsonParseError


class TestColumnBatch:
    def test_from_rows_roundtrip(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        batch = ColumnBatch.from_rows(rows)
        assert batch.names == ("a", "b")
        assert batch.column("a") == [1, 2]
        assert batch.to_rows() == rows
        assert len(batch) == 2

    def test_empty_rows_keep_explicit_names(self):
        batch = ColumnBatch.from_rows([], names=["a", "b"])
        assert batch.names == ("a", "b")
        assert batch.column("a") == []
        assert batch.to_rows() == []

    def test_missing_column_matches_row_path_error(self):
        batch = ColumnBatch.from_rows([{"a": 1}])
        with pytest.raises(ExecutionError, match="not found in row"):
            batch.column("ghost")

    def test_take_preserves_order_and_aliasing(self):
        shared = [10, 20, 30]
        batch = ColumnBatch(
            ("x", "t.x"), {"x": shared, "t.x": shared}, 3
        )
        taken = batch.take([2, 0])
        assert taken.column("x") == [30, 10]
        # Aliased input columns stay aliased — one copy, two names.
        assert taken.columns["x"] is taken.columns["t.x"]

    def test_rows_are_cached_views(self):
        batch = ColumnBatch.from_rows([{"a": 1}, {"a": 2}])
        assert batch.rows() is batch.rows()

    def test_zero_column_rows(self):
        batch = ColumnBatch((), {}, 3)
        assert batch.rows() == [{}, {}, {}]


class TestDocumentCache:
    def test_hit_miss_accounting(self):
        parser = JacksonParser()
        cache = DocumentCache(parser, JsonParseError)
        a = cache.document('{"k": 1}')
        b = cache.document('{"k": 1}')
        assert a is b
        assert cache.misses == 1
        assert cache.hits == 1
        assert parser.stats.documents == 1

    def test_failed_parse_cached_once(self):
        parser = JacksonParser()
        cache = DocumentCache(parser, JsonParseError)
        assert cache.document("not json {") is INVALID
        assert cache.document("not json {") is INVALID
        assert cache.misses == 1 and cache.hits == 1

    def test_eviction_bounds_memory(self):
        cache = DocumentCache(JacksonParser(), JsonParseError, max_entries=2)
        for i in range(5):
            cache.document('{"k": %d}' % i)
        assert len(cache) <= 2


class TestBatchCompiler:
    def _extraction(self):
        return GetJsonObject(Column("logs"), "$.price")

    def test_equal_expressions_compile_to_one_node(self):
        compiler = BatchCompiler(EvalContext())
        first = compiler.compile(self._extraction())
        second = compiler.compile(self._extraction())
        assert first is second

    def test_duplicate_evaluation_served_from_cache_and_counted(self):
        metrics = QueryMetrics()
        context = EvalContext()
        compiler = BatchCompiler(context, metrics=metrics)
        node = compiler.compile(self._extraction())
        batch = ColumnBatch.from_rows(
            [{"logs": '{"price": 5}'}, {"logs": '{"price": 7}'}]
        )
        assert node.evaluate(batch) == [5, 7]
        assert metrics.duplicate_extractions_eliminated == 0
        assert node.evaluate(batch) == [5, 7]
        assert metrics.duplicate_extractions_eliminated == 2
        # The re-served evaluation must not have re-parsed anything.
        assert context.parser.stats.documents == 2

    def test_logic_short_circuit_skips_decided_rows(self):
        # Right side divides by the column; rows decided by the left
        # operand must never evaluate it (parity with the interpreter).
        left = BinaryOp("<", Column("n"), Literal(10))
        right = BinaryOp(">", BinaryOp("/", Literal(100), Column("n")), Literal(0))
        expr = BinaryOp("and", left, right)
        compiler = BatchCompiler(EvalContext())
        batch = ColumnBatch.from_rows([{"n": 50}, {"n": 4}, {"n": 2}])
        assert compiler.compile(expr).evaluate(batch) == [False, True, True]

    def test_unknown_nodes_fall_back_to_interpreter(self):
        class Opaque(Literal):
            pass

        compiler = BatchCompiler(EvalContext())
        node = compiler.compile(Opaque(41))
        batch = ColumnBatch.from_rows([{"a": 0}])
        assert node.evaluate(batch) == [41]


class TestExecutionModePlumbing:
    """There is one engine: the knob that used to pick one is gone."""

    def test_invalid_session_mode_rejected(self, fs):
        with pytest.raises(TypeError):
            Session(fs=fs, execution_mode="row")

    def test_invalid_per_call_mode_rejected(self, sales_session):
        with pytest.raises(TypeError):
            sales_session.sql("select mall_id from mydb.T", execution_mode="row")

    def test_planner_counts_duplicate_extractions(self, sales_session):
        planned = sales_session.compile(
            "select get_json_object(sale_logs, '$.price') as p from mydb.T "
            "where get_json_object(sale_logs, '$.price') > 0 "
            "and get_json_object(sale_logs, '$.turnover') > 0"
        )
        assert planned.duplicate_extractions == 1

    def test_cse_counter_surfaces_in_query_metrics(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.price') as p from mydb.T "
            "where get_json_object(sale_logs, '$.price') > 0"
        )
        assert result.metrics.duplicate_extractions_eliminated > 0
        assert "duplicate_extractions_eliminated" in result.metrics.to_dict()
