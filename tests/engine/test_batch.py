"""Unit tests for the vectorized execution building blocks.

Covers :class:`~repro.engine.batch.ColumnBatch`,
:class:`~repro.engine.batch.ExpressionProgram` (memoised CSE, the
per-batch result memo, extraction accounting), the parse-once
:class:`~repro.jsonlib.doccache.DocumentCache`, and what a session
reports of them.
"""

import pytest

from repro.engine import ExecutionError, Session
from repro.engine.batch import ColumnBatch, ExpressionProgram
from repro.engine.expressions import (
    AggregateCall,
    BinaryOp,
    Column,
    EvalContext,
    Expression,
    GetJsonObject,
    InList,
    Literal,
)
from repro.engine.physical import ExecState
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
        # ``row(i)`` builds row i alone, a fresh dict each time.
        batch = ColumnBatch.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert [batch.row(i) for i in range(2)] == batch.to_rows()
        assert batch.row(1) is not batch.row(1)

    def test_zero_column_rows(self):
        batch = ColumnBatch((), {}, 3)
        assert batch.row(2) == {}


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
    """``ExpressionProgram``: one node per distinct expression, run per split."""

    def _extraction(self):
        return GetJsonObject(Column("logs"), "$.price")

    def test_equal_expressions_compile_to_one_node(self):
        program = ExpressionProgram()
        first = program.compile(self._extraction())
        second = program.compile(self._extraction())
        assert first is second
        assert first.extractions == 1

    def test_duplicate_evaluation_served_from_cache_and_counted(self):
        state = ExecState(catalog=None, context=EvalContext())
        node = ExpressionProgram().compile(self._extraction())
        batch = ColumnBatch.from_rows(
            [{"logs": '{"price": 5}'}, {"logs": '{"price": 7}'}]
        )
        assert node.evaluate(batch, state) == [5, 7]
        assert state.metrics.duplicate_extractions_eliminated == 0
        assert node.evaluate(batch, state) == [5, 7]
        assert state.metrics.duplicate_extractions_eliminated == 2
        # The re-served evaluation must not have re-parsed anything.
        assert state.context.parser.stats.documents == 2
        # A batch filtered from it gathers the memoised values by index.
        assert node.evaluate(batch.take([1]), state) == [7]
        assert state.metrics.duplicate_extractions_eliminated == 3

    def test_undeclared_path_reprojects_a_held_projection(self):
        # A hand-driven context declares each path as an extraction meets
        # it; the projection a batch already holds lacks the new slot.
        state = ExecState(catalog=None, context=EvalContext())
        program = ExpressionProgram()
        a, b = (program.compile(GetJsonObject(Column("logs"), p)) for p in ("$.a", "$.b"))
        batch = ColumnBatch.from_rows([{"logs": '{"a": 1, "b": 2}'}, {"logs": None}])
        assert a.evaluate(batch, state) == [1, None]
        assert b.evaluate(batch.take([0]), state) == [2]
        assert state.context.parser.stats.documents == 2

    def test_logic_short_circuit_skips_decided_rows(self):
        # Right side divides by the column; rows decided by the left
        # operand must never evaluate it (parity with the interpreter).
        left = BinaryOp("<", Column("n"), Literal(10))
        right = BinaryOp(">", BinaryOp("/", Literal(100), Column("n")), Literal(0))
        expr = BinaryOp("and", left, right)
        state = ExecState(catalog=None, context=EvalContext())
        batch = ColumnBatch.from_rows([{"n": 50}, {"n": 4}, {"n": 2}])
        node = ExpressionProgram().compile(expr)
        assert node.evaluate(batch, state) == [False, True, True]

    def test_unknown_nodes_fall_back_to_interpreter(self):
        # There is no interpreter to fall back to: a node with no row value
        # compiles, and raises when it is evaluated.
        class Opaque(Expression):
            def sql(self) -> str:
                return "opaque()"

        batch = ColumnBatch.from_rows([{"a": 0}])
        state = ExecState(catalog=None, context=EvalContext())
        for expr in (Opaque(), AggregateCall("sum", Column("a"))):
            node = ExpressionProgram().compile(expr)
            with pytest.raises(ExecutionError, match="row expression"):
                node.evaluate(batch, state)

    def test_in_evaluates_options_only_on_undecided_rows(self):
        # The second option raises on a non-string column; rows the first
        # option matched, and a NULL child, must never evaluate it.
        options = (Column("one"), GetJsonObject(Column("doc"), "$.a"))
        expr = InList(Column("n"), options)
        rows = [
            {"n": 1, "one": 1, "doc": 42},
            {"n": None, "one": 1, "doc": 42},
            {"n": 3, "one": 1, "doc": '{"a": 3}'},
            {"n": 5, "one": 1, "doc": "{}"},
            {"n": 7, "one": None, "doc": '{"a": 8}'},
            {"n": 9, "one": 1, "doc": '{"a": 8}'},
        ]
        state = ExecState(catalog=None, context=EvalContext())
        node = ExpressionProgram().compile(expr)
        assert node.evaluate(ColumnBatch.from_rows(rows), state) == [
            True, None, True, None, None, False,
        ]
        assert state.context.parser.stats.documents == 3


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

    def test_function_shares_its_argument_extraction(self, sales_session):
        # The function's argument is the projection's bare extraction: one
        # compiled node, so each document is parsed as often as without the
        # function, and the re-served node is counted.
        bare = sales_session.sql(
            "select get_json_object(sale_logs, '$.item_name') as n from mydb.T"
        )
        both = sales_session.sql(
            "select upper(get_json_object(sale_logs, '$.item_name')) as u, "
            "get_json_object(sale_logs, '$.item_name') as n from mydb.T"
        )
        assert both.metrics.parse_documents == bare.metrics.parse_documents > 0
        assert both.metrics.duplicate_extractions_eliminated == len(both.rows)
        assert [r["u"] for r in both.rows] == [r["n"].upper() for r in bare.rows]

    def test_cse_counter_surfaces_in_query_metrics(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.price') as p from mydb.T "
            "where get_json_object(sale_logs, '$.price') > 0"
        )
        assert result.metrics.duplicate_extractions_eliminated > 0
        assert "duplicate_extractions_eliminated" in result.metrics.to_dict()
