"""Unit tests for the SQL parser."""

import pytest

from repro.engine import (
    AggregateCall,
    Alias,
    Between,
    BinaryOp,
    CastExpr,
    Column,
    GetJsonObject,
    InList,
    Literal,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    SqlSyntaxError,
    UnaryOp,
    parse_sql,
)


class TestBasicSelect:
    def test_select_columns(self):
        plan = parse_sql("select a, b from db.t")
        assert isinstance(plan, LogicalProject)
        assert [e.sql() for e in plan.expressions] == ["a", "b"]
        scan = plan.child
        assert isinstance(scan, LogicalScan)
        assert (scan.database, scan.table) == ("db", "t")

    def test_default_database(self):
        plan = parse_sql("select a from t")
        assert plan.child.database == "default"

    def test_alias_with_as(self):
        plan = parse_sql("select a as x from db.t")
        expr = plan.expressions[0]
        assert isinstance(expr, Alias)
        assert expr.name == "x"

    def test_implicit_alias(self):
        plan = parse_sql("select a x from db.t")
        assert plan.expressions[0].output_name() == "x"

    def test_star(self):
        from repro.engine.sqlparser import Star

        plan = parse_sql("select * from db.t")
        assert isinstance(plan.expressions[0], Star)

    def test_table_alias(self):
        plan = parse_sql("select a from db.t as z")
        assert plan.child.alias == "z"
        plan2 = parse_sql("select a from db.t z")
        assert plan2.child.alias == "z"

    def test_case_insensitive_keywords(self):
        plan = parse_sql("SELECT a FROM db.t WHERE a > 1")
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.child, LogicalFilter)

    def test_comments_stripped(self):
        plan = parse_sql("select a -- trailing comment\nfrom db.t")
        assert isinstance(plan, LogicalProject)


class TestExpressions:
    def _where(self, condition: str):
        plan = parse_sql(f"select a from db.t where {condition}")
        return plan.child.condition

    def test_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            expr = self._where(f"a {op} 1")
            assert isinstance(expr, BinaryOp)
            assert expr.op == op

    def test_ne_alias(self):
        assert self._where("a <> 1").op == "!="

    def test_precedence_and_or(self):
        expr = self._where("a = 1 or b = 2 and c = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_arithmetic_precedence(self):
        expr = self._where("a + b * 2 = 7")
        assert expr.left.op == "+"
        assert expr.left.right.op == "*"

    def test_parentheses(self):
        expr = self._where("(a = 1 or b = 2) and c = 3")
        assert expr.op == "and"
        assert expr.left.op == "or"

    def test_between(self):
        expr = self._where("a between 1 and 5")
        assert isinstance(expr, Between)

    def test_in_list(self):
        expr = self._where("a in (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.options) == 3

    def test_is_null(self):
        assert self._where("a is null").op == "is null"
        assert self._where("a is not null").op == "is not null"

    def test_not(self):
        expr = self._where("not a = 1")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "not"

    def test_unary_minus(self):
        expr = self._where("a = -5")
        assert isinstance(expr.right, UnaryOp)

    def test_string_literal_with_escaped_quote(self):
        expr = self._where("a = 'it''s'")
        assert expr.right == Literal("it's")

    def test_null_true_false_literals(self):
        assert self._where("a = null").right == Literal(None)
        assert self._where("a = true").right == Literal(True)
        assert self._where("a = false").right == Literal(False)

    def test_cast(self):
        expr = self._where("cast(a as int) = 1")
        assert isinstance(expr.left, CastExpr)
        assert expr.left.target == "int"

    def test_get_json_object(self):
        expr = self._where("get_json_object(payload, '$.x') = 1")
        assert isinstance(expr.left, GetJsonObject)
        assert expr.left.path == "$.x"

    def test_get_json_object_requires_literal_path(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("select get_json_object(payload, col) from db.t")

    def test_qualified_column(self):
        expr = self._where("a.x = 1")
        assert expr.left == Column("a.x")

    def test_numbers(self):
        assert self._where("a = 1.5").right == Literal(1.5)
        assert self._where("a = 1e3").right == Literal(1000.0)

    @pytest.mark.parametrize("number", ["3e", "4.e", "1e+", "²"])
    def test_malformed_number_is_syntax_error_at_its_offset(self, number):
        with pytest.raises(SqlSyntaxError) as raised:
            parse_sql(f"select a from db.t where a = {number}")
        assert raised.value.position == 29


class TestAggregatesAndClauses:
    def test_group_by(self):
        plan = parse_sql("select a, count(*) from db.t group by a")
        assert isinstance(plan, LogicalAggregate)
        assert len(plan.group_keys) == 1

    def test_aggregate_without_group_by(self):
        plan = parse_sql("select count(*) from db.t")
        assert isinstance(plan, LogicalAggregate)
        assert plan.group_keys == []

    def test_aggregate_functions(self):
        plan = parse_sql(
            "select count(a), sum(a), avg(a), min(a), max(a) from db.t"
        )
        funcs = [e.func for e in plan.output]
        assert funcs == ["count", "sum", "avg", "min", "max"]

    def test_count_distinct(self):
        plan = parse_sql("select count(distinct a) from db.t")
        agg = plan.output[0]
        assert isinstance(agg, AggregateCall) and agg.distinct

    def test_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("select sum(*) from db.t")

    def test_having(self):
        plan = parse_sql(
            "select a, count(*) as c from db.t group by a having count(*) > 2"
        )
        assert isinstance(plan, LogicalFilter)
        assert isinstance(plan.child, LogicalAggregate)

    def test_having_without_aggregate_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("select a from db.t having a > 1")

    def test_order_by_limit(self):
        plan = parse_sql("select a from db.t order by a desc, b limit 10")
        assert isinstance(plan, LogicalLimit)
        assert plan.count == 10
        sort = plan.child
        assert isinstance(sort, LogicalSort)
        assert [k.ascending for k in sort.keys] == [False, True]

    def test_limit_requires_integer(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("select a from db.t limit 1.5")

    def test_min_max_as_plain_functions_need_parens(self):
        # 'min' used as a column name is fine when not followed by '('.
        plan = parse_sql("select min from db.t")
        assert plan.expressions[0] == Column("min")


class TestJoins:
    def test_join_on(self):
        plan = parse_sql(
            "select a.x from db.t a join db.u b on a.k = b.k where a.x > 1"
        )
        join = plan.child.child
        assert isinstance(join, LogicalJoin)
        assert join.left.alias == "a"
        assert join.right.alias == "b"

    def test_inner_join_keyword(self):
        plan = parse_sql("select x from db.t a inner join db.u b on a.k = b.k")
        assert isinstance(plan.child, LogicalJoin)

    def test_multi_join(self):
        plan = parse_sql(
            "select x from db.t a join db.u b on a.k = b.k "
            "join db.v c on b.k = c.k"
        )
        outer = plan.child
        assert isinstance(outer, LogicalJoin)
        assert isinstance(outer.left, LogicalJoin)


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "select",
            "select from db.t",
            "select a",
            "select a from",
            "select a from db.",
            "select a from db.t where",
            "select a from db.t group a",
            "select a from db.t order a",
            "select a from db.t limit",
            "select a from db.t extra garbage",
            "select a from db.t join db.u",
            "select cast(a as blob) from db.t",
            "select a from db.t where a in ()",
            "select a from db.t where 'unterminated",
            "select a from db.t where a @ 1",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse_sql(bad)
