"""Unit tests for builtin scalar functions."""

import pytest

from repro.engine import Literal, PlanError, SqlSyntaxError
from repro.engine.functions import FunctionCall, is_scalar_function

from one_row import one_row


def call(name, *values):
    return FunctionCall(name, tuple(Literal(v) for v in values))


class TestRegistry:
    def test_known(self):
        assert is_scalar_function("length")
        assert is_scalar_function("COALESCE")
        assert not is_scalar_function("median")

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError):
            call("median", 1)

    def test_arity_checked(self):
        with pytest.raises(PlanError):
            call("length")
        with pytest.raises(PlanError):
            call("length", "a", "b")
        with pytest.raises(PlanError):
            call("nvl", 1)


class TestStringFunctions:
    def test_length(self):
        assert one_row(call("length", "hello")) == 5
        assert one_row(call("length", 1234)) == 4

    def test_lower_upper_trim(self):
        assert one_row(call("lower", "AbC")) == "abc"
        assert one_row(call("upper", "AbC")) == "ABC"
        assert one_row(call("trim", "  x ")) == "x"

    def test_concat(self):
        assert one_row(call("concat", "a", 1, True)) == "a1true"

    def test_concat_null_propagates(self):
        assert one_row(call("concat", "a", None)) is None

    def test_substr_positive(self):
        assert one_row(call("substr", "hello", 2)) == "ello"
        assert one_row(call("substr", "hello", 2, 3)) == "ell"

    def test_substr_negative_start(self):
        assert one_row(call("substr", "hello", -3)) == "llo"

    def test_substr_zero_length(self):
        assert one_row(call("substr", "hello", 1, 0)) == ""


class TestNumericAndNulls:
    def test_abs_round(self):
        assert one_row(call("abs", -4)) == 4
        assert one_row(call("round", 2.567, 1)) == 2.6
        assert one_row(call("round", 2.4)) == 2.0

    def test_null_in_null_out(self):
        assert one_row(call("abs", None)) is None
        assert one_row(call("length", None)) is None

    def test_coalesce(self):
        assert one_row(call("coalesce", None, None, 3, 4)) == 3
        assert one_row(call("coalesce", None, None)) is None

    def test_nvl(self):
        assert one_row(call("nvl", None, "fallback")) == "fallback"
        assert one_row(call("nvl", "x", "fallback")) == "x"

    def test_uncastable_yields_null(self):
        assert one_row(call("abs", "not a number")) is None


class TestSqlIntegration:
    def test_functions_in_queries(self, sales_session):
        result = sales_session.sql(
            "select upper(get_json_object(sale_logs, '$.item_name')) as n, "
            "length(mall_id) as l from mydb.T limit 1"
        )
        assert result.rows[0]["n"].startswith("ITEM")
        assert result.rows[0]["l"] == 4

    def test_function_in_where(self, sales_session):
        result = sales_session.sql(
            "select count(*) as n from mydb.T "
            "where substr(date, 1, 6) = '201901'"
        )
        assert result.rows == [{"n": 200}]

    def test_coalesce_over_missing_json(self, sales_session):
        result = sales_session.sql(
            "select coalesce(get_json_object(sale_logs, '$.ghost'), 'dflt') "
            "as v from mydb.T limit 1"
        )
        assert result.rows == [{"v": "dflt"}]

    def test_nested_function_calls(self, sales_session):
        result = sales_session.sql(
            "select length(concat(mall_id, date)) as l from mydb.T limit 1"
        )
        assert result.rows == [{"l": 12}]

    def test_unknown_function_is_syntax_error(self, sales_session):
        with pytest.raises(SqlSyntaxError):
            sales_session.sql("select median(mall_id) from mydb.T")

    def test_bad_arity_is_syntax_error(self, sales_session):
        with pytest.raises(SqlSyntaxError):
            sales_session.sql("select length() from mydb.T")

    def test_rewrite_through_functions(self, sales_session):
        """Maxson's tree rewrite must descend through FunctionCall args."""
        from repro.core import MaxsonSystem
        from repro.workload import PathKey

        system = MaxsonSystem(session=sales_session)
        sql = (
            "select upper(get_json_object(sale_logs, '$.item_name')) as n "
            "from mydb.T order by n limit 3"
        )
        baseline = system.baseline_sql(sql)
        system.cacher.populate(
            [PathKey("mydb", "T", "sale_logs", "$.item_name")]
        )
        cached = system.sql(sql)
        assert cached.rows == baseline.rows
        assert cached.metrics.parse_documents == 0
