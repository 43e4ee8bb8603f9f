"""Unit tests for expression evaluation (SQL three-valued logic etc.),
through the compiled path the engine runs."""

import pytest

from repro.engine import (
    AggregateCall,
    Alias,
    Between,
    BinaryOp,
    CachedField,
    CastExpr,
    Column,
    EvalContext,
    ExecutionError,
    GetJsonObject,
    InList,
    Literal,
    PlanError,
    UnaryOp,
    transform,
    walk,
)

from one_row import one_row


def b(op, left, right):
    return BinaryOp(op, Literal(left), Literal(right))


class TestComparisons:
    def test_basic(self):
        assert one_row(b("=", 1, 1)) is True
        assert one_row(b("!=", 1, 2)) is True
        assert one_row(b("<", 1, 2)) is True
        assert one_row(b(">=", 2, 2)) is True

    def test_null_propagates(self):
        assert one_row(b("=", None, 1)) is None
        assert one_row(b("<", 1, None)) is None

    def test_string_number_coercion(self):
        # get_json_object often yields strings compared to numbers (Hive
        # coerces); mixed comparisons coerce through float.
        assert one_row(b(">", "10", 9)) is True
        assert one_row(b("=", "2.5", 2.5)) is True

    def test_uncoercible_mixed_comparison_is_null(self):
        assert one_row(b(">", "abc", 9)) is None


class TestLogic:
    def test_and_truth_table(self):
        assert one_row(b("and", True, True)) is True
        assert one_row(b("and", True, False)) is False
        assert one_row(b("and", False, None)) is False
        assert one_row(b("and", True, None)) is None

    def test_or_truth_table(self):
        assert one_row(b("or", False, True)) is True
        assert one_row(b("or", False, False)) is False
        assert one_row(b("or", True, None)) is True
        assert one_row(b("or", False, None)) is None

    def test_short_circuit_and(self):
        # right side would explode if evaluated
        bomb = Column("missing")
        expr = BinaryOp("and", Literal(False), bomb)
        assert one_row(expr) is False

    def test_not(self):
        assert one_row(UnaryOp("not", Literal(True))) is False
        assert one_row(UnaryOp("not", Literal(None))) is None


class TestArithmetic:
    def test_basic(self):
        assert one_row(b("+", 2, 3)) == 5
        assert one_row(b("-", 2, 3)) == -1
        assert one_row(b("*", 2, 3)) == 6
        assert one_row(b("/", 7, 2)) == 3.5
        assert one_row(b("%", 7, 2)) == 1

    def test_divide_by_zero_is_null(self):
        assert one_row(b("/", 1, 0)) is None
        assert one_row(b("%", 1, 0)) is None

    def test_null_propagates(self):
        assert one_row(b("+", None, 1)) is None

    def test_string_numbers_coerce(self):
        assert one_row(b("+", "2", 3)) == 5

    def test_string_concat_via_plus(self):
        assert one_row(b("+", "a", "b")) == "ab"

    def test_neg(self):
        assert one_row(UnaryOp("neg", Literal(5))) == -5
        assert one_row(UnaryOp("neg", Literal("3"))) == -3

    def test_unknown_op_rejected(self):
        with pytest.raises(PlanError):
            BinaryOp("**", Literal(1), Literal(2))


class TestMisc:
    def test_column_lookup(self):
        assert one_row(Column("a"), {"a": 7}) == 7

    def test_column_missing_raises(self):
        with pytest.raises(ExecutionError):
            one_row(Column("a"))

    def test_alias_passthrough(self):
        expr = Alias(Literal(1), "one")
        assert one_row(expr) == 1
        assert expr.output_name() == "one"

    def test_between_inclusive(self):
        expr = Between(Literal(5), Literal(1), Literal(5))
        assert one_row(expr) is True

    def test_between_null(self):
        expr = Between(Literal(None), Literal(1), Literal(5))
        assert one_row(expr) is None

    def test_in_list(self):
        expr = InList(Literal(2), (Literal(1), Literal(2)))
        assert one_row(expr) is True
        expr2 = InList(Literal(9), (Literal(1), Literal(None)))
        assert one_row(expr2) is None
        expr3 = InList(Literal(9), (Literal(1), Literal(2)))
        assert one_row(expr3) is False

    def test_cast(self):
        assert one_row(CastExpr(Literal("3"), "int")) == 3
        assert one_row(CastExpr(Literal(3), "string")) == "3"
        assert one_row(CastExpr(Literal("2.5"), "double")) == 2.5
        assert one_row(CastExpr(Literal("x"), "int")) is None

    def test_is_null_ops(self):
        assert one_row(UnaryOp("is null", Literal(None))) is True
        assert one_row(UnaryOp("is not null", Literal(1))) is True


class TestGetJsonObjectExpr:
    def test_evaluate(self):
        expr = GetJsonObject(Column("j"), "$.a.b")
        assert one_row(expr, {"j": '{"a": {"b": 9}}'}) == 9

    def test_null_column(self):
        expr = GetJsonObject(Column("j"), "$.a")
        assert one_row(expr, {"j": None}) is None

    def test_malformed_json_null(self):
        expr = GetJsonObject(Column("j"), "$.a")
        assert one_row(expr, {"j": "{oops"}) is None

    def test_non_string_column_raises(self):
        expr = GetJsonObject(Column("j"), "$.a")
        with pytest.raises(ExecutionError):
            one_row(expr, {"j": 42})

    def test_invalid_path_rejected_at_construction(self):
        from repro.jsonlib import JsonPathError

        with pytest.raises(JsonPathError):
            GetJsonObject(Column("j"), "nope")

    def test_output_name(self):
        expr = GetJsonObject(Column("sale_logs"), "$.turnover")
        assert expr.output_name() == "sale_logs_turnover"

    def test_parse_cost_charged_to_context(self):
        ctx = EvalContext()
        ctx.get_json_object('{"a": 1}', "$.a")
        ctx.get_json_object('{"a": 1}', "$.a")
        # each scalar call parses independently — the duplicate-parsing
        # the paper's cache removes
        assert ctx.parser.stats.documents == 2


class TestCachedField:
    def test_reads_env_key(self):
        expr = CachedField("payload", 1, "$.x", "__mx__t__payload__x")
        assert one_row(expr, {"__mx__t__payload__x": 5}) == 5

    def test_missing_env_key_raises(self):
        expr = CachedField("payload", 1, "$.x", "k")
        with pytest.raises(ExecutionError):
            one_row(expr)


class TestTreeUtilities:
    def test_walk(self):
        expr = BinaryOp("+", Column("a"), Literal(1))
        nodes = list(walk(expr))
        assert expr in nodes and Column("a") in nodes and Literal(1) in nodes

    def test_transform_replaces(self):
        expr = BinaryOp("+", Column("a"), Column("b"))

        def repl(node):
            if node == Column("a"):
                return Literal(10)
            return None

        out = transform(expr, repl)
        assert out.left == Literal(10)
        assert out.right == Column("b")
        # original untouched (frozen dataclasses)
        assert expr.left == Column("a")

    def test_aggregate_cannot_evaluate_rowwise(self):
        agg = AggregateCall("sum", Column("a"))
        with pytest.raises(ExecutionError):
            one_row(agg, {"a": 1})

    def test_aggregate_validation(self):
        with pytest.raises(PlanError):
            AggregateCall("median", Column("a"))
        with pytest.raises(PlanError):
            AggregateCall("sum", None)
