"""Unit tests for JSONPath parsing and get_json_object semantics."""

import pytest

from repro.jsonlib import (
    JsonPathError,
    get_json_object,
    parse_path,
)
from repro.jsonlib.jsonpath import Index, Member, Wildcard, evaluate


class TestParsePath:
    def test_simple_member(self):
        path = parse_path("$.a")
        assert path.steps == (Member("a"),)

    def test_chained_members(self):
        assert parse_path("$.a.b.c").steps == (
            Member("a"),
            Member("b"),
            Member("c"),
        )

    def test_index(self):
        assert parse_path("$.a[3]").steps == (Member("a"), Index(3))

    def test_wildcard(self):
        assert parse_path("$.items[*].price").steps == (
            Member("items"),
            Wildcard(),
            Member("price"),
        )

    def test_bracket_member(self):
        assert parse_path("$['weird key']").steps == (Member("weird key"),)
        assert parse_path('$["k"]').steps == (Member("k"),)

    def test_whitespace_tolerated(self):
        assert parse_path("  $.a  ").steps == (Member("a"),)

    def test_depth_and_leaf(self):
        path = parse_path("$.a.b[0].c")
        assert path.depth == 3
        assert path.leaf == "c"

    def test_leaf_of_index_terminated(self):
        assert parse_path("$.a[0]").leaf == "a"

    def test_hashable_and_cacheable(self):
        assert parse_path("$.x") is parse_path("$.x")  # lru-cached
        {parse_path("$.x"): 1}  # hashable

    @pytest.mark.parametrize(
        "bad",
        [
            "a.b",
            "$",
            "$.",
            "$..a",
            "$.a[",
            "$.a[]",
            "$.a[-1]",
            "$.a[x]",
            "$.a['unterminated]",
            "$x",
            "$.a.[b]",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(JsonPathError):
            parse_path(bad)


class TestEvaluate:
    DOC = {
        "a": {"b": [10, 20, {"c": "deep"}]},
        "items": [{"price": 1}, {"price": 2}, {"noprice": 3}],
        "nil": None,
        "flag": False,
    }

    def test_member_chain(self):
        assert evaluate("$.a.b", self.DOC) == [10, 20, {"c": "deep"}]

    def test_index(self):
        assert evaluate("$.a.b[1]", self.DOC) == 20

    def test_deep(self):
        assert evaluate("$.a.b[2].c", self.DOC) == "deep"

    def test_wildcard_collects_non_null(self):
        assert evaluate("$.items[*].price", self.DOC) == [1, 2]

    def test_wildcard_on_non_array(self):
        assert evaluate("$.a[*]", self.DOC) is None

    def test_missing_member(self):
        assert evaluate("$.zzz", self.DOC) is None
        assert evaluate("$.a.zzz", self.DOC) is None

    def test_out_of_range_index(self):
        assert evaluate("$.a.b[99]", self.DOC) is None

    def test_member_on_scalar(self):
        assert evaluate("$.flag.x", self.DOC) is None

    def test_null_value_returned(self):
        assert evaluate("$.nil", self.DOC) is None

    def test_false_value_preserved(self):
        assert evaluate("$.flag", self.DOC) is False


class TestGetJsonObject:
    def test_basic(self):
        assert get_json_object('{"a": {"b": 5}}', "$.a.b") == 5

    def test_none_input(self):
        assert get_json_object(None, "$.a") is None

    def test_malformed_json_yields_null(self):
        assert get_json_object("{broken", "$.a") is None

    @pytest.mark.parametrize(
        "text",
        ['{"a": "\\u-123", "b": 1}', '{"a": ' + "9" * 5000 + ', "b": 1}'],
        ids=["signed-unicode-escape", "integer-past-the-digit-limit"],
    )
    def test_tokenizer_value_errors_yield_null(self, text):
        # Both used to escape as ValueError (from chr() and int()), which
        # is not the JsonParseError that get_json_object turns into NULL.
        assert get_json_object(text, "$.b") is None

    def test_missing_path_yields_null(self):
        assert get_json_object('{"a": 1}', "$.b") is None

    def test_bad_path_raises(self):
        # Path errors are programming errors, not data errors.
        with pytest.raises(JsonPathError):
            get_json_object('{"a": 1}', "not-a-path")

    def test_parser_stats_attributed(self):
        from repro.jsonlib import JacksonParser

        parser = JacksonParser()
        get_json_object('{"a": 1}', "$.a", parser=parser)
        assert parser.stats.documents == 1
