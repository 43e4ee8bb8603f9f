"""The offline reading of a column (cache build, degraded fallback):
``EvalContext.extract_paths`` and the ``$``/``/`` format dispatch."""

import pytest

from repro.engine.expressions import EvalContext, path_format


def extract(text, *paths):
    """The values at ``paths`` of one column value."""
    return [column[0] for column in EvalContext().extract_paths([text], list(paths))]


class TestPathFormat:
    def test_json_paths(self):
        assert path_format("$.a.b") == "json"
        assert path_format("  $.x") == "json"

    def test_xml_paths(self):
        assert path_format("/a/b") == "xml"
        assert path_format(" /a/@id") == "xml"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            path_format("a.b")
        with pytest.raises(ValueError):
            extract("{}", "a.b")


class TestDecode:
    def test_json_only(self):
        assert extract('{"a": {"b": [1]}}', "$.a") == [{"b": [1]}]

    def test_xml_only(self):
        assert extract("<a>1</a>", "/a") == [1]

    def test_both_formats_from_one_text(self):
        assert extract('{"a": 1}', "$.a", "/a") == [1, None]  # not valid XML

    def test_non_string_input(self):
        assert extract(None, "$.a", "/a") == [None, None]
        assert extract(42, "$.a", "/a") == [None, None]

    def test_malformed_yields_none(self):
        assert extract("{oops", "$.a") == [None]
        assert extract("<oops", "/oops") == [None]


class TestEvaluate:
    def test_json_evaluation(self):
        assert extract('{"a": {"b": 7}}', "$.a.b") == [7]

    def test_xml_evaluation(self):
        assert extract("<a><b>7</b></a>", "/a/b") == [7]

    def test_missing_document_yields_none(self):
        assert extract("", "$.a", "/a") == [None, None]
        assert EvalContext().extract_paths([], ["$.a"]) == [[]]

    def test_extract_one_shot(self):
        assert extract('{"v": 5}', "$.v") == [5]
        assert extract("<r><v>5</v></r>", "/r/v") == [5]
        assert extract("garbage", "$.v") == [None]

    def test_parse_cost_accounted(self):
        context = EvalContext()
        context.extract_paths(['{"v": 1}', "<r/>"], ["$.v", "/r"])
        assert context.parser.stats.documents == 2  # each text, once
        assert context.xml_parser.stats.documents == 2


class TestProjection:
    def test_reads_mixed_formats_in_path_order(self):
        texts = ['{"a": {"b": 7}, "c": "x"}', "<r><v>5</v></r>", "{oops", None, 42]
        columns = EvalContext().extract_paths(texts, ["$.a.b", "/r/v", "$.c", "$.a.b"])
        assert list(zip(*columns)) == [
            (7, None, "x", 7),
            (None, 5, None, None),
            (None,) * 4,
            (None,) * 4,
            (None,) * 4,
        ]

    def test_one_pass_per_distinct_text(self):
        context = EvalContext()
        text = '{"a": 1, "b": 2, "a": 3}'
        assert context.extract_paths([text, text], ["$.a", "$.b"]) == [[3, 3], [2, 2]]
        assert context.parser.stats.documents == 1
        assert context.parser.stats.bytes_scanned == len(text)
        assert context.shared_parse_hits() == 1
        assert context.xml_parser is None
        # the query's reading shares the documents the offline one cached
        assert context.get_json_objects([text], "$.b") == [2]
        assert context.parser.stats.documents == 1
