"""Tests for the format-dispatching value extractor."""

import pytest

from repro.core.extraction import ValueExtractor, path_format


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


class TestDecode:
    def test_json_only(self):
        extractor = ValueExtractor()
        documents = extractor.decode('{"a": 1}', {"json"})
        assert documents == {"json": {"a": 1}}

    def test_xml_only(self):
        extractor = ValueExtractor()
        documents = extractor.decode("<a>1</a>", {"xml"})
        assert documents["xml"].tag == "a"

    def test_both_formats_from_one_text(self):
        extractor = ValueExtractor()
        documents = extractor.decode('{"a": 1}', {"json", "xml"})
        assert documents["json"] == {"a": 1}
        assert documents["xml"] is None  # not valid XML

    def test_non_string_input(self):
        extractor = ValueExtractor()
        assert extractor.decode(None, {"json"}) == {"json": None}
        assert extractor.decode(42, {"xml"}) == {"xml": None}

    def test_malformed_yields_none(self):
        extractor = ValueExtractor()
        assert extractor.decode("{oops", {"json"}) == {"json": None}
        assert extractor.decode("<oops", {"xml"}) == {"xml": None}


class TestEvaluate:
    def test_json_evaluation(self):
        extractor = ValueExtractor()
        documents = extractor.decode('{"a": {"b": 7}}', {"json"})
        assert extractor.evaluate(documents, "$.a.b") == 7

    def test_xml_evaluation(self):
        extractor = ValueExtractor()
        documents = extractor.decode("<a><b>7</b></a>", {"xml"})
        assert extractor.evaluate(documents, "/a/b") == 7

    def test_missing_document_yields_none(self):
        extractor = ValueExtractor()
        assert extractor.evaluate({}, "$.a") is None
        assert extractor.evaluate({"json": None}, "$.a") is None

    def test_extract_one_shot(self):
        extractor = ValueExtractor()
        assert extractor.extract('{"v": 5}', "$.v") == 5
        assert extractor.extract("<r><v>5</v></r>", "/r/v") == 5
        assert extractor.extract("garbage", "$.v") is None

    def test_parse_cost_accounted(self):
        extractor = ValueExtractor()
        extractor.extract('{"v": 1}', "$.v")
        extractor.extract("<r/>", "/r")
        assert extractor.json_parser.stats.documents == 1
        assert extractor.xml_parser.stats.documents == 1


class TestProjection:
    def test_reads_mixed_formats_in_path_order(self):
        extractor = ValueExtractor()
        project = extractor.projection(("$.a.b", "/r/v", "$.c", "$.a.b"))
        assert project('{"a": {"b": 7}, "c": "x"}') == [7, None, "x", 7]
        assert project("<r><v>5</v></r>") == [None, 5, None, None]
        assert project("{oops") == [None] * 4
        assert project(None) == [None] * 4
        assert project(42) == [None] * 4

    def test_one_pass_per_distinct_text(self):
        extractor = ValueExtractor()
        project = extractor.projection(("$.a", "$.b"))
        assert extractor.projection(("$.a", "$.b")) is project
        text = '{"a": 1, "b": 2, "a": 3}'
        assert project(text) == project(text) == [3, 2]
        assert extractor.json_parser.stats.documents == 1
        assert extractor.json_parser.stats.bytes_scanned == len(text)
        assert extractor.shared_parse_hits == 1
        assert extractor.xml_parser.stats.documents == 0
