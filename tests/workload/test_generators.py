"""Unit tests for NoBench documents, Table II tables, and the queries."""

import pytest

from repro.jsonlib import JacksonParser
from repro.workload import (
    TABLE_SPECS,
    DocumentFactory,
    NoBenchConfig,
    NoBenchGenerator,
)


class TestNoBench:
    def test_deterministic(self):
        g = NoBenchGenerator()
        assert g.json(5) == NoBenchGenerator().json(5)

    def test_valid_json(self):
        g = NoBenchGenerator()
        parser = JacksonParser()
        for i in range(30):
            parser.parse(g.json(i))

    def test_fixed_attributes_present(self):
        doc = NoBenchGenerator().document(0)
        for key in ("str1", "str2", "num", "bool", "thousandth", "dyn1",
                    "dyn2", "nested_obj", "nested_arr"):
            assert key in doc

    def test_dynamic_typing(self):
        g = NoBenchGenerator()
        assert isinstance(g.document(0)["dyn1"], int)
        assert isinstance(g.document(1)["dyn1"], str)
        assert isinstance(g.document(0)["dyn2"], dict)
        assert isinstance(g.document(1)["dyn2"], int)

    def test_sparse_keys_rotate(self):
        g = NoBenchGenerator()
        keys0 = {k for k in g.document(0) if k.startswith("sparse_")}
        keys1 = {k for k in g.document(1) if k.startswith("sparse_")}
        assert len(keys0) == g.config.sparse_keys_per_doc
        assert keys0 != keys1

    def test_thousandth_cycles(self):
        g = NoBenchGenerator()
        assert g.document(1234)["thousandth"] == 234

    def test_config_respected(self):
        g = NoBenchGenerator(NoBenchConfig(sparse_keys_per_doc=3, nested_arr_length=2))
        doc = g.document(0)
        assert len([k for k in doc if k.startswith("sparse_")]) == 3
        assert len(doc["nested_arr"]) == 2

    def test_json_rows(self):
        rows = list(NoBenchGenerator().json_rows(3, start=10))
        assert [r[0] for r in rows] == [10, 11, 12]


class TestTableSpecs:
    def test_all_ten_present(self):
        assert [s.query_id for s in TABLE_SPECS] == [f"Q{i}" for i in range(1, 11)]

    def test_paper_values(self):
        by_id = {s.query_id: s for s in TABLE_SPECS}
        assert by_id["Q6"].path_count == 29
        assert by_id["Q9"].avg_json_bytes == 21459
        assert by_id["Q4"].nesting_level == 4
        assert by_id["Q2"].selective and by_id["Q9"].selective


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda s: s.query_id)
class TestDocumentFactory:
    def test_property_count(self, spec):
        factory = DocumentFactory(spec)
        doc = factory.document(0)

        def count_scalars(node):
            total = 0
            for key, value in node.items():
                if isinstance(value, dict):
                    total += count_scalars(value)
                else:
                    total += 1
            return total

        assert count_scalars(doc) == spec.property_count

    def test_nesting_level(self, spec):
        factory = DocumentFactory(spec)
        doc = factory.document(0)

        def depth(node):
            if not isinstance(node, dict):
                return 0
            return 1 + max((depth(v) for v in node.values()), default=0)

        assert depth(doc) == spec.nesting_level

    def test_query_path_count(self, spec):
        factory = DocumentFactory(spec)
        assert len(factory.query_paths()) == spec.path_count

    #: ``(filler length, category pad)`` at seed 11, as the unbounded
    #: ``[0, 8192]`` calibration search found them.
    CALIBRATED = {
        "Q1": (4, 70), "Q2": (67, 0), "Q3": (13, 0), "Q4": (11, 0), "Q5": (20, 0),
        "Q6": (11, 0), "Q7": (13, 0), "Q8": (16, 0), "Q9": (57, 0), "Q10": (94, 0),
    }

    def test_average_size_near_target(self, spec):
        factory = DocumentFactory(spec)
        average = factory.average_size(sample=10)
        assert 0.6 * spec.avg_json_bytes <= average <= 1.25 * spec.avg_json_bytes
        calibrated = (factory._filler_len, factory._category_pad)
        assert calibrated == self.CALIBRATED[spec.query_id]

    def test_query_paths_resolve(self, spec):
        from repro.jsonlib.jsonpath import evaluate

        factory = DocumentFactory(spec)
        doc = factory.document(3)
        for path in factory.query_paths():
            assert evaluate(path, doc) is not None

    def test_documents_valid_json(self, spec):
        factory = DocumentFactory(spec)
        parser = JacksonParser()
        for i in range(3):
            assert parser.parse(factory.json(i)) == factory.document(i)


class TestQueryBuilders:
    def test_path_footprint_matches_table2(self, session):
        from repro.workload import build_queries, load_tables

        factories = load_tables(session.catalog, rows_per_table=30, days=1)
        queries = build_queries(factories)
        for spec in TABLE_SPECS:
            q = queries[spec.query_id]
            assert len(set(q.paths)) == len(q.paths)
            assert len(q.paths) == spec.path_count, spec.query_id

    def test_queries_compile_and_reference_their_paths(self, session):
        from repro.workload import build_queries, load_tables

        factories = load_tables(session.catalog, rows_per_table=30, days=1)
        queries = build_queries(factories)
        for q in queries.values():
            planned = session.compile(q.sql)
            referenced = {ref[3] for ref in planned.referenced_json_paths}
            assert referenced == set(q.paths), q.query_id

    def test_numeric_category_paths_disjoint(self):
        factory = DocumentFactory(TABLE_SPECS[1])
        numeric = set(factory.numeric_query_paths())
        category = set(factory.category_query_paths())
        assert not numeric & category

    def test_metric_scale_spreads_values(self):
        from repro.jsonlib.jsonpath import evaluate

        spec = TABLE_SPECS[8]  # Q9
        factory = DocumentFactory(spec, metric_scale=100)
        path = factory.numeric_query_paths()[0]
        values = [evaluate(path, factory.document(i)) for i in range(100)]
        assert max(values) > 5000  # spreads across the range
