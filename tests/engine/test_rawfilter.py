"""Tests for the Sparser raw-prefilter plan modifier."""

import pytest

from repro.engine import Session
from repro.engine.rawfilter import (
    SparserPlanModifier,
    SparserPrefilterExec,
    derive_cascade,
)
from repro.engine.sqlparser import parse_sql
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema


@pytest.fixture
def sparser_session() -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = []
    for i in range(300):
        doc = {"kind": f"k{i % 30}", "nested": {"flag": i % 2 == 0}, "v": i}
        rows.append((i, dumps(doc)))
    session.catalog.append_rows("db", "t", rows, row_group_size=50)
    session.add_plan_modifier(SparserPlanModifier())
    return session


def _condition(sql_where: str):
    plan = parse_sql(f"select id from db.t where {sql_where}")
    return plan.child.condition


class TestDeriveCascade:
    def test_string_equality(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.kind') = 'k7'"),
            {"payload"},
        )
        assert derived is not None
        column, cascade = derived
        assert column == "payload"
        assert cascade.filters[0].key == "kind"
        assert cascade.filters[0].value == '"k7"'

    def test_int_equality(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.v') = 12"), {"payload"}
        )
        assert derived is not None
        assert derived[1].filters[0].value == "12"

    def test_bool_equality(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.nested.flag') = true"),
            {"payload"},
        )
        assert derived is not None
        assert derived[1].filters[0].key == "flag"

    def test_float_not_probed(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.v') = 1.5"), {"payload"}
        )
        assert derived is None

    def test_inequality_not_probed(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.v') > 5"), {"payload"}
        )
        assert derived is None

    def test_index_paths_not_probed(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.arr[0]') = 1"), {"payload"}
        )
        assert derived is None

    def test_unknown_column_ignored(self):
        derived = derive_cascade(
            _condition("get_json_object(payload, '$.v') = 1"), {"other"}
        )
        assert derived is None

    def test_conjunction_collects_multiple_probes(self):
        derived = derive_cascade(
            _condition(
                "get_json_object(payload, '$.kind') = 'k1' "
                "and get_json_object(payload, '$.v') = 31"
            ),
            {"payload"},
        )
        assert derived is not None
        assert len(derived[1].filters) == 2


class TestEndToEnd:
    SQL = (
        "select id from db.t "
        "where get_json_object(payload, '$.kind') = 'k7'"
    )

    def test_results_match_unmodified_engine(self, sparser_session):
        with_prefilter = sparser_session.sql(self.SQL)
        modifier = sparser_session._plan_modifiers[0]
        sparser_session.remove_plan_modifier(modifier)
        try:
            plain = sparser_session.sql(self.SQL)
        finally:
            sparser_session.add_plan_modifier(modifier)
        assert with_prefilter.rows == plain.rows
        assert len(with_prefilter.rows) == 10

    def test_prefilter_reduces_parsing(self, sparser_session):
        result = sparser_session.sql(self.SQL)
        # only the ~10 surviving records (plus calibration) are parsed,
        # not all 300
        assert result.metrics.parse_documents < 100
        assert result.metrics.extra["sparser_rows_dropped"] > 200

    def test_template_hit_probes_its_own_literal(self, sparser_session):
        sparser_session.sql(self.SQL)
        variant = sparser_session.sql(self.SQL.replace("'k7'", "'k8'"))
        assert variant.metrics.extra["plan_cache_hits"] == 1
        assert {row["id"] % 30 for row in variant.rows} == {8}
        assert len(variant.rows) == 10

    def test_plan_shows_prefilter(self, sparser_session):
        text = sparser_session.explain(self.SQL)
        assert "SparserPrefilter" in text

    def test_non_probeable_query_unmodified(self, sparser_session):
        text = sparser_session.explain(
            "select id from db.t where get_json_object(payload, '$.v') > 100"
        )
        assert "SparserPrefilter" not in text

    def test_composes_with_maxson(self):
        from repro.core import MaxsonSystem
        from repro.workload import PathKey

        session = Session(fs=BlockFileSystem())
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "t", schema)
        rows = [(i, dumps({"kind": f"k{i % 30}", "v": i})) for i in range(100)]
        session.catalog.append_rows("db", "t", rows, row_group_size=20)
        system = MaxsonSystem(session=session)
        session.add_plan_modifier(SparserPlanModifier())

        sql = "select id from db.t where get_json_object(payload, '$.kind') = 'k3'"
        uncached = system.sql(sql)
        system.cacher.populate([PathKey("db", "t", "payload", "$.kind")])
        cached = system.sql(sql)
        assert cached.rows == uncached.rows
        # cached scan has no JSON column -> sparser skipped, no parsing
        assert cached.metrics.parse_documents == 0
