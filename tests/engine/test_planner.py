"""Unit tests for logical-to-physical planning."""

import pytest

from repro.engine import (
    FilterExec,
    HashJoinExec,
    LimitExec,
    PlanError,
    ProjectExec,
    ScanExec,
    Session,
    SortExec,
)
from repro.storage import AndSarg, ComparisonSarg, DataType, SargOp, Schema


@pytest.fixture
def planner_session(session: Session) -> Session:
    schema = Schema.of(
        ("a", DataType.INT64),
        ("b", DataType.STRING),
        ("c", DataType.FLOAT64),
        ("payload", DataType.STRING),
    )
    session.catalog.create_table("db", "t", schema)
    session.catalog.create_table("db", "u", schema)
    return session


def scan_of(plan):
    node = plan
    while not isinstance(node, ScanExec):
        node = node.children()[0]
    return node


class TestColumnPruning:
    def test_only_referenced_columns_scanned(self, planner_session):
        planned = planner_session.compile("select a from db.t where b = 'x'")
        assert scan_of(planned.physical).columns == ["a", "b"]

    def test_star_reads_everything(self, planner_session):
        planned = planner_session.compile("select * from db.t")
        assert scan_of(planned.physical).columns == ["a", "b", "c", "payload"]

    def test_count_star_reads_no_column(self, planner_session):
        planned = planner_session.compile("select count(*) from db.t")
        assert scan_of(planned.physical).columns == []

    def test_json_column_required_by_get_json_object(self, planner_session):
        planned = planner_session.compile(
            "select get_json_object(payload, '$.x') from db.t"
        )
        assert scan_of(planned.physical).columns == ["payload"]

    def test_qualified_references_resolve(self, planner_session):
        planned = planner_session.compile(
            "select x.a from db.t x where x.c > 1"
        )
        assert scan_of(planned.physical).columns == ["a", "c"]


class TestSargExtraction:
    def test_equality_pushed(self, planner_session):
        planned = planner_session.compile("select a from db.t where b = 'x'")
        scan = scan_of(planned.physical)
        assert isinstance(scan.sarg, ComparisonSarg)
        assert scan.sarg.column == "b"

    def test_between_pushed_as_range(self, planner_session):
        planned = planner_session.compile(
            "select a from db.t where a between 1 and 9"
        )
        assert isinstance(scan_of(planned.physical).sarg, AndSarg)

    def test_conjunction_pushes_all_sides(self, planner_session):
        planned = planner_session.compile(
            "select a from db.t where a > 1 and b = 'x'"
        )
        sarg = scan_of(planned.physical).sarg
        assert isinstance(sarg, AndSarg)
        assert len(sarg.children) == 2

    def test_expression_predicates_not_pushed(self, planner_session):
        planned = planner_session.compile(
            "select a from db.t where a + 1 > 2"
        )
        assert scan_of(planned.physical).sarg is None

    def test_residual_filter_always_kept(self, planner_session):
        planned = planner_session.compile("select a from db.t where a = 1")
        assert isinstance(planned.physical, ProjectExec)
        assert isinstance(planned.physical.child, FilterExec)

    def test_flipped_literal_side(self, planner_session):
        planned = planner_session.compile("select a from db.t where 5 < a")
        sarg = scan_of(planned.physical).sarg
        assert sarg.column == "a"
        assert sarg.op.value == ">"


class TestJoinSidePushdown:
    def test_one_side_conjuncts_reach_their_scans(self, planner_session):
        """Q3's shape: each side's date conjunct filters that side's scan."""
        planned = planner_session.compile(
            "select x.a from db.t x join db.t y on x.a = y.a "
            "where x.b = '20190101' and y.b = '20190103'"
        )
        join = planned.physical.child
        assert isinstance(join, HashJoinExec)
        for side, literal in ((join.left, "20190101"), (join.right, "20190103")):
            assert isinstance(side, FilterExec)
            (conjunct, sarg), = side.child.sargs
            assert conjunct is side.condition
            assert sarg == ComparisonSarg("b", SargOp.EQ, literal)

    @pytest.mark.parametrize("conjunct", [
        "b = 'k'",  # a bare name present on both sides
        "get_json_object(x.payload, '$.k') = 'v'",  # an extraction
        "(x.c > 1 or y.c > 1)",  # a cross-side OR
        "x.a + 1 > 2",  # not column-vs-literal
    ])
    def test_everything_else_stays_above(self, planner_session, conjunct):
        planned = planner_session.compile(
            "select x.a from db.t x join db.u y on x.a = y.a "
            f"where {conjunct} and y.c > 3"
        )
        above = planned.physical.child
        assert isinstance(above, FilterExec)
        assert above.condition.sql() == planned.logical.child.condition.left.sql()
        assert isinstance(above.child.right, FilterExec)
        assert isinstance(above.child.left, ScanExec)


class TestSortPlacement:
    def test_sort_on_projected_alias_stays_above(self, planner_session):
        planned = planner_session.compile(
            "select a as x from db.t order by x"
        )
        assert isinstance(planned.physical, SortExec)
        assert isinstance(planned.physical.child, ProjectExec)

    def test_sort_on_projected_expression_rewritten(self, planner_session):
        planned = planner_session.compile(
            "select get_json_object(payload, '$.v') as v from db.t "
            "order by get_json_object(payload, '$.v')"
        )
        assert isinstance(planned.physical, SortExec)
        key = planned.physical.keys[0].expression
        from repro.engine import Column

        assert key == Column("v")

    def test_sort_on_unprojected_column_pushed_below(self, planner_session):
        planned = planner_session.compile("select a from db.t order by c")
        assert isinstance(planned.physical, ProjectExec)
        assert isinstance(planned.physical.child, SortExec)

    def test_limit_outermost(self, planner_session):
        planned = planner_session.compile(
            "select a from db.t order by a limit 5"
        )
        assert isinstance(planned.physical, LimitExec)


class TestJoinPlanning:
    def test_equi_join_becomes_hash_join(self, planner_session):
        planned = planner_session.compile(
            "select x.a from db.t x join db.u y on x.a = y.a"
        )
        node = planned.physical
        while not isinstance(node, HashJoinExec):
            node = node.children()[0]
        assert len(node.left_keys) == 1

    def test_non_equi_only_join_rejected(self, planner_session):
        with pytest.raises(PlanError):
            planner_session.compile(
                "select x.a from db.t x join db.u y on x.a > y.a"
            )

    def test_mixed_condition_splits_residual(self, planner_session):
        planned = planner_session.compile(
            "select x.a from db.t x join db.u y "
            "on x.a = y.a and x.c > y.c"
        )
        node = planned.physical
        while not isinstance(node, HashJoinExec):
            node = node.children()[0]
        assert node.residual is not None


class TestReferencedPaths:
    def test_paths_collected_with_locations(self, planner_session):
        planned = planner_session.compile(
            "select get_json_object(payload, '$.x') from db.t "
            "where get_json_object(payload, '$.y') > 1"
        )
        assert set(planned.referenced_json_paths) == {
            ("db", "t", "payload", "$.x"),
            ("db", "t", "payload", "$.y"),
        }

    def test_alias_qualified_paths(self, planner_session):
        planned = planner_session.compile(
            "select get_json_object(p.payload, '$.x') from db.t p"
        )
        assert planned.referenced_json_paths == [("db", "t", "payload", "$.x")]

    def test_duplicates_deduplicated(self, planner_session):
        planned = planner_session.compile(
            "select get_json_object(payload, '$.x'), "
            "get_json_object(payload, '$.x') from db.t"
        )
        assert len(planned.referenced_json_paths) == 1
