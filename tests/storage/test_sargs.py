"""Unit tests for search arguments (row-group elimination)."""

import pytest

from repro.storage import (
    AndSarg,
    ColumnStats,
    ComparisonSarg,
    OrSarg,
    SargOp,
    Truth,
    always_true,
)


def stats(lo, hi, nulls=0, count=10):
    return {"c": ColumnStats(lo, hi, nulls, count)}


class TestComparison:
    def test_eq_inside_range(self):
        assert ComparisonSarg("c", SargOp.EQ, 5).truth(stats(0, 10)) is not Truth.NO

    def test_eq_outside_range(self):
        assert ComparisonSarg("c", SargOp.EQ, 50).truth(stats(0, 10)) is Truth.NO

    def test_lt(self):
        assert ComparisonSarg("c", SargOp.LT, 1).truth(stats(0, 10)) is not Truth.NO
        assert ComparisonSarg("c", SargOp.LT, 0).truth(stats(0, 10)) is Truth.NO

    def test_le(self):
        assert ComparisonSarg("c", SargOp.LE, 0).truth(stats(0, 10)) is not Truth.NO
        assert ComparisonSarg("c", SargOp.LE, -1).truth(stats(0, 10)) is Truth.NO

    def test_gt(self):
        assert ComparisonSarg("c", SargOp.GT, 9).truth(stats(0, 10)) is not Truth.NO
        assert ComparisonSarg("c", SargOp.GT, 10).truth(stats(0, 10)) is Truth.NO

    def test_ge(self):
        assert ComparisonSarg("c", SargOp.GE, 10).truth(stats(0, 10)) is not Truth.NO
        assert ComparisonSarg("c", SargOp.GE, 11).truth(stats(0, 10)) is Truth.NO

    def test_string_range(self):
        s = stats("aaa", "mmm")
        assert ComparisonSarg("c", SargOp.EQ, "bbb").truth(s) is not Truth.NO
        assert ComparisonSarg("c", SargOp.EQ, "zzz").truth(s) is Truth.NO

    def test_missing_stats_conservative(self):
        assert ComparisonSarg("other", SargOp.EQ, 5).truth(stats(0, 10)) is not Truth.NO

    def test_all_null_group_never_matches_comparison(self):
        s = stats(None, None, nulls=10, count=10)
        assert ComparisonSarg("c", SargOp.EQ, 5).truth(s) is Truth.NO

    def test_is_null(self):
        assert ComparisonSarg("c", SargOp.IS_NULL).truth(stats(0, 10, nulls=1)) is not Truth.NO
        assert ComparisonSarg("c", SargOp.IS_NULL).truth(stats(0, 10, nulls=0)) is Truth.NO

    def test_is_not_null(self):
        assert ComparisonSarg("c", SargOp.IS_NOT_NULL).truth(stats(0, 10)) is not Truth.NO
        all_null = stats(None, None, nulls=10, count=10)
        assert ComparisonSarg("c", SargOp.IS_NOT_NULL).truth(all_null) is Truth.NO

    def test_incomparable_types_conservative(self):
        # int literal against string stats: cannot eliminate.
        assert ComparisonSarg("c", SargOp.EQ, 5).truth(stats("a", "z")) is not Truth.NO

    def test_numeric_cross_type_comparable(self):
        assert ComparisonSarg("c", SargOp.GT, 10.5).truth(stats(0, 10)) is Truth.NO

    def test_columns(self):
        assert ComparisonSarg("c", SargOp.EQ, 1).columns() == {"c"}


class TestCompound:
    def test_and_eliminates_if_any_child_does(self):
        sarg = AndSarg(
            (
                ComparisonSarg("c", SargOp.GE, 0),
                ComparisonSarg("c", SargOp.GT, 10),
            )
        )
        assert sarg.truth(stats(0, 10)) is Truth.NO

    def test_and_passes_when_all_pass(self):
        sarg = AndSarg(
            (
                ComparisonSarg("c", SargOp.GE, 0),
                ComparisonSarg("c", SargOp.LE, 10),
            )
        )
        assert sarg.truth(stats(0, 10)) is not Truth.NO

    def test_or_requires_all_children_eliminable(self):
        sarg = OrSarg(
            (
                ComparisonSarg("c", SargOp.GT, 100),
                ComparisonSarg("c", SargOp.LT, -100),
            )
        )
        assert sarg.truth(stats(0, 10)) is Truth.NO
        sarg2 = OrSarg(
            (
                ComparisonSarg("c", SargOp.GT, 100),
                ComparisonSarg("c", SargOp.EQ, 5),
            )
        )
        assert sarg2.truth(stats(0, 10)) is not Truth.NO

    def test_empty_or_true(self):
        assert OrSarg(()).truth(stats(0, 10)) is not Truth.NO

    def test_always_true(self):
        assert always_true().truth(stats(0, 10)) is not Truth.NO
        assert always_true().columns() == set()

    def test_compound_columns(self):
        sarg = AndSarg(
            (ComparisonSarg("a", SargOp.EQ, 1), ComparisonSarg("b", SargOp.EQ, 2))
        )
        assert sarg.columns() == {"a", "b"}


class TestColumnStatsOf:
    def test_of_values(self):
        s = ColumnStats.of([3, 1, None, 2])
        assert (s.minimum, s.maximum, s.null_count, s.value_count) == (1, 3, 1, 4)

    def test_of_all_null(self):
        s = ColumnStats.of([None, None])
        assert s.all_null
        assert s.minimum is None

    def test_of_empty(self):
        s = ColumnStats.of([])
        assert s.value_count == 0
        assert s.all_null


class TestSoundnessProperty:
    """SARG elimination must be sound: a skipped group has no matches."""

    @pytest.mark.parametrize("op,literal", [
        (SargOp.EQ, 5), (SargOp.LT, 3), (SargOp.LE, 3),
        (SargOp.GT, 7), (SargOp.GE, 7),
    ])
    def test_no_false_eliminations(self, op, literal):
        import random

        rng = random.Random(0)
        ops = {
            SargOp.EQ: lambda v: v == literal,
            SargOp.LT: lambda v: v < literal,
            SargOp.LE: lambda v: v <= literal,
            SargOp.GT: lambda v: v > literal,
            SargOp.GE: lambda v: v >= literal,
        }
        for _ in range(50):
            values = [rng.randint(0, 10) for _ in range(20)]
            group_stats = {"c": ColumnStats.of(values)}
            sarg = ComparisonSarg("c", op, literal)
            if sarg.truth(group_stats) is Truth.NO:
                assert not any(ops[op](v) for v in values)
