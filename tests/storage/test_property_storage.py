"""Property-based tests on the storage layer (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import _apply_unary, _between_result, _null_safe_compare
from repro.storage import (
    AndSarg,
    ColumnStats,
    ComparisonSarg,
    DataType,
    OrcFileReader,
    OrcWriter,
    SargOp,
    Schema,
    Truth,
)

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-(2**40), max_value=2**40)),
        st.one_of(st.none(), st.text(max_size=20)),
        st.one_of(
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=60,
)


def _schema() -> Schema:
    return Schema.of(
        ("i", DataType.INT64),
        ("s", DataType.STRING),
        ("f", DataType.FLOAT64),
        ("b", DataType.BOOL),
    )


@given(rows_strategy, st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_orc_round_trip_any_rows(rows, row_group_size):
    writer = OrcWriter(_schema(), row_group_size=row_group_size)
    writer.write_rows(rows)
    reader = OrcFileReader(writer.finish())
    assert reader.read_rows() == rows
    assert reader.row_count == len(rows)


#: Strings on both sides of the footer's 64-character statistic bound:
#: short ones, and 62-67 characters sharing a prefix, with non-BMP
#: characters and lone surrogates in the tail that decides their order.
_LONG_STRINGS = st.text(
    st.sampled_from(["a", "b", "\U0001d11e", "\ud800", "\udfff"]), max_size=5
).map(lambda tail: "a" * 62 + tail)

#: A column's value family per type: floats with NaN and ±0.0 mixed with
#: ints (a float column accepts ints), ints, bools, strings.
_FAMILIES = {
    DataType.FLOAT64: st.one_of(
        st.floats(-4, 4), st.sampled_from([0.0, -0.0, float("nan")]), st.integers(-4, 4)
    ),
    DataType.INT64: st.integers(-4, 4),
    DataType.BOOL: st.booleans(),
    DataType.STRING: st.text("abc", max_size=3)
    | _LONG_STRINGS,
}


@st.composite
def _column(draw):
    dtype = draw(st.sampled_from(list(_FAMILIES)))
    values = draw(st.lists(st.none() | _FAMILIES[dtype], min_size=1, max_size=24))
    literal = _FAMILIES[dtype] | st.sampled_from([1, 2.5, "b", True])
    return dtype, values, draw(literal), draw(literal)


@given(_column(), st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_sarg_elimination_is_sound(column, row_group_size):
    """Per row group, for every SARG operator and BETWEEN: NO means the
    engine's predicate is TRUE on no row, YES on every row — from the
    footer's statistics and from ``ColumnStats.of`` alike."""
    dtype, values, low, high = column
    writer = OrcWriter(Schema.of(("c", dtype)), row_group_size=row_group_size)
    writer.write_rows([(v,) for v in values])
    cases = [
        (ComparisonSarg("c", op, low), lambda v, op=op: _null_safe_compare(op.value, v, low))
        for op in list(SargOp)[:5]
    ] + [
        (ComparisonSarg("c", op), lambda v, op=op: _apply_unary(op.value, v))
        for op in list(SargOp)[5:]
    ]
    between = (ComparisonSarg("c", SargOp.GE, low), ComparisonSarg("c", SargOp.LE, high))
    cases.append((AndSarg(between), lambda v: _between_result(v, low, high)))
    start = 0
    for rg in OrcFileReader(writer.finish()).row_group_layout():
        chunk = values[start : start + rg.row_count]
        start += rg.row_count
        for stats in (rg.column_stats, {"c": ColumnStats.of(chunk)}):
            for sarg, predicate in cases:
                passed = [predicate(v) is True for v in chunk]
                truth = sarg.truth(stats)
                assert truth is not Truth.YES or all(passed), (sarg, chunk)
                assert truth is not Truth.NO or not any(passed), (sarg, chunk)


@given(st.lists(st.one_of(st.none(), st.integers(-50, 50)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_column_stats_bound_values(values):
    stats = ColumnStats.of(values)
    non_null = [v for v in values if v is not None]
    assert stats.value_count == len(values)
    assert stats.null_count == len(values) - len(non_null)
    if non_null:
        assert stats.minimum == min(non_null)
        assert stats.maximum == max(non_null)
        for v in non_null:
            assert stats.minimum <= v <= stats.maximum
    else:
        assert stats.all_null
