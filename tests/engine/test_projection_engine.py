"""The projection parse at engine level.

The engine reads its JSONPaths through a
:class:`~repro.jsonlib.projection.PathProjector`; the reference
interpreter parses whole documents. Their agreement over irregular
documents is asserted by the differential suites (``test_differential`` and friends,
whose fixtures hold such rows); this module pins what those cannot: the
path set a plan carries, that malformed escapes and over-long integers
yield NULL instead of failing the query, and that the parse counters a
statement reports are the ones it reported when the engine built whole
trees.
"""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.engine.expressions import EvalContext
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

from irregular_documents import irregular_documents
from reference_engine import reference_rows

EVERY = {"aa": 4, "bb": "w1", "cc": 70}

#: A statement that reads every member of ``db.every``'s documents — the
#: shape where a projecting parser has nothing to skip.
EVERY_SQL = (
    "select get_json_object(payload, '$.aa') as a, "
    "get_json_object(payload, '$.bb') as b, "
    "get_json_object(payload, '$.cc') as c from db.every"
)

STATEMENTS = [
    EVERY_SQL,
    "select get_json_object(payload, '$.aa') as a from db.every "
    "where get_json_object(payload, '$.cc') > 60 "
    "and get_json_object(payload, '$.bb') = 'w1'",
    "select get_json_object(payload, '$.bb') as b, count(*) as n, "
    "sum(get_json_object(payload, '$.aa')) as s from db.every "
    "group by get_json_object(payload, '$.bb')",
    "select count(*) as n from db.every a join db.every b "
    "on get_json_object(a.payload, '$.aa') = get_json_object(b.payload, '$.cc')",
    "select get_json_object(payload, '$.aa.x') as x, "
    "get_json_object(payload, '$.arr[1][1].k') as k from db.every",
]

#: ``(parse_documents, parse_bytes, shared_parse_hits, doc_cache_evictions)``
#: per statement, as reported at the parent commit (whole-tree batch path,
#: with only the tokenizer fix applied so the fixture's ``\u-123``
#: document does not fail the query). The last row is ``STATEMENTS[0]``
#: under a 4 kB cache budget, which makes the document cache evict; it
#: was ``(180, 27265, 120, 111)`` while each extraction looked its
#: documents up again, and reads as unevicted since a batch projects
#: each column once.
PARENT_COUNTERS = [
    (100, 10157, 200, 0),
    (100, 10157, 122, 0),
    (107, 10353, 100, 0),
    (100, 10157, 100, 0),
    (100, 10157, 100, 0),
    (100, 10157, 200, 31),
]


def load_every(session: Session, vary_types: bool = True) -> None:
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "every", schema)
    regular = [
        dumps({"aa": i % 5, "bb": f"w{i % 3}", "cc": i * 7}) for i in range(60)
    ]
    odd = irregular_documents(EVERY, vary_types=vary_types)
    for start, texts in ((0, regular), (60, odd)):
        session.catalog.append_rows(
            "db", "every", list(enumerate(texts, start=start)), row_group_size=10
        )


@pytest.fixture
def every_session(session: Session) -> Session:
    load_every(session)
    return session


def counters(result) -> tuple[int, int, int, int]:
    m = result.metrics
    return (
        m.parse_documents,
        m.parse_bytes,
        m.shared_parse_hits,
        m.doc_cache_evictions,
    )


class TestCountersUnchanged:
    @pytest.mark.parametrize("index", range(len(STATEMENTS)))
    def test_statement_reports_the_parent_counters(self, every_session, index):
        result = every_session.sql(STATEMENTS[index])
        assert counters(result) == PARENT_COUNTERS[index]

    def test_evicting_budget_reports_the_parent_counters(self):
        session = Session(fs=BlockFileSystem(), cache_budget_bytes=4_000)
        load_every(session)
        assert counters(session.sql(STATEMENTS[0])) == PARENT_COUNTERS[-1]

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_batch_rows_identical_to_row_interpreter(self, every_session, sql):
        assert every_session.sql(sql).rows == reference_rows(every_session, sql)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_agree_on_rows_and_counters(self, every_session, backend):
        serial = [every_session.sql(sql) for sql in STATEMENTS]
        every_session.scan_workers = 2
        every_session.worker_backend = backend
        try:
            for sql, expected in zip(STATEMENTS, serial):
                got = every_session.sql(sql)
                assert got.rows == expected.rows, sql
                assert counters(got) == counters(expected), sql
        finally:
            every_session.close_worker_pools()


#: 29 paths over one column, most under shared prefixes, and a filter.
WIDE_PATHS = [f"$.f{i:02d}" for i in range(18)] + [
    "$.n.k", "$.n.m.x", "$.n.m.y", "$.n.m", "$.n.z[0]", "$.n.z[*].q",
    "$.n.m.w.v", "$.arr[1]", "$.arr[*]", "$.n.gone.x", "$.f00.x",
]
WIDE_SQL = (
    "select "
    + ", ".join(f"get_json_object(payload, '{p}') as c{i}" for i, p in enumerate(WIDE_PATHS))
    + " from db.wide where get_json_object(payload, '$.n.k') > 2"
)


class TestOneProjectionPerText:
    """Each distinct text is projected once per query, however many
    expressions read it, even while the document cache evicts."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_one_parse_per_distinct_text(self, backend):
        session = Session(fs=BlockFileSystem(), cache_budget_bytes=4_000)
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "wide", schema)
        texts = [
            dumps({
                **{f"f{j:02d}": i * 31 + j for j in range(18)},
                "n": {"k": i % 5, "m": {"x": i, "y": [i], "w": {"v": "s"}},
                      "z": [{"q": i}, {"q": None}]},
                "arr": [i, str(i)],
            })
            for i in range(40)
        ]
        session.catalog.append_rows(
            "db", "wide", list(enumerate(texts)), row_group_size=10
        )
        assert len(WIDE_PATHS) == 29
        if backend != "serial":
            session.scan_workers = 2
            session.worker_backend = backend
        try:
            result = session.sql(WIDE_SQL)
        finally:
            session.close_worker_pools()
        assert result.metrics.parse_documents == len(set(texts))
        assert result.metrics.doc_cache_evictions > 0
        assert len(result.rows) == 16
        assert result.rows == reference_rows(session, WIDE_SQL)


class TestMalformedYieldsNull:
    """Regression: these documents used to fail the whole query with a
    ``ValueError`` out of the tokenizer instead of reading as NULL."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"a":"\\u-123","b":1}',
            '{"\\u-123":1,"b":1}',
            '{"a":' + "9" * 5000 + ',"b":1}',
        ],
        ids=["escape-in-value", "escape-in-key", "integer-digits"],
    )
    @pytest.mark.parametrize("side", ["batch", "row"])
    def test_null_not_failure(self, session, text, side):
        """Holds for the engine ("batch") and for the reference row
        interpreter it is compared against ("row")."""
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "bad", schema)
        session.catalog.append_rows("db", "bad", [(1, text), (2, '{"b":2}')])
        sql = "select id, get_json_object(payload, '$.b') as b from db.bad"
        expected = [{"id": 1, "b": None}, {"id": 2, "b": 2}]
        if side == "row":
            assert reference_rows(session, sql) == expected
        else:
            result = session.sql(sql)
            assert result.rows == expected
            assert result.metrics.parse_documents == 2


class TestPlanPathSet:
    def test_plan_carries_its_distinct_paths(self, every_session):
        planned, state, _ = every_session._prepare(STATEMENTS[1])
        assert planned.json_paths == ("$.aa", "$.cc", "$.bb")  # plan order
        assert state.context.json_paths == planned.json_paths
        # A plan-cache hit hands the same tuple to the next execution.
        again, state, _ = every_session._prepare(STATEMENTS[1])
        assert again is planned
        assert state.metrics.extra["plan_cache_hits"] == 1
        assert state.context.json_paths == planned.json_paths
        assert state.fork().context.json_paths == planned.json_paths

    def test_cached_paths_are_not_projected(self):
        session = Session(fs=BlockFileSystem())
        # A cache column has one type; members that change type read
        # differently from it than from the raw text, projector or not.
        load_every(session, vary_types=False)
        system = MaxsonSystem(
            session=session,
            config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
        )
        system.cache_paths_directly(
            [PathKey("db", "every", "payload", "$.aa")], budget_bytes=1 << 40
        )
        planned, _, _ = session._prepare(EVERY_SQL)
        assert planned.json_paths == ("$.bb", "$.cc")
        assert system.sql(EVERY_SQL).rows == system.baseline_sql(EVERY_SQL).rows

    def test_hand_driven_context_grows_its_path_set(self):
        context = EvalContext()
        texts = ['{"a":1,"b":{"c":2}}', "{broken", None, '{"a":3}']
        assert context.get_json_objects(texts, "$.a") == [1, None, None, 3]
        assert context.parser.stats.documents == 3
        # An undeclared path re-projects (the cached tuples lack it)...
        assert context.get_json_objects(texts, "$.b.c") == [2, None, None, None]
        assert context.parser.stats.documents == 6
        # ...after which both are served from the shared projections.
        assert context.get_json_objects(texts, "$.a") == [1, None, None, 3]
        assert context.parser.stats.documents == 6
        assert context.shared_parse_hits() == 3
