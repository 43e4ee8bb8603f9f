"""A generated differential: 500 seeded statements, four configurations,
one oracle. ``tests/sql_generator.py`` emits the statements; each runs on
the plain engine, with ``scan_workers=4``, Maxson-rewritten with every
JSONPath cached, and so under a PR-2 fault profile, and must return the
rows ``tests/reference_engine.py`` derives — in order under ORDER BY, as a
multiset otherwise. The table is the differential suites' seven-split one:
row groups of ten (so SARGs have boundaries to get wrong) and a split of
irregular documents. With the result cache on, the recurrence of each
statement — served from the cache — must return those rows too.

The same statements then pin "tracing must not change what is executed":
at every worker count and backend a traced run returns the rows and the
count-valued metrics of the untraced one, its operator spans are the
operators ``Session.explain`` lists, and its span deltas reconcile with
its ``QueryMetrics`` — also with the paths cached, and with a cache file
corrupted (``test_trace_reconcile.py``'s fixtures). That property is
structural per plan *shape*, so tier-1 runs one statement per distinct
shape on each leg; ``--every-statement`` (CI's fault-matrix job) runs all.
"""

import pytest

from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.obs import Tracer
from repro.obs.explain import operator_root
from repro.workload import PathKey

from reference_engine import reference_rows
from sql_generator import MEMBERS, statements
from test_parallel_differential import assert_metric_parity, build_system
import test_trace_reconcile as reconcile

STATEMENTS = statements(seed=7, count=500)


@pytest.fixture(scope="module")
def world():
    fs = FaultyFileSystem()
    system = build_system(fs=fs)
    system.cache_paths_directly(
        [PathKey("db", "t", "payload", f"$.{name}") for name in MEMBERS],
        budget_bytes=1 << 40,
    )
    expected = [reference_rows(system.session, sql) for sql in STATEMENTS]
    yield system, fs, expected
    system.session.close_worker_pools()


def comparable(sql: str, rows: list[dict]) -> list:
    return rows if " order by " in sql else sorted(map(repr, rows))


def assert_all_equal(run, expected) -> None:
    wrong = [
        sql
        for sql, want in zip(STATEMENTS, expected)
        if comparable(sql, run(sql).rows) != comparable(sql, want)
    ]
    assert not wrong, f"{len(wrong)} statements diverge, first: {wrong[0]}"


@pytest.mark.parametrize("workers", [1, 4])
def test_plain_engine(world, workers):
    system, _, expected = world
    system.session.scan_workers = workers
    assert_all_equal(system.baseline_sql, expected)


def test_maxson_rewritten_all_paths_cached(world):
    system, _, expected = world
    assert_all_equal(system.sql, expected)
    assert system.session.session_metrics.cache_hits > 0
    assert system.resilience.snapshot()["fallback_splits"] == 0


def test_maxson_under_flaky_cache_reads(world):
    system, fs, expected = world
    system.breaker.quarantine_seconds = 0.0  # re-probe on every statement
    fs.policy = FaultPolicy(
        read_error_rate=0.5, seed=11, error_path_prefix=CACHE_PATH_PREFIX
    )
    assert_all_equal(system.sql, expected)
    assert system.resilience.snapshot()["fallback_splits"] > 0
    assert system.session.session_metrics.cache_hits > 0


def assert_tracing_changes_nothing(session, sqls) -> None:
    for sql in sqls:
        plain = session.sql(sql)
        traced = session.sql(sql, tracer=Tracer())
        assert traced.rows == plain.rows, sql
        assert_metric_parity(plain, traced, sql)
        assert traced.metrics.extra.get("degraded_splits") == (
            plain.metrics.extra.get("degraded_splits")
        ), sql
        # operator spans are labelled; split/combine/parse ones are not
        # (an unset label reads as the span's name)
        spans = operator_root(traced.trace).walk()
        assert {span.label for span in spans if span.label != span.name} == {
            line.strip() for line in session.explain(sql).splitlines()
        }, sql
        reconcile.assert_reconciles(traced)


def one_per_plan_shape(session, sqls) -> list[str]:
    """The first statement of each distinct plan shape: the operators
    ``Session.explain`` lists and their nesting, arguments dropped."""
    by_shape: dict[tuple, str] = {}
    for sql in sqls:
        lines = session.explain(sql).splitlines()
        shape = tuple((len(line) - len(line.lstrip()), line.split()[0]) for line in lines)
        by_shape.setdefault(shape, sql)
    return list(by_shape.values())


def test_result_cache_serves_the_reference(world, request):
    """Each statement twice on a result-cache session, plain and then
    Maxson-cached: the second pass is served from the cache, and both
    passes return the reference rows. One statement per plan shape in
    tier-1, all of them with ``--every-statement``."""
    _, _, expected = world
    system = build_system(result_cache=True)
    session = system.session
    session.configure(result_cache_entries=2 * len(STATEMENTS))  # no evictions
    system.cache_paths_directly(
        [PathKey("db", "t", "payload", f"$.{name}") for name in MEMBERS],
        budget_bytes=1 << 40,
    )
    want = dict(zip(STATEMENTS, expected))
    sqls = list(want)
    if not request.config.getoption("--every-statement"):
        sqls = one_per_plan_shape(session, sqls)
    for run in (system.baseline_sql, system.sql):
        for _ in range(2):
            wrong = [
                sql
                for sql in sqls
                if comparable(sql, run(sql).rows) != comparable(sql, want[sql])
            ]
            assert not wrong, f"{len(wrong)} statements diverge, first: {wrong[0]}"
    # Plain and Maxson-rewritten plans key apart; each recurs once.
    keyed = sum(session.canonical_statement(sql) is not None for sql in sqls)
    assert keyed > 0
    assert session.result_cache_stats()["hits"] == 2 * keyed


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("workers", [1, 3])
def test_traced_equals_untraced(world, workers, backend, request):
    system, fs, _ = world
    fs.policy = FaultPolicy()  # an earlier test's may still be installed
    session = system.session
    session.scan_workers, session.worker_backend = workers, backend
    session.remove_plan_modifier(system.modifier)  # the plain engine parses
    try:
        shapes = one_per_plan_shape(session, STATEMENTS)
        print(f"{len(shapes)} plan shapes in {len(STATEMENTS)} statements")
        every = request.config.getoption("--every-statement")
        assert_tracing_changes_nothing(session, STATEMENTS if every else shapes)
    finally:
        session.add_plan_modifier(system.modifier)
    assert_tracing_changes_nothing(session, STATEMENTS[::5])  # every path cached
    fixture = reconcile.TestDegradedReconciliation()
    for corrupt in (False, True):
        small = fixture.build_system(workers, backend)
        small.cacher.populate(fixture.KEYS)
        if corrupt:
            fixture.corrupt_first_cache_file(small)
            small.breaker.quarantine_seconds = 0.0  # both runs probe the cache
        try:
            assert_tracing_changes_nothing(small.session, [fixture.SQL])
            assert bool(small.resilience.get("fallback_queries")) == corrupt
        finally:
            small.session.close_worker_pools()
