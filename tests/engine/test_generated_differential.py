"""A generated differential: 500 seeded statements, four configurations,
one oracle. ``tests/sql_generator.py`` emits the statements; each runs on
the plain engine, with ``scan_workers=4``, Maxson-rewritten with every
JSONPath cached, and so under a PR-2 fault profile, and must return the
rows ``tests/reference_engine.py`` derives — in order under ORDER BY, as a
multiset otherwise. The table is the differential suites' seven-split one:
row groups of ten (so SARGs have boundaries to get wrong) and a split of
irregular documents.
"""

import pytest

from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.workload import PathKey

from reference_engine import reference_rows
from sql_generator import MEMBERS, statements
from test_parallel_differential import build_system

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
