"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import multiprocessing

import pytest

from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema


#: CI's fault-matrix profiles: corruption and read errors confined to the
#: cache database, and torn appends (.github/workflows/ci.yml).
CACHE_FAULT_PROFILES = [
    "corrupt=0.3,corrupt_prefix=/warehouse/maxson_cache,seed=3",
    "read_error=0.2,error_prefix=/warehouse/maxson_cache,seed=7",
    "corrupt=0.5,read_error=0.1,corrupt_prefix=/warehouse/maxson_cache,"
    "error_prefix=/warehouse/maxson_cache,seed=13",
    "torn_append=0.2,error_prefix=/warehouse/maxson_cache,seed=11",
]


def pytest_addoption(parser):
    parser.addoption(
        "--every-statement",
        action="store_true",
        help="run all 500 generated statements in every differential-matrix "
        "cell and traced == untraced leg, not one per plan shape",
    )
    parser.addoption(
        "--fault-profile",
        help="run the tests taking a ``fault_profile`` under this profile "
        "only (default: each of CI's four cache fault profiles)",
    )


def pytest_generate_tests(metafunc):
    if "fault_profile" in metafunc.fixturenames:
        chosen = metafunc.config.getoption("--fault-profile")
        profiles = [chosen] if chosen else CACHE_FAULT_PROFILES
        metafunc.parametrize("fault_profile", profiles)


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_run():
    """Every process a test starts — a shard, a pool worker — is gone when
    the run ends (a router or pool nobody closed, once collected, by its
    finalizer)."""
    yield
    gc.collect()
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def matrix(request):
    """The differential matrix's worlds (tests/test_differential_matrix.py)."""
    from test_differential_matrix import Matrix

    worlds = Matrix(request.config.getoption("--every-statement"))
    yield worlds
    worlds.close()


@pytest.fixture
def parse_calls(monkeypatch) -> list[str]:
    """The statements ``parse_sql`` is called on from here on."""
    from repro.engine import resultcache, session

    calls, real = [], resultcache.parse_sql
    for module in (resultcache, session):
        monkeypatch.setattr(module, "parse_sql", lambda s: calls.append(s) or real(s))
    return calls


@pytest.fixture
def fs() -> BlockFileSystem:
    return BlockFileSystem()


@pytest.fixture
def session() -> Session:
    return Session(fs=BlockFileSystem())


@pytest.fixture
def sales_session(session: Session) -> Session:
    """A session with the paper's Fig 1 sale-logs table loaded.

    Table ``mydb.T``: (mall_id, date, sale_logs-json), 5 daily partitions
    of 40 rows each, deterministic values.
    """
    schema = Schema.of(
        ("mall_id", DataType.STRING),
        ("date", DataType.STRING),
        ("sale_logs", DataType.STRING),
    )
    session.catalog.create_table("mydb", "T", schema)
    for day in range(1, 6):
        rows = []
        for i in range(40):
            index = (day - 1) * 40 + i
            log = {
                "item_id": index % 17,
                "item_name": f"item{index % 17}",
                "sale_count": (index * 3) % 100,
                "turnover": (index * 7) % 1000,
                "price": (index % 50) + 1,
            }
            rows.append(("0001", f"2019010{day}", dumps(log)))
        session.catalog.append_rows("mydb", "T", rows, row_group_size=10)
    return session


@pytest.fixture
def assert_fallback_equals_build():
    """``check(system, database, table)``: every split of a cached table,
    answered fully degraded (no cache file), returns the columns its cache
    file holds — value for value and type for type."""
    from repro.core.cacher import CACHE_DATABASE
    from repro.core.combiner import CachedFieldRequest, MaxsonScanExec
    from repro.storage import OrcFileReader

    def check(system, database: str, table: str) -> None:
        entries = [
            entry
            for entry in system.registry.all_entries()
            if (entry.key.database, entry.key.table) == (database, table)
        ]
        assert entries
        scan = MaxsonScanExec(
            database,
            table,
            None,
            [],
            cached_fields=[CachedFieldRequest(e, e.field_name) for e in entries],
        )
        catalog = system.catalog
        raw_files = catalog.table_files(database, table)
        cache_files = catalog.table_files(CACHE_DATABASE, entries[0].cache_table)
        assert len(raw_files) == len(cache_files) > 0
        for raw_path, cache_path in zip(raw_files, cache_files):
            batch, degraded = scan.run_morsel(
                system.session._make_state(), (raw_path, None)
            )
            stored, _ = OrcFileReader(catalog.fs.read(cache_path)).read_columns()
            assert degraded and set(stored) == set(batch.names)
            for name, values in stored.items():
                assert list(map(repr, batch.columns[name])) == list(
                    map(repr, values)
                ), (raw_path, name)

    return check
