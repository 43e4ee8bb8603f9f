"""Tests for the incremental cache refresh extension."""

import pytest

from repro.core import CACHE_DATABASE, JsonPathCacher, cache_table_name
from repro.engine import Session
from repro.faults import FaultPolicy, FaultyFileSystem, InjectedCrash
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, OrcFileReader, Schema
from repro.workload import PathKey


def make_session(fs_class=BlockFileSystem) -> Session:
    ticks = iter(float(i) for i in range(1_000_000))
    session = Session(fs=fs_class(clock=lambda: next(ticks)))
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    return session


def append_partition(session: Session, start: int, rows: int = 20) -> None:
    batch = [
        (i, dumps({"m": i, "name": f"n{i}"}))
        for i in range(start, start + rows)
    ]
    session.catalog.append_rows("db", "t", batch, row_group_size=5)


def keys() -> list[PathKey]:
    return [
        PathKey("db", "t", "payload", "$.m"),
        PathKey("db", "t", "payload", "$.name"),
    ]


class TestRefresh:
    def test_refresh_appends_only_new_files(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        cacher.populate(keys())
        append_partition(session, 20)
        report = cacher.refresh(keys())
        # only the new partition (20 rows) was parsed
        assert report.rows_parsed == 20
        cache_files = session.catalog.table_files(
            CACHE_DATABASE, cache_table_name("db", "t")
        )
        assert len(cache_files) == 2

    def test_refreshed_values_aligned(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        cacher.populate(keys())
        append_partition(session, 20)
        cacher.refresh(keys())
        cache_files = session.catalog.table_files(
            CACHE_DATABASE, cache_table_name("db", "t")
        )
        reader = OrcFileReader(session.fs.read(cache_files[1]))
        columns, _ = reader.read_columns()
        assert columns["payload__m"] == list(range(20, 40))

    def test_refresh_revalidates_entries(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        cacher.populate(keys())
        append_partition(session, 20)
        raw_mtime = session.catalog.modification_time("db", "t")
        cacher.refresh(keys())
        entry = cacher.registry.lookup(keys()[0])
        assert entry is not None
        assert entry.cache_time > raw_mtime
        assert entry.rows == 40

    def test_refresh_with_changed_keyset_rebuilds(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        cacher.populate([keys()[0]])
        append_partition(session, 20)
        report = cacher.refresh(keys())  # different key set -> full rebuild
        assert report.rows_parsed == 40

    def test_refresh_without_existing_cache_builds(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        report = cacher.refresh(keys())
        assert report.rows_parsed == 20

    def test_refresh_noop_when_no_new_files(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        cacher.populate(keys())
        report = cacher.refresh(keys())
        assert report.rows_parsed == 0
        assert len(
            session.catalog.table_files(
                CACHE_DATABASE, cache_table_name("db", "t")
            )
        ) == 1

    def test_refresh_end_to_end_queries_stay_correct(self):
        from repro.core import MaxsonSystem

        session = make_session()
        append_partition(session, 0)
        system = MaxsonSystem(session=session)
        system.cacher.populate(keys())
        append_partition(session, 20)
        system.cacher.refresh(keys())
        sql = (
            "select get_json_object(payload, '$.m') as m from db.t "
            "where get_json_object(payload, '$.m') >= 30"
        )
        baseline = system.baseline_sql(sql)
        result = system.sql(sql)
        assert result.rows == baseline.rows
        assert result.metrics.parse_documents == 0  # cache valid again
        assert len(result.rows) == 10

    def test_refresh_repairs_invalidated_cache(self):
        """An invalid mark (stale cache) is cleared by refresh, and only
        the new partitions are parsed — not the whole history."""
        from repro.core import MaxsonSystem

        session = make_session()
        append_partition(session, 0)
        system = MaxsonSystem(session=session)
        system.cacher.populate(keys())
        append_partition(session, 20)
        sql = "select get_json_object(payload, '$.m') as m from db.t"
        system.sql(sql)  # marks the cache table invalid
        assert system.registry.invalid_tables()
        report = system.cacher.refresh(keys())
        assert report.rows_parsed == 20  # just the new partition
        assert not system.registry.invalid_tables()
        result = system.sql(sql)
        assert result.metrics.parse_documents == 0
        assert len(result.rows) == 40

    def test_key_order_insensitive(self):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog)
        cacher.populate(list(reversed(keys())))
        append_partition(session, 20)
        cacher.refresh(keys())  # different order, same set
        cache_files = session.catalog.table_files(
            CACHE_DATABASE, cache_table_name("db", "t")
        )
        first = OrcFileReader(session.fs.read(cache_files[0]))
        second = OrcFileReader(session.fs.read(cache_files[1]))
        assert first.schema.names == second.schema.names
        columns, _ = second.read_columns()
        assert columns["payload__m"] == list(range(20, 40))


def cache_file_bytes(session: Session, suffix: str = "") -> list[bytes]:
    table = cache_table_name("db", "t") + suffix
    return [
        session.fs.read(path)
        for path in session.catalog.table_files(CACHE_DATABASE, table)
    ]


def from_scratch(session: Session, key_list: list[PathKey]) -> list[bytes]:
    """The files a populate of ``key_list`` writes into tables of its own."""
    JsonPathCacher(session.catalog, table_suffix="__scratch").populate(key_list)
    return cache_file_bytes(session, "__scratch")


@pytest.mark.parametrize("workers", [1, 4])
class TestRefreshEqualsPopulate:
    """However a cache table reached the raw table's length, its files are
    byte for byte those of a from-scratch populate on the same raw files."""

    def test_appended_partitions(self, workers):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog, build_workers=workers)
        cacher.populate(keys())
        for start in (20, 40, 60):
            append_partition(session, start)
        assert cacher.refresh(keys()).rows_parsed == 60
        assert cache_file_bytes(session) == from_scratch(session, keys())
        assert cacher.populate(keys()).rows_parsed == 0  # nothing left to do

    def test_changed_key_set_and_shrunk_raw_table(self, workers):
        session = make_session()
        for start in (0, 20, 40):
            append_partition(session, start)
        cacher = JsonPathCacher(session.catalog, build_workers=workers)
        cacher.populate(keys()[:1])
        assert cacher.refresh(keys()).rows_parsed == 60  # rebuilt: new key set
        assert cache_file_bytes(session) == from_scratch(session, keys())
        session.fs.delete(session.catalog.table_files("db", "t")[-1])
        assert cacher.refresh(keys()).rows_parsed == 40  # rebuilt: raw shrank
        assert cache_file_bytes(session) == from_scratch(session, keys())

    def test_invalidated_but_intact_table(self, workers):
        session = make_session()
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog, build_workers=workers)
        cacher.populate(keys())
        append_partition(session, 20)
        cacher.registry.mark_table_invalid(cache_table_name("db", "t"))
        assert cacher.refresh(keys()).rows_parsed == 20
        assert not cacher.registry.invalid_tables()
        assert cache_file_bytes(session) == from_scratch(session, keys())

    def test_crash_between_two_appended_files(self, workers):
        session = make_session(FaultyFileSystem)
        append_partition(session, 0)
        cacher = JsonPathCacher(session.catalog, build_workers=workers)
        cacher.populate(keys())
        before = cacher.registry.all_entries()
        append_partition(session, 20)
        append_partition(session, 40)
        session.fs.policy = FaultPolicy(crash_after_writes=2)
        with pytest.raises(InjectedCrash):
            cacher.refresh(keys())
        # one appended file landed; the registry still describes the table
        # as it was (20 rows), so nothing reads past what it vouches for
        assert len(cache_file_bytes(session)) == 2
        assert cacher.registry.all_entries() == before
        assert cacher.refresh(keys()).rows_parsed == 20  # the missing file
        assert cache_file_bytes(session) == from_scratch(session, keys())
