"""Tests for the incremental cache refresh extension."""

import pytest

from repro.core import (
    CACHE_DATABASE,
    JsonPathCacher,
    MaxsonConfig,
    MaxsonSystem,
    cache_table_name,
)
from repro.engine import Session
from repro.faults import (
    FaultPolicy,
    FaultyFileSystem,
    InjectedCrash,
    parse_fault_profile,
)
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, OrcFileReader, OrcWriter, Schema, orc
from repro.storage.fs import TransientFsError
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


def cache_file_bytes(session: Session, suffix: str = "", paths=False) -> list:
    table = cache_table_name("db", "t") + suffix
    files = session.catalog.table_files(CACHE_DATABASE, table)
    return files if paths else [session.fs.read(path) for path in files]


def from_scratch(session: Session, key_list: list[PathKey]) -> list[bytes]:
    """The files a populate of ``key_list`` writes into tables of its own."""
    JsonPathCacher(session.catalog, table_suffix="__scratch").populate(key_list)
    return cache_file_bytes(session, "__scratch")


def swap(system: MaxsonSystem, key_list: list[PathKey], policy=None):
    """Build the next generation (under ``policy``, when given) and check
    it against a from-scratch populate: the same files byte for byte and
    the same registry entries. The build report."""
    system.session.fs.policy = policy or FaultPolicy()
    build = system._swap_generation(key_list)
    system.session.fs.policy = FaultPolicy()
    assert not build.failed, build.error
    scratch = JsonPathCacher(system.catalog, table_suffix="__scratch")
    entries = scratch.populate(key_list).entries
    assert cache_file_bytes(system.session, f"__g{system.generation}") == (
        cache_file_bytes(system.session, "__scratch")
    )
    system.catalog.drop_table(CACHE_DATABASE, cache_table_name("db", "t") + "__scratch")

    def described(entries):
        return {e.key: (e.rows, e.bytes_on_disk_share, e.dtype) for e in entries}

    assert described(system.registry.all_entries()) == described(entries)
    return build


def generations(workers: int) -> MaxsonSystem:
    """A system on a fault-injectable file system whose first generation
    caches ``keys()`` over three raw files of 20 rows."""
    session = make_session(FaultyFileSystem)
    for start in (0, 20, 40):
        append_partition(session, start)
    system = MaxsonSystem(session=session, config=MaxsonConfig(build_workers=workers))
    assert swap(system, keys()).files_adopted == 0  # nothing to adopt from
    return system


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

    # -- a new generation adopts its predecessor's unchanged files --------
    def test_unchanged_table_is_adopted_whole(self, workers):
        system = generations(workers)
        build = swap(system, keys())
        assert (build.rows_parsed, build.files_adopted) == (0, 3)

    def test_appended_partitions_alone_are_parsed(self, workers):
        system = generations(workers)
        for start in (60, 80):
            append_partition(system.session, start)
        build = swap(system, keys())
        assert (build.rows_parsed, build.files_adopted) == (40, 3)

    def test_deleted_raw_file_ends_adoption(self, workers):
        system = generations(workers)
        system.session.fs.delete(system.catalog.table_files("db", "t")[1])
        build = swap(system, keys())  # raw part-00002 is not cache part-00001
        assert (build.rows_parsed, build.files_adopted) == (20, 1)

    def test_older_format_predecessor_is_parsed(self, workers):
        """A predecessor whose files carry another version byte does not
        open, so it is parsed again, not adopted: the new generation is
        what a populate writes, all of it in the version written."""
        system = generations(workers)
        fs = system.session.fs
        for path in cache_file_bytes(system.session, "__g1", paths=True):
            data = bytearray(fs.read(path))
            data[len(orc.MAGIC)] = orc.VERSION - 1
            fs.delete(path)
            fs.create(path, bytes(data))
            with pytest.raises(orc.OrcError, match="unsupported MORC version"):
                OrcFileReader(bytes(data))
        build = swap(system, keys())
        assert (build.rows_parsed, build.files_adopted) == (60, 0)

    def test_changed_key_set_rebuilds(self, workers):
        system = generations(workers)
        build = swap(system, keys()[:1])
        assert (build.rows_parsed, build.files_adopted) == (60, 0)

    def test_rewritten_raw_file_0_rebuilds_with_its_new_types(self, workers):
        system = generations(workers)
        fs, path = system.session.fs, system.catalog.table_files("db", "t")[0]
        writer = OrcWriter(system.catalog.get_table("db", "t").schema, row_group_size=5)
        writer.write_rows((i, dumps({"m": f"s{i}", "name": i})) for i in range(20))
        fs.delete(path)
        fs.create(path, writer.finish())
        build = swap(system, keys())
        assert (build.rows_parsed, build.files_adopted) == (60, 0)
        assert [system.registry.lookup(key).dtype for key in keys()] == [
            DataType.STRING,  # $.m, an int before
            DataType.INT64,  # $.name, a string before
        ]

    @pytest.mark.parametrize("fault", ["byte_flip", "read_error"])
    def test_faulty_predecessor_file_is_parsed(self, workers, fault, fault_profile):
        """Predecessor file 1 is byte-flipped on disk or cannot be read,
        and CI's profile faults the other reads of the cache: whatever
        stops adoption is parsed from raw, and the build does not fail."""
        system = generations(workers)
        fs = system.session.fs
        path = cache_file_bytes(system.session, "__g1", paths=True)[1]
        policy = parse_fault_profile(fault_profile)
        if fault == "byte_flip":
            data = bytearray(fs.read(path))
            data[OrcFileReader(bytes(data)).stripes[0].offset] ^= 0xFF
            fs.delete(path)
            fs.create(path, bytes(data))
        else:
            profile_read = policy.on_read

            def on_read(read_path):
                if read_path == path:
                    raise TransientFsError(f"injected: {path}")
                profile_read(read_path)

            policy.on_read = on_read
        build = swap(system, keys(), policy)
        assert build.files_adopted <= 1
        assert build.rows_parsed == 20 * (3 - build.files_adopted)
