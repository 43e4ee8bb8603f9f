"""Crash-safe build journal + orphan-generation recovery."""

import dataclasses

import pytest

from repro.core import JsonPathCacher, MaxsonConfig, MaxsonSystem
from repro.core.cacher import CACHE_DATABASE
from repro.core.journal import JOURNAL_PATH, BuildJournal
from repro.engine import Session
from repro.faults import (
    FaultPolicy,
    FaultyFileSystem,
    InjectedCrash,
    parse_fault_profile,
)
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

KEYS = [PathKey("db", "t", "payload", "$.m")]
SQL = "select id, get_json_object(payload, '$.m') as m from db.t"


def build_system(fs=None, rows=30, workers=1) -> MaxsonSystem:
    session = Session(fs=fs or BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    # two raw files -> two cache files per build, so a crash on the 2nd
    # cache write dies genuinely mid-build (one file landed, one missing)
    half = rows // 2
    for chunk in ([*range(half)], [*range(half, rows)]):
        session.catalog.append_rows(
            "db",
            "t",
            [(i, dumps({"m": i})) for i in chunk],
            row_group_size=10,
        )
    return MaxsonSystem(session=session, config=MaxsonConfig(build_workers=workers))


def cache_files(system: MaxsonSystem, table: str) -> list[bytes]:
    return [
        system.catalog.fs.read(path)
        for path in system.catalog.table_files(CACHE_DATABASE, table)
    ]


class TestBuildJournal:
    def test_begin_commit_lifecycle(self, fs):
        journal = BuildJournal(fs)
        journal.begin(1)
        assert journal.pending() == [1]
        journal.commit(1)
        assert journal.pending() == []
        journal.begin(2)
        journal.abort(2)
        assert journal.pending() == []
        assert journal.records() == [
            ("begin", 1),
            ("commit", 1),
            ("begin", 2),
            ("abort", 2),
        ]

    def test_torn_tail_is_ignored(self, fs):
        journal = BuildJournal(fs)
        journal.begin(1)
        journal.commit(1)
        journal.begin(2)
        fs.append(JOURNAL_PATH, b"comm")  # a torn terminal record
        assert journal.pending() == [2]
        assert ("begin", 2) in journal.records()

    def test_write_retries_through_transient_faults(self):
        faulty = FaultyFileSystem()
        journal = BuildJournal(faulty)
        journal.begin(1)
        faulty.policy = FaultPolicy(seed=5, write_error_rate=0.5)
        journal.commit(1)  # retried up to 5 times; 0.5^5 never fired here
        faulty.policy = FaultPolicy()
        assert journal.pending() == []

    def test_exhausted_retries_degrade_to_callback(self):
        failed = []
        faulty = FaultyFileSystem()
        journal = BuildJournal(faulty, on_write_failure=failed.append)
        faulty.policy = FaultPolicy(write_error_rate=1.0)
        journal.begin(1)  # every attempt fails
        assert failed == ["begin 1"]


class TestCrashRecovery:
    def test_crash_mid_build_leaves_orphans_then_recovery_drops_them(self):
        faulty = FaultyFileSystem()
        system = build_system(fs=faulty)
        system.cacher.populate(KEYS)  # generation 0 content (no suffix)
        live_tables = set(system.registry.cache_tables())
        # arm: die on the 2nd write under the cache prefix during the swap
        faulty.policy = FaultPolicy(crash_after_writes=2)
        with pytest.raises(InjectedCrash):
            system._swap_generation(KEYS)
        faulty.policy = FaultPolicy()
        # the crash stranded a half-built __g1 table and a pending journal
        orphaned = {
            info.name
            for info in system.catalog.list_tables(CACHE_DATABASE)
        } - live_tables
        assert any(name.endswith("__g1") for name in orphaned)
        assert system.journal.pending() == [1]
        # registry still points at the intact pre-crash cache
        assert set(system.registry.cache_tables()) == live_tables
        result = system.sql(SQL)
        assert [r["m"] for r in result.rows] == [r["id"] for r in result.rows]
        # restart-time recovery GCs the orphans and closes the journal
        dropped = system.recover_orphan_generations()
        assert sorted(dropped) == sorted(orphaned)
        assert system.journal.pending() == []
        remaining = {
            info.name for info in system.catalog.list_tables(CACHE_DATABASE)
        }
        assert remaining == live_tables
        assert system.resilience.get("recovery_actions") >= len(dropped)

    def test_recovery_is_idempotent_and_quiet_when_clean(self):
        system = build_system()
        system.cacher.populate(KEYS)
        assert system.recover_orphan_generations() == []
        assert system.resilience.get("recovery_actions") == 0

    def test_server_startup_runs_recovery(self):
        from repro.server import MaxsonServer, ServerConfig

        faulty = FaultyFileSystem()
        system = build_system(fs=faulty)
        system.cacher.populate(KEYS)
        faulty.policy = FaultPolicy(crash_after_writes=2)
        with pytest.raises(InjectedCrash):
            system._swap_generation(KEYS)
        faulty.policy = FaultPolicy()
        # "restart": a fresh server over the same (surviving) system state
        with MaxsonServer(system, ServerConfig(max_workers=2)) as server:
            assert server.recovered_tables  # startup GC found the orphans
            assert system.journal.pending() == []
            result = server.execute(SQL)
            assert len(result.rows) == 30


@pytest.mark.parametrize("workers", [1, 4])
def test_crash_at_every_write_of_an_adopting_midnight(workers, fault_profile):
    """Generation 1 caches two raw files; two partitions are appended, so
    the next midnight adopts two files and parses two. Crashed at each of
    its writes (under CI's fault profile) and recovered, the system
    serves the reference rows, and the midnight after writes exactly the
    files of a from-scratch populate."""
    for crash_at in range(1, 5):
        system = build_system(fs=FaultyFileSystem(), workers=workers)
        system._swap_generation(KEYS)
        for start in (30, 40):
            system.catalog.append_rows(
                "db", "t", [(i, dumps({"m": i})) for i in range(start, start + 10)]
            )
        reference = system.baseline_sql(SQL).rows
        system.catalog.fs.policy = dataclasses.replace(
            parse_fault_profile(fault_profile), crash_after_writes=crash_at
        )
        with pytest.raises(InjectedCrash):
            system._swap_generation(KEYS)
        system.recover_orphan_generations()
        assert system.generation == 1 and system.journal.pending() == []
        assert system.sql(SQL).rows == reference
        system.catalog.fs.policy = FaultPolicy()
        build = system._swap_generation(KEYS)  # four writes: the points swept
        assert (build.files_adopted, build.rows_parsed) == (2, 20)
        JsonPathCacher(system.catalog, table_suffix="__scratch").populate(KEYS)
        assert cache_files(system, "db__t__g2") == cache_files(system, "db__t__scratch")
