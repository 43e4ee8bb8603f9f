"""Circuit breaker + graceful degradation of cache reads."""

from unittest import mock

from repro.core import MaxsonSystem, cache_table_name
from repro.core.cacher import CACHE_DATABASE
from repro.core.resilience import CacheCircuitBreaker, ResilienceStats
from repro.engine import Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, OrcFileReader, Schema, orc
from repro.storage.codec import encode_column
from repro.workload import PathKey

KEYS = [PathKey("db", "t", "payload", "$.m")]
SQL = "select id, get_json_object(payload, '$.m') as m from db.t"


def build_system(rows=30) -> MaxsonSystem:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    session.catalog.append_rows(
        "db", "t", [(i, dumps({"m": i})) for i in range(rows)], row_group_size=10
    )
    return MaxsonSystem(session=session)


def corrupt_first_cache_file(system: MaxsonSystem) -> str:
    cache_table = cache_table_name("db", "t")
    path = system.catalog.table_files(CACHE_DATABASE, cache_table)[0]
    blob = bytearray(system.session.fs.read(path))
    blob[len(blob) // 2] ^= 0xFF
    system.session.fs.delete(path)
    system.session.fs.create(path, bytes(blob))
    return cache_table


class TestCacheCircuitBreaker:
    def test_closed_by_default(self):
        breaker = CacheCircuitBreaker()
        assert breaker.allows("t") is True
        assert breaker.quarantined_tables() == []

    def test_open_after_threshold_failures(self):
        clock = [0.0]
        breaker = CacheCircuitBreaker(
            quarantine_seconds=10.0, failure_threshold=2, clock=lambda: clock[0]
        )
        breaker.record_failure("t")
        assert breaker.allows("t") is True  # below threshold
        breaker.record_failure("t")
        assert breaker.allows("t") is False
        assert breaker.quarantined_tables() == ["t"]

    def test_half_open_after_quarantine_and_close_on_success(self):
        clock = [0.0]
        breaker = CacheCircuitBreaker(
            quarantine_seconds=10.0, clock=lambda: clock[0]
        )
        breaker.record_failure("t")
        assert breaker.allows("t") is False
        clock[0] = 11.0
        # quarantine elapsed: this pass doubles as the re-probe
        assert breaker.allows("t") is True
        assert breaker.snapshot()["half_open"] == ["t"]
        breaker.record_success("t")
        assert breaker.snapshot() == {"quarantined": [], "half_open": []}

    def test_half_open_failure_requarantines(self):
        clock = [0.0]
        breaker = CacheCircuitBreaker(
            quarantine_seconds=10.0, clock=lambda: clock[0]
        )
        breaker.record_failure("t")
        clock[0] = 11.0
        assert breaker.allows("t") is True  # half-open probe
        clock[0] = 12.0
        breaker.record_failure("t")
        assert breaker.allows("t") is False
        clock[0] = 21.0
        assert breaker.allows("t") is False  # new quarantine from t=12
        clock[0] = 23.0
        assert breaker.allows("t") is True


class TestResilienceStats:
    def test_counters(self):
        stats = ResilienceStats()
        stats.add("fallback_queries")
        stats.add("fallback_splits", 3)
        assert stats.get("fallback_queries") == 1
        assert stats.snapshot()["fallback_splits"] == 3
        assert stats.total_degraded_events == 4


class TestGracefulDegradation:
    def test_corrupt_cache_answers_match_baseline(self):
        system = build_system()
        system.cacher.populate(KEYS)
        corrupt_first_cache_file(system)
        degraded = system.sql(SQL)
        baseline = system.baseline_sql(SQL)
        assert sorted(map(str, degraded.rows)) == sorted(
            map(str, baseline.rows)
        )
        assert system.resilience.get("fallback_queries") == 1
        assert system.resilience.get("corruption_events") >= 1

    def test_quarantine_skips_cache_at_plan_time(self):
        system = build_system()
        system.cacher.populate(KEYS)
        cache_table = corrupt_first_cache_file(system)
        system.sql(SQL)  # trips the breaker via the read failure
        assert cache_table in system.breaker.quarantined_tables()
        before = system.resilience.get("fallback_queries")
        result = system.sql(SQL)  # planned as a miss: no combiner involved
        assert system.resilience.get("quarantine_skips") == 1
        assert system.resilience.get("fallback_queries") == before
        assert [r["m"] for r in result.rows] == [r["id"] for r in result.rows]

    def test_reprobe_after_quarantine_recovers(self):
        system = build_system()
        system.config.quarantine_seconds = 0.0
        system.breaker.quarantine_seconds = 0.0
        system.cacher.populate(KEYS)
        cache_table = corrupt_first_cache_file(system)
        system.sql(SQL)  # fallback + breaker opens
        # repair the cache file (rebuild the whole generation; populate
        # alone would keep the files that are there)
        system.cacher.drop_all()
        system.cacher.populate(KEYS)
        # zero-second quarantine: the next query is the half-open probe,
        # reads the repaired cache successfully and closes the breaker
        result = system.sql(SQL)
        assert [r["m"] for r in result.rows] == [r["id"] for r in result.rows]
        assert system.breaker.snapshot() == {
            "quarantined": [],
            "half_open": [],
        }
        assert cache_table not in system.breaker.quarantined_tables()

    def test_bad_chunk_in_an_unchecksummed_file_degrades_only_its_split(self):
        """A chunk whose CRC matches its bytes but whose bytes do not decode
        (the writer summed them torn) reaches the chunk decoder; whatever
        it raises must be the ``OrcError`` the split fallback catches, not a
        failed query."""
        session = Session(fs=BlockFileSystem())
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "t", schema)
        for start in (0, 30):  # two files, two splits
            rows = [(i, dumps({"s": f"name-{i}"})) for i in range(start, start + 30)]
            session.catalog.append_rows("db", "t", rows, row_group_size=10)
        system = MaxsonSystem(session=session)

        def torn(dtype, values):  # rows 0-9 of file 0: not UTF-8, then summed
            chunk = encode_column(dtype, values)
            return chunk.replace(b"name-3", b"\xffame-3") if "name-3" in values else chunk

        with mock.patch.object(orc, "encode_column", torn):
            system.cacher.populate([PathKey("db", "t", "payload", "$.s")])
        path = system.catalog.table_files(CACHE_DATABASE, cache_table_name("db", "t"))[0]
        OrcFileReader(system.session.fs.read(path)).verify()  # every CRC matches
        sql = "select id, get_json_object(payload, '$.s') as s from db.t"
        result = system.sql(sql)
        assert result.rows == system.baseline_sql(sql).rows
        assert [r["s"] for r in result.rows] == [f"name-{i}" for i in range(60)]
        assert result.metrics.extra["degraded_splits"] == 1
