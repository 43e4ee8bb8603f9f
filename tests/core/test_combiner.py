"""Unit tests for the Value Combiner's edge cases."""

import pytest

from repro.core import CACHE_DATABASE, MaxsonSystem, cache_table_name
from repro.engine import ExecutionError, Session
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey


def build_system(rows=60, row_group_size=10) -> MaxsonSystem:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    batch = [(i, dumps({"m": i, "s": f"v{i}"})) for i in range(rows)]
    session.catalog.append_rows("db", "t", batch, row_group_size=row_group_size)
    return MaxsonSystem(session=session)


KEYS = [PathKey("db", "t", "payload", "$.m"), PathKey("db", "t", "payload", "$.s")]


class TestStitching:
    def test_rows_stitched_in_order(self):
        system = build_system()
        system.cacher.populate(KEYS)
        result = system.sql(
            "select id, get_json_object(payload, '$.m') as m, "
            "get_json_object(payload, '$.s') as s from db.t"
        )
        for row in result.rows:
            assert row["m"] == row["id"]
            assert row["s"] == f"v{row['id']}"

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_aliased_morsel_names_in_declared_order(self, corrupt):
        """Bare, then alias-qualified, then cached columns — stitched or
        re-parsed — as ``morsel_output_names`` (the empty result) says."""
        from repro.engine.physical import ScanExec, walk_plan

        system = build_system()
        system.cacher.populate(KEYS)
        if corrupt:
            cache = system.catalog.table_files(
                CACHE_DATABASE, cache_table_name("db", "t")
            )[0]
            system.session.fs.delete(cache)
            system.session.fs.create(cache, b"not an orc file")
        planned, state, _ = system.session._prepare(
            "select a.id, get_json_object(a.payload, '$.m') as m from db.t a"
        )
        (scan,) = [n for n in walk_plan(planned.physical) if isinstance(n, ScanExec)]
        batch = scan.execute_batch(state)
        assert batch.names == tuple(scan.morsel_output_names())
        assert batch.names == ("id", "a.id", scan.cached_fields[0].env_key)
        assert batch.columns["a.id"] is batch.columns["id"]

    def test_traced_plan_pickles_to_a_worker_replica(self):
        """What the process backend ships: wrappers intact, the scan under
        them without breaker/resilience and with an empty failure log. (A
        wrapper must not answer the pickle protocol's ``__getstate__``
        probe with the scan's — Python 3.10 asks the instance.)"""
        import pickle

        from repro.obs import Tracer
        from repro.obs.instrument import TracedExec

        system = build_system()
        system.cacher.populate(KEYS)
        planned, _, _ = system.session._prepare(
            "select get_json_object(payload, '$.m') as m from db.t",
            tracer=Tracer(),
        )
        pipeline = planned.physical.inner
        assert pipeline.scan.inner.breaker is not None
        assert pipeline.scan.inner.failure_log is None
        replica = pickle.loads(pickle.dumps(pipeline))
        assert [type(s) for s in replica.stages] == [TracedExec]
        assert replica.stages[0].inner.child is replica.scan.inner
        scan = replica.scan.inner
        assert (scan.breaker, scan.resilience, scan.failure_log) == (None, None, [])
        assert replica.describe() == pipeline.describe()

    def test_multiple_files_alignment(self):
        session = Session(fs=BlockFileSystem())
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "t", schema)
        for part in range(4):
            batch = [
                (part * 10 + i, dumps({"m": part * 10 + i})) for i in range(10)
            ]
            session.catalog.append_rows("db", "t", batch, row_group_size=5)
        system = MaxsonSystem(session=session)
        system.cacher.populate([KEYS[0]])
        result = system.sql(
            "select id, get_json_object(payload, '$.m') as m from db.t"
        )
        assert [r["m"] for r in result.rows] == list(range(40))

    def test_misaligned_file_counts_fall_back(self):
        system = build_system()
        system.cacher.populate(KEYS)
        # sabotage: delete one cache file so counts no longer match
        cache_table = cache_table_name("db", "t")
        cache_files = system.catalog.table_files(CACHE_DATABASE, cache_table)
        system.session.fs.delete(cache_files[0])
        # the raw table now has more files than the cache table
        system.session.catalog.append_rows(
            "db", "t", [(999, dumps({"m": 999}))]
        )
        system.registry.entries()[0]  # registry still advertises the cache
        # bypass validity check by forcing cache_time forward
        from dataclasses import replace

        for entry in list(system.registry.entries()):
            system.registry.register(replace(entry, cache_time=float("inf")))
        # misalignment degrades to raw parsing — correct rows, no error
        result = system.sql(
            "select get_json_object(payload, '$.m') as m from db.t"
        )
        assert sorted(r["m"] for r in result.rows) == sorted(
            list(range(60)) + [999]
        )
        assert system.resilience.get("fallback_queries") == 1
        assert cache_table in system.breaker.quarantined_tables()

    def test_corrupt_cache_file_falls_back(self):
        system = build_system()
        system.cacher.populate(KEYS)
        cache_table = cache_table_name("db", "t")
        cache_files = system.catalog.table_files(CACHE_DATABASE, cache_table)
        blob = bytearray(system.session.fs.read(cache_files[0]))
        blob[len(blob) // 2] ^= 0xFF
        system.session.fs.delete(cache_files[0])
        system.session.fs.create(cache_files[0], bytes(blob))
        result = system.sql(
            "select id, get_json_object(payload, '$.m') as m from db.t"
        )
        assert [r["m"] for r in result.rows] == [r["id"] for r in result.rows]
        assert system.resilience.get("fallback_splits") >= 1

    def test_row_count_mismatch_detected(self):
        system = build_system(rows=30)
        system.cacher.populate(KEYS)
        cache_table = cache_table_name("db", "t")
        cache_files = system.catalog.table_files(CACHE_DATABASE, cache_table)
        # rewrite the cache file with one row missing
        from repro.storage import OrcFileReader, OrcWriter

        reader = OrcFileReader(system.session.fs.read(cache_files[0]))
        rows = reader.read_rows()
        writer = OrcWriter(reader.schema, row_group_size=10)
        writer.write_rows(rows[:-1])
        system.session.fs.delete(cache_files[0])
        system.session.fs.create(cache_files[0], writer.finish())
        from dataclasses import replace

        for entry in list(system.registry.entries()):
            system.registry.register(replace(entry, cache_time=float("inf")))
        # a short cache file is detected by the row-count check and the
        # split degrades to raw parsing — every row still present
        result = system.sql(
            "select id, get_json_object(payload, '$.m') as m from db.t"
        )
        assert [r["m"] for r in result.rows] == [r["id"] for r in result.rows]
        assert len(result.rows) == 30
        assert system.resilience.get("fallback_splits") >= 1


class TestCacheOnlyAndMetrics:
    def test_cache_only_read_has_no_raw_bytes(self):
        system = build_system()
        system.cacher.populate(KEYS)
        result = system.sql(
            "select get_json_object(payload, '$.m') as m from db.t"
        )
        raw_bytes = system.catalog.table_bytes("db", "t")
        assert result.metrics.bytes_read < raw_bytes / 4

    def test_cache_hit_metric_counted(self):
        system = build_system()
        system.cacher.populate(KEYS)
        result = system.sql(
            "select get_json_object(payload, '$.m') as m, "
            "get_json_object(payload, '$.s') as s from db.t"
        )
        assert result.metrics.cache_hits >= 2

    def test_null_values_survive_stitch(self):
        session = Session(fs=BlockFileSystem())
        schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
        session.catalog.create_table("db", "t", schema)
        rows = [
            (0, dumps({"m": 1})),
            (1, dumps({})),  # missing path -> NULL
            (2, None),  # NULL document -> NULL
        ]
        session.catalog.append_rows("db", "t", rows)
        system = MaxsonSystem(session=session)
        system.cacher.populate([KEYS[0]])
        result = system.sql(
            "select id, get_json_object(payload, '$.m') as m from db.t"
        )
        assert [r["m"] for r in result.rows] == [1, None, None]
