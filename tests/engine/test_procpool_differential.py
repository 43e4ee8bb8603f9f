"""Thread-vs-process-vs-serial differentials for the morsel backends.

The process pool (:mod:`repro.engine.procpool`) must be invisible in
every observable output: identical rows (including order), identical
count-valued metrics, identical cache/resilience accounting — at any
worker count, under deterministic fault injection, and across
cancellation. These tests assert that strong
form, plus the shared-memory lifecycle invariants (no segment survives
completion, failure, cancellation or a worker crash; orphans of dead
coordinators are reaped at startup).
"""

import glob
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import (
    CancelToken,
    DeadlineExceededError,
    QueryCancelledError,
    Session,
)
from repro.engine.batch import ColumnBatch
from repro.engine.cachebudget import CacheLedger
from repro.engine.errors import ExecutionError
from repro.engine.frame import decode_batch_frame, encode_batch
from repro.engine.metrics import QueryMetrics
from repro.engine.procpool import (
    SHM_PREFIX,
    ProcessMorselPool,
    reap_orphan_segments,
)
from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.server.watchdog import MemoryWatchdog
from repro.storage import BlockFileSystem, DataType, Schema

from reference_engine import reference_rows
from test_parallel_differential import (
    MAXSON_QUERIES,
    QUERIES,
    assert_metric_parity,
    build_system,
    run_fault_matrix,
    summary_view,
)

#: Process workers in tests: enough for real cross-process interleaving,
#: small enough that spawn cost stays negligible.
WORKERS = 2


def roundtrip(batch: ColumnBatch) -> ColumnBatch:
    return decode_batch_frame(memoryview(encode_batch(batch)))[0]


class TestFramingRoundtrip:
    """encode_batch/decode_batch_frame must be lossless for every lane type."""

    def test_int64_with_nulls(self):
        batch = ColumnBatch(["a"], {"a": [1, None, -5, 2**62, None]}, 5)
        assert roundtrip(batch).columns["a"] == [1, None, -5, 2**62, None]

    def test_float64_bit_exact(self):
        values = [0.1, -1e300, None, float("inf"), 2.5]
        out = roundtrip(ColumnBatch(["f"], {"f": values}, 5)).columns["f"]
        assert out == values  # bit round-trip, not text formatting

    def test_nan_survives(self):
        out = roundtrip(
            ColumnBatch(["f"], {"f": [float("nan"), 1.0]}, 2)
        ).columns["f"]
        assert out[0] != out[0] and out[1] == 1.0

    def test_bools_with_nulls(self):
        values = [True, None, False, True]
        assert (
            roundtrip(ColumnBatch(["b"], {"b": values}, 4)).columns["b"]
            == values
        )

    def test_strings_unicode_and_nulls(self):
        values = ["", "héllo", None, "日本語", "x" * 1000]
        assert (
            roundtrip(ColumnBatch(["s"], {"s": values}, 5)).columns["s"]
            == values
        )

    def test_all_null_column(self):
        assert roundtrip(
            ColumnBatch(["z"], {"z": [None, None]}, 2)
        ).columns["z"] == [None, None]

    def test_mixed_types_fall_back_to_json(self):
        values = [1, "two", None, [3, 4], {"k": 5}]
        assert (
            roundtrip(ColumnBatch(["m"], {"m": values}, 5)).columns["m"]
            == values
        )

    def test_oversized_int_falls_back_to_json(self):
        values = [2**70, None, 1]
        assert (
            roundtrip(ColumnBatch(["i"], {"i": values}, 3)).columns["i"]
            == values
        )

    def test_empty_batch(self):
        out = roundtrip(ColumnBatch(["a", "b"], {"a": [], "b": []}, 0))
        assert out.length == 0 and list(out.names) == ["a", "b"]

    def test_aliased_columns_share_one_list(self):
        shared = [1, 2, 3]
        batch = ColumnBatch(["x", "y"], {"x": shared, "y": shared}, 3)
        out = roundtrip(batch)
        # _concat_batches dedups by list identity; aliasing must survive.
        assert out.columns["x"] is out.columns["y"]
        assert out.columns["x"] == shared


class TestProcessBackendParity:
    """Serial vs thread(4) vs process(2): rows, order and counters."""

    def test_plain_engine_differential(self, sales_session):
        sales_session.scan_workers = 1
        expected = {sql: sales_session.sql(sql) for sql in QUERIES}
        for sql, want in expected.items():
            assert want.rows == reference_rows(sales_session, sql), sql
        try:
            for backend, workers in (("thread", 4), ("process", WORKERS)):
                sales_session.worker_backend = backend
                sales_session.scan_workers = workers
                for sql, want in expected.items():
                    got = sales_session.sql(sql)
                    assert got.rows == want.rows, (backend, sql)
                    assert_metric_parity(want, got, sql)
        finally:
            sales_session.close_worker_pools()
        assert not glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")

    def test_maxson_combiner_differential(self):
        serial = build_system(scan_workers=1)
        threads = build_system(scan_workers=4, worker_backend="thread")
        procs = build_system(scan_workers=WORKERS, worker_backend="process")
        try:
            for sql in MAXSON_QUERIES:
                s = serial.sql(sql)
                t = threads.sql(sql)
                p = procs.sql(sql)
                assert s.rows == t.rows == p.rows, sql
                assert_metric_parity(s, p, sql)
                assert p.metrics.cache_hits > 0
            assert summary_view(serial) == summary_view(procs)
            assert summary_view(threads) == summary_view(procs)
            assert (
                serial.resilience.snapshot() == procs.resilience.snapshot()
            )
        finally:
            procs.session.close_worker_pools()
            threads.session.close_worker_pools()

    def test_process_transport_metrics_recorded(self):
        system = build_system(scan_workers=WORKERS, worker_backend="process")
        try:
            result = system.sql(MAXSON_QUERIES[0])
            assert result.metrics.extra.get("shm_bytes", 0) > 0
            assert result.metrics.extra.get("proc_dispatch_seconds", 0) >= 0
        finally:
            system.session.close_worker_pools()

    def test_forged_rows_reply_rejected(self):
        """Workers reply with a batch or aggregate partials; any other
        kind (the retired row transport) is refused, segment released."""
        from multiprocessing import shared_memory

        frame = encode_batch(ColumnBatch(["a"], {"a": [1]}, 1))
        name = f"{SHM_PREFIX}_{os.getpid()}_forged"
        segment = shared_memory.SharedMemory(name=name, create=True, size=len(frame))
        segment.buf[: len(frame)] = frame
        segment.close()
        reply = dict(
            kind="rows", shm=name, shm_bytes=len(frame),
            metrics=QueryMetrics(), fallback=False, failures=[], seconds=0.0,
        )
        pool = ProcessMorselPool(1, snapshot_fn=dict)
        try:
            with pytest.raises(ExecutionError, match="unknown kind 'rows'"):
                pool._adopt(reply, 0.0)
        finally:
            pool.close()
        assert not os.path.exists(f"/dev/shm/{name}")


class TestFaultMatrixParity:
    """Seeded fault profiles degrade identically on every backend."""

    TRIPLE = [("thread", 1), ("thread", 4), ("process", WORKERS)]

    def test_all_cache_reads_corrupt(self):
        policy = FaultPolicy(corrupt_rate=1.0, seed=3)
        serial = run_fault_matrix(policy, self.TRIPLE)
        assert serial.resilience.snapshot()["fallback_splits"] > 0

    def test_cache_prefix_read_errors(self):
        policy = FaultPolicy(
            read_error_rate=1.0, seed=7, error_path_prefix=CACHE_PATH_PREFIX
        )
        serial = run_fault_matrix(policy, self.TRIPLE)
        assert serial.resilience.snapshot()["fallback_queries"] > 0


SQL = "select get_json_object(payload, '$.a') as a from db.t"


def build_latency_session(read_latency: float = 0.0) -> Session:
    """A 6-split process-backed session; the latency policy arms before
    the first query, so the warm worker snapshot replicates it (policy
    changes inside one catalog version are deliberately not re-shipped).
    """
    fs = FaultyFileSystem()
    session = Session(fs=fs)
    session.scan_workers = WORKERS
    session.worker_backend = "process"
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for day in range(6):
        data = [
            (i, dumps({"a": i % 7, "b": f"x{i}"}))
            for i in range(day * 20, day * 20 + 20)
        ]
        session.catalog.append_rows("db", "t", data, row_group_size=10)
    if read_latency:
        fs.policy = FaultPolicy(read_latency_seconds=read_latency)
    return session


def assert_no_live_segments(session: Session) -> None:
    pool = session._morsel_pool()
    assert pool is not None and pool._live_segments == {}
    # Only the cancel-flag slab remains on disk for this coordinator.
    mine = glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")
    assert all("_flags_" in name for name in mine), mine


class TestCancellationMidSplit:
    def test_cancel_mid_split_leaves_nothing_behind(self):
        session = build_latency_session(read_latency=0.03)
        session.configure(result_cache_enabled=True)
        try:
            warm = session.sql(SQL)
            assert warm.rows
            session.invalidate_result_cache()
            token = CancelToken()
            errors = []

            def run():
                try:
                    session.sql(SQL, cancel_token=token)
                except QueryCancelledError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.08)  # splits are mid-read in the workers now
            token.cancel("test cancel")
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert errors, "cancelled query must raise"
            # No partial admission, no orphaned segments, pool healthy.
            assert session.result_cache_stats()["entries"] == 0
            assert_no_live_segments(session)
            assert session.sql(SQL).rows == warm.rows
            assert_no_live_segments(session)
        finally:
            session.close_worker_pools()

    def test_deadline_enforced_through_workers(self):
        session = build_latency_session(read_latency=0.05)
        try:
            warm = session.sql(SQL)  # spawn + snapshot outside the deadline
            with pytest.raises(DeadlineExceededError):
                session.sql(SQL, deadline_ms=60.0)
            assert_no_live_segments(session)
            assert session.sql(SQL).rows == warm.rows
        finally:
            session.close_worker_pools()


class TestWorkerCrash:
    def test_killed_worker_fails_query_then_pool_recovers(self):
        session = build_latency_session()
        try:
            before = session.sql(SQL)
            pool = session._morsel_pool()
            os.kill(pool._handles[0].process.pid, 9)
            with pytest.raises(ExecutionError, match="died mid-split"):
                session.sql(SQL)
            assert_no_live_segments(session)
            # The pool respawned the dead worker; service continues.
            assert session.sql(SQL).rows == before.rows
            assert_no_live_segments(session)
        finally:
            session.close_worker_pools()

    def test_respawn_sweeps_dead_workers_unreported_segments(self):
        """A worker that wrote its result segment but died before
        replying must not orphan the segment until the next server
        start: the respawn path sweeps that worker's leftovers."""
        from multiprocessing import shared_memory

        session = build_latency_session()
        try:
            session.sql(SQL)  # spawn the pool
            pool = session._morsel_pool()
            victim = pool._handles[0]
            pid = victim.process.pid
            leaked = shared_memory.SharedMemory(
                name=f"{pool._shm_prefix}{pid}_deadbeef",
                create=True,
                size=64,
            )
            leaked.close()
            # An adopted (tracked) segment must survive the sweep.
            kept = shared_memory.SharedMemory(
                name=f"{pool._shm_prefix}{pid}_keepme",
                create=True,
                size=64,
            )
            pool._track_segment(kept.name, 64)
            try:
                os.kill(pid, 9)
                with pytest.raises(ExecutionError, match="died mid-split"):
                    session.sql(SQL)
                assert not os.path.exists(f"/dev/shm/{leaked.name}")
                assert os.path.exists(f"/dev/shm/{kept.name}")
            finally:
                pool._untrack_segment(kept.name)
                kept.close()
                try:
                    kept.unlink()
                except FileNotFoundError:
                    pass
            assert_no_live_segments(session)
        finally:
            session.close_worker_pools()

    def test_closed_pool_rejects_dispatch_cleanly(self):
        """close() must not leave in-flight dispatch racing a torn-down
        handle list: post-close dispatch fails with a clean error
        instead of IndexError or a resurrected worker."""
        session = build_latency_session()
        try:
            session.sql(SQL)
            pool = session._morsel_pool()
            pool.close()
            with pytest.raises(ExecutionError, match="pool is closed"):
                pool._run_unit(b"", None, 0, None)
            assert pool._handles == []
        finally:
            session.close_worker_pools()


class TestOrphanReaper:
    def orphan_segment(self) -> str:
        """A segment created (and leaked) by a now-dead process."""
        code = (
            "from multiprocessing import shared_memory, resource_tracker\n"
            "import os, uuid\n"
            "name = f'{0}_{{os.getpid()}}_orphan{{uuid.uuid4().hex[:6]}}'\n"
            "seg = shared_memory.SharedMemory(name=name, create=True, size=64)\n"
            "resource_tracker.unregister(seg._name, 'shared_memory')\n"
            "seg.close()\n"
            "print(name)\n"
        ).format(SHM_PREFIX)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_dead_coordinator_segments_reaped(self):
        name = self.orphan_segment()
        assert os.path.exists(f"/dev/shm/{name}")
        assert reap_orphan_segments() >= 1
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_live_coordinator_segments_kept(self):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(
            name=f"{SHM_PREFIX}_{os.getpid()}_keepme", create=True, size=64
        )
        try:
            reap_orphan_segments()
            assert os.path.exists(f"/dev/shm/{seg.name}")
        finally:
            seg.close()
            seg.unlink()

    def test_server_startup_runs_the_reaper(self):
        from repro.server import MaxsonServer, ServerConfig

        name = self.orphan_segment()
        assert os.path.exists(f"/dev/shm/{name}")
        with MaxsonServer(config=ServerConfig(max_workers=1)) as server:
            assert server.reaped_shm_segments >= 1
            assert server.status().worker_backend == "thread"
        assert not os.path.exists(f"/dev/shm/{name}")


class _StubSession:
    """Duck-typed session for watchdog accounting tests."""

    def __init__(self):
        self.cache_ledger = CacheLedger(budget=None)
        self.shm = 0
        self.shrink_targets = []

    def live_shm_bytes(self) -> int:
        return self.shm

    def shrink_caches_to(self, target: int) -> int:
        self.shrink_targets.append(target)
        return 0


class TestWatchdogShmAccounting:
    def test_shm_bytes_count_toward_soft_limit(self):
        session = _StubSession()
        watchdog = MemoryWatchdog(session, soft_limit_bytes=1_000)
        assert watchdog.check() is False
        session.shm = 2_000  # SHM alone breaches the limit
        assert watchdog.check() is True
        assert watchdog.snapshot()["shm_bytes"] == 2_000
        # Cache tiers must shrink into the room SHM leaves (none here).
        assert session.shrink_targets == [0]

    def test_shm_plus_ledger_pressure(self):
        session = _StubSession()
        session.cache_ledger.set_tier("result", 600)
        session.shm = 600
        watchdog = MemoryWatchdog(session, soft_limit_bytes=1_000)
        assert watchdog.check() is True  # 1200 > 1000, nothing shrinkable
        assert session.shrink_targets == [300]  # 900 headroom - 600 shm
        session.shm = 0
        assert watchdog.check() is False  # pressure drains with the SHM


class TestSharedExpressionAnalysis:
    def test_forks_share_the_analysis_memo(self):
        session = Session(fs=BlockFileSystem())
        state = session._make_state()
        fork = state.fork()
        assert fork.expression_analysis is state.expression_analysis
        assert (
            state.batch_compiler().analysis is state.expression_analysis
        )
        assert fork.batch_compiler().analysis is state.expression_analysis

    def test_extraction_counts_memoized(self):
        from repro.engine.batch import ExpressionAnalysis
        from repro.engine.expressions import BinaryOp, Column, GetJsonObject

        one = GetJsonObject(Column("payload"), "$.a")
        expr = BinaryOp("=", one, GetJsonObject(Column("payload"), "$.b"))
        analysis = ExpressionAnalysis()
        assert analysis.extraction_count(expr) == 2
        assert analysis.extraction_count(expr) == 2
        assert analysis.extraction_count(one) == 1
        assert len(analysis._extractions) == 2
