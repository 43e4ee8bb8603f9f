"""Span-tree grafting stays well-formed when splits die.

Worker-recorded subtrees (thread- or process-local tracers) are grafted
into the coordinator's span tree with fresh span ids. A worker crash,
a failing split or a mid-split cancellation must never leave the tree
malformed: every span id unique, every ``parent_id`` resolvable, one
root — because ``system.spans`` rows and EXPLAIN ANALYZE both
reconstruct the tree from those ids.
"""

import os

import pytest

from repro.engine import DeadlineExceededError, Session
from repro.engine.errors import CatalogError, ExecutionError
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.obs import Tracer
from repro.storage import BlockFileSystem, DataType, Schema
from repro.storage.fs import FsError

SQL = "select get_json_object(payload, '$.a') as a from db.t"
WORKERS = 2


def build_session(fs=None, backend="thread", days=6) -> Session:
    session = Session(fs=fs or BlockFileSystem())
    session.scan_workers = WORKERS
    session.worker_backend = backend
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for day in range(days):
        rows = [
            (i, dumps({"a": i % 7, "b": f"x{i}"}))
            for i in range(day * 20, day * 20 + 20)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    return session


def assert_well_formed(tracer: Tracer) -> list:
    """One root, unique span ids, every parent_id resolvable."""
    spans = tracer.spans()
    assert spans, "trace recorded no spans"
    ids = [span.span_id for span in spans]
    assert len(ids) == len(set(ids)), f"duplicate span ids: {sorted(ids)}"
    id_set = set(ids)
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1, f"expected one root, got {len(roots)}"
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in id_set, (
                f"orphan span {span.span_id} ({span.name}): "
                f"parent {span.parent_id} not in tree"
            )
    return spans


class TestSplitSubtrees:
    @pytest.mark.parametrize(
        "workers,backend", [(1, "thread"), (WORKERS, "thread"), (WORKERS, "process")]
    )
    def test_every_split_is_a_worker_subtree(self, workers, backend):
        """No backend leaves the coordinator to make up a split span: each
        carries the attribution only its worker's tracer sets, and the
        stage spans recorded under it."""
        session = build_session(backend=backend)
        session.scan_workers = workers
        tracer = Tracer()
        try:
            session.sql(SQL + " where id < 50", tracer=tracer)
        finally:
            session.close_worker_pools()
        splits = [s for s in assert_well_formed(tracer) if s.name == "split"]
        assert [s.attributes["index"] for s in splits] == list(range(6))
        # the rows attribute is each split's post-filter output
        assert [s.attributes["rows"] for s in splits] == [20, 20, 10, 0, 0, 0]
        for split in splits:
            assert split.attributes["backend"] == (
                backend if workers > 1 else "thread"
            )
            assert split.attributes["worker"]
            assert [c.name for c in split.children] == ["scan", "filter", "project"]
            assert split.children[-1].attributes["rows_out"] == split.attributes["rows"]


class TestFailingSplit:
    def test_thread_tree_well_formed_when_splits_error(self):
        fs = FaultyFileSystem()
        session = build_session(fs=fs)
        assert session.sql(SQL).rows  # warm, fault-free baseline
        fs.policy = FaultPolicy(seed=3, read_error_rate=0.5)
        saw_error = False
        for _ in range(6):
            tracer = Tracer()
            try:
                session.sql(SQL, tracer=tracer)
            except FsError:
                saw_error = True
            assert_well_formed(tracer)
        assert saw_error, "fault profile never fired; test proves nothing"

    def test_completed_splits_still_grafted_on_error(self):
        """The error path folds finished workers' subtrees before
        raising, so a partially-failed query still explains itself."""
        fs = FaultyFileSystem()
        session = build_session(fs=fs)
        assert session.sql(SQL).rows
        fs.policy = FaultPolicy(seed=5, read_error_rate=0.3)
        for _ in range(8):
            tracer = Tracer()
            try:
                session.sql(SQL, tracer=tracer)
            except FsError:
                spans = assert_well_formed(tracer)
                if any(span.name == "split" for span in spans):
                    return  # at least one grafted worker subtree survived
        pytest.skip("no run mixed completed and failed splits")


    @pytest.mark.parametrize(
        "workers,backend", [(1, "thread"), (WORKERS, "thread"), (WORKERS, "process")]
    )
    def test_failing_query_tree_holds_every_split_that_ran(self, workers, backend):
        """The last split's raw file is unreadable: the three completed
        splits and the failing one, marked with its error, each appear
        once, inline as on either pool."""
        fs = FaultyFileSystem()
        session = build_session(fs=fs, backend=backend, days=4)
        session.scan_workers = workers
        last = session.catalog.table_files("db", "t")[-1]
        fs.policy = FaultPolicy(read_error_rate=1.0, error_path_prefix=last)
        tracer = Tracer()
        try:
            with pytest.raises(FsError):
                session.sql(SQL, tracer=tracer)
        finally:
            session.close_worker_pools()
        splits = [s for s in assert_well_formed(tracer) if s.name == "split"]
        assert [s.attributes["index"] for s in splits] == [0, 1, 2, 3]
        assert [bool(s.attributes.get("error")) for s in splits] == [False] * 3 + [True]
        assert "TransientFsError" in splits[-1].attributes["error"]

    def test_failing_query_closes_its_root_as_failed(self):
        """An error that is not a cancellation, at execute or at plan
        time, still ends the ``query`` span: it has a duration and a
        ``status``."""
        fs = FaultyFileSystem()
        session = build_session(fs=fs, days=4)
        session.scan_workers = 1
        last = session.catalog.table_files("db", "t")[-1]
        fs.policy = FaultPolicy(read_error_rate=1.0, error_path_prefix=last)
        for sql, error in [(SQL, FsError), ("select id from db.missing", CatalogError)]:
            tracer = Tracer()
            with pytest.raises(error):
                session.sql(sql, tracer=tracer)
            assert tracer.root.name == "query" and tracer.current is None
            assert tracer.root.wall_seconds > 0
            assert tracer.root.attributes["status"] == "failed"


class TestMidSplitCancellation:
    def test_deadline_mid_query_leaves_tree_well_formed(self):
        fs = FaultyFileSystem()
        session = build_session(fs=fs)
        assert session.sql(SQL).rows
        fs.policy = FaultPolicy(read_latency_seconds=0.02)
        tracer = Tracer()
        with pytest.raises(DeadlineExceededError):
            session.sql(SQL, tracer=tracer, deadline_ms=15)
        spans = assert_well_formed(tracer)
        assert any(span.name == "query" for span in spans)

    def test_process_backend_deadline_tree_well_formed(self):
        fs = FaultyFileSystem()
        session = build_session(fs=fs, backend="process")
        try:
            # Workers read through the fs replica of the pool's warm
            # snapshot, which the first query takes: a policy installed
            # after it never reaches them. Installed before, every split
            # read sleeps five deadlines, however fast the host is.
            fs.policy = FaultPolicy(read_latency_seconds=0.1)
            assert session.sql(SQL).rows
            tracer = Tracer()
            with pytest.raises(DeadlineExceededError):
                session.sql(SQL, tracer=tracer, deadline_ms=20)
            assert_well_formed(tracer)
        finally:
            session.close_worker_pools()


class TestWorkerCrash:
    def test_killed_worker_tree_well_formed_then_recovers(self):
        session = build_session(backend="process")
        try:
            before = session.sql(SQL)
            assert before.rows
            os.kill(session._morsel_pool()._handles[0].process.pid, 9)
            tracer = Tracer()
            with pytest.raises(ExecutionError, match="died mid-split"):
                session.sql(SQL, tracer=tracer)
            assert_well_formed(tracer)
            # The pool respawned; the next traced query grafts complete
            # worker subtrees with process attribution.
            tracer = Tracer()
            after = session.sql(SQL, tracer=tracer)
            assert after.rows == before.rows
            spans = assert_well_formed(tracer)
            splits = [span for span in spans if span.name == "split"]
            assert splits
            assert all(
                span.attributes.get("backend") == "process"
                and str(span.attributes.get("worker", "")).startswith("pid-")
                for span in splits
            )
        finally:
            session.close_worker_pools()

    def test_thread_and_process_shapes_match_after_crash(self):
        """A crash must not perturb the grafted tree shape of later
        queries: the recovered process pool still mirrors threads."""

        def shape(span):
            return (
                span.name,
                sorted(shape(child) for child in span.children),
            )

        thread_session = build_session(backend="thread")
        thread_tracer = Tracer()
        thread_session.sql(SQL, tracer=thread_tracer)

        session = build_session(backend="process")
        try:
            session.sql(SQL)
            os.kill(session._morsel_pool()._handles[0].process.pid, 9)
            with pytest.raises(ExecutionError):
                session.sql(SQL)
            process_tracer = Tracer()
            session.sql(SQL, tracer=process_tracer)
            assert shape(process_tracer.root) == shape(thread_tracer.root)
        finally:
            session.close_worker_pools()


class TestOneSplitRunner:
    def test_one_runner_call_per_split_and_one_split_span_shape(self, monkeypatch):
        """Serial, thread and process splits all run through
        ``parallel._run_split``, once each, and trace alike. The process
        route runs its worker half in this process, on a ``_WorkerEnv``
        built from the session's snapshot, so the call is countable."""
        from repro.engine import parallel, procpool

        calls, real = [], parallel._run_split
        counting = lambda *args: calls.append(args[4]) or real(*args)  # noqa: E731
        monkeypatch.setattr(parallel, "_run_split", counting)
        monkeypatch.setattr(procpool, "_run_split", counting)

        def in_process(pool, plan_blob, unit, slot, token, traced=False):
            task = dict(plan=plan_blob, unit=unit, slot=None, remaining=None,
                        shm_prefix=pool._shm_prefix, trace=traced)
            return pool._adopt(procpool._run_task(env, task), 0.0)

        monkeypatch.setattr(procpool.ProcessMorselPool, "_run_unit", in_process)
        transport = {"shm_bytes", "dispatch_seconds"}
        grouped = "select count(*) as n from db.t group by id % 3"
        keys = set()
        for workers, backend in [(1, "thread"), (WORKERS, "thread"), (WORKERS, "process")]:
            session = build_session(backend=backend)
            session.scan_workers = workers
            env = procpool._WorkerEnv(procpool.build_snapshot(session))
            try:
                for sql in (SQL, grouped):
                    for tracer in (None, Tracer()):
                        del calls[:]
                        session.sql(sql, tracer=tracer)
                        assert calls == [backend if workers > 1 else "thread"] * 6
                        if tracer is not None:
                            splits = [s for s in tracer.spans() if s.name == "split"]
                            assert len(splits) == 6
                            keys |= {frozenset(s.attributes) - transport for s in splits}
            finally:
                session.close_worker_pools()
        assert len(keys) == 1, keys
