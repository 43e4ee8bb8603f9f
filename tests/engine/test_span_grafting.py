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
from repro.engine.errors import ExecutionError
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.obs import Tracer
from repro.storage import BlockFileSystem, DataType, Schema
from repro.storage.fs import FsError

SQL = "select get_json_object(payload, '$.a') as a from db.t"
WORKERS = 2


def build_session(fs=None, backend="thread") -> Session:
    session = Session(fs=fs or BlockFileSystem())
    session.scan_workers = WORKERS
    session.worker_backend = backend
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for day in range(6):
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
