"""CancelToken semantics + deadline enforcement through the session."""

import threading

import pytest

from repro.engine import (
    CancelToken,
    DeadlineExceededError,
    QueryCancelledError,
    Session,
)
from repro.engine.errors import ExecutionError
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema

SQL = "select get_json_object(payload, '$.a') as a from db.t"


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def build_session(rows: int = 40) -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    data = [(i, dumps({"a": i % 7, "b": f"x{i}"})) for i in range(rows)]
    session.catalog.append_rows("db", "t", data, row_group_size=10)
    return session


class TestCancelToken:
    def test_fresh_token_passes_checks(self):
        token = CancelToken()
        token.check()
        token.check()
        assert token.checks == 2
        assert not token.cancelled
        assert token.remaining_seconds() is None

    def test_manual_cancel_raises_with_reason(self):
        token = CancelToken()
        token.cancel("operator request")
        assert token.cancelled
        with pytest.raises(QueryCancelledError, match="operator request"):
            token.check()

    def test_deadline_raises_deadline_exceeded(self):
        clock = FakeClock()
        token = CancelToken(deadline_seconds=5.0, clock=clock)
        token.check()
        clock.advance(5.0)
        assert token.deadline_exceeded
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_deadline_exceeded_is_a_cancellation_not_execution_error(self):
        # The combiner's degraded-fallback handler catches ExecutionError;
        # a deadline must never be absorbed into a fallback.
        assert issubclass(DeadlineExceededError, QueryCancelledError)
        assert not issubclass(QueryCancelledError, ExecutionError)

    def test_with_deadline_ms(self):
        clock = FakeClock()
        token = CancelToken.with_deadline_ms(250.0, clock=clock)
        assert token.remaining_seconds() == pytest.approx(0.25)
        assert CancelToken.with_deadline_ms(None).deadline is None

    def test_tighten_deadline_earliest_wins(self):
        clock = FakeClock()
        token = CancelToken(deadline_seconds=10.0, clock=clock)
        token.tighten_deadline(2.0)
        assert token.remaining_seconds() == pytest.approx(2.0)
        token.tighten_deadline(8.0)  # later than current: no-op
        assert token.remaining_seconds() == pytest.approx(2.0)

    def test_cancel_is_thread_visible(self):
        token = CancelToken()
        seen = threading.Event()

        def worker():
            while not token.cancelled:
                pass
            seen.set()

        t = threading.Thread(target=worker)
        t.start()
        token.cancel()
        t.join(timeout=5)
        assert seen.is_set()


class TestSessionDeadlines:
    def test_pre_cancelled_token_never_executes(self):
        session = build_session()
        token = CancelToken()
        token.cancel("gone")
        with pytest.raises(QueryCancelledError):
            session.sql(SQL, cancel_token=token)

    def test_expired_deadline_raises_not_partial(self):
        session = build_session()
        with pytest.raises(DeadlineExceededError):
            session.sql(SQL, deadline_ms=0.0)

    def test_expired_deadline_never_served_from_result_cache(self):
        # An expired query must fail even when the answer is sitting in
        # the result cache — a deadline is a contract, not a hint.
        session = build_session()
        session.configure(result_cache_enabled=True)
        session.sql(SQL)
        session.sql(SQL)  # second run makes it a cached recurrence
        assert session.probable_result_cache_hit(SQL)
        with pytest.raises(DeadlineExceededError):
            session.sql(SQL, deadline_ms=0.0)

    def test_generous_deadline_does_not_change_rows(self):
        session = build_session()
        plain = session.sql(SQL)
        bounded = session.sql(SQL, deadline_ms=60_000.0)
        assert bounded.rows == plain.rows

    def test_cancelled_query_leaves_no_result_cache_entry(self):
        session = build_session()
        session.configure(result_cache_enabled=True)
        token = CancelToken()
        token.cancel("mid-flight")
        with pytest.raises(QueryCancelledError):
            session.sql(SQL, cancel_token=token)
        assert session.result_cache_stats()["entries"] == 0
        assert not session.probable_result_cache_hit(SQL)

    def test_deadline_respected_under_parallel_scan(self):
        session = build_session(rows=200)
        session.scan_workers = 4
        with pytest.raises(DeadlineExceededError):
            session.sql(SQL, deadline_ms=0.0)
        # Workers are reclaimed: the same session still answers.
        assert session.sql(SQL).rows


class TestShrinkCaches:
    def test_shrink_releases_result_then_plan_bytes(self):
        session = build_session()
        session.configure(result_cache_enabled=True)
        session.sql(SQL)
        session.sql(SQL)
        before = session.cache_ledger.total()
        assert before > 0
        released = session.shrink_caches_to(0)
        assert released > 0
        assert session.cache_ledger.tier_bytes("result") == 0
        assert session.cache_ledger.tier_bytes("plan") == 0
