"""Cancellation-mid-split differential tests (under every fault profile).

A query cancelled partway through a scan must leave the system exactly
as if it had never run: no partially-admitted result-cache entry, no
pending journal record, a clean breaker, and bit-identical results from
the next (uncancelled) run compared against a twin system that never saw
the cancellation.
"""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import QueryCancelledError, Session
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import DataType, Schema, FsError
from repro.workload import PathKey

from test_differential_matrix import CancelAfterChecks

SQL = "select get_json_object(payload, '$.hot') as h from db.t"

PROFILES = {
    "quiet": {},
    "read_errors": {"read_error_rate": 0.05, "seed": 3},
    "corruption": {"corrupt_rate": 0.2, "seed": 5},
    "torn_appends": {"torn_append_rate": 0.2, "seed": 7},
    "latency_spikes": {
        "latency_spike_rate": 0.3,
        "latency_spike_seconds": 0.002,
        "seed": 9,
    },
}


def build_system(policy_kwargs: dict, warm_cache: bool) -> MaxsonSystem:
    session = Session(fs=FaultyFileSystem(policy=FaultPolicy()))
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for chunk in range(8):
        rows = [
            (chunk * 10 + i, dumps({"hot": (chunk * 10 + i) % 7, "cold": "c"}))
            for i in range(10)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    session.configure(result_cache_enabled=True)
    session.scan_workers = 4
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    if warm_cache:
        # Build cache tables while the policy is still quiet, so both
        # twins start from identical on-disk state. Two days of path
        # history make $.hot an MPJP for the midnight predictor.
        key = PathKey("db", "t", "payload", "$.hot")
        for day in (0, 1):
            system.collector.record_query(day, (key, key))
        system.run_midnight_cycle(day=1)
    session.fs.policy = FaultPolicy(**policy_kwargs)
    return system


def run_to_completion(system: MaxsonSystem, attempts: int = 50):
    """Retry transient faults until the query completes (serial client)."""
    last = None
    for _ in range(attempts):
        try:
            return system.sql(SQL, day=1)
        except FsError as exc:
            last = exc
    raise AssertionError(f"query never completed: {last}")


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("warm_cache", [False, True], ids=["raw", "cached"])
def test_cancel_mid_split_leaves_no_trace(profile, warm_cache):
    cancelled = build_system(PROFILES[profile], warm_cache)
    control = build_system(PROFILES[profile], warm_cache)

    # --- cancelled run: dies at the 3rd cooperative check ------------
    entries_before = cancelled.session.result_cache_stats()["entries"]
    token = CancelAfterChecks(limit=3)
    with pytest.raises((QueryCancelledError, FsError)):
        # An injected transient fault may beat the cancellation point;
        # either way the attempt must not complete.
        while True:
            cancelled.sql(SQL, day=1, cancel_token=token)
    assert token.cancelled

    # --- invariant: nothing was partially admitted or left open ------
    stats = cancelled.session.result_cache_stats()
    assert stats["entries"] == entries_before
    assert not cancelled.session.probable_result_cache_hit(SQL)
    assert cancelled.journal.pending() == []
    assert cancelled.breaker.quarantined_tables() == []

    # --- differential: next run matches the never-cancelled twin -----
    after_cancel = run_to_completion(cancelled)
    never_cancelled = run_to_completion(control)
    assert sorted(map(str, after_cancel.rows)) == sorted(
        map(str, never_cancelled.rows)
    )
    # And both match the fault-free baseline (degraded, never wrong).
    baseline = cancelled.baseline_sql(SQL)
    assert sorted(map(str, after_cancel.rows)) == sorted(
        map(str, baseline.rows)
    )


def test_cancelled_attempt_does_not_pollute_breaker_window():
    """A cancellation during a cache-table read must not count as a
    cache failure: the breaker window only sees real read/validation
    failures."""
    system = build_system({}, warm_cache=True)
    token = CancelAfterChecks(limit=1)
    with pytest.raises(QueryCancelledError):
        system.sql(SQL, day=1, cancel_token=token)
    assert system.breaker.snapshot() == {"quarantined": [], "half_open": []}
    # The cache path still serves (no quarantine, no fallback).
    result = system.sql(SQL, day=1)
    assert result.metrics.cache_hits > 0
