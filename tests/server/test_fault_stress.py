"""Acceptance: a multi-day replay under faults is degraded, never wrong.

The seeded stress run injects cache-file corruption, transient read
errors and one mid-build process crash (with a server restart) into a
multi-day replay, and requires:

* every completed query's rows are identical to the fault-free plain
  engine's answer for the same SQL (corruption is restricted to the
  cache database, so the raw data both engines read stays trustworthy);
* every completed query ran through Maxson — a cache hit, a cache miss or
  a degraded split — while the plain engine verified it;
* the degraded-mode counters — fallbacks, corruption detections,
  quarantine skips, recovery actions — are all nonzero, proving the
  resilience paths actually ran rather than the faults never firing.
"""

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem, InjectedCrash
from repro.server import (
    MaxsonServer,
    ServerConfig,
    build_replay_workload,
    replay,
)
from repro.workload import build_queries, load_tables

DAYS = 3
PER_DAY = 10


def build_stack():
    faulty = FaultyFileSystem()
    from repro.engine import Session

    session = Session(fs=faulty)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="always")),
    )
    factories = load_tables(system.catalog, rows_per_table=60, days=DAYS)
    queries = build_queries(factories)
    return system, faulty, queries


def server_config() -> ServerConfig:
    return ServerConfig(
        max_workers=4,
        max_query_retries=8,
        retry_backoff_seconds=0.0,
        admission_timeout_seconds=30.0,
    )


class TestFaultStress:
    def test_replay_under_faults_never_answers_wrong(self):
        system, faulty, queries = build_stack()
        requests = build_replay_workload(
            queries, days=DAYS, per_day=PER_DAY, tenants=3, seed=5
        )
        # heavy corruption + transient errors on every cache read (raw
        # data stays clean, so builds succeed and the baseline is exact)
        faulty.policy = FaultPolicy(
            seed=13,
            corrupt_rate=0.5,
            corrupt_path_prefix=CACHE_PATH_PREFIX,
            read_error_rate=0.1,
            error_path_prefix=CACHE_PATH_PREFIX,
        )
        with MaxsonServer(system, server_config()) as server:
            futures = []
            submit = server.submit
            server.submit = lambda *a, **k: futures.append(submit(*a, **k)) or futures[-1]
            report = replay(server, requests, verify=True)
            status = report.status
        served = [f.result().metrics for f in futures if f.exception() is None]
        assert len(served) == report.completed
        untouched = [
            m for m in served
            if not (m.cache_hits or m.cache_misses or m.extra.get("degraded_splits"))
        ]
        assert not untouched, "a verified query was served without Maxson"

        assert report.mismatched == 0, "a degraded query returned wrong rows"
        assert report.failed == 0
        assert report.verified > 0
        assert report.completed == len(requests)
        # the faults really fired and the resilience paths really ran
        assert faulty.policy.counters.corruptions > 0
        assert status.corruption_events > 0
        assert status.fallback_queries > 0
        assert status.fallback_splits >= status.fallback_queries
        assert status.quarantine_skips > 0
        assert status.quarantined_tables > 0

    def test_mid_build_crash_restart_recovery_then_clean_replay(self):
        system, faulty, queries = build_stack()
        requests = build_replay_workload(
            queries, days=DAYS, per_day=PER_DAY, tenants=3, seed=6
        )
        config = server_config()

        # --- life before the crash: one verified replay day ------------
        day0 = [r for r in requests if r.day == 0]
        with MaxsonServer(system, config) as server:
            report = replay(server, day0, verify=True)
            assert report.mismatched == 0 and report.failed == 0
            # --- the crash: kill the next generation build mid-write ---
            faulty.policy = FaultPolicy(seed=21, crash_after_writes=2)
            with pytest.raises(InjectedCrash):
                server.scheduler.advance_days(1)
            faulty.policy = FaultPolicy()
        assert faulty.policy.counters.crashes == 0  # fresh quiet policy
        assert system.journal.pending()  # the build never committed

        # --- the restart: a new server over the surviving state --------
        faulty.policy = FaultPolicy(
            seed=14,
            corrupt_rate=0.3,
            corrupt_path_prefix=CACHE_PATH_PREFIX,
            read_error_rate=0.05,
            error_path_prefix=CACHE_PATH_PREFIX,
        )
        with MaxsonServer(system, config) as server2:
            # startup recovery dropped the orphaned half-built generation
            assert server2.recovered_tables
            assert system.journal.pending() == []
            report2 = replay(server2, requests, verify=True)
            status = server2.status()

        assert report2.mismatched == 0, "wrong answers after crash recovery"
        assert report2.failed == 0
        assert report2.verified > 0
        assert status.recovery_actions > 0
        assert status.corruption_events > 0
        assert status.fallback_queries > 0
