"""Concurrency stress: mixed traffic across live cache-generation swaps.

The scenario the server subsystem exists for: ≥8 client threads issue a
mix of cached (hot) and uncached (cold) queries while the maintenance
path rebuilds and atomically swaps the cache generation twice, mid
traffic. The test then asserts the three properties the design doc
promises:

* **no torn reads** — every concurrent result is row-identical to the
  serial reference, and every hot query planned against *some complete*
  generation (zero raw parses, nonzero cache hits; an empty or
  half-swapped registry would force a raw parse);
* **no lost collector counts** — per-path counts on the stress day equal
  exactly what the threads issued, and concurrent ``ingest`` events all
  land;
* **result equivalence with serial execution** is byte-for-byte on rows.
"""

import threading

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.jsonlib import dumps
from repro.server import MaxsonServer, ServerConfig
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

HOT_SQL = "select get_json_object(payload, '$.hot') as h from db.t"
COLD_SQL = "select get_json_object(payload, '$.cold') as c from db.t"
HOT_KEY = PathKey("db", "t", "payload", "$.hot")
COLD_KEY = PathKey("db", "t", "payload", "$.cold")
INGEST_KEY = PathKey("db", "t", "payload", "$.synthetic")

N_THREADS = 10
QUERIES_PER_THREAD = 8
INGEST_EVENTS = 200
STRESS_DAY = 10  # outside every cycle's history/target window


def build_system() -> MaxsonSystem:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [
        (i, dumps({"hot": i % 7, "cold": f"c{i}", "big": "x" * 60}))
        for i in range(120)
    ]
    session.catalog.append_rows("db", "t", rows, row_group_size=20)
    return MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )


def test_stress_across_generation_swaps():
    system = build_system()
    # Warm-up stats (day 0) and oracle ground truth for the three cycle
    # target days: $.hot is an MPJP every day, so generations 1..3 all
    # cache it and a hot query must hit whichever generation it leases.
    system.sql(HOT_SQL, day=0)
    system.sql(HOT_SQL, day=0)
    system.sql(COLD_SQL, day=0)
    for day in (1, 2, 3):
        system.collector.record_query(day, (HOT_KEY, HOT_KEY))

    serial_hot = system.baseline_sql(HOT_SQL).rows
    serial_cold = system.baseline_sql(COLD_SQL).rows
    issued_before = {
        HOT_KEY: system.collector.count(HOT_KEY, STRESS_DAY),
        COLD_KEY: system.collector.count(COLD_KEY, STRESS_DAY),
    }
    assert issued_before == {HOT_KEY: 0, COLD_KEY: 0}

    server = MaxsonServer(
        system,
        ServerConfig(
            max_workers=N_THREADS,
            per_tenant_limit=4,
            queue_capacity=256,
            admission_timeout_seconds=120.0,
        ),
    )
    # Generation 1 is live before traffic starts, so every hot query in
    # the stress phase should be served from cache.
    server.run_midnight_cycle(day=1)
    assert system.generation == 1

    failures: list[str] = []
    failures_lock = threading.Lock()
    start = threading.Barrier(N_THREADS + 2)
    hot_issued = [0] * N_THREADS
    cold_issued = [0] * N_THREADS

    def fail(message: str) -> None:
        with failures_lock:
            failures.append(message)

    def client(idx: int) -> None:
        start.wait()
        for i in range(QUERIES_PER_THREAD):
            hot = (idx + i) % 2 == 0
            sql = HOT_SQL if hot else COLD_SQL
            try:
                result = server.execute(
                    sql, tenant=f"tenant-{idx % 4}", day=STRESS_DAY
                )
            except Exception as exc:  # admission errors count as failures
                fail(f"client {idx} query {i}: {exc!r}")
                continue
            if hot:
                hot_issued[idx] += 1
                if result.rows != serial_hot:
                    fail(f"client {idx} query {i}: torn hot rows")
                if result.metrics.parse_documents != 0:
                    fail(
                        f"client {idx} query {i}: hot query parsed raw JSON "
                        "(saw an empty/partial registry mid-swap)"
                    )
                if result.metrics.cache_hits <= 0:
                    fail(f"client {idx} query {i}: hot query missed cache")
            else:
                cold_issued[idx] += 1
                if result.rows != serial_cold:
                    fail(f"client {idx} query {i}: torn cold rows")

    def ingester() -> None:
        start.wait()
        for _ in range(INGEST_EVENTS):
            server.ingest(STRESS_DAY + 1, (INGEST_KEY,))

    threads = [
        threading.Thread(target=client, args=(idx,), name=f"client-{idx}")
        for idx in range(N_THREADS)
    ]
    threads.append(threading.Thread(target=ingester, name="ingester"))
    for t in threads:
        t.start()
    # Maintenance runs in the main thread WHILE traffic flows: two more
    # midnight cycles, each building generation N+1 beside the live one
    # and swapping it in under active leases.
    start.wait()
    server.scheduler.advance_days(1)  # -> day 2, generation 2
    server.scheduler.advance_days(1)  # -> day 3, generation 3
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive(), f"{t.name} did not finish"

    assert failures == []
    assert system.generation == 3
    # Old generations fully retired once their last lease drained: the
    # cache database holds exactly the live generation's tables.
    guard = server.generation_guard.snapshot()
    assert guard["active_leases"] == 0
    assert guard["pending_retirements"] == 0
    assert guard["swaps"] == 3
    live_tables = system.registry.cache_tables()
    from repro.core.cacher import CACHE_DATABASE

    on_disk = {info.name for info in system.catalog.list_tables(CACHE_DATABASE)}
    assert on_disk == live_tables

    # No lost collector counts: exact per-path totals for the stress day
    # and for the concurrent ingest stream.
    total_hot = sum(hot_issued)
    total_cold = sum(cold_issued)
    assert total_hot + total_cold == N_THREADS * QUERIES_PER_THREAD
    assert system.collector.count(HOT_KEY, STRESS_DAY) == total_hot
    assert system.collector.count(COLD_KEY, STRESS_DAY) == total_cold
    assert len(system.collector.queries_on(STRESS_DAY)) == total_hot + total_cold
    # ... nor shape counts: the whole day collapsed to its two shapes.
    assert system.collector.shapes_between(STRESS_DAY, STRESS_DAY) == {
        (HOT_KEY,): total_hot,
        (COLD_KEY,): total_cold,
    }
    assert system.collector.count(INGEST_KEY, STRESS_DAY + 1) == INGEST_EVENTS

    status = server.status()
    assert status.queries_completed == N_THREADS * QUERIES_PER_THREAD
    assert status.queries_failed == 0
    assert status.cache_hits > 0
    server.shutdown()


def test_serial_equivalence_after_swaps():
    """After the dust settles, cached results still equal baseline."""
    system = build_system()
    system.sql(HOT_SQL, day=0)
    system.sql(HOT_SQL, day=0)
    for day in (1, 2):
        system.collector.record_query(day, (HOT_KEY, HOT_KEY))
    server = MaxsonServer(system, ServerConfig(max_workers=2))
    server.run_midnight_cycle(day=1)
    server.run_midnight_cycle(day=2)
    cached = server.execute(HOT_SQL, day=2)
    baseline = system.baseline_sql(HOT_SQL)
    assert cached.rows == baseline.rows
    assert cached.metrics.parse_documents == 0
    server.shutdown()
