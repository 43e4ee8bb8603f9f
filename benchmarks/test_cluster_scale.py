"""Cluster shard-scale sweep + coordinator metadata-cache hit rate.

The PR-10 gates:

* **QPS scaling** — the same I/O-stalled workload through 1, 2 and 4
  shards; a 4-shard cluster must sustain at least **2x** the 1-shard
  QPS. On a small coordinator the win comes from overlapping I/O stalls
  across shard processes (each shard is a full server with its own
  worker pool and admission budget), the same mechanism as the paper's
  multi-node serving tier.
* **Metadata-cache hit rate** — replaying a multi-day workload through
  the router after warmup, the coordinator cache must answer at least
  **90%** of hot-path schema lookups without touching a shard, even
  though every midnight generation swap invalidates each shard's
  entries once.
"""

from __future__ import annotations

import time

from .conftest import once, save_result

from repro.cluster import ClusterRouter, ShardSpec
from repro.cluster.replay import build_replay_workload, replay_cluster
from repro.cluster.shard import spec_queries
from repro.server.status import percentile

#: On a small coordinator the sweep must be I/O-stall dominated for the
#: scale-out effect to be measurable: per-read latency high enough (and
#: tables small enough) that a query's wall time is mostly stalled reads
#: a second shard's worker pool can overlap.
SHARD_LEVELS = (1, 2, 4)
SWEEP_READ_LATENCY = 0.08
SWEEP_ROWS = 32
SWEEP_REQUESTS = 48
SWEEP_TENANTS = 8
PER_SHARD_WORKERS = 4

HITRATE_DAYS = 2
HITRATE_PER_DAY = 100
HITRATE_TENANTS = 6


def _sweep_spec(read_latency: float = SWEEP_READ_LATENCY) -> ShardSpec:
    return ShardSpec(
        rows_per_table=SWEEP_ROWS,
        days=3,
        read_latency_seconds=read_latency,
        server={
            "max_workers": PER_SHARD_WORKERS,
            "per_tenant_limit": PER_SHARD_WORKERS,
            "queue_capacity": 4 * SWEEP_REQUESTS,
            "admission_timeout_seconds": 120.0,
        },
    )


def _run_level(shards: int, requests) -> dict:
    """One sweep level: spawn the cluster, warm it, then time the
    workload at the cluster's own sustainable concurrency."""
    spec = _sweep_spec()
    with ClusterRouter(shards, spec=spec) as router:
        # Warm untimed: every shard executes each query shape once and
        # the coordinator metadata cache fills.
        for request in requests:
            router.execute(request.sql, tenant=request.tenant, day=0)
        started = time.perf_counter()
        futures = [
            router.submit(request.sql, tenant=request.tenant, day=0)
            for request in requests
        ]
        latencies = sorted(
            f.result()["metrics"]["total_seconds"] for f in futures
        )
        wall = time.perf_counter() - started
        meta = router.metacache.snapshot()
    return {
        "shards": shards,
        "qps": len(requests) / wall,
        "wall_seconds": wall,
        "p50_seconds": percentile(latencies, 0.50),
        "p95_seconds": percentile(latencies, 0.95),
        "metadata_hit_rate": meta["hit_rate"],
    }


def test_shard_scale_sweep(benchmark):
    queries = spec_queries(_sweep_spec())
    requests = build_replay_workload(
        queries,
        days=1,
        per_day=SWEEP_REQUESTS,
        tenants=SWEEP_TENANTS,
        seed=23,
    )

    def run_sweep():
        return {
            str(level): _run_level(level, requests)
            for level in SHARD_LEVELS
        }

    sweep = once(benchmark, run_sweep)
    scaling_4_vs_1 = sweep["4"]["qps"] / sweep["1"]["qps"]
    scaling_2_vs_1 = sweep["2"]["qps"] / sweep["1"]["qps"]
    payload = {
        "read_latency_seconds": SWEEP_READ_LATENCY,
        "per_shard_workers": PER_SHARD_WORKERS,
        "requests": SWEEP_REQUESTS,
        "tenants": SWEEP_TENANTS,
        "qps": {level: round(data["qps"], 2) for level, data in sweep.items()},
        "levels": sweep,
        "scaling_4_vs_1": scaling_4_vs_1,
        "scaling_2_vs_1": scaling_2_vs_1,
        "paper_claim": "the serving tier scales out across nodes; shard "
        "processes must buy the same overlap of per-query I/O stalls "
        "that extra cluster nodes buy the paper's deployment",
    }
    save_result("cluster_shard_scale", payload)
    # The PR gate: four shards sustain at least double the 1-shard QPS.
    assert scaling_4_vs_1 >= 2.0, sweep
    assert sweep["2"]["qps"] > sweep["1"]["qps"], sweep


def test_metadata_cache_replay_hit_rate(benchmark):
    spec = ShardSpec(
        rows_per_table=SWEEP_ROWS,
        days=3,
        server={
            "max_workers": PER_SHARD_WORKERS,
            "queue_capacity": 4 * HITRATE_PER_DAY,
            "admission_timeout_seconds": 120.0,
        },
    )
    queries = spec_queries(spec)
    requests = build_replay_workload(
        queries,
        days=HITRATE_DAYS,
        per_day=HITRATE_PER_DAY,
        tenants=HITRATE_TENANTS,
        seed=31,
    )

    def run_replay():
        with ClusterRouter(2, spec=spec) as router:
            # Warmup replay: fills the coordinator cache (and crosses the
            # same midnights the measured replay will cross).
            replay_cluster(router, requests, reset_cache_stats=False)
            report = replay_cluster(router, requests)
            return report

    report = once(benchmark, run_replay)
    meta = report.metadata_cache
    payload = {
        "days": HITRATE_DAYS,
        "requests_per_day": HITRATE_PER_DAY,
        "shards": 2,
        "completed": report.completed,
        "hits": meta["hits"],
        "misses": meta["misses"],
        "hit_rate": meta["hit_rate"],
        "invalidations": meta["invalidations"],
        "paper_claim": "a Presto-style coordinator metadata cache keeps "
        "table schema lookups off the hot path; only DDL/append/"
        "generation swaps invalidate, and only on the shard they hit",
    }
    save_result("cluster_metadata_cache", payload)
    assert report.completed == len(requests)
    # The PR gate: >= 90% of hot-path metadata lookups served by the
    # coordinator after warmup, midnights included.
    assert meta["hit_rate"] >= 0.9, meta
