"""Command-line interface for the Maxson reproduction.

Subcommands::

    python -m repro.cli analyze    # workload analysis report (paper SSII)
    python -m repro.cli predict    # train a predictor, report P/R/F1
    python -m repro.cli demo       # run a query with and without Maxson
    python -m repro.cli explain    # EXPLAIN ANALYZE one Table II query
    python -m repro.cli bench-cache  # scoring vs random vs no-cache sweep
    python -m repro.cli replay-serve # concurrent server replay + status

All commands operate on the in-memory simulator and are seeded, so runs
are reproducible; they exist to make the system explorable without
writing code.
"""

from __future__ import annotations

import argparse
import sys


def _build_trace(args):
    from .workload import SyntheticTrace, TraceConfig

    return SyntheticTrace(
        TraceConfig(
            days=args.days,
            users=args.users,
            tables=args.tables,
            seed=args.seed,
        )
    )


def cmd_analyze(args) -> int:
    from .workload import analyze, format_report

    trace = _build_trace(args)
    print(format_report(analyze(trace)))
    return 0


def cmd_predict(args) -> int:
    from .core import JsonPathCollector, JsonPathPredictor, PredictorConfig

    trace = _build_trace(args)
    collector = JsonPathCollector()
    collector.ingest_trace(trace)
    split = int(args.days * 0.8)
    train_days = list(range(args.window + 1, split))
    eval_days = list(range(split, args.days - 1))
    predictor = JsonPathPredictor(
        PredictorConfig(
            model=args.model, window_days=args.window, epochs=args.epochs
        )
    )
    predictor.fit(collector, train_days)
    prf = predictor.evaluate(collector, eval_days)
    print(
        f"model={args.model} window={args.window}d "
        f"precision={prf.precision:.3f} recall={prf.recall:.3f} "
        f"f1={prf.f1:.3f}"
    )
    return 0


def _engine_knobs(args) -> dict:
    """The engine knobs the command line set (an unset flag inherits)."""
    knobs = {k: getattr(args, k) for k in ("scan_workers", "worker_backend")}
    return {k: v for k, v in knobs.items() if v is not None}


def _demo_query(args):
    """What ``demo`` and ``explain`` start from: a demo system running
    with the command line's engine knobs, the chosen Table II query and
    the ``PathKey`` of every JSONPath it reads."""
    from .core import MaxsonSystem
    from .workload import PathKey, build_queries
    from .workload.tables import DocumentFactory, TABLE_SPECS

    system = MaxsonSystem.for_demo(rows_per_table=args.rows)
    system.session.configure(**_engine_knobs(args))
    scale = max(1, 10_000 // args.rows)
    factories = {
        s.query_id: DocumentFactory(s, metric_scale=scale) for s in TABLE_SPECS
    }
    query = build_queries(factories)[args.query.upper()]
    keys = [
        PathKey(query.database, query.table, query.column, path)
        for path in query.paths
    ]
    return system, query, keys


def cmd_demo(args) -> int:
    system, query, keys = _demo_query(args)
    baseline = system.baseline_sql(query.sql)
    system.cache_paths_directly(keys, budget_bytes=1 << 40)
    cached = system.sql(query.sql)
    assert sorted(map(str, cached.rows)) == sorted(map(str, baseline.rows))
    b, c = baseline.metrics, cached.metrics
    print(f"query {args.query.upper()}: {len(query.paths)} JSONPaths")
    print(
        f"  baseline: {b.total_seconds:7.3f}s "
        f"(parse {b.parse_fraction:5.1%}, {b.bytes_read:,} bytes)"
    )
    print(
        f"  maxson:   {c.total_seconds:7.3f}s "
        f"(parse {c.parse_fraction:5.1%}, {c.bytes_read:,} bytes)"
    )
    print(f"  speedup:  {b.total_seconds / max(c.total_seconds, 1e-9):.1f}x")
    return 0


def cmd_explain(args) -> int:
    """EXPLAIN ANALYZE one Table II query, cold and (optionally) cached."""
    system, query, keys = _demo_query(args)
    if args.cached:
        system.cache_paths_directly(keys, budget_bytes=1 << 40)
    print(system.explain_analyze(query.sql))
    return 0


def cmd_bench_cache(args) -> int:
    from .core import MaxsonConfig, MaxsonSystem, PredictorConfig
    from .engine import Session
    from .storage import BlockFileSystem
    from .workload import build_queries, load_tables

    session = Session(fs=BlockFileSystem())
    factories = load_tables(session.catalog, rows_per_table=args.rows, days=3)
    queries = build_queries(factories)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    for query in queries.values():
        planned = session.compile(query.sql)
        for day in range(3):
            for _ in range(2):
                system.collector.record_planned(day, planned.referenced_json_paths)
    system.current_day = 2
    candidates = system.collector.universe
    total = sum(
        stats.estimated_total_bytes
        for stats in system.scoring.measure_many(candidates).values()
    )

    def run_all():
        return sum(
            system.sql(q.sql).metrics.total_seconds for q in queries.values()
        )

    system.cacher.drop_all()
    base = sum(
        system.baseline_sql(q.sql).metrics.total_seconds
        for q in queries.values()
    )
    print(f"{'budget':>8} {'strategy':>9} {'cached':>7} {'seconds':>9} {'speedup':>8}")
    print(f"{'none':>8} {'-':>9} {0:7d} {base:9.2f} {1.0:8.1f}x")
    for fraction in (0.25, 0.5, 0.75, 1.0):
        for strategy in ("score", "random"):
            report = system.cache_paths_directly(
                candidates,
                budget_bytes=int(total * fraction),
                strategy=strategy,
            )
            seconds = run_all()
            print(
                f"{fraction:7.0%} {strategy:>9} {len(report.selected):7d} "
                f"{seconds:9.2f} {base / max(seconds, 1e-9):8.1f}x"
            )
    return 0


def _serve_spec(args):
    """The served warehouse ``replay-serve`` asks for, as the one
    ``ShardSpec`` that ``build_shard_server`` turns into a server — in
    this process, or in each shard of ``--shards N``."""
    from .cluster import ShardSpec

    server = {
        "max_workers": args.concurrency,
        "per_tenant_limit": max(1, args.concurrency // 2),
        "queue_capacity": args.queue_capacity,
        "admission_timeout_seconds": args.max_queue_wait_ms / 1000.0,
        "default_deadline_ms": args.deadline_ms,
        "memory_soft_limit_bytes": args.memory_soft_limit_bytes,
        "drain_timeout_seconds": args.drain_timeout,
        "refresh_interval_seconds": args.refresh_interval,
        "max_query_retries": args.retries,
        "build_workers": args.build_workers,
        "plan_cache_entries": args.plan_cache_entries,
        "result_cache": True if args.result_cache else None,
        "cache_budget_bytes": args.cache_budget_bytes,
        "system_tables": args.system_tables,
        "telemetry_budget_bytes": args.telemetry_budget_bytes,
        **_engine_knobs(args),
    }
    if args.shards == 1:  # one process: one trace directory, one log file
        server.update(
            trace_dir=args.trace_dir or None,
            slow_query_seconds=args.slow_query_ms / 1000.0,
            log_file=args.log_json or None,
        )
    return ShardSpec(
        rows_per_table=args.rows,
        days=args.days,
        fault_profile=args.fault_profile,
        model=args.model,
        server=server,
    )


def _replay_requests(args, spec):
    """The seeded replay schedule over the spec's representative queries."""
    from .cluster.shard import spec_queries
    from .server import build_replay_workload

    return build_replay_workload(
        spec_queries(spec),
        days=args.days,
        per_day=args.per_day,
        tenants=args.tenants,
        seed=args.seed,
    )


def _cmd_replay_serve_cluster(args, spec) -> int:
    """The ``--shards N`` path: same replay, routed through the cluster."""
    from dataclasses import replace

    from .cluster import ClusterRouter, build_shard_server
    from .cluster.replay import replay_cluster
    from .server.replay import accounted_requests

    requests = _replay_requests(args, spec)
    baseline = None
    oracle_server = None
    if args.verify:
        # One fault-free in-process warehouse is the row oracle for every
        # shard (they all built the same deterministic tables).
        oracle_system, oracle_server = build_shard_server(
            replace(spec, fault_profile="", server={"max_workers": 1})
        )

        def baseline(sql):
            return sorted(map(str, oracle_system.baseline_sql(sql).rows))

    with ClusterRouter(args.shards, spec=spec) as router:
        print(
            f"cluster up: {args.shards} shards "
            f"(reaped {router.reaped_shm_segments} orphan SHM segments)"
        )
        report = replay_cluster(router, requests, baseline=baseline)
        print(
            f"replayed {report.requests} requests over {report.days} days "
            f"across {report.shards} shards "
            f"({report.completed} completed, {report.failed} failed, "
            f"{report.shed} shed, {report.deadline_exceeded} "
            f"deadline-exceeded, {report.crash_failed} crash-failed) "
            f"in {report.wall_seconds:.2f}s"
        )
        per_shard = ", ".join(
            f"shard{sid}={n}"
            for sid, n in sorted(report.per_shard_completed.items())
        )
        print(f"per-shard completions: {per_shard or 'none'}")
        meta = report.metadata_cache
        print(
            f"metadata cache: {meta['hits']} hits / {meta['misses']} misses "
            f"(hit rate {meta['hit_rate']:.2f}, "
            f"{meta['invalidations']} invalidations)"
        )
        if args.verify:
            print(
                f"verified {report.verified} results against the plain "
                f"engine ({report.mismatched} mismatched)"
            )
        exit_code = 0
        if args.system_tables:
            audit = router.audit_system_queries()
            breakdown = ", ".join(
                f"{status}={n}"
                for status, n in sorted(audit["totals"].items())
            )
            print(f"system.queries (all shards): {breakdown}")
            for sid, by_status in sorted(audit["per_shard"].items()):
                shard_line = ", ".join(
                    f"{status}={n}" for status, n in sorted(by_status.items())
                )
                print(f"  shard {sid}: {shard_line or 'empty'}")
            accounted = accounted_requests(report)
            if audit["total_rows"] != accounted:
                print(
                    f"system.queries audit FAILED: {audit['total_rows']} "
                    f"rows vs {accounted} accounted requests"
                )
                exit_code = 1
            else:
                print(
                    f"audit: {audit['total_rows']} query rows vs "
                    f"{accounted} accounted requests (match)"
                )
        if args.metrics:
            print("== Prometheus exposition (aggregated) ==")
            print(router.metrics_text(), end="")
    if args.verify and oracle_server is not None:
        oracle_server.shutdown(wait=False)
    if report.failed or report.completed == 0:
        return 1
    if args.verify and report.mismatched:
        return 1
    return exit_code


def cmd_replay_serve(args) -> int:
    from .cluster import build_shard_server
    from .server import replay
    from .server.replay import accounted_requests

    spec = _serve_spec(args)
    if args.shards > 1:
        return _cmd_replay_serve_cluster(args, spec)
    requests = _replay_requests(args, spec)  # before the server's clock starts
    system, server = build_shard_server(spec)
    with server:
        report = replay(server, requests, verify=args.verify)
        status = report.status
        print(
            f"replayed {report.requests} requests over {report.days} days "
            f"({report.completed} completed, {report.failed} failed, "
            f"{report.shed} shed, {report.deadline_exceeded} deadline-exceeded) "
            f"in {report.wall_seconds:.2f}s"
        )
        if args.verify:
            print(
                f"verified {report.verified} results against the plain "
                f"engine ({report.mismatched} mismatched)"
            )
        if args.fault_profile:
            print(f"injected faults: {system.session.fs.policy.counters.to_dict()}")
        print(status.format())
        if args.trace_dir:
            trace = status.observability.get("trace", {})
            print(
                f"traces: {trace.get('traces_written', 0)} traces "
                f"({trace.get('spans_written', 0)} spans) -> "
                f"{trace.get('path', args.trace_dir)}"
            )
        if args.system_tables:
            audit = server.system.session.sql(
                "SELECT status, count(*) AS n FROM system.queries "
                "GROUP BY status"
            )
            breakdown = ", ".join(
                f"{row['status']}={row['n']}"
                for row in sorted(audit.rows, key=lambda r: r["status"])
            )
            print(f"system.queries: {breakdown}")
            total = sum(row["n"] for row in audit.rows)
            accounted = accounted_requests(report)
            if total != accounted:
                print(
                    f"system.queries audit FAILED: {total} rows vs "
                    f"{accounted} accounted requests"
                )
                return 1
        if args.metrics:
            print("== Prometheus exposition ==")
            print(server.metrics_text(), end="")
    if report.failed or report.completed == 0:
        return 1
    if args.verify and report.mismatched:
        return 1
    return 0


def _serve_system_tables_replay(args):
    """A short seeded replay with system tables on: the shared setup of
    ``repro incidents`` and ``repro query-history``. Returns the live
    server (telemetry queryable) and the replay report."""
    from .cluster import ShardSpec, build_shard_server
    from .server import replay

    spec = ShardSpec(
        rows_per_table=args.rows,
        days=args.days,
        server={
            "max_workers": 4,
            "system_tables": True,
            "slow_query_seconds": args.slow_query_ms / 1000.0,
            **_engine_knobs(args),
        },
    )
    requests = _replay_requests(args, spec)
    _, server = build_shard_server(spec)
    return server, replay(server, requests)


def _print_rows(header: list[str], rows: list[tuple]) -> None:
    widths = [
        max(len(header[i]), *(len(str(row[i])) for row in rows))
        if rows
        else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(name.ljust(widths[i]) for i, name in enumerate(header)))
    for row in rows:
        print(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )


def cmd_incidents(args) -> int:
    """Replay a workload, then read the flight recorder back via SQL."""
    import json

    server, report = _serve_system_tables_replay(args)
    try:
        result = server.system.session.sql(
            "SELECT ts, query_id, kind, tenant, seconds, fingerprint, payload "
            "FROM system.incidents"
        )
        rows = sorted(result.rows, key=lambda r: r["ts"] or 0.0)
        print(
            f"{len(rows)} incidents recorded over {report.requests} "
            f"replayed requests ({report.completed} completed)"
        )
        shown = rows[-args.limit :]
        _print_rows(
            ["ts", "query_id", "kind", "tenant", "seconds", "fingerprint"],
            [
                (
                    f"{r['ts']:.3f}",
                    r["query_id"],
                    r["kind"],
                    r["tenant"],
                    f"{r['seconds']:.4f}",
                    (r["fingerprint"] or "")[:48],
                )
                for r in shown
            ],
        )
        if shown and args.detail:
            payload = json.loads(shown[-1]["payload"])
            print("\n== most recent incident ==")
            print(f"query_id: {payload.get('query_id')}")
            print(f"kind:     {payload.get('kind')}")
            print(f"sql:      {payload.get('sql')}")
            print(f"breaker:  {payload.get('breaker')}")
            print(f"watchdog: {payload.get('watchdog')}")
            if payload.get("plan"):
                print("physical plan:")
                print(payload["plan"])
    finally:
        server.shutdown()
    return 0


def cmd_query_history(args) -> int:
    """Replay a workload, then audit it from ``system.queries`` alone."""
    from .server.replay import accounted_requests

    server, report = _serve_system_tables_replay(args)
    try:
        audit = server.system.session.sql(
            "SELECT status, count(*) AS n FROM system.queries GROUP BY status"
        )
        breakdown = ", ".join(
            f"{row['status']}={row['n']}"
            for row in sorted(audit.rows, key=lambda r: r["status"])
        )
        print(
            f"replayed {report.requests} requests; "
            f"system.queries says: {breakdown}"
        )
        result = server.system.session.sql(
            "SELECT ts, query_id, tenant, status, seconds, backend, "
            "plan_cache FROM system.queries"
        )
        rows = sorted(result.rows, key=lambda r: r["ts"] or 0.0)
        _print_rows(
            [
                "ts",
                "query_id",
                "tenant",
                "status",
                "seconds",
                "backend",
                "plan_cache",
            ],
            [
                (
                    f"{r['ts']:.3f}",
                    r["query_id"],
                    r["tenant"],
                    r["status"],
                    f"{r['seconds']:.4f}",
                    r["backend"],
                    r["plan_cache"] or "",
                )
                for r in rows[-args.limit :]
            ],
        )
        total = len(result.rows)
        accounted = accounted_requests(report)
        match = total == accounted
        print(
            f"audit: {total} query rows vs {accounted} accounted requests "
            f"({'match' if match else 'MISMATCH'})"
        )
    finally:
        server.shutdown()
    return 0 if match else 1


def cmd_report(args) -> int:
    from .reporting import main as report_main

    return report_main([args.results])


def build_parser() -> argparse.ArgumentParser:
    from .engine.session import WORKER_BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro", description="Maxson reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(p):
        p.add_argument("--days", type=int, default=42)
        p.add_argument("--users", type=int, default=24)
        p.add_argument("--tables", type=int, default=14)
        p.add_argument("--seed", type=int, default=11)

    def add_engine_args(p):
        p.add_argument(
            "--scan-workers",
            type=int,
            default=None,
            help="morsel workers per query: a scan's file splits execute "
            "concurrently on a shared pool (1 = serial, the same code "
            "inline)",
        )
        p.add_argument(
            "--worker-backend",
            default=None,
            choices=WORKER_BACKENDS,
            help="morsel worker backend when --scan-workers > 1: GIL-shared "
            "threads (default) or spawned processes exchanging ColumnBatch "
            "payloads over shared memory",
        )

    p_analyze = sub.add_parser("analyze", help="workload analysis report")
    add_trace_args(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_predict = sub.add_parser("predict", help="train and evaluate a predictor")
    add_trace_args(p_predict)
    p_predict.add_argument(
        "--model",
        default="lstm_crf",
        choices=["lr", "svm", "mlp", "lstm", "lstm_crf", "oracle", "always"],
    )
    p_predict.add_argument("--window", type=int, default=7)
    p_predict.add_argument("--epochs", type=int, default=15)
    p_predict.set_defaults(func=cmd_predict)

    p_demo = sub.add_parser("demo", help="run one Table II query both ways")
    p_demo.add_argument("--query", default="Q2", help="Q1..Q10")
    p_demo.add_argument("--rows", type=int, default=600)
    add_engine_args(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_explain = sub.add_parser(
        "explain",
        help="EXPLAIN ANALYZE one Table II query (annotated actual plan)",
    )
    p_explain.add_argument("--query", default="Q2", help="Q1..Q10")
    p_explain.add_argument("--rows", type=int, default=600)
    p_explain.add_argument(
        "--cached",
        action="store_true",
        help="cache the query's JSONPaths first, so the plan shows the "
        "Maxson scan + value combiner",
    )
    add_engine_args(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_bench = sub.add_parser(
        "bench-cache", help="cache-budget sweep (Fig 11 style)"
    )
    p_bench.add_argument("--rows", type=int, default=600)
    p_bench.set_defaults(func=cmd_bench_cache)

    p_serve = sub.add_parser(
        "replay-serve",
        aliases=["serve"],
        help="replay a multi-day workload through the concurrent server",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run as an N-shard cluster: a router process consistent-hashes "
        "(tenant, table) onto N shard processes, each a full server over "
        "the warehouse with its own admission/deadline/breaker/cache "
        "budgets (default 1 = single-process)",
    )
    p_serve.add_argument("--concurrency", type=int, default=8)
    p_serve.add_argument("--days", type=int, default=3)
    p_serve.add_argument("--per-day", type=int, default=24)
    p_serve.add_argument("--tenants", type=int, default=4)
    p_serve.add_argument("--rows", type=int, default=200)
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--queue-capacity", type=int, default=64)
    p_serve.add_argument(
        "--max-queue-wait-ms",
        type=float,
        default=30000.0,
        metavar="MS",
        help="bound on admission-queue wait (queries shed with a "
        "retry-after hint when the queue cannot drain in time)",
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-query deadline; timed-out queries raise "
        "DeadlineExceededError via cooperative cancellation and return "
        "no rows (default: no deadline)",
    )
    p_serve.add_argument(
        "--memory-soft-limit-bytes",
        type=int,
        default=None,
        metavar="N",
        help="soft cap on cache-ledger bytes; over it the watchdog shrinks "
        "the result/plan tiers, then sheds cold queries while pressure "
        "persists",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-shutdown drain window: in-flight queries get this "
        "long to finish before being cooperatively cancelled",
    )
    p_serve.add_argument("--refresh-interval", type=float, default=0.0)
    p_serve.add_argument(
        "--model",
        default="always",
        choices=["lr", "svm", "mlp", "lstm", "lstm_crf", "oracle", "always"],
        help="predictor driving the midnight cycles",
    )
    p_serve.add_argument(
        "--fault-profile",
        default="",
        metavar="SPEC",
        help="inject seeded faults, e.g. "
        "'corrupt=0.05,read_error=0.02,seed=3' "
        "(keys: seed, read_error, write_error, corrupt, torn_append, "
        "latency, spike_rate, spike_seconds, error_prefix, corrupt_prefix, "
        "crash_after, crash_prefix)",
    )
    p_serve.add_argument(
        "--verify",
        action="store_true",
        help="check every result against the plain engine (wrong-answer "
        "detector for fault runs)",
    )
    p_serve.add_argument(
        "--retries",
        type=int,
        default=6,
        help="transient-fault retries per query",
    )
    p_serve.add_argument(
        "--build-workers",
        type=int,
        default=1,
        help="threads parsing raw files during cache builds "
        "(writes stay sequential)",
    )
    add_engine_args(p_serve)
    p_serve.add_argument(
        "--plan-cache-entries",
        type=int,
        default=None,
        help="capacity of the recurring-query plan cache (0 disables)",
    )
    p_serve.add_argument(
        "--result-cache",
        action="store_true",
        help="enable the semantic result cache (canonicalized recurring "
        "statements replay their result set)",
    )
    p_serve.add_argument(
        "--cache-budget-bytes",
        type=int,
        default=None,
        metavar="N",
        help="unified byte budget shared by the result, plan and "
        "document cache tiers (default: unlimited)",
    )
    p_serve.add_argument(
        "--trace-dir",
        default="",
        metavar="DIR",
        help="export per-query and midnight span trees as JSONL under DIR",
    )
    p_serve.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus text exposition after the replay",
    )
    p_serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=0.0,
        help="log queries at or past this wall time as slow_query events",
    )
    p_serve.add_argument(
        "--log-json",
        default="",
        metavar="FILE",
        help="write structured NDJSON events (queries, cycles) to FILE",
    )
    p_serve.add_argument(
        "--system-tables",
        action="store_true",
        help="record the engine's own telemetry as queryable system.* "
        "NDJSON tables (queries, spans, cache_events, workers, incidents)",
    )
    p_serve.add_argument(
        "--telemetry-budget-bytes",
        type=int,
        default=8 * 1024 * 1024,
        metavar="N",
        help="byte budget for telemetry segments; oldest sealed segments "
        "rotate out above it",
    )
    p_serve.set_defaults(func=cmd_replay_serve)

    def add_systables_replay_args(p):
        p.add_argument("--rows", type=int, default=120)
        p.add_argument("--days", type=int, default=2)
        p.add_argument("--per-day", type=int, default=16)
        p.add_argument("--tenants", type=int, default=3)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--limit", type=int, default=10)
        p.add_argument(
            "--slow-query-ms",
            type=float,
            default=1.0,
            help="slow-query threshold driving flight-recorder capture",
        )
        add_engine_args(p)

    p_incidents = sub.add_parser(
        "incidents",
        help="replay a workload, then read the slow-query flight recorder "
        "back through SQL over system.incidents",
    )
    add_systables_replay_args(p_incidents)
    p_incidents.add_argument(
        "--detail",
        action="store_true",
        help="print the most recent incident's full record (plan, breaker, "
        "watchdog state)",
    )
    p_incidents.set_defaults(func=cmd_incidents)

    p_history = sub.add_parser(
        "query-history",
        help="replay a workload, then audit every request outcome from "
        "system.queries alone",
    )
    add_systables_replay_args(p_history)
    p_history.set_defaults(func=cmd_query_history)

    p_report = sub.add_parser(
        "report", help="render benchmarks/results as Markdown"
    )
    p_report.add_argument("--results", default="benchmarks/results")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
