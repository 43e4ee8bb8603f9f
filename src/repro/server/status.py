"""Serializable server status snapshots.

:class:`ServerStatus` is the one-call observability surface of the
query service: throughput (QPS), latency percentiles, cache
effectiveness (hit ratio, generation, build seconds), admission-queue
health and the aggregate :class:`~repro.engine.metrics.QueryMetrics` of
everything executed so far. ``to_dict`` is JSON-safe for scraping;
``format`` renders the human snapshot the CLI prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["percentile", "ServerStatus"]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 if empty).

    Standard nearest-rank definition: the value at 1-based rank
    ``ceil(fraction * n)``. (The earlier ``int(fraction * n)`` variant
    was biased one rank high for every fraction that divides ``n``
    evenly — e.g. p50 of [1, 2, 3, 4] read 3 instead of 2 — and so
    systematically over-reported small-sample latency percentiles.)
    """
    if not sorted_values:
        return 0.0
    if fraction <= 0:
        return sorted_values[0]
    rank = math.ceil(fraction * len(sorted_values)) - 1
    return sorted_values[min(len(sorted_values) - 1, max(0, rank))]


@dataclass
class ServerStatus:
    """One consistent snapshot of a running :class:`MaxsonServer`."""

    uptime_seconds: float
    queries_completed: int
    queries_failed: int
    queries_shed: int
    queries_timed_out: int
    stats_events_ingested: int
    qps: float
    latency_p50_seconds: float
    latency_p95_seconds: float
    latency_max_seconds: float
    cache_hits: int
    cache_misses: int
    cache_hit_ratio: float
    generation: int
    cached_paths: int
    cache_bytes: int
    build_seconds: float
    midnight_cycles: int
    refreshes: int
    queue_depth: int
    peak_queue_depth: int
    active_queries: int
    active_leases: int
    #: Queries cooperatively cancelled at their deadline. Their elapsed
    #: time is *included* in the latency percentiles above — overload
    #: never silently vanishes from throughput accounting.
    queries_deadline_exceeded: int = 0
    #: Queries cancelled for other reasons (drain, explicit cancel).
    queries_cancelled: int = 0
    latency_p99_seconds: float = 0.0
    #: Shed counts by reason: queue_full, admission_timeout, deadline,
    #: memory_pressure. ``queries_shed`` is their sum.
    shed_breakdown: dict[str, int] = field(default_factory=dict)
    #: Waiters admitted ahead of arrival order (result-cache probable hits).
    priority_admitted: int = 0
    draining: bool = False
    #: In-flight queries cancelled by the drain timeout.
    drain_cancelled: int = 0
    #: :meth:`repro.server.watchdog.MemoryWatchdog.snapshot` payload
    #: (empty when no soft memory limit is configured).
    watchdog: dict = field(default_factory=dict)
    fallback_queries: int = 0
    fallback_splits: int = 0
    corruption_events: int = 0
    quarantine_skips: int = 0
    quarantined_tables: int = 0
    query_retries: int = 0
    build_failures: int = 0
    recovery_actions: int = 0
    worker_backend: str = "thread"
    duplicate_extractions_eliminated: int = 0
    shared_parse_hits: int = 0
    tenants: dict[str, int] = field(default_factory=dict)
    totals: dict[str, object] = field(default_factory=dict)
    slow_queries: int = 0
    #: :meth:`repro.engine.resultcache.ResultCache.stats` payload (all
    #: zeros when the result cache is disabled).
    result_cache: dict = field(default_factory=dict)
    #: :meth:`repro.engine.cachebudget.CacheLedger.to_dict` payload —
    #: the unified byte budget and per-tier occupancies.
    cache_ledger: dict = field(default_factory=dict)
    #: Per-generation prediction quality (most recent last); entries are
    #: :meth:`repro.obs.efficacy.GenerationEfficacy.to_dict` payloads.
    cache_efficacy: list = field(default_factory=list)
    #: Trace-sink / structured-log counters (empty when tracing is off).
    observability: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (fields are already plain types)."""
        out = dict(self.__dict__)
        out["tenants"] = dict(self.tenants)
        out["totals"] = dict(self.totals)
        out["result_cache"] = dict(self.result_cache)
        out["cache_ledger"] = dict(self.cache_ledger)
        out["cache_efficacy"] = [dict(r) for r in self.cache_efficacy]
        out["observability"] = dict(self.observability)
        out["shed_breakdown"] = dict(self.shed_breakdown)
        out["watchdog"] = dict(self.watchdog)
        return out

    def format(self) -> str:
        """The multi-line snapshot the ``replay-serve`` CLI prints."""
        lines = [
            "== Maxson server status ==",
            f"  uptime:        {self.uptime_seconds:8.2f}s",
            f"  queries:       {self.queries_completed} completed, "
            f"{self.queries_failed} failed, {self.queries_shed} shed, "
            f"{self.queries_timed_out} timed out, "
            f"{self.queries_deadline_exceeded} deadline-exceeded, "
            f"{self.queries_cancelled} cancelled",
            f"  stats events:  {self.stats_events_ingested}",
            f"  qps:           {self.qps:8.2f}",
            f"  latency:       p50={self.latency_p50_seconds * 1000:.1f}ms  "
            f"p95={self.latency_p95_seconds * 1000:.1f}ms  "
            f"p99={self.latency_p99_seconds * 1000:.1f}ms  "
            f"max={self.latency_max_seconds * 1000:.1f}ms",
            f"  cache:         hit_ratio={self.cache_hit_ratio:.1%} "
            f"({self.cache_hits} hits / {self.cache_misses} misses)",
            f"  generation:    {self.generation} "
            f"({self.cached_paths} paths, {self.cache_bytes:,} bytes, "
            f"built in {self.build_seconds:.3f}s)",
            f"  maintenance:   {self.midnight_cycles} midnight cycles, "
            f"{self.refreshes} refreshes",
            f"  admission:     depth={self.queue_depth} "
            f"peak={self.peak_queue_depth} active={self.active_queries} "
            f"leases={self.active_leases}",
            f"  degraded:      {self.fallback_queries} fallback queries "
            f"({self.fallback_splits} splits), "
            f"{self.corruption_events} corruptions, "
            f"{self.quarantine_skips} quarantine skips "
            f"({self.quarantined_tables} tables), "
            f"{self.query_retries} retries, "
            f"{self.build_failures} failed builds, "
            f"{self.recovery_actions} recoveries",
            f"  execution:     backend={self.worker_backend}, "
            f"{self.duplicate_extractions_eliminated} duplicate extractions "
            f"eliminated, {self.shared_parse_hits} shared parses",
        ]
        if self.shed_breakdown:
            breakdown = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.shed_breakdown.items())
            )
            lines.append(f"  shed:          {breakdown}")
        if self.watchdog:
            wd = self.watchdog
            lines.append(
                "  watchdog:      soft_limit={:,} bytes, {} shrinks "
                "({:,} bytes reclaimed), pressure={}".format(
                    int(wd.get("soft_limit_bytes", 0)),
                    wd.get("shrinks", 0),
                    int(wd.get("bytes_reclaimed", 0)),
                    "yes" if wd.get("under_pressure") else "no",
                )
            )
        if self.draining or self.drain_cancelled:
            lines.append(
                f"  drain:         draining={self.draining} "
                f"cancelled_in_flight={self.drain_cancelled}"
            )
        if self.slow_queries:
            lines.append(f"  slow queries:  {self.slow_queries}")
        telemetry = self.observability.get("telemetry")
        if telemetry:
            events = telemetry.get("events", {})
            lines.append(
                "  telemetry:     {:,} / {:,} bytes in {} segments "
                "({} rotated, {} dropped), {} query rows, "
                "{} incidents".format(
                    int(telemetry.get("bytes", 0)),
                    int(telemetry.get("budget_bytes", 0)),
                    telemetry.get("segments", 0),
                    telemetry.get("segments_rotated", 0),
                    telemetry.get("events_dropped", 0),
                    events.get("queries", 0),
                    events.get("incidents", 0),
                )
            )
        if self.result_cache.get("capacity"):
            rc = self.result_cache
            budget = self.cache_ledger.get("budget_bytes")
            lines.append(
                "  result cache:  {} entries ({:,} bytes), "
                "{} hits / {} misses, "
                "{} admitted, {} rejected, {} evicted".format(
                    rc.get("entries", 0),
                    int(rc.get("bytes", 0)),
                    rc.get("hits", 0),
                    rc.get("misses", 0),
                    rc.get("admissions", 0),
                    rc.get("rejections", 0),
                    rc.get("evictions", 0),
                )
            )
            lines.append(
                "  cache budget:  {} / {} bytes across tiers".format(
                    f"{int(self.cache_ledger.get('total_bytes', 0)):,}",
                    f"{budget:,}" if budget is not None else "unlimited",
                )
            )
        if self.cache_efficacy:
            latest = self.cache_efficacy[-1]
            lines.append(
                "  efficacy:      gen {} precision={:.1%} recall={:.1%} "
                "byte_hit={:.1%} ({} scored)".format(
                    latest.get("generation", "?"),
                    float(latest.get("precision", 0.0)),
                    float(latest.get("recall", 0.0)),
                    float(latest.get("byte_weighted_hit_ratio", 0.0)),
                    len(self.cache_efficacy),
                )
            )
        if self.tenants:
            per_tenant = ", ".join(
                f"{tenant}={count}" for tenant, count in sorted(self.tenants.items())
            )
            lines.append(f"  tenants:       {per_tenant}")
        return "\n".join(lines)
