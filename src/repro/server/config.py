"""Server configuration knobs.

:class:`ServerConfig` sizes the three throttles of the query service:

* **worker pool** — how many queries execute simultaneously
  (``max_workers``);
* **per-tenant concurrency** — how many of those one logical client may
  occupy at once (``per_tenant_limit``), the noisy-neighbour guard;
* **admission queue** — how many requests may wait for a tenant slot
  (``queue_capacity``) and for how long (``admission_timeout_seconds``)
  before being shed.

Defaults are sized for the in-process simulator; a production deployment
would scale them with the executor fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.session import check_engine_knobs

__all__ = ["ServerConfig"]


@dataclass
class ServerConfig:
    """Knobs for :class:`~repro.server.service.MaxsonServer`."""

    max_workers: int = 8
    """Size of the query-execution thread pool."""

    per_tenant_limit: int = 4
    """Queries one tenant may have executing concurrently."""

    queue_capacity: int = 64
    """Requests allowed to wait for admission before new ones are shed."""

    admission_timeout_seconds: float = 10.0
    """How long a request may wait for a tenant slot before timing out."""

    default_tenant: str = "default"
    """Tenant used when a request names none."""

    midnight_history_days: int = 7
    """Scoring window handed to the midnight cycle."""

    refresh_interval_seconds: float = 0.0
    """Virtual seconds between incremental cache refreshes (0 = off)."""

    seconds_per_day: float = 86400.0
    """Length of one virtual day on the maintenance clock."""

    max_query_retries: int = 2
    """Attempts to re-run a query that hit a *transient* fs fault
    (:class:`~repro.storage.fs.TransientFsError`), beyond the first."""

    retry_backoff_seconds: float = 0.01
    """Base of the exponential backoff between retry attempts. The
    actual delay is drawn uniformly from ``[0, base * 2**attempt]``
    (full jitter) so concurrent retries do not re-collide."""

    retry_jitter_seed: int | None = 0
    """Seed for the retry-backoff RNG; fixed by default so tests replay
    identical schedules. ``None`` uses entropy."""

    default_deadline_ms: float | None = None
    """Wall-time budget applied to every query that does not carry its
    own ``deadline_ms``. Enforced by cooperative cancellation: a query
    past its deadline raises ``DeadlineExceededError`` at the next
    split/batch/row-loop check and never returns partial rows. ``None``
    disables the default (queries run unbounded unless the request sets
    one)."""

    deadline_shed_factor: float = 1.0
    """Admission sheds a cold query immediately (``QueryShedError``)
    when its remaining deadline is shorter than ``factor ×`` the
    server's moving estimate of query service time. Probable
    result-cache hits are exempt. 0 disables estimate-based shedding
    (queries are still shed once the deadline itself passes)."""

    memory_soft_limit_bytes: int | None = None
    """Soft ceiling for the unified cache ledger. When the watchdog sees
    the total above it, cache tiers are shrunk (result → plan); if
    pressure persists, cold queries are shed until it clears. ``None``
    disables the watchdog."""

    drain_timeout_seconds: float = 5.0
    """How long ``shutdown()`` lets in-flight queries finish before
    cancelling them cooperatively."""

    build_workers: int | None = None
    """Threads parsing raw files concurrently during midnight cache
    builds and refreshes (writes stay sequential; see
    :class:`~repro.core.cacher.JsonPathCacher`). ``None`` inherits the
    wrapped system's setting."""

    scan_workers: int | None = None
    """Morsel workers per query: file splits of one scan execute
    concurrently on a shared pool of this size (see
    :mod:`repro.engine.parallel`). 1 runs the same morsel code inline
    (serial). ``None`` inherits the wrapped system's setting."""

    worker_backend: str | None = None
    """Morsel worker backend when ``scan_workers > 1``: 'thread' (shared
    GIL) or 'process' (spawned workers holding warm catalog snapshots,
    returning ColumnBatch payloads over shared memory — see
    :mod:`repro.engine.procpool`). ``None`` inherits the wrapped
    system's setting (itself defaulting to 'thread')."""

    plan_cache_entries: int | None = None
    """Capacity of the recurring-query plan cache (LRU over normalized
    SQL fingerprints). 0 disables plan caching. ``None`` inherits the
    wrapped system's setting."""

    result_cache: bool | None = None
    """Enable the semantic result cache (canonicalized recurring
    statements replay their result set; see
    :mod:`repro.engine.resultcache`). ``None`` inherits the wrapped
    system's setting (itself defaulting to off)."""

    cache_budget_bytes: int | None = None
    """Unified byte budget shared by the result, plan and document cache
    tiers (one :class:`~repro.engine.cachebudget.CacheLedger` account).
    ``None`` inherits the wrapped session's setting (unlimited by
    default)."""

    system_tables: bool = False
    """Record the engine's own telemetry — one ``system.queries`` row
    per request outcome (completed / failed / shed / deadline-exceeded /
    cancelled), span trees for traced queries, cache/breaker/watchdog
    events, worker lifecycle and a flight-recorder ``system.incidents``
    table — as NDJSON segment files registered in the catalog under the
    ``system`` database and queryable through the ordinary SQL path
    (see :mod:`repro.obs.systables`). Off by default: the request path
    gains one in-memory fs append per query when enabled."""

    telemetry_budget_bytes: int = 8 * 1024 * 1024
    """Byte budget for all telemetry segments together. Over it, the
    oldest sealed segments are deleted (ring-buffer rotation); the
    occupancy is published to the cache ledger as a reported
    ``telemetry`` tier."""

    telemetry_segment_bytes: int = 64 * 1024
    """Segment size before the telemetry store seals the active segment
    and starts a new one — the granularity of budget rotation."""

    trace_dir: str | None = None
    """Directory for JSONL trace export. When set, every query and every
    midnight cycle records a span tree and appends it to
    ``<trace_dir>/traces.jsonl``. ``None`` (the default) disables
    tracing entirely — served queries run the uninstrumented plan."""

    slow_query_seconds: float = 0.0
    """Queries at or above this wall time are written to the structured
    log as ``slow_query`` events (with their stage breakdown) even when
    routine per-query logging is off. 0 disables the slow-query log."""

    log_file: str | None = None
    """Path for the structured NDJSON event log (queries, failures,
    midnight cycles). ``None`` keeps the logger counting but silent."""

    log_all_queries: bool = False
    """Log every completed query, not just slow ones."""

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.per_tenant_limit < 1:
            raise ValueError("per_tenant_limit must be >= 1")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.admission_timeout_seconds < 0:
            raise ValueError("admission_timeout_seconds must be >= 0")
        if self.seconds_per_day <= 0:
            raise ValueError("seconds_per_day must be positive")
        if self.max_query_retries < 0:
            raise ValueError("max_query_retries must be >= 0")
        if self.retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be >= 0")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if self.deadline_shed_factor < 0:
            raise ValueError("deadline_shed_factor must be >= 0")
        if (
            self.memory_soft_limit_bytes is not None
            and self.memory_soft_limit_bytes < 0
        ):
            raise ValueError("memory_soft_limit_bytes must be >= 0")
        if self.drain_timeout_seconds < 0:
            raise ValueError("drain_timeout_seconds must be >= 0")
        check_engine_knobs(
            build_workers=self.build_workers, **self.engine_overrides()
        )
        if self.slow_query_seconds < 0:
            raise ValueError("slow_query_seconds must be >= 0")
        if self.telemetry_budget_bytes < 1:
            raise ValueError("telemetry_budget_bytes must be >= 1")
        if self.telemetry_segment_bytes < 1:
            raise ValueError("telemetry_segment_bytes must be >= 1")

    def engine_overrides(self) -> dict:
        """The :class:`~repro.engine.session.Session` knobs this config
        sets, under the session's field names; a ``None`` override
        inherits and is left out."""
        overrides = {
            "scan_workers": self.scan_workers,
            "worker_backend": self.worker_backend,
            "plan_cache_entries": self.plan_cache_entries,
            "result_cache_enabled": self.result_cache,
            "cache_budget_bytes": self.cache_budget_bytes,
        }
        return {k: v for k, v in overrides.items() if v is not None}
