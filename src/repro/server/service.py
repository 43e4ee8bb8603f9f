"""MaxsonServer: the concurrent query service.

Turns a :class:`~repro.core.system.MaxsonSystem` (batch facade) into a
long-running service:

* SQL requests from many logical clients execute on a thread pool
  (:meth:`submit` returns a future; :meth:`execute` is the synchronous
  path the pool workers run);
* every request passes **admission control** (per-tenant concurrency
  limit, bounded wait queue with shed/timeout) and then takes a
  **generation lease** so the cache generation it plans against cannot
  be retired under it;
* statistics ingestion is online: executed queries feed the collector
  through ``system.sql`` and replayed trace events through
  :meth:`ingest`, concurrently and without losing counts;
* the **maintenance scheduler** drives midnight cycles (build next
  generation → atomic swap) and incremental refreshes off a virtual
  clock while queries keep flowing;
* :meth:`status` returns a serializable snapshot (QPS, latency
  percentiles, hit ratio, queue depth, cache generation, build seconds).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ..core.resilience import RetryPolicy
from ..core.system import MaxsonSystem, MidnightReport
from ..engine.cancel import CancelToken
from ..engine.errors import DeadlineExceededError, QueryCancelledError
from ..engine.metrics import QueryMetrics
from ..engine.session import QueryResult
from ..obs.logging import StructuredLogger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceSink, Tracer
from ..storage.fs import TransientFsError
from ..workload.trace import PathKey
from .admission import AdmissionController, AdmissionError, QueryShedError
from .config import ServerConfig
from .generation import GenerationGuard
from .scheduler import MaintenanceScheduler, VirtualClock
from .status import ServerStatus, percentile
from .watchdog import MemoryWatchdog

__all__ = ["MaxsonServer"]

#: Latency samples kept for percentile estimation (newest win).
_MAX_LATENCY_SAMPLES = 65536

#: Shed-reason labels by admission error class name.
_SHED_REASONS = {
    "QueueFullError": "queue_full",
    "AdmissionTimeout": "admission_timeout",
    "QueryShedError": "deadline",
}


class MaxsonServer:
    """A concurrent Maxson query service over one :class:`MaxsonSystem`."""

    def __init__(
        self,
        system: MaxsonSystem | None = None,
        config: ServerConfig | None = None,
    ) -> None:
        self.system = system or MaxsonSystem()
        self.config = config or ServerConfig()
        if self.config.build_workers is not None:
            self.system.config.build_workers = self.config.build_workers
            self.system.cacher.build_workers = self.config.build_workers
        if self.config.scan_workers is not None:
            self.system.config.scan_workers = self.config.scan_workers
            self.system.session.scan_workers = self.config.scan_workers
        if self.config.worker_backend is not None:
            self.system.config.worker_backend = self.config.worker_backend
            self.system.session.worker_backend = self.config.worker_backend
        if self.config.plan_cache_entries is not None:
            self.system.config.plan_cache_entries = self.config.plan_cache_entries
            self.system.session.configure_plan_cache(
                self.config.plan_cache_entries
            )
        if self.config.cache_budget_bytes is not None:
            self.system.session.configure_cache_budget(
                self.config.cache_budget_bytes
            )
        if self.config.result_cache is not None:
            self.system.config.result_cache = self.config.result_cache
            self.system.session.configure_result_cache(self.config.result_cache)
        self.admission = AdmissionController(
            per_tenant_limit=self.config.per_tenant_limit,
            queue_capacity=self.config.queue_capacity,
            timeout_seconds=self.config.admission_timeout_seconds,
        )
        self.retry_policy = RetryPolicy(
            max_retries=self.config.max_query_retries,
            backoff_seconds=self.config.retry_backoff_seconds,
            seed=self.config.retry_jitter_seed,
        )
        self.watchdog = (
            MemoryWatchdog(
                self.system.session, self.config.memory_soft_limit_bytes
            )
            if self.config.memory_soft_limit_bytes is not None
            else None
        )
        self.generation_guard = GenerationGuard(self.system)
        #: Orphan ``__g{N}`` tables dropped at startup — non-empty after
        #: a restart from a crash mid-build (journal replay found a
        #: ``begin`` with no terminal record, or unreferenced tables).
        self.recovered_tables = self.system.recover_orphan_generations()
        #: Shared-memory segments from dead coordinators unlinked at
        #: startup — non-empty after a crash that orphaned process-pool
        #: result segments (see :func:`repro.engine.procpool.reap_orphan_segments`).
        from ..engine.procpool import reap_orphan_segments

        self.reaped_shm_segments = reap_orphan_segments()
        self.scheduler = MaintenanceScheduler(
            self,
            clock=VirtualClock(seconds_per_day=self.config.seconds_per_day),
            refresh_interval_seconds=self.config.refresh_interval_seconds,
            history_days=self.config.midnight_history_days,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="maxson"
        )
        self._lock = threading.Lock()
        self._totals = QueryMetrics()
        self._latencies: list[float] = []
        self._completed = 0
        self._failed = 0
        self._stats_events = 0
        self._per_tenant_completed: dict[str, int] = {}
        self._started = time.perf_counter()
        self._closed = False
        self._draining = False
        # overload accounting (guarded by self._lock)
        self._deadline_exceeded = 0
        self._cancelled = 0
        self._sheds = 0
        self._shed_breakdown: dict[str, int] = {}
        self._drain_cancelled = 0
        #: EWMA of completed-query wall seconds — the service-time
        #: estimate behind deadline-aware shedding. 0 until the first
        #: completion, so a cold server never over-sheds.
        self._latency_ewma = 0.0
        #: Tokens of queries currently inside the admitted region; drain
        #: cancels whatever is still here at its timeout.
        self._active_tokens: set[CancelToken] = set()
        #: Futures submitted to the pool and not yet done (drain waits
        #: for queued work, not just running work).
        self._outstanding: set[Future] = set()
        # ---- observability ------------------------------------------
        self._query_ids = itertools.count(1)
        self.trace_sink = (
            TraceSink(self.config.trace_dir)
            if self.config.trace_dir is not None
            else None
        )
        self.logger = StructuredLogger(
            path=self.config.log_file,
            slow_query_seconds=self.config.slow_query_seconds,
            log_all_queries=self.config.log_all_queries,
        )
        self.metrics = MetricsRegistry()
        self._m_queries = self.metrics.counter(
            "queries_total", "Completed queries", ("tenant",)
        )
        self._m_failed = self.metrics.counter(
            "queries_failed_total", "Queries that raised an engine error"
        )
        self._m_retries = self.metrics.counter(
            "query_retries_total", "Retries after transient fs faults"
        )
        self._m_stats = self.metrics.counter(
            "stats_events_total", "Statistics events ingested (trace replay)"
        )
        self._m_slow = self.metrics.counter(
            "slow_queries_total", "Queries at or past slow_query_seconds"
        )
        self._m_deadline_exceeded = self.metrics.counter(
            "deadline_exceeded_total",
            "Queries cooperatively cancelled at their deadline",
        )
        self._m_shed = self.metrics.counter(
            "shed_total",
            "Requests shed (queue full, admission timeout, deadline, "
            "memory pressure)",
            ("reason",),
        )
        self._m_cancelled = self.metrics.counter(
            "queries_cancelled_total",
            "Queries cancelled cooperatively (drain or explicit cancel)",
        )
        self._m_watchdog_shrinks = self.metrics.counter(
            "watchdog_shrinks_total",
            "Cache-shrink passes run by the memory-pressure watchdog",
        )
        self._watchdog_shrinks_seen = 0
        self._g_memory_pressure = self.metrics.gauge(
            "memory_pressure",
            "1 while the cache ledger exceeds the soft limit after shrinking",
        )
        self._m_latency = self.metrics.histogram(
            "query_latency_seconds", "Query wall time (admission to result)"
        )
        self._m_cache_hits = self.metrics.counter(
            "cache_hits_total", "Cached-path hits across served queries"
        )
        self._m_cache_misses = self.metrics.counter(
            "cache_misses_total", "Cache-eligible misses across served queries"
        )
        self._m_parse_docs = self.metrics.counter(
            "parse_documents_total", "JSON/XML documents parsed by queries"
        )
        self._m_spans = self.metrics.counter(
            "trace_spans_total", "Spans exported to the JSONL trace sink"
        )
        self._m_plan_cache_hits = self.metrics.counter(
            "plan_cache_hits_total", "Served queries planned from the plan cache"
        )
        self._m_plan_cache_misses = self.metrics.counter(
            "plan_cache_misses_total", "Served queries that compiled a fresh plan"
        )
        self._m_result_cache_hits = self.metrics.counter(
            "result_cache_hits_total",
            "Served queries answered from the semantic result cache",
        )
        self._m_result_cache_misses = self.metrics.counter(
            "result_cache_misses_total",
            "Result-cache-eligible queries that executed in full",
        )
        self._m_result_cache_admissions = self.metrics.counter(
            "result_cache_admissions_total",
            "Result sets admitted by benefit-based scoring",
        )
        self._m_result_cache_rejections = self.metrics.counter(
            "result_cache_rejections_total",
            "Result sets rejected by benefit-based admission",
        )
        self._m_result_cache_evictions = self.metrics.counter(
            "result_cache_evictions_total",
            "Result-cache entries evicted under capacity or byte budget",
        )
        self._result_cache_evictions_seen = 0
        self._g_generation = self.metrics.gauge(
            "cache_generation", "Live cache generation number"
        )
        self._g_cached_paths = self.metrics.gauge(
            "cached_paths", "JSONPaths materialised in the live generation"
        )
        self._g_cache_bytes = self.metrics.gauge(
            "cache_bytes", "Bytes held by the live generation's cache tables"
        )
        self._g_queue_depth = self.metrics.gauge(
            "admission_queue_depth", "Requests waiting for a tenant slot"
        )
        self._g_active = self.metrics.gauge(
            "active_queries", "Queries currently executing"
        )
        self._g_leases = self.metrics.gauge(
            "active_generation_leases", "In-flight cache-generation leases"
        )
        self._g_scan_workers = self.metrics.gauge(
            "scan_workers", "Morsel workers available per query"
        )
        self._g_worker_backend = self.metrics.gauge(
            "worker_backend",
            "Active morsel worker backend (1 on the labelled backend)",
            ("backend",),
        )
        self._g_shm_bytes = self.metrics.gauge(
            "shm_live_bytes",
            "Shared-memory bytes held by the process-pool backend",
        )
        self._g_plan_cache_entries = self.metrics.gauge(
            "plan_cache_entries", "Plans currently held by the plan cache"
        )
        self._g_result_cache_entries = self.metrics.gauge(
            "result_cache_entries", "Result sets currently cached"
        )
        self._g_cache_tier_bytes = self.metrics.gauge(
            "cache_tier_bytes",
            "Byte occupancy of one cache tier in the unified ledger",
            ("tier",),
        )
        self._g_cache_budget_bytes = self.metrics.gauge(
            "cache_budget_bytes",
            "Configured unified cache byte budget (0 = unlimited)",
        )
        self._g_cache_budget_used = self.metrics.gauge(
            "cache_budget_used_bytes",
            "Bytes held by the budgeted cache tiers together",
        )
        self._g_eff_precision = self.metrics.gauge(
            "generation_precision",
            "Realized precision of the generation's MPJP prediction",
            ("generation",),
        )
        self._g_eff_recall = self.metrics.gauge(
            "generation_recall",
            "Realized recall of the generation's MPJP prediction",
            ("generation",),
        )
        self._g_eff_byte_hit = self.metrics.gauge(
            "generation_byte_weighted_hit_ratio",
            "Byte-weighted share of realized parse demand the cache held",
            ("generation",),
        )
        self._m_telemetry_events = self.metrics.counter(
            "telemetry_events_total",
            "Events appended to the system-table telemetry store",
            ("table",),
        )
        self._m_telemetry_dropped = self.metrics.counter(
            "telemetry_events_dropped_total",
            "Telemetry events dropped by append failures",
        )
        self._m_telemetry_rotated = self.metrics.counter(
            "telemetry_segments_rotated_total",
            "Telemetry segments deleted by byte-budget rotation",
        )
        self._m_incidents = self.metrics.counter(
            "incidents_total",
            "Flight-recorder incident records captured",
            ("kind",),
        )
        self._g_telemetry_bytes = self.metrics.gauge(
            "telemetry_bytes",
            "Bytes held by the system-table telemetry segments",
        )
        self._g_telemetry_segments = self.metrics.gauge(
            "telemetry_segments",
            "Telemetry segment files currently on the file system",
        )
        self._telemetry_events_seen: dict[str, int] = {}
        self._telemetry_dropped_seen = 0
        self._telemetry_rotated_seen = 0
        # ---- system tables (self-hosted telemetry) ------------------
        self.telemetry = None
        if self.config.system_tables:
            from ..obs.systables import TelemetryStore

            self.telemetry = TelemetryStore(
                self.system.catalog,
                budget_bytes=self.config.telemetry_budget_bytes,
                segment_bytes=self.config.telemetry_segment_bytes,
                ledger=self.system.session.cache_ledger,
            )
            # Worker lifecycle (process backend spawn/crash/exit) and
            # cache-table breaker transitions feed the event tables.
            self.system.session.worker_observer = self._note_worker_event
            self.system.breaker.observer = self._note_breaker_event
        self.logger.log(
            "server_started",
            generation=self.system.generation,
            recovered_tables=len(self.recovered_tables),
            tracing=self.trace_sink is not None,
        )

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        tenant: str | None = None,
        day: int | None = None,
        deadline_ms: float | None = None,
    ) -> QueryResult:
        """Admit, lease the cache generation, execute, account.

        Raises :class:`QueueFullError` / :class:`AdmissionTimeout` /
        :class:`QueryShedError` when the request is shed, and re-raises
        engine errors after counting them as failures. A
        :class:`TransientFsError` (an injected or environmental fault
        that may clear) is retried up to ``config.max_query_retries``
        times with seeded full-jitter backoff — the admission slot is
        held across attempts (the request occupies the tenant either
        way), but the generation lease is re-acquired per attempt so
        retries never pin a retiring generation. Admission rejections
        and cancellations are never retried (see
        :class:`~repro.core.resilience.RetryPolicy`).

        ``deadline_ms`` (default ``config.default_deadline_ms``) bounds
        the query's wall time through cooperative cancellation: a query
        past its deadline raises :class:`DeadlineExceededError` within
        bounded slack and never returns partial rows. Deadline-aware
        admission sheds a cold query immediately when its remaining
        budget is smaller than the server's service-time estimate;
        probable result-cache hits are exempt and jump the queue.
        """
        tenant = tenant or self.config.default_tenant
        query_id = f"q-{next(self._query_ids)}"
        tracer = (
            Tracer(trace_id=query_id) if self.trace_sink is not None else None
        )
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        # Every query gets a token (deadline or not) so drain can cancel
        # whatever is in flight at its timeout.
        token = CancelToken.with_deadline_ms(deadline_ms)
        started = time.perf_counter()
        probable_hit = self.system.session.probable_result_cache_hit(sql)
        # Memory-pressure watchdog: shrink caches → shed → (breaker is
        # never touched). Probable hits keep flowing — serving them
        # releases pressure faster than recomputing anything.
        if self.watchdog is not None:
            pressure = self.watchdog.check()
            self._g_memory_pressure.set(1 if pressure else 0)
            if pressure and self.telemetry is not None:
                self.telemetry.record(
                    "cache_events",
                    {
                        "event": "watchdog_pressure",
                        "table_name": "",
                        "generation": self.system.generation,
                        "detail": json.dumps(
                            self.watchdog.snapshot(), sort_keys=True
                        ),
                    },
                )
            if pressure and not probable_hit:
                retry_after = max(self._service_estimate(), 0.01)
                self._note_shed(
                    "memory_pressure",
                    tenant,
                    time.perf_counter() - started,
                    query_id=query_id,
                    sql=sql,
                    retry_after_seconds=retry_after,
                )
                raise QueryShedError(
                    "server under memory pressure: cold query shed",
                    retry_after_seconds=retry_after,
                )
        estimate = 0.0 if probable_hit else self._service_estimate()
        try:
            self.admission.acquire(
                tenant,
                timeout=self.config.admission_timeout_seconds,
                priority=1 if probable_hit else 0,
                deadline=token.deadline,
                service_estimate=estimate * self.config.deadline_shed_factor,
            )
        except AdmissionError as exc:
            self._note_shed(
                _SHED_REASONS.get(type(exc).__name__, "admission"),
                tenant,
                time.perf_counter() - started,
                query_id=query_id,
                sql=sql,
                retry_after_seconds=getattr(exc, "retry_after_seconds", None),
            )
            raise
        try:
            with self._lock:
                self._active_tokens.add(token)
            attempt = 0
            while True:
                generation = self.generation_guard.acquire()
                try:
                    result = self.system.sql(
                        sql, day=day, tracer=tracer, cancel_token=token
                    )
                    break
                except TransientFsError as exc:
                    if not self.retry_policy.should_retry(exc, attempt, token):
                        self._record_failure(
                            query_id,
                            tenant,
                            generation,
                            exc,
                            sql=sql,
                            elapsed=time.perf_counter() - started,
                            tracer=tracer,
                        )
                        raise
                    self.system.resilience.add("query_retries")
                    self._m_retries.inc()
                    backoff = self.retry_policy.backoff_for(attempt)
                    attempt += 1
                except DeadlineExceededError as exc:
                    self._note_deadline_exceeded(
                        query_id,
                        tenant,
                        generation,
                        time.perf_counter() - started,
                        tracer,
                        exc,
                        sql=sql,
                    )
                    raise
                except QueryCancelledError as exc:
                    self._note_cancelled(
                        query_id,
                        tenant,
                        generation,
                        time.perf_counter() - started,
                        tracer,
                        exc,
                        sql=sql,
                    )
                    raise
                except Exception as exc:
                    self._record_failure(
                        query_id,
                        tenant,
                        generation,
                        exc,
                        sql=sql,
                        elapsed=time.perf_counter() - started,
                        tracer=tracer,
                    )
                    raise
                finally:
                    self.generation_guard.release(generation)
                if backoff > 0:
                    remaining = token.remaining_seconds()
                    if remaining is not None:
                        backoff = min(backoff, max(0.0, remaining))
                    time.sleep(backoff)
        finally:
            with self._lock:
                self._active_tokens.discard(token)
            self.admission.release(tenant)
        elapsed = time.perf_counter() - started
        with self._lock:
            self._completed += 1
            self._latency_ewma = (
                elapsed
                if self._completed == 1
                else 0.8 * self._latency_ewma + 0.2 * elapsed
            )
            self._per_tenant_completed[tenant] = (
                self._per_tenant_completed.get(tenant, 0) + 1
            )
            self._totals.merge(result.metrics)
            self._latencies.append(elapsed)
            if len(self._latencies) > _MAX_LATENCY_SAMPLES:
                del self._latencies[: -_MAX_LATENCY_SAMPLES // 2]
        metrics = result.metrics
        self._m_queries.inc(tenant=tenant)
        self._m_latency.observe(elapsed)
        if metrics.cache_hits:
            self._m_cache_hits.inc(metrics.cache_hits)
        if metrics.cache_misses:
            self._m_cache_misses.inc(metrics.cache_misses)
        if metrics.parse_documents:
            self._m_parse_docs.inc(metrics.parse_documents)
        plan_hits = int(metrics.extra.get("plan_cache_hits", 0))
        if plan_hits:
            self._m_plan_cache_hits.inc(plan_hits)
        plan_misses = int(metrics.extra.get("plan_cache_misses", 0))
        if plan_misses:
            self._m_plan_cache_misses.inc(plan_misses)
        for extra_key, counter in (
            ("result_cache_hits", self._m_result_cache_hits),
            ("result_cache_misses", self._m_result_cache_misses),
            ("result_cache_admissions", self._m_result_cache_admissions),
            ("result_cache_rejections", self._m_result_cache_rejections),
        ):
            value = int(metrics.extra.get(extra_key, 0))
            if value:
                counter.inc(value)
        if (
            self.config.slow_query_seconds > 0
            and elapsed >= self.config.slow_query_seconds
        ):
            self._m_slow.inc()
        self.logger.query(
            query_id,
            elapsed,
            tenant=tenant,
            generation=generation,
            read_seconds=round(metrics.read_seconds, 6),
            parse_seconds=round(metrics.parse_seconds, 6),
            parse_documents=metrics.parse_documents,
            cache_hits=metrics.cache_hits,
            rows=len(result.rows),
            retries=attempt,
        )
        if tracer is not None:
            written = self.trace_sink.write(
                tracer, query_id=query_id, tenant=tenant, generation=generation
            )
            if written:
                self._m_spans.inc(written)
        self._record_query_row(
            query_id,
            tenant,
            "completed",
            elapsed,
            generation=generation,
            metrics=metrics,
            rows=len(result.rows),
        )
        if self.telemetry is not None and tracer is not None:
            self.telemetry.record_spans(
                tracer, query_id, backend=self.system.session.worker_backend
            )
        degraded_splits = int(metrics.extra.get("degraded_splits", 0))
        slow = (
            self.config.slow_query_seconds > 0
            and elapsed >= self.config.slow_query_seconds
        )
        if slow or degraded_splits:
            self._capture_incident(
                "slow_query" if slow else "degraded",
                query_id,
                tenant,
                sql,
                elapsed,
                generation=generation,
                tracer=tracer,
                metrics=metrics,
            )
        return result

    def _record_failure(
        self,
        query_id: str,
        tenant: str,
        generation: int,
        exc: Exception,
        sql: str = "",
        elapsed: float = 0.0,
        tracer=None,
    ) -> None:
        with self._lock:
            self._failed += 1
        self._m_failed.inc()
        error = f"{type(exc).__name__}: {exc}"
        self.logger.log(
            "query_failed",
            query_id=query_id,
            tenant=tenant,
            generation=generation,
            error=error,
        )
        self._record_query_row(
            query_id,
            tenant,
            "failed",
            elapsed,
            generation=generation,
            error=error,
        )
        self._capture_incident(
            "failed",
            query_id,
            tenant,
            sql,
            elapsed,
            generation=generation,
            tracer=tracer,
            error=exc,
        )

    def _service_estimate(self) -> float:
        """Moving estimate of query service seconds (0 on a cold server)."""
        with self._lock:
            return self._latency_ewma

    def _observe_request_latency(self, elapsed: float) -> None:
        """Latency accounting shared by completed, timed-out and shed
        requests: every request that consumed server time appears in the
        histogram and the status percentiles — overload never silently
        vanishes from throughput accounting."""
        with self._lock:
            self._latencies.append(elapsed)
            if len(self._latencies) > _MAX_LATENCY_SAMPLES:
                del self._latencies[: -_MAX_LATENCY_SAMPLES // 2]
        self._m_latency.observe(elapsed)

    def _note_shed(
        self,
        reason: str,
        tenant: str,
        elapsed: float,
        query_id: str = "",
        sql: str = "",
        retry_after_seconds: float | None = None,
    ) -> None:
        with self._lock:
            self._sheds += 1
            self._shed_breakdown[reason] = (
                self._shed_breakdown.get(reason, 0) + 1
            )
        self._m_shed.inc(reason=reason)
        self._observe_request_latency(elapsed)
        # The retry-after hint rides the server response (QueryShedError);
        # log the same value so the NDJSON record matches what the client
        # was told instead of omitting it.
        self.logger.log(
            "query_shed",
            reason=reason,
            tenant=tenant,
            query_id=query_id,
            retry_after_seconds=(
                round(retry_after_seconds, 6)
                if retry_after_seconds is not None
                else None
            ),
        )
        self._record_query_row(
            query_id,
            tenant,
            "shed",
            elapsed,
            reason=reason,
            retry_after_seconds=retry_after_seconds,
        )
        self._capture_incident(
            "shed",
            query_id,
            tenant,
            sql,
            elapsed,
            reason=reason,
        )

    def _note_deadline_exceeded(
        self,
        query_id: str,
        tenant: str,
        generation: int,
        elapsed: float,
        tracer,
        exc: Exception,
        sql: str = "",
    ) -> None:
        with self._lock:
            self._deadline_exceeded += 1
        self._m_deadline_exceeded.inc()
        self._observe_request_latency(elapsed)
        error = f"{type(exc).__name__}: {exc}"
        self.logger.log(
            "query_deadline_exceeded",
            query_id=query_id,
            tenant=tenant,
            generation=generation,
            elapsed_seconds=round(elapsed, 6),
            error=error,
        )
        self._write_cancelled_trace(tracer, query_id, tenant, generation)
        self._record_query_row(
            query_id,
            tenant,
            "deadline_exceeded",
            elapsed,
            generation=generation,
            error=error,
        )
        self._capture_incident(
            "deadline_exceeded",
            query_id,
            tenant,
            sql,
            elapsed,
            generation=generation,
            tracer=tracer,
            error=exc,
        )

    def _note_cancelled(
        self,
        query_id: str,
        tenant: str,
        generation: int,
        elapsed: float,
        tracer,
        exc: Exception,
        sql: str = "",
    ) -> None:
        with self._lock:
            self._cancelled += 1
        self._m_cancelled.inc()
        self._observe_request_latency(elapsed)
        error = f"{type(exc).__name__}: {exc}"
        self.logger.log(
            "query_cancelled",
            query_id=query_id,
            tenant=tenant,
            generation=generation,
            elapsed_seconds=round(elapsed, 6),
            error=error,
        )
        self._write_cancelled_trace(tracer, query_id, tenant, generation)
        self._record_query_row(
            query_id,
            tenant,
            "cancelled",
            elapsed,
            generation=generation,
            error=error,
        )
        self._capture_incident(
            "cancelled",
            query_id,
            tenant,
            sql,
            elapsed,
            generation=generation,
            tracer=tracer,
            error=exc,
        )

    def _write_cancelled_trace(
        self, tracer, query_id: str, tenant: str, generation: int
    ) -> None:
        """Cancelled queries still export their (partial) span tree —
        the query span carries ``status="cancelled"`` (set by the
        session) so traces distinguish them from completed queries."""
        if tracer is None or self.trace_sink is None:
            return
        written = self.trace_sink.write(
            tracer,
            query_id=query_id,
            tenant=tenant,
            generation=generation,
            status="cancelled",
        )
        if written:
            self._m_spans.inc(written)
        if self.telemetry is not None:
            self.telemetry.record_spans(
                tracer, query_id, backend=self.system.session.worker_backend
            )

    # ------------------------------------------------------------------
    # system tables (self-hosted telemetry)
    # ------------------------------------------------------------------
    def _record_query_row(
        self,
        query_id: str,
        tenant: str,
        status: str,
        seconds: float,
        generation: int | None = None,
        reason: str = "",
        retry_after_seconds: float | None = None,
        error: str = "",
        metrics=None,
        rows: int | None = None,
    ) -> None:
        """Exactly one ``system.queries`` row per request outcome — the
        invariant the replay-reconciliation gate audits (row count ==
        completed + failed + shed + deadline_exceeded + cancelled)."""
        if self.telemetry is None:
            return
        row: dict[str, object] = {
            "query_id": query_id,
            "tenant": tenant,
            "status": status,
            "seconds": round(seconds, 6),
            "generation": (
                self.system.generation if generation is None else generation
            ),
            "backend": self.system.session.worker_backend,
            "reason": reason,
            "retry_after_seconds": (
                round(retry_after_seconds, 6)
                if retry_after_seconds is not None
                else None
            ),
            "result_cache": "",
            "plan_cache": "",
            "error": error,
        }
        if metrics is not None:
            extra = metrics.extra
            if extra.get("result_cache_hits"):
                row["result_cache"] = "hit"
            elif extra.get("result_cache_admissions"):
                row["result_cache"] = "admitted"
            elif extra.get("result_cache_rejections"):
                row["result_cache"] = "rejected"
            elif extra.get("result_cache_misses"):
                row["result_cache"] = "miss"
            if extra.get("plan_cache_hits"):
                row["plan_cache"] = "hit"
            elif extra.get("plan_cache_misses"):
                row["plan_cache"] = "miss"
            extras = {
                "parse_documents": metrics.parse_documents,
                "cache_hits": metrics.cache_hits,
                "cache_misses": metrics.cache_misses,
                "read_seconds": round(metrics.read_seconds, 6),
                "parse_seconds": round(metrics.parse_seconds, 6),
                "doc_cache_evictions": metrics.doc_cache_evictions,
            }
            for key, value in extra.items():
                if isinstance(value, (int, float, str, bool)):
                    extras[key] = value
            row["extras"] = extras
        if rows is not None:
            row["rows"] = rows
        self.telemetry.record("queries", row)

    def _capture_incident(
        self,
        kind: str,
        query_id: str,
        tenant: str,
        sql: str,
        seconds: float,
        generation: int | None = None,
        tracer=None,
        error: Exception | None = None,
        metrics=None,
        reason: str = "",
    ) -> None:
        """Flight recorder: a self-contained ``system.incidents`` record
        for slow, degraded, shed, deadline-exceeded, cancelled and failed
        queries — canonical statement + parameter hash, physical plan,
        full span tree, breaker/watchdog/admission state — enough to
        diagnose the query after the fact without its process alive."""
        if self.telemetry is None:
            return
        self._m_incidents.inc(kind=kind)
        fingerprint_text = ""
        params: tuple = ()
        try:
            from ..engine.resultcache import canonicalize

            canonical = canonicalize(sql, self.system.session.planner)
            if canonical is not None:
                fingerprint_text = canonical.text
                params = canonical.params
        except Exception:
            pass
        if not fingerprint_text:
            try:
                from ..engine.plancache import fingerprint

                fingerprint_text = fingerprint(sql)
            except Exception:
                fingerprint_text = sql
        params_hash = hashlib.sha256(
            repr(params).encode("utf-8")
        ).hexdigest()[:16]
        plan_text = ""
        try:
            plan_text = self.system.session.compile(sql).physical.describe()
        except Exception:
            plan_text = ""
        record: dict[str, object] = {
            "query_id": query_id,
            "kind": kind,
            "tenant": tenant,
            "sql": sql,
            "fingerprint": fingerprint_text,
            "seconds": round(seconds, 6),
            "params_hash": params_hash,
            "generation": (
                self.system.generation if generation is None else generation
            ),
            "backend": self.system.session.worker_backend,
            "plan": plan_text,
            "breaker": self.system.breaker.snapshot(),
            "admission": self.admission.snapshot(),
            "watchdog": (
                self.watchdog.snapshot() if self.watchdog is not None else {}
            ),
        }
        if reason:
            record["reason"] = reason
        if error is not None:
            record["error"] = f"{type(error).__name__}: {error}"
        if metrics is not None:
            record["extras"] = {
                key: value
                for key, value in metrics.extra.items()
                if isinstance(value, (int, float, str, bool))
            }
        if tracer is not None and tracer.root is not None:
            try:
                from ..obs.trace import export_subtree

                record["span_tree"] = export_subtree(tracer.root)
            except Exception:
                pass
        self.telemetry.record("incidents", record)

    def _note_worker_event(self, event: str, **fields) -> None:
        """Process-pool lifecycle observer → ``system.workers`` rows."""
        if self.telemetry is None:
            return
        self.telemetry.record(
            "workers",
            {
                "event": event,
                "worker": str(fields.pop("worker", "")),
                "backend": "process",
                "detail": (
                    json.dumps(fields, sort_keys=True, default=str)
                    if fields
                    else ""
                ),
            },
        )

    def _note_breaker_event(self, cache_table: str, state: str) -> None:
        """Circuit-breaker transition observer → ``system.cache_events``."""
        if self.telemetry is None:
            return
        self.telemetry.record(
            "cache_events",
            {
                "event": f"breaker_{state}",
                "table_name": cache_table,
                "generation": self.system.generation,
                "detail": "",
            },
        )

    def submit(
        self,
        sql: str,
        tenant: str | None = None,
        day: int | None = None,
        deadline_ms: float | None = None,
    ) -> Future:
        """Queue a request on the worker pool; the future resolves to a
        :class:`QueryResult` or raises the admission/engine error."""
        if self._closed or self._draining:
            raise RuntimeError("server is shut down")
        future = self._pool.submit(self.execute, sql, tenant, day, deadline_ms)
        with self._lock:
            self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        return future

    def ingest(self, day: int, paths: tuple[PathKey, ...] | list[PathKey]) -> None:
        """Online statistics ingestion for non-SQL events (trace replay)."""
        self.system.collector.record_query(day, paths)
        with self._lock:
            self._stats_events += 1
        self._m_stats.inc()

    # ------------------------------------------------------------------
    # maintenance path (called by the scheduler, or directly)
    # ------------------------------------------------------------------
    def run_midnight_cycle(
        self, day: int | None = None, history_days: int = 7
    ) -> MidnightReport:
        """Build and atomically swap in the next cache generation."""
        tracer = None
        if self.trace_sink is not None:
            tracer = Tracer(trace_id=f"midnight-{self.system.generation + 1}")
        report = self.system.run_midnight_cycle(
            day=day, history_days=history_days, tracer=tracer
        )
        if tracer is not None:
            written = self.trace_sink.write(
                tracer,
                kind="midnight",
                day=report.day,
                generation=self.system.generation,
            )
            if written:
                self._m_spans.inc(written)
        self.logger.log(
            "midnight_cycle",
            day=report.day,
            generation=self.system.generation,
            cached_paths=len(report.selected),
            build_failed=report.build.failed,
        )
        if self.telemetry is not None:
            self.telemetry.record(
                "cache_events",
                {
                    "event": (
                        "generation_build_failed"
                        if report.build.failed
                        else "generation_swap"
                    ),
                    "table_name": "",
                    "generation": self.system.generation,
                    "detail": json.dumps(
                        {
                            "day": report.day,
                            "cached_paths": len(report.selected),
                            "build_seconds": round(
                                report.build.build_seconds, 6
                            ),
                        },
                        sort_keys=True,
                        default=str,
                    ),
                },
            )
        return report

    def refresh_cache(self):
        """Incrementally extend the live generation's cache tables."""
        return self.system.refresh_cache()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def status(self) -> ServerStatus:
        uptime = time.perf_counter() - self._started
        with self._lock:
            completed = self._completed
            failed = self._failed
            stats_events = self._stats_events
            tenants = dict(self._per_tenant_completed)
            totals = self._totals.snapshot()
            latencies = sorted(self._latencies)
            deadline_exceeded = self._deadline_exceeded
            cancelled = self._cancelled
            sheds = self._sheds
            shed_breakdown = dict(self._shed_breakdown)
            draining = self._draining
            drain_cancelled = self._drain_cancelled
        admission = self.admission.snapshot()
        guard = self.generation_guard.snapshot()
        maintenance = self.scheduler.snapshot()
        summary = self.system.cache_summary()
        resilience = self.system.resilience.snapshot()
        observability: dict[str, object] = {"log": self.logger.snapshot()}
        if self.trace_sink is not None:
            observability["trace"] = self.trace_sink.snapshot()
        if self.telemetry is not None:
            observability["telemetry"] = self.telemetry.snapshot()
        return ServerStatus(
            uptime_seconds=uptime,
            queries_completed=completed,
            queries_failed=failed,
            queries_shed=sheds,
            queries_timed_out=int(admission["timed_out"]),
            queries_deadline_exceeded=deadline_exceeded,
            queries_cancelled=cancelled,
            shed_breakdown=shed_breakdown,
            priority_admitted=int(admission["priority_admitted"]),
            draining=draining,
            drain_cancelled=drain_cancelled,
            watchdog=(
                self.watchdog.snapshot() if self.watchdog is not None else {}
            ),
            stats_events_ingested=stats_events,
            qps=completed / uptime if uptime > 0 else 0.0,
            latency_p50_seconds=percentile(latencies, 0.50),
            latency_p95_seconds=percentile(latencies, 0.95),
            latency_p99_seconds=percentile(latencies, 0.99),
            latency_max_seconds=latencies[-1] if latencies else 0.0,
            cache_hits=totals.cache_hits,
            cache_misses=totals.cache_misses,
            cache_hit_ratio=totals.cache_hit_ratio,
            generation=int(summary["generation"]),
            cached_paths=int(summary["cached_paths"]),
            cache_bytes=int(summary["cache_bytes"]),
            build_seconds=float(summary["build_seconds"]),
            midnight_cycles=int(maintenance["midnight_cycles"]),
            refreshes=int(maintenance["refreshes"]),
            queue_depth=int(admission["waiting"]),
            peak_queue_depth=int(admission["peak_waiting"]),
            active_queries=int(admission["active"]),
            active_leases=int(guard["active_leases"]),
            fallback_queries=int(resilience["fallback_queries"]),
            fallback_splits=int(resilience["fallback_splits"]),
            corruption_events=int(resilience["corruption_events"]),
            quarantine_skips=int(resilience["quarantine_skips"]),
            quarantined_tables=len(summary["quarantined_tables"]),
            query_retries=int(resilience["query_retries"]),
            build_failures=int(resilience["build_failures"]),
            recovery_actions=int(resilience["recovery_actions"]),
            worker_backend=self.system.session.worker_backend,
            duplicate_extractions_eliminated=(
                totals.duplicate_extractions_eliminated
            ),
            shared_parse_hits=totals.shared_parse_hits,
            tenants=tenants,
            totals=totals.to_dict(),
            result_cache=dict(summary["result_cache"]),
            cache_ledger=dict(summary["cache_ledger"]),
            slow_queries=self.logger.snapshot()["slow_queries"],
            cache_efficacy=self.system.efficacy.snapshot(),
            observability=observability,
        )

    def explain_analyze(self, sql: str, tenant: str | None = None) -> str:
        """Run one query under a fresh tracer (through admission and a
        generation lease, like any served query) and render the
        annotated plan."""
        tenant = tenant or self.config.default_tenant
        with self.admission.admit(tenant):
            generation = self.generation_guard.acquire()
            try:
                return self.system.explain_analyze(sql)
            finally:
                self.generation_guard.release(generation)

    def _sync_gauges(self, status: ServerStatus) -> None:
        self._g_generation.set(status.generation)
        self._g_cached_paths.set(status.cached_paths)
        self._g_cache_bytes.set(status.cache_bytes)
        self._g_queue_depth.set(status.queue_depth)
        self._g_active.set(status.active_queries)
        self._g_leases.set(status.active_leases)
        self._g_scan_workers.set(self.system.session.scan_workers)
        backend = self.system.session.worker_backend
        for candidate in ("thread", "process"):
            self._g_worker_backend.set(
                1 if candidate == backend else 0, backend=candidate
            )
        self._g_shm_bytes.set(self.system.session.live_shm_bytes())
        self._g_plan_cache_entries.set(
            int(self.system.session.plan_cache_stats()["entries"])
        )
        self._g_result_cache_entries.set(
            int(status.result_cache.get("entries", 0))
        )
        ledger = status.cache_ledger
        budget = ledger.get("budget_bytes")
        self._g_cache_budget_bytes.set(int(budget or 0))
        self._g_cache_budget_used.set(int(ledger.get("total_bytes", 0)))
        for tier, nbytes in dict(ledger.get("tiers", {})).items():
            self._g_cache_tier_bytes.set(int(nbytes), tier=tier)
        # Evictions happen inside the engine (no per-query extra), so the
        # counter advances by scrape-time delta against the stats total.
        evictions = int(status.result_cache.get("evictions", 0))
        delta = evictions - self._result_cache_evictions_seen
        if delta > 0:
            self._m_result_cache_evictions.inc(delta)
        self._result_cache_evictions_seen = evictions
        if status.watchdog:
            shrinks = int(status.watchdog.get("shrinks", 0))
            shrink_delta = shrinks - self._watchdog_shrinks_seen
            if shrink_delta > 0:
                self._m_watchdog_shrinks.inc(shrink_delta)
            self._watchdog_shrinks_seen = shrinks
            self._g_memory_pressure.set(
                1 if status.watchdog.get("under_pressure") else 0
            )
        if self.telemetry is not None:
            telemetry = self.telemetry.snapshot()
            self._g_telemetry_bytes.set(int(telemetry["bytes"]))
            self._g_telemetry_segments.set(int(telemetry["segments"]))
            # Store counters are cumulative; the Prometheus counters
            # advance by scrape-time delta (same pattern as evictions).
            for table, count in dict(telemetry["events"]).items():
                delta = count - self._telemetry_events_seen.get(table, 0)
                if delta > 0:
                    self._m_telemetry_events.inc(delta, table=table)
                self._telemetry_events_seen[table] = count
            dropped = int(telemetry["events_dropped"])
            if dropped > self._telemetry_dropped_seen:
                self._m_telemetry_dropped.inc(
                    dropped - self._telemetry_dropped_seen
                )
            self._telemetry_dropped_seen = dropped
            rotated = int(telemetry["segments_rotated"])
            if rotated > self._telemetry_rotated_seen:
                self._m_telemetry_rotated.inc(
                    rotated - self._telemetry_rotated_seen
                )
            self._telemetry_rotated_seen = rotated
        for record in status.cache_efficacy:
            generation = str(record.get("generation", 0))
            self._g_eff_precision.set(
                float(record.get("precision", 0.0)), generation=generation
            )
            self._g_eff_recall.set(
                float(record.get("recall", 0.0)), generation=generation
            )
            self._g_eff_byte_hit.set(
                float(record.get("byte_weighted_hit_ratio", 0.0)),
                generation=generation,
            )

    def metrics_text(self) -> str:
        """The Prometheus text exposition — the ``/metrics`` payload.

        Counters and histograms accrue on the request path; gauges are
        synchronised from a fresh status snapshot at scrape time.
        """
        self._sync_gauges(self.status())
        return self.metrics.to_prometheus()

    def metrics_snapshot(self) -> dict[str, object]:
        """JSON-safe view of every metric series (the snapshot API)."""
        self._sync_gauges(self.status())
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(
        self, wait: bool = True, drain_timeout: float | None = None
    ) -> None:
        """Graceful drain: stop admitting, let in-flight queries finish,
        cancel stragglers at the drain timeout, flush final status.

        ``drain_timeout`` (default ``config.drain_timeout_seconds``)
        bounds how long in-flight and pool-queued queries may keep
        running; whatever is still executing afterwards is cancelled
        cooperatively (it raises ``QueryCancelledError``), and queued
        futures that never started resolve to ``CancelledError``. With
        ``wait=False`` the pool is shut down without draining.
        """
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout_seconds
        with self._lock:
            already = self._closed
            self._closed = True
            self._draining = True
        if already:
            return
        stragglers: list[CancelToken] = []
        if wait:
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    idle = not self._active_tokens and not self._outstanding
                if idle:
                    break
                time.sleep(0.002)
            with self._lock:
                stragglers = list(self._active_tokens)
            for token in stragglers:
                token.cancel("server drain timeout")
            with self._lock:
                self._drain_cancelled = len(stragglers)
        self._pool.shutdown(wait=wait, cancel_futures=bool(stragglers))
        # Tear down morsel worker pools: on the process backend this
        # exits the workers and unlinks the cancel-flag slab, so a
        # cleanly stopped server leaves no shared memory behind.
        self.system.session.close_worker_pools()
        self.logger.log(
            "server_drained",
            drain_timeout_seconds=drain_timeout,
            cancelled_in_flight=len(stragglers),
        )
        self.logger.log(
            "server_stopped",
            queries_completed=self._completed,
            queries_failed=self._failed,
            queries_cancelled=self._cancelled,
            queries_deadline_exceeded=self._deadline_exceeded,
            queries_shed=self._sheds,
        )
        self.logger.close()

    def __enter__(self) -> "MaxsonServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
