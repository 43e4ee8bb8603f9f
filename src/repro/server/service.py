"""MaxsonServer: the concurrent query service.

Turns a :class:`~repro.core.system.MaxsonSystem` (batch facade) into a
long-running service:

* SQL requests from many logical clients execute on a thread pool
  (:meth:`submit` returns a future; :meth:`execute` is the synchronous
  path the pool workers run);
* every request walks one path over one per-query :class:`_Request`:
  ``_admit`` (memory watchdog, then **admission control** — per-tenant
  limit, bounded wait queue with shed/timeout) → ``_run`` (a
  **generation lease** per attempt, so the cache generation it plans
  against cannot be retired under it) → ``_settle`` (the one place an
  outcome is counted, logged, traced and recorded);
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
from dataclasses import dataclass
from typing import NamedTuple

from ..core.resilience import RetryPolicy
from ..core.system import MaxsonSystem, MidnightReport
from ..engine.cancel import CancelToken
from ..engine.errors import DeadlineExceededError, QueryCancelledError
from ..engine.metrics import QueryMetrics
from ..engine.plancache import fingerprint
from ..engine.procpool import reap_orphan_segments
from ..engine.session import WORKER_BACKENDS, QueryResult
from ..obs.logging import StructuredLogger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceSink, Tracer, export_subtree
from ..storage.fs import TransientFsError
from ..workload.trace import PathKey
from .admission import AdmissionController, AdmissionError, QueryShedError
from .config import ServerConfig
from .generation import GenerationGuard
from .scheduler import MaintenanceScheduler, VirtualClock
from .status import ServerStatus, percentile
from .watchdog import MemoryWatchdog

__all__ = ["MaxsonServer", "outcome_of"]

#: Latency samples kept for percentile estimation (newest win).
_MAX_LATENCY_SAMPLES = 65536

#: Shed-reason labels by admission error class name.
_SHED_REASONS = {
    "QueueFullError": "queue_full",
    "AdmissionTimeout": "admission_timeout",
    "QueryShedError": "deadline",
}


class _Outcome(NamedTuple):
    """How one way a request can end is accounted (see ``_settle``)."""

    counter: str  # series advanced ({tenant} for completed, {reason} for shed)
    event: str  # log event (a completed query escalates to ``slow_query``)
    incident: str | None  # system.incidents kind (completed: only slow/degraded)
    trace_status: str | None  # ``status`` stamped on the exported spans


#: The outcome table, keyed by the ``system.queries`` status. Every
#: request ends in exactly one row of it.
_OUTCOMES = {
    "completed": _Outcome("queries_total", "query", None, None),
    "failed": _Outcome("queries_failed_total", "query_failed", "failed", "failed"),
    "shed": _Outcome("shed_total", "query_shed", "shed", None),
    "deadline_exceeded": _Outcome(
        "deadline_exceeded_total",
        "query_deadline_exceeded",
        "deadline_exceeded",
        "cancelled",
    ),
    "cancelled": _Outcome(
        "queries_cancelled_total", "query_cancelled", "cancelled", "cancelled"
    ),
}


def outcome_of(exc: BaseException) -> str:
    """The outcome-table row an exception out of :meth:`MaxsonServer.execute`
    (or out of a future of :meth:`~MaxsonServer.submit`) stands for."""
    if isinstance(exc, AdmissionError):
        return "shed"
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, QueryCancelledError):
        return "cancelled"
    return "failed"


@dataclass(slots=True)
class _Request:
    """What the request path knows about one query: the stages fill in
    the middle block, ``_settle`` the last."""

    query_id: str
    tenant: str
    sql: str
    day: int | None
    token: CancelToken
    tracer: Tracer | None
    started: float
    probable_hit: bool = False
    admitted: bool = False  # holds a tenant's admission slot
    leased: bool = False  # holds a generation lease
    generation: int | None = None  # leased by the latest attempt (shed: live)
    attempts: int = 0  # retries taken after transient faults
    status: str | None = None  # key of _OUTCOMES, once settled
    seconds: float = 0.0
    reason: str = ""  # shed reason (_admit sets the server's own)
    retry_after_seconds: float | None = None  # the hint a shed client got
    error: str = ""


#: Every counter and gauge the server exports, in exposition notation:
#: ``name{labels}`` → help; ``*_total`` are counters, the rest gauges set
#: from a status snapshot at scrape time (``_sync_gauges``). README
#: "Observability" lists the same series and
#: tests/server/test_observability.py holds the two together.
_SERIES = {
    "queries_total{tenant}": "Completed queries",
    "queries_failed_total": "Queries that raised an engine error",
    "query_retries_total": "Retries after transient fs faults",
    "stats_events_total": "Statistics events ingested (trace replay)",
    "slow_queries_total": "Queries at or past slow_query_seconds",
    "deadline_exceeded_total": "Queries cooperatively cancelled at their deadline",
    "shed_total{reason}": "Requests shed (queue full, admission timeout, "
    "deadline, memory pressure)",
    "queries_cancelled_total": "Queries cancelled cooperatively (drain or "
    "explicit cancel)",
    "watchdog_shrinks_total": "Cache-shrink passes run by the memory-pressure "
    "watchdog",
    "cache_hits_total": "Cached-path hits across served queries",
    "cache_misses_total": "Cache-eligible misses across served queries",
    "parse_documents_total": "JSON/XML documents parsed by queries",
    "trace_spans_total": "Spans exported to the JSONL trace sink",
    "plan_cache_hits_total": "Served queries planned from the plan cache",
    "plan_cache_misses_total": "Served queries that compiled a fresh plan",
    "result_cache_hits_total": "Served queries answered from the semantic "
    "result cache",
    "result_cache_misses_total": "Result-cache-eligible queries that executed "
    "in full",
    "result_cache_admissions_total": "Result sets admitted by benefit-based scoring",
    "result_cache_rejections_total": "Result sets rejected by benefit-based "
    "admission",
    "result_cache_evictions_total": "Result-cache entries evicted under "
    "capacity or byte budget",
    "telemetry_events_total{table}": "Events appended to the system-table "
    "telemetry store",
    "telemetry_events_dropped_total": "Telemetry events dropped by append failures",
    "telemetry_segments_rotated_total": "Telemetry segments deleted by "
    "byte-budget rotation",
    "memory_pressure": "1 while the cache ledger exceeds the soft limit after "
    "shrinking",
    "cache_generation": "Live cache generation number",
    "cached_paths": "JSONPaths materialised in the live generation",
    "cache_bytes": "Bytes held by the live generation's cache tables",
    "admission_queue_depth": "Requests waiting for a tenant slot",
    "active_queries": "Queries currently executing",
    "active_generation_leases": "In-flight cache-generation leases",
    "scan_workers": "Morsel workers available per query",
    "worker_backend{backend}": "Active morsel worker backend (1 on the "
    "labelled backend)",
    "shm_live_bytes": "Shared-memory bytes held by the process-pool backend",
    "plan_cache_entries": "Plans currently held by the plan cache",
    "result_cache_entries": "Result sets currently cached",
    "cache_tier_bytes{tier}": "Byte occupancy of one cache tier in the "
    "unified ledger",
    "cache_budget_bytes": "Configured unified cache byte budget (0 = unlimited)",
    "generation_precision{generation}": "Realized precision of the "
    "generation's MPJP prediction",
    "generation_recall{generation}": "Realized recall of the generation's "
    "MPJP prediction",
    "generation_byte_weighted_hit_ratio{generation}": "Byte-weighted share of "
    "realized parse demand the cache held",
    "telemetry_segments": "Telemetry segment files currently on the file system",
}

#: Fields (or ``extra`` keys) of the merged ``QueryMetrics`` of every
#: completed query, each exported as the counter ``<name>_total``.
_ENGINE_TOTALS = (
    "cache_hits",
    "cache_misses",
    "parse_documents",
    "plan_cache_hits",
    "plan_cache_misses",
    "result_cache_hits",
    "result_cache_misses",
    "result_cache_admissions",
    "result_cache_rejections",
)


def _scalars(extra: dict) -> dict:
    return {
        key: value
        for key, value in extra.items()
        if isinstance(value, (int, float, str, bool))
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
        self._push_down_config()
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
        # Guarded by self._lock: what the registry cannot hold — the
        # latency sample (percentiles), the merged engine metrics, the
        # per-tenant tally (the registry caps label sets) and drain state.
        # Outcome tallies live in the registry counters alone.
        self._lock = threading.Lock()
        self._totals = QueryMetrics()
        self._latencies: list[float] = []
        self._per_tenant_completed: dict[str, int] = {}
        self._started = time.perf_counter()
        self._closed = False
        self._draining = False
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
        self._m = {}
        for series, help_text in _SERIES.items():
            name, _, labels = series.rstrip("}").partition("{")
            register = (
                self.metrics.counter
                if name.endswith("_total")
                else self.metrics.gauge
            )
            self._m[name] = register(
                name, help_text, labels.split(",") if labels else ()
            )
        self._latency = self.metrics.histogram(
            "query_latency_seconds", "Query wall time (admission to result)"
        )
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

    def _push_down_config(self) -> None:
        """Apply the engine knobs the server config overrides (``None``
        inherits what the wrapped system already runs with; an override
        equal to what it runs with changes nothing)."""
        self.system.session.configure(**self.config.engine_overrides())
        if self.config.build_workers is not None:
            self.system.cacher.build_workers = self.config.build_workers

    # ------------------------------------------------------------------
    # request path: execute = _admit → _run → _settle over one _Request
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        tenant: str | None = None,
        day: int | None = None,
        deadline_ms: float | None = None,
    ) -> QueryResult:
        """Admit, run under a generation lease, settle.

        Raises :class:`QueueFullError` / :class:`AdmissionTimeout` /
        :class:`QueryShedError` when the request is shed, and re-raises
        engine errors after settling them as failures. ``deadline_ms``
        (default ``config.default_deadline_ms``) bounds the query's wall
        time through cooperative cancellation: past it the query raises
        :class:`DeadlineExceededError` within bounded slack and never
        returns partial rows. Whatever the outcome, the request is
        settled exactly once, holding neither lease nor admission slot.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        query_id = f"q-{next(self._query_ids)}"
        request = _Request(
            query_id=query_id,
            tenant=tenant or self.config.default_tenant,
            sql=sql,
            day=day,
            # Every query gets a token (deadline or not) so drain can
            # cancel whatever is in flight at its timeout.
            token=CancelToken.with_deadline_ms(deadline_ms),
            tracer=(
                Tracer(trace_id=query_id)
                if self.trace_sink is not None
                else None
            ),
            started=time.perf_counter(),
        )
        try:
            self._admit(request)
            try:
                result = self._run(request)
            finally:
                with self._lock:
                    self._active_tokens.discard(request.token)
                self.admission.release(request.tenant)
                request.admitted = False
        except Exception as exc:
            self._settle(request, outcome_of(exc), error=exc)
            raise
        self._settle(request, "completed", result=result)
        return result

    def _admit(self, request: _Request) -> None:
        """Memory watchdog, then admission control; raises when shed.

        Deadline-aware admission sheds a cold query immediately when its
        remaining budget is smaller than the server's service-time
        estimate; probable result-cache hits are exempt, jump the queue,
        and keep flowing under memory pressure — serving them releases
        pressure faster than recomputing anything.
        """
        request.probable_hit = self.system.session.probable_result_cache_hit(
            request.sql
        )
        # Watchdog ordering: shrink caches → shed → (the breaker is
        # never touched).
        if self.watchdog is not None:
            pressure = self.watchdog.check()
            self._m["memory_pressure"].set(1 if pressure else 0)
            if pressure:
                self._cache_event("watchdog_pressure", **self.watchdog.snapshot())
            if pressure and not request.probable_hit:
                request.reason = "memory_pressure"
                raise QueryShedError(
                    "server under memory pressure: cold query shed",
                    retry_after_seconds=max(self._service_estimate(), 0.01),
                )
        estimate = 0.0 if request.probable_hit else self._service_estimate()
        self.admission.acquire(
            request.tenant,
            timeout=self.config.admission_timeout_seconds,
            priority=1 if request.probable_hit else 0,
            deadline=request.token.deadline,
            service_estimate=estimate * self.config.deadline_shed_factor,
        )
        request.admitted = True
        with self._lock:
            self._active_tokens.add(request.token)

    def _run(self, request: _Request) -> QueryResult:
        """Execute under a generation lease, inside the admitted region.

        A :class:`TransientFsError` (an injected or environmental fault
        that may clear) is retried up to ``config.max_query_retries``
        times with seeded full-jitter backoff. The admission slot is
        held across attempts (the request occupies the tenant either
        way), but the lease is re-acquired per attempt so retries never
        pin a retiring generation. Cancellations are never retried (see
        :class:`~repro.core.resilience.RetryPolicy`).
        """
        token = request.token
        while True:
            request.generation = self.generation_guard.acquire()
            request.leased = True
            try:
                return self.system.sql(
                    request.sql,
                    day=request.day,
                    tracer=request.tracer,
                    cancel_token=token,
                )
            except TransientFsError as exc:
                if not self.retry_policy.should_retry(
                    exc, request.attempts, token
                ):
                    raise
            finally:
                self.generation_guard.release(request.generation)
                request.leased = False
            self.system.resilience.add("query_retries")
            backoff = self.retry_policy.backoff_for(request.attempts)
            request.attempts += 1
            if backoff > 0:
                remaining = token.remaining_seconds()
                if remaining is not None:
                    backoff = min(backoff, max(0.0, remaining))
                time.sleep(backoff)

    def _settle(
        self,
        request: _Request,
        status: str,
        result: QueryResult | None = None,
        error: Exception | None = None,
    ) -> None:
        """Account one request's outcome — the only place that does.

        Whatever ``status`` (a key of ``_OUTCOMES``): one counter
        increment, one latency observation (histogram and the status
        percentiles — overload never vanishes from the latency
        accounting), one log event, the span tree exported if the query
        got as far as opening one, and — with system tables on — exactly
        one ``system.queries`` row (the invariant the reconciliation
        gate audits) plus at most one incident.
        """
        assert request.status is None, "a request settles exactly once"
        assert not (request.leased or request.admitted), (
            "settled while holding a generation lease or an admission slot"
        )
        request.status = status
        request.seconds = elapsed = time.perf_counter() - request.started
        outcome = _OUTCOMES[status]
        tenant, tracer = request.tenant, request.tracer
        with self._lock:
            self._latencies.append(elapsed)
            if len(self._latencies) > _MAX_LATENCY_SAMPLES:
                del self._latencies[: -_MAX_LATENCY_SAMPLES // 2]
        self._latency.observe(elapsed)
        if result is not None:
            self._m[outcome.counter].inc(tenant=tenant)
            self._tally_completed(request, result)
        elif status == "shed":
            request.reason = request.reason or _SHED_REASONS.get(
                type(error).__name__, "admission"
            )
            # The retry-after hint rides the server response
            # (QueryShedError); log and record what the client was told.
            retry_after = getattr(error, "retry_after_seconds", None)
            if retry_after is not None:
                request.retry_after_seconds = round(retry_after, 6)
            # Never leased: recorded under the generation it would have read.
            request.generation = self.system.generation
            self._m[outcome.counter].inc(reason=request.reason)
            self.logger.log(
                outcome.event,
                query_id=request.query_id,
                tenant=tenant,
                reason=request.reason,
                retry_after_seconds=request.retry_after_seconds,
            )
        else:
            request.error = f"{type(error).__name__}: {error}"
            self._m[outcome.counter].inc()
            self.logger.log(
                outcome.event,
                query_id=request.query_id,
                tenant=tenant,
                generation=request.generation,
                elapsed_seconds=round(elapsed, 6),
                error=request.error,
            )
        traced = tracer is not None and tracer.root is not None
        if traced:
            # A query that raised outside the session's cancellation
            # path left its spans open; close them so the partial tree
            # exports with real durations.
            tracer.end(tracer.root)
            self._export_spans(
                tracer,
                query_id=request.query_id,
                tenant=tenant,
                generation=request.generation,
                **({"status": outcome.trace_status} if outcome.trace_status else {}),
            )
        if self.telemetry is None:
            return
        self._record_query_row(request, result)
        if traced:
            self.telemetry.record_spans(
                tracer,
                request.query_id,
                backend=self.system.session.worker_backend,
            )
        kind = outcome.incident
        if result is not None:
            if 0 < self.config.slow_query_seconds <= elapsed:
                kind = "slow_query"
            elif result.metrics.extra.get("degraded_splits"):
                kind = "degraded"
        if kind is not None:
            self._capture_incident(request, kind, result)

    def _tally_completed(self, request: _Request, result: QueryResult) -> None:
        """What only a completed query adds: the service-time estimate,
        the tenant tally, the merged engine metrics (the engine-work
        counters mirror them at scrape time) and its ``query`` log event
        (which is also where the logger counts slow queries)."""
        metrics, elapsed = result.metrics, request.seconds
        with self._lock:
            self._latency_ewma = (
                0.8 * self._latency_ewma + 0.2 * elapsed
                if self._latency_ewma
                else elapsed
            )
            self._per_tenant_completed[request.tenant] = (
                self._per_tenant_completed.get(request.tenant, 0) + 1
            )
            self._totals.merge(metrics)
        self.logger.query(
            request.query_id,
            elapsed,
            tenant=request.tenant,
            generation=request.generation,
            read_seconds=round(metrics.read_seconds, 6),
            parse_seconds=round(metrics.parse_seconds, 6),
            parse_documents=metrics.parse_documents,
            cache_hits=metrics.cache_hits,
            rows=len(result),
            retries=request.attempts,
        )

    def _export_spans(self, tracer: Tracer, **metadata) -> None:
        """Write one finished trace to the sink (``trace_sink`` is set
        whenever a tracer exists) and count the spans that fitted."""
        written = self.trace_sink.write(tracer, **metadata)
        if written:
            self._m["trace_spans_total"].inc(written)

    def _service_estimate(self) -> float:
        """Moving estimate of query service seconds (0 on a cold server)."""
        with self._lock:
            return self._latency_ewma

    # ------------------------------------------------------------------
    # system tables (self-hosted telemetry)
    # ------------------------------------------------------------------
    def _record_query_row(
        self, request: _Request, result: QueryResult | None
    ) -> None:
        """The settled request's ``system.queries`` row (``_settle`` is
        the only caller, so exactly one per request)."""
        row: dict[str, object] = {
            "query_id": request.query_id,
            "tenant": request.tenant,
            "status": request.status,
            "seconds": round(request.seconds, 6),
            "generation": request.generation,
            "backend": self.system.session.worker_backend,
            "reason": request.reason,
            "retry_after_seconds": request.retry_after_seconds,
            "result_cache": "",
            "plan_cache": "",
            "error": request.error,
        }
        if result is not None:
            metrics = result.metrics
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
            row["extras"] = {
                "parse_documents": metrics.parse_documents,
                "cache_hits": metrics.cache_hits,
                "cache_misses": metrics.cache_misses,
                "read_seconds": round(metrics.read_seconds, 6),
                "parse_seconds": round(metrics.parse_seconds, 6),
                "doc_cache_evictions": metrics.doc_cache_evictions,
                **_scalars(extra),
            }
            row["rows"] = len(result)
        self.telemetry.record("queries", row)

    def _capture_incident(
        self, request: _Request, kind: str, result: QueryResult | None
    ) -> None:
        """Flight recorder: a self-contained ``system.incidents`` record
        for slow, degraded, shed, deadline-exceeded, cancelled and failed
        queries — canonical statement + parameter hash, the physical plan
        that ran, full span tree, breaker/watchdog/admission state —
        enough to diagnose the query after the fact without its process
        alive. Parses nothing: the statement comes out of the session's
        canonicalisation memo and the plan from the result or the plan
        cache (a shed request was never planned and records none), so
        recording a shed stays cheaper than serving the query.
        """
        session = self.system.session
        canonical = session.canonical_statement(request.sql)
        params = canonical.params if canonical is not None else ()
        record: dict[str, object] = {
            "query_id": request.query_id,
            "kind": kind,
            "tenant": request.tenant,
            "sql": request.sql,
            "fingerprint": (
                canonical.text
                if canonical is not None
                else fingerprint(request.sql)
            ),
            "seconds": round(request.seconds, 6),
            "params_hash": hashlib.sha256(
                repr(params).encode("utf-8")
            ).hexdigest()[:16],
            "generation": request.generation,
            "backend": session.worker_backend,
            "breaker": self.system.breaker.snapshot(),
            "admission": self.admission.snapshot(),
            "watchdog": (
                self.watchdog.snapshot() if self.watchdog is not None else {}
            ),
        }
        if kind != "shed":
            plan = (
                result.plan
                if result is not None
                else session.cached_plan(request.sql)
            )
            record["plan"] = plan.describe() if plan is not None else ""
        if request.reason:
            record["reason"] = request.reason
        if request.error:
            record["error"] = request.error
        if result is not None:
            record["extras"] = _scalars(result.metrics.extra)
        tracer = request.tracer
        if tracer is not None and tracer.root is not None:
            record["span_tree"] = export_subtree(tracer.root)
        self.telemetry.record("incidents", record)

    def _cache_event(self, event: str, table_name: str = "", **detail) -> None:
        """One ``system.cache_events`` row (no-op with system tables off)."""
        if self.telemetry is None:
            return
        self.telemetry.record(
            "cache_events",
            {
                "event": event,
                "table_name": table_name,
                "generation": self.system.generation,
                "detail": (
                    json.dumps(detail, sort_keys=True, default=str)
                    if detail
                    else ""
                ),
            },
        )

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
        self._cache_event(f"breaker_{state}", table_name=cache_table)

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
        self._m["stats_events_total"].inc()

    # ------------------------------------------------------------------
    # maintenance path (called by the scheduler, or directly)
    # ------------------------------------------------------------------
    def advance_to(self, seconds: float) -> list[str]:
        """Move the virtual clock to ``seconds`` and run the maintenance
        that came due (see :meth:`MaintenanceScheduler.advance_to`)."""
        return self.scheduler.advance_to(seconds)

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
            self._export_spans(
                tracer,
                kind="midnight",
                day=report.day,
                generation=self.system.generation,
            )
        self.logger.log(
            "midnight_cycle",
            day=report.day,
            generation=self.system.generation,
            cached_paths=len(report.selected),
            build_failed=report.build.failed,
        )
        self._cache_event(
            "generation_build_failed"
            if report.build.failed
            else "generation_swap",
            day=report.day,
            cached_paths=len(report.selected),
            build_seconds=round(report.build.build_seconds, 6),
        )
        return report

    def refresh_cache(self):
        """Incrementally extend the live generation's cache tables."""
        return self.system.refresh_cache()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _outcome_tallies(self) -> dict[str, int]:
        """Requests settled so far, by outcome — read from the registry
        counters ``_settle`` advances, so status and ``/metrics`` cannot
        disagree."""
        return {
            status: int(self._m[outcome.counter].total())
            for status, outcome in _OUTCOMES.items()
        }

    def status(self) -> ServerStatus:
        uptime = time.perf_counter() - self._started
        with self._lock:
            tenants = dict(self._per_tenant_completed)
            totals = self._totals.snapshot()
            latencies = sorted(self._latencies)
            draining = self._draining
            drain_cancelled = self._drain_cancelled
        tallies = self._outcome_tallies()
        shed_breakdown = {
            labels[0][1]: int(count)
            for _, labels, count in self._m["shed_total"].samples()
        }
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
            queries_completed=tallies["completed"],
            queries_failed=tallies["failed"],
            queries_shed=tallies["shed"],
            queries_timed_out=int(admission["timed_out"]),
            queries_deadline_exceeded=tallies["deadline_exceeded"],
            queries_cancelled=tallies["cancelled"],
            shed_breakdown=shed_breakdown,
            priority_admitted=int(admission["priority_admitted"]),
            draining=draining,
            drain_cancelled=drain_cancelled,
            watchdog=(
                self.watchdog.snapshot() if self.watchdog is not None else {}
            ),
            stats_events_ingested=int(self._m["stats_events_total"].total()),
            qps=tallies["completed"] / uptime if uptime > 0 else 0.0,
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
        with self.admission.admit(tenant), self.generation_guard.lease():
            return self.system.explain_analyze(sql)

    def _sync_gauges(self, status: ServerStatus) -> None:
        """Scrape-time half of the registry: gauges from the status
        snapshot, and every counter whose count is already kept once
        elsewhere — the merged engine metrics, the logger's slow-query
        filter, the resilience tallies, an engine cache, the telemetry
        store — mirrored (``advance_to``) rather than kept twice."""
        m = self._m
        session = self.system.session
        totals = status.totals
        for name in _ENGINE_TOTALS:
            m[name + "_total"].advance_to(
                totals.get(name, totals["extra"].get(name, 0))
            )
        m["slow_queries_total"].advance_to(status.slow_queries)
        m["query_retries_total"].advance_to(status.query_retries)
        m["cache_generation"].set(status.generation)
        m["cached_paths"].set(status.cached_paths)
        m["cache_bytes"].set(status.cache_bytes)
        m["admission_queue_depth"].set(status.queue_depth)
        m["active_queries"].set(status.active_queries)
        m["active_generation_leases"].set(status.active_leases)
        m["scan_workers"].set(session.scan_workers)
        for backend in WORKER_BACKENDS:
            m["worker_backend"].set(
                1 if backend == session.worker_backend else 0, backend=backend
            )
        m["shm_live_bytes"].set(session.live_shm_bytes())
        m["plan_cache_entries"].set(int(session.plan_cache_stats()["entries"]))
        m["result_cache_entries"].set(int(status.result_cache.get("entries", 0)))
        m["result_cache_evictions_total"].advance_to(
            int(status.result_cache.get("evictions", 0))
        )
        ledger = status.cache_ledger
        m["cache_budget_bytes"].set(int(ledger.get("budget_bytes") or 0))
        for tier, nbytes in dict(ledger.get("tiers", {})).items():
            m["cache_tier_bytes"].set(int(nbytes), tier=tier)
        if status.watchdog:
            m["watchdog_shrinks_total"].advance_to(
                int(status.watchdog.get("shrinks", 0))
            )
            m["memory_pressure"].set(
                1 if status.watchdog.get("under_pressure") else 0
            )
        telemetry = status.observability.get("telemetry")
        if telemetry is not None:
            m["telemetry_segments"].set(int(telemetry["segments"]))
            for table, count in dict(telemetry["events"]).items():
                m["telemetry_events_total"].advance_to(count, table=table)
            m["telemetry_events_dropped_total"].advance_to(
                int(telemetry["events_dropped"])
            )
            m["telemetry_segments_rotated_total"].advance_to(
                int(telemetry["segments_rotated"])
            )
        for record in status.cache_efficacy:
            generation = str(record.get("generation", 0))
            for field in ("precision", "recall", "byte_weighted_hit_ratio"):
                m[f"generation_{field}"].set(
                    float(record.get(field, 0.0)), generation=generation
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
            **{
                f"queries_{status}": count
                for status, count in self._outcome_tallies().items()
            },
        )
        self.logger.close()

    def __enter__(self) -> "MaxsonServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
