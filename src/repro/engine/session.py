"""Session: the SparkSQL-like entry point.

A :class:`Session` owns a catalog and compiles SQL text through
parse → logical plan → physical plan → execution, timing each stage into a
:class:`~repro.engine.metrics.QueryMetrics`.

Extension point: *physical plan modifiers*. Maxson registers one
(:class:`repro.core.maxson_parser.MaxsonPlanModifier`) which rewrites the
plan between compilation and execution — exactly where the paper's
MaxsonParser sits relative to SparkSQL. The baseline engine runs with no
modifiers installed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..jsonlib.doccache import DEFAULT_DOC_CACHE_BYTES
from ..jsonlib.jackson import JacksonParser
from ..storage.fs import BlockFileSystem
from .batch import ColumnBatch
from .cachebudget import CacheLedger
from .cancel import CancelToken
from .catalog import Catalog
from .errors import QueryCancelledError
from .expressions import EvalContext
from .frame import encode_frame, frame_rows
from .metrics import QueryMetrics
from .parallel import _fold_context_stats, parallelize_plan
from .physical import ExecState, PhysicalPlan, json_paths_of
from .plancache import CachedPlan, PlanCache, fingerprint
from .planner import PlannedQuery, Planner
from .resultcache import ResultCache
from .sqlparser import parse_sql

__all__ = ["QueryResult", "Session", "WORKER_BACKENDS", "check_engine_knobs"]

#: The legal morsel worker backends: what the validator accepts, the
#: command line offers and the server's per-backend gauge labels.
WORKER_BACKENDS = ("thread", "process")

#: The ``Session`` fields that are engine knobs — what
#: :meth:`Session.configure` may set on a live session.
_ENGINE_KNOBS = (
    "scan_workers",
    "worker_backend",
    "plan_cache_entries",
    "result_cache_enabled",
    "result_cache_entries",
    "cache_budget_bytes",
)

#: Smallest legal value of each numeric engine knob.
_KNOB_FLOORS = {
    "scan_workers": 1,
    "build_workers": 1,
    "plan_cache_entries": 0,
    "result_cache_entries": 0,
    "cache_budget_bytes": 0,
}


def check_engine_knobs(**knobs) -> None:
    """Raise ``ValueError`` for an engine knob outside its range.

    The one statement of these rules: the ``Session`` constructor,
    :meth:`Session.configure` and ``ServerConfig`` (whose overrides, a
    shard's ``ShardSpec.server`` dict included, carry the same names) all
    check here, so every route rejects the same values with the same
    message. ``None`` — "inherit" for an override, "unlimited" for the
    byte budget — always passes.
    """
    for name, value in knobs.items():
        if value is None:
            continue
        if name == "worker_backend":
            if value not in WORKER_BACKENDS:
                legal = " or ".join(map(repr, WORKER_BACKENDS))
                raise ValueError(
                    f"worker_backend must be {legal}, got {value!r}"
                )
        elif name in _KNOB_FLOORS and value < _KNOB_FLOORS[name]:
            raise ValueError(
                f"{name} must be >= {_KNOB_FLOORS[name]}, got {value!r}"
            )


def _no_span(name: str, **attributes):
    """``Tracer.span`` for a query that carries no tracer."""
    return nullcontext()


class QueryResult:
    """Rows plus the metrics of the execution that produced them.

    An executed query holds its ``batch`` and the rows built from it; a
    result-cache hit holds the entry's lane ``frame`` — ``(names, row
    count, body)``, see :mod:`repro.engine.frame` — and builds its row
    dicts, fresh and the caller's to mutate, when ``rows`` is first read.
    ``trace`` is the root :class:`repro.obs.trace.Span` of a traced query;
    ``referenced_json_paths`` the ``(database, table, column, path)``
    tuples the planner found, so callers (the Maxson stats collector) need
    not re-compile the SQL — re-compiling would defeat the plan cache.
    """

    def __init__(
        self,
        metrics: QueryMetrics,
        plan: PhysicalPlan,
        rows: list[dict] | None = None,
        trace: object | None = None,
        referenced_json_paths=(),
        batch: ColumnBatch | None = None,
        frame: tuple | None = None,
    ) -> None:
        self.metrics, self.plan, self.trace = metrics, plan, trace
        self.referenced_json_paths = list(referenced_json_paths)
        self._rows, self._batch, self._frame = rows, batch, frame

    @property
    def rows(self) -> list[dict]:
        if self._rows is None and self._batch is not None:
            self._rows = self._batch.to_rows()
        elif self._rows is None:
            self._rows = frame_rows(self._frame[2], self._frame[0])
        return self._rows

    def frame(self) -> tuple[tuple, int, bytes]:
        """``(names, row count, lane frame)``: a hit's stored bytes as they
        are, else the batch's one encode (shared with its admission)."""
        if self._frame is None:
            batch = self._batch
            self._frame = (batch.names, batch.length, encode_frame(batch))
        return self._frame

    def __len__(self) -> int:
        return self._frame[1] if self._batch is None else self._batch.length

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list[object]:
        """One output column as a list."""
        return [row[name] for row in self.rows]

    def first(self) -> dict | None:
        return self.rows[0] if self.rows else None


@dataclass
class Session:
    """A single-tenant query session over a shared file system + catalog."""

    fs: BlockFileSystem = field(default_factory=BlockFileSystem)
    catalog: Catalog = None  # type: ignore[assignment]
    parser_factory: object = JacksonParser
    projection_parser_factory: object = None
    #: Split-level parallelism for morsel scans. 1 runs every morsel
    #: inline on the coordinator thread (the deterministic baseline);
    #: higher values overlap per-split I/O on a shared worker pool.
    scan_workers: int = 1
    #: "thread" (GIL-shared ThreadPoolExecutor — the default) or
    #: "process" (spawned worker processes with warm catalog snapshots,
    #: exchanging ColumnBatch payloads over shared memory). Ignored at
    #: ``scan_workers == 1``, which always runs inline.
    worker_backend: str = "thread"
    #: Capacity of the recurring-query plan cache; 0 disables it.
    plan_cache_entries: int = 64
    #: Enables the semantic result cache (final results answer exact
    #: canonically-equivalent recurrences).
    result_cache_enabled: bool = False
    #: Entry-count cap of the result cache.
    result_cache_entries: int = 256
    #: Unified byte budget shared by the result, plan and document cache
    #: tiers (see :mod:`repro.engine.cachebudget`). ``None`` = unbudgeted.
    cache_budget_bytes: int | None = None
    #: Optional callable ``(event: str, **fields)`` receiving morsel
    #: worker lifecycle events (process backend spawn/crash/exit); the
    #: server points this at the telemetry store's ``system.workers``.
    worker_observer: object | None = None

    def __post_init__(self) -> None:
        check_engine_knobs(**{name: getattr(self, name) for name in _ENGINE_KNOBS})
        if self.catalog is None:
            self.catalog = Catalog(self.fs)
        self.planner = Planner(self.catalog)
        self._plan_modifiers: list = []
        self._lock = threading.RLock()
        self.cache_ledger = CacheLedger(budget=self.cache_budget_bytes)
        self._plan_cache: PlanCache | None = None
        self._result_cache: ResultCache | None = None
        self._rebuild_plan_cache()
        self._rebuild_result_cache()
        #: Canonicalisation memo while the result tier is off (the flight
        #: recorder fingerprints statements either way); stores no results.
        self._statement_memo = ResultCache(capacity=0)
        #: The morsel worker pool (a ``ThreadPoolExecutor`` or a
        #: ``ProcessMorselPool``, built lazily) and the ``(backend,
        #: workers)`` it was built for.
        self._pool = None
        self._pool_key: tuple[str, int] | None = None
        #: accumulated across queries; reset with `reset_session_metrics`
        self.session_metrics = QueryMetrics()

    # ------------------------------------------------------------------
    # plan modifiers (the Maxson hook)
    # ------------------------------------------------------------------
    def add_plan_modifier(self, modifier) -> None:
        """Register an object with ``modify(planned, state) -> PhysicalPlan``.

        Idempotent: registering an already-installed modifier is a no-op,
        so nested install/remove pairs (e.g. re-entrant ``baseline_sql``)
        cannot double-apply a modifier.
        """
        with self._lock:
            if modifier not in self._plan_modifiers:
                self._plan_modifiers.append(modifier)
                # The plan cache must drop instrumented plans outright;
                # the result cache keys on modifier tokens, so entries
                # from other modifier configurations stay valid (and a
                # token-less modifier bypasses it entirely).
                self.invalidate_plan_cache()

    def remove_plan_modifier(self, modifier) -> None:
        """Deregister a modifier. Idempotent: removing a modifier that is
        not installed is a no-op rather than a ``ValueError``."""
        with self._lock:
            if modifier in self._plan_modifiers:
                self._plan_modifiers.remove(modifier)
                self.invalidate_plan_cache()

    # ------------------------------------------------------------------
    # plan cache + morsel worker pool
    # ------------------------------------------------------------------
    def invalidate_plan_cache(self) -> None:
        """Drop every cached plan (generation swaps, modifier changes)."""
        if self._plan_cache is not None:
            self._plan_cache.clear()

    def configure(self, **knobs) -> None:
        """Set engine knobs on a live session: the constructor's keywords,
        under the constructor's rules (:func:`check_engine_knobs`).

        A value the session already has changes nothing — warm caches
        stay warm. A changed plan- or result-cache knob replaces that
        tier with an empty one (the old entries' bytes go back to the
        ledger first), a changed ``cache_budget_bytes`` re-budgets the
        ledger, and ``scan_workers`` / ``worker_backend`` are read by the
        next query, as they are after plain assignment.
        """
        unknown = sorted(knobs.keys() - set(_ENGINE_KNOBS))
        if unknown:
            raise TypeError(f"not an engine knob: {', '.join(unknown)}")
        check_engine_knobs(**knobs)
        with self._lock:
            changed = {n for n, v in knobs.items() if getattr(self, n) != v}
            for name in changed:
                setattr(self, name, knobs[name])
            if "cache_budget_bytes" in changed:
                self.cache_ledger.budget = self.cache_budget_bytes
            if "plan_cache_entries" in changed:
                self._rebuild_plan_cache()
            if changed & {"result_cache_enabled", "result_cache_entries"}:
                self._rebuild_result_cache()

    def _rebuild_plan_cache(self) -> None:
        # Clearing gives the old cache's bytes back to the ledger.
        self.invalidate_plan_cache()
        self._plan_cache = (
            PlanCache(self.plan_cache_entries, ledger=self.cache_ledger)
            if self.plan_cache_entries > 0
            else None
        )

    def _rebuild_result_cache(self) -> None:
        self.invalidate_result_cache()
        self._result_cache = (
            ResultCache(self.cache_ledger, capacity=self.result_cache_entries)
            if self.result_cache_enabled
            else None
        )

    def plan_cache_stats(self) -> dict[str, int]:
        """Counters of the plan cache (all zero when disabled)."""
        if self._plan_cache is None:
            return {
                "entries": 0,
                "capacity": 0,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "invalidations": 0,
            }
        return self._plan_cache.stats()

    # ------------------------------------------------------------------
    # result cache
    # ------------------------------------------------------------------
    def invalidate_result_cache(self) -> None:
        """Drop every cached result (generation swaps, modifier changes).

        Keys already embed catalog/modifier tokens, so this is about
        releasing budget bytes promptly, not correctness."""
        if self._result_cache is not None:
            self._result_cache.clear()

    def result_cache_stats(self) -> dict[str, int]:
        """Counters of the result cache (all zero when disabled: the
        capacity-0 memo's, which stores no results)."""
        if self._result_cache is None:
            return self._statement_memo.stats()
        return self._result_cache.stats()

    def probable_result_cache_hit(self, sql: str) -> bool:
        """Whether ``sql`` would (probably) be served from the result
        cache right now. A counter-free hint for admission priority —
        cheap recurrences jump the queue, so the answer must not
        perturb hit/miss statistics. Never raises: canonicalization
        failures (e.g. syntax errors) simply report False.
        """
        rcache = self._result_cache
        if rcache is None:
            return False
        try:
            _, tokens = self._modifier_snapshot()
            if tokens is None:
                return False
            canonical = rcache.canonicalize(
                sql, self.planner, self.catalog.version
            )
            if canonical is None:
                return False
            return rcache.peek(
                (canonical.text, canonical.params, self.catalog.version, tokens)
            )
        except Exception:  # noqa: BLE001 - a hint must never fail a query
            return False

    def canonical_statement(self, sql: str):
        """The canonical form of ``sql`` out of the canonicalisation memo
        (parsed at most once per fingerprint and catalog version), or
        ``None``. Never raises: the flight recorder asks about statements
        that failed to parse."""
        memo = self._result_cache
        if memo is None:  # (an empty ResultCache is falsy: test identity)
            memo = self._statement_memo
        try:
            return memo.canonicalize(sql, self.planner, self.catalog.version)
        except Exception:  # noqa: BLE001 - diagnostics must not fail a query
            return None

    def cached_plan(self, sql: str) -> PhysicalPlan | None:
        """The physical plan the plan cache holds for ``sql`` right now,
        or ``None`` — never planned, evicted, or planned under a tracer
        (traced queries bypass the plan cache). Counter-free."""
        cache = self._plan_cache
        _, tokens = self._modifier_snapshot()
        if cache is None or tokens is None:
            return None
        entry = cache.peek((fingerprint(sql), self.catalog.version, tokens))
        return entry.planned.physical if entry is not None else None

    def shrink_caches_to(self, budget_bytes: int) -> int:
        """Release cache bytes until the ledger total fits ``budget_bytes``.

        Watchdog ordering: the result tier yields first (lowest-benefit
        entries), then the plan tier (LRU). The document tier is
        per-query transient state and self-clamps via the ledger budget,
        so it is not force-evicted here. Returns bytes released.
        """
        before = self.cache_ledger.total()
        if before <= budget_bytes:
            return 0
        if self._result_cache is not None:
            other = before - self.cache_ledger.tier_bytes("result")
            self._result_cache.shrink_to_bytes(max(0, budget_bytes - other))
        total = self.cache_ledger.total()
        if total > budget_bytes and self._plan_cache is not None:
            other = total - self.cache_ledger.tier_bytes("plan")
            self._plan_cache.shrink_to_bytes(max(0, budget_bytes - other))
        return before - self.cache_ledger.total()

    def _morsel_pool(self):
        """The shared split-worker pool for the session's current
        ``scan_workers`` / ``worker_backend`` (rebuilt when either has
        changed since it was built); None when the session is serial.

        Thread backend: a plain ``ThreadPoolExecutor``. Process backend:
        a :class:`repro.engine.procpool.ProcessMorselPool`, which the
        morsel scheduler detects by duck type (``pool.run_morsels``)."""
        if self.scan_workers <= 1:
            return None
        with self._lock:
            key = (self.worker_backend, self.scan_workers)
            if self._pool_key != key:
                check_engine_knobs(worker_backend=self.worker_backend)
                self.close_worker_pools()
                if self.worker_backend == "process":
                    from .procpool import ProcessMorselPool, build_snapshot

                    self._pool = ProcessMorselPool(
                        self.scan_workers,
                        snapshot_fn=lambda: build_snapshot(self),
                        observer=self.worker_observer,
                    )
                else:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.scan_workers,
                        thread_name_prefix="morsel",
                    )
                self._pool_key = key
            return self._pool

    def live_shm_bytes(self) -> int:
        """Bytes of shared memory currently held by the process-pool
        backend (result segments in flight plus the cancel-flag slab);
        0 on the thread backend. The memory watchdog charges this
        against its soft limit."""
        return getattr(self._pool, "live_shm_bytes", 0)

    def close_worker_pools(self) -> None:
        """Tear down the morsel worker pool (thread or process). Safe to
        call repeatedly; the pool rebuilds lazily on the next query."""
        with self._lock:
            pool, self._pool, self._pool_key = self._pool, None, None
            if isinstance(pool, ThreadPoolExecutor):
                pool.shutdown(wait=False)
            elif pool is not None:
                pool.close()

    def _context_factory(self) -> EvalContext:
        context = EvalContext(parser=self.parser_factory())
        if self.projection_parser_factory is not None:
            context.projection_parser = self.projection_parser_factory()
        # Under a unified budget the per-query document cache may not
        # exceed the whole allowance on its own.
        if self.cache_ledger.budget is not None:
            context.doc_cache_bytes = min(
                DEFAULT_DOC_CACHE_BYTES, self.cache_ledger.budget
            )
        return context

    def _make_state(self, tracer=None, cancel_token=None) -> ExecState:
        return ExecState(
            catalog=self.catalog,
            context=self._context_factory(),
            tracer=tracer,
            scan_pool=self._morsel_pool(),
            cancel_token=cancel_token,
        )

    def _modifier_snapshot(self) -> tuple[list, tuple | None]:
        """The registered modifiers plus one cache-key token each.

        A modifier declares cache-compatibility by exposing
        ``plan_cache_token()`` (Maxson's does: registry identity +
        breaker epoch). A modifier without one may rewrite differently
        on every call, so its presence makes the whole query
        uncacheable — ``tokens`` comes back ``None`` and the plan cache
        is bypassed (every query still runs its ``modify``).
        """
        with self._lock:
            modifiers = list(self._plan_modifiers)
        tokens = []
        for modifier in modifiers:
            token_fn = getattr(modifier, "plan_cache_token", None)
            if not callable(token_fn):
                return modifiers, None
            tokens.append(token_fn())
        return modifiers, tuple(tokens)

    # ------------------------------------------------------------------
    def compile(self, sql: str) -> PlannedQuery:
        """Parse and plan without executing."""
        logical = parse_sql(sql)
        return self.planner.plan(logical)

    def explain(self, sql: str) -> str:
        """The physical plan as text, after plan modifiers run."""
        planned, _, _ = self._prepare(sql)
        return planned.physical.describe()

    def _prepare(
        self, sql: str, tracer=None, cancel_token=None
    ) -> tuple[PlannedQuery, ExecState, float]:
        started = time.perf_counter()
        # Traced queries bypass the plan cache entirely (no lookup, no
        # store): an instrumented plan's wrappers record into the state's
        # tracer and must never leak into untraced executions, and
        # EXPLAIN ANALYZE should always show a freshly derived plan.
        cache = self._plan_cache if tracer is None else None
        modifiers, tokens = self._modifier_snapshot()
        if tokens is None:  # an unkeyed modifier makes the query uncacheable
            cache = None
        key = None
        if cache is not None:
            key = (fingerprint(sql), self.catalog.version, tokens)
            entry = cache.get(key)
            if entry is not None:
                state = self._make_state(cancel_token=cancel_token)
                # Replay the plan-time metric effects (e.g. Maxson's
                # registry misses are counted during modify()) so a
                # cached query reports the same counters as a planned one.
                state.metrics.merge(entry.planned_metrics)
                state.metrics.extra["plan_cache_hits"] = (
                    state.metrics.extra.get("plan_cache_hits", 0) + 1
                )
                state.context.json_paths = entry.planned.json_paths
                return entry.planned, state, time.perf_counter() - started
        span = tracer.span if tracer is not None else _no_span
        with span("plan"):
            planned = self.compile(sql)
        state = self._make_state(tracer=tracer, cancel_token=cancel_token)
        with span("rewrite", modifiers=len(modifiers)):
            for modifier in modifiers:
                planned.physical = modifier.modify(planned, state)
        planned.json_paths = json_paths_of(planned.physical)
        # Morsel execution is the only scan path, traced or not, at any
        # worker count — workers=1 runs the same code inline, which is
        # what makes serial-vs-parallel differentials exact.
        planned.physical = parallelize_plan(planned.physical)
        if tracer is not None and tracer.enabled:
            from ..obs.instrument import instrument_plan

            planned.physical = instrument_plan(planned.physical)
        if cache is not None:
            cache.put(
                key,
                CachedPlan(
                    planned=planned,
                    planned_metrics=state.metrics.snapshot(),
                ),
            )
            state.metrics.extra["plan_cache_misses"] = (
                state.metrics.extra.get("plan_cache_misses", 0) + 1
            )
        state.context.json_paths = planned.json_paths
        plan_seconds = time.perf_counter() - started
        return planned, state, plan_seconds

    def sql(
        self,
        sql: str,
        tracer=None,
        deadline_ms: float | None = None,
        cancel_token=None,
    ) -> QueryResult:
        """Compile and execute one SELECT statement.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) opts this query
        into span recording: the plan is instrumented so every operator
        records wall time and counter deltas, and the result carries the
        root span as ``result.trace``. Without a tracer the query runs
        the exact pre-observability code path.

        ``deadline_ms`` bounds this query's wall time: a
        :class:`~repro.engine.cancel.CancelToken` carrying the deadline
        is threaded through the morsel scheduler and checked at
        split/batch boundaries and inside raw-parse fallback loops, so a
        timed-out query raises ``DeadlineExceededError`` within bounded
        slack and never returns partial rows. ``cancel_token`` supplies
        an externally owned token instead (e.g. the server's, so drain
        can cancel in-flight queries); when both are given the token is
        tightened to the earlier deadline.
        """
        token = cancel_token
        if deadline_ms is not None:
            if token is None:
                token = CancelToken.with_deadline_ms(deadline_ms)
            else:
                token.tighten_deadline(deadline_ms / 1000.0)
        if token is not None:
            # A query that arrives already past its deadline (or already
            # cancelled) raises before any work — including before a
            # result-cache serve, so "expired" never silently succeeds.
            token.check()
        # -- semantic result cache -------------------------------------
        # Canonicalize first: the canonical fingerprint + parameter
        # vector + (catalog version, modifier tokens) is the result key.
        # Worker count and backend are deliberately absent from the key:
        # serial and morsel-parallel execution return identical rows.
        rcache = self._result_cache
        canonical = None
        result_key = None
        if rcache is not None:
            _, tokens = self._modifier_snapshot()
            if tokens is not None:  # unkeyed modifiers bypass, like plans
                canonical = rcache.canonicalize(
                    sql, self.planner, self.catalog.version
                )
            if canonical is not None:
                result_key = (
                    canonical.text, canonical.params, self.catalog.version, tokens
                )
                rcache.note_recurrence(canonical.text)
        result_cache_missed = False
        if result_key is not None and tracer is None:
            served = self._serve_cached_result(result_key, canonical)
            if served is not None:
                return served
            result_cache_missed = True
        query_span = tracer.begin("query") if tracer is not None else None
        if tracer is not None and result_key is not None:
            # Traced queries never serve from the result cache (EXPLAIN
            # ANALYZE must show a real execution) but still record the
            # decision as a span.
            would_hit = rcache.peek(result_key)
            with tracer.span(
                "result_cache",
                decision="bypass_traced" if would_hit else "miss",
                cached=would_hit,
            ):
                pass
        planned, state, plan_seconds = self._prepare(
            sql, tracer=tracer, cancel_token=token
        )
        started = time.perf_counter()
        try:
            with tracer.span("execute") if tracer is not None else nullcontext():
                batch = planned.physical.execute_batch(state)
                rows = batch.to_rows()
        except QueryCancelledError:
            # No partial rows, no result-cache admission: the exception
            # unwinds before any of the post-execution bookkeeping.
            if query_span is not None:
                query_span.attributes["status"] = "cancelled"
                tracer.end(query_span)
            raise
        total = time.perf_counter() - started
        metrics = state.metrics
        metrics.plan_seconds = plan_seconds
        metrics.total_seconds = total
        metrics.rows_output = len(rows)
        _fold_context_stats(metrics, state.context)
        self._observe_document_tier(state)
        # -- result-cache admission ------------------------------------
        # A query that degraded (any split answered by raw-parse
        # fallback) may hold an incomplete or stale-shaped answer; it is
        # never admitted. Failed queries never reach this point.
        if result_key is not None:
            if result_cache_missed:
                metrics.extra["result_cache_misses"] = (
                    metrics.extra.get("result_cache_misses", 0) + 1
                )
            degraded = metrics.extra.get("degraded_splits", 0)
            if degraded == 0:
                admitted = rcache.admit(
                    result_key,
                    canonical,
                    batch,
                    cost_seconds=plan_seconds + total,
                    referenced_paths=planned.referenced_json_paths,
                    plan=planned.physical,
                )
                counter = (
                    "result_cache_admissions"
                    if admitted
                    else "result_cache_rejections"
                )
                metrics.extra[counter] = metrics.extra.get(counter, 0) + 1
                if tracer is not None:
                    with tracer.span(
                        "result_cache_admission", admitted=admitted
                    ):
                        pass
            elif tracer is not None:
                with tracer.span(
                    "result_cache_admission",
                    admitted=False,
                    reason="degraded_splits",
                ):
                    pass
        with self._lock:
            self.session_metrics.merge(metrics)
        trace_root = None
        if tracer is not None:
            query_span.attributes.update(
                total_seconds=metrics.total_seconds,
                plan_seconds=metrics.plan_seconds,
                read_seconds=metrics.read_seconds,
                parse_seconds=metrics.parse_seconds,
                parse_documents=metrics.parse_documents,
                rows_out=metrics.rows_output,
            )
            tracer.end(query_span)
            trace_root = query_span
        return QueryResult(
            metrics,
            planned.physical,
            rows=rows,
            trace=trace_root,
            referenced_json_paths=planned.referenced_json_paths,
            batch=batch,
        )

    def _serve_cached_result(self, key: tuple, canonical) -> QueryResult | None:
        """Answer a query from the result cache — the stored frame under
        the caller's output names — or None on a miss."""
        started = time.perf_counter()
        entry = self._result_cache.fetch(key)
        if entry is None:
            return None
        metrics = QueryMetrics()
        names = canonical.output_names or entry.names
        result = QueryResult(
            metrics,
            entry.plan,
            referenced_json_paths=entry.referenced_paths,
            frame=(names, entry.count, entry.frame),
        )
        metrics.rows_output = entry.count
        metrics.total_seconds = time.perf_counter() - started
        metrics.extra["result_cache_hits"] = 1
        with self._lock:
            self.session_metrics.merge(metrics)
        return result

    def _observe_document_tier(self, state: ExecState) -> None:
        """Publish the document cache's bytes to the unified ledger.

        The document cache is per-query and dies with its context; the
        ledger keeps the last observation so the ``document`` tier shows
        up in occupancy gauges and constrains result-cache admission
        within the same query's accounting window."""
        observed = 0
        for cache in (
            state.context.json_documents,
            state.context.xml_documents,
        ):
            if cache is not None:
                observed += cache.current_bytes
        self.cache_ledger.set_tier("document", observed)

    def explain_analyze(self, sql: str) -> str:
        """Execute ``sql`` under a fresh tracer and render the annotated
        plan (per-operator wall time, rows, parse counts, cache hits)."""
        from ..obs.explain import render_explain_analyze
        from ..obs.trace import Tracer

        result = self.sql(sql, tracer=Tracer())
        return render_explain_analyze(result.trace, result.metrics, sql=sql)

    def reset_session_metrics(self) -> None:
        with self._lock:
            self.session_metrics = QueryMetrics()
