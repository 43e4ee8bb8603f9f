"""MaxsonSystem: the end-to-end facade (paper Fig 5).

Wires the components into the nightly cycle the paper describes:

1. the **collector** accumulates per-JSONPath statistics from executed
   queries (live SQL or replayed trace events);
2. at "midnight", the **predictor** proposes tomorrow's MPJPs;
3. the **scoring function** measures and ranks them, and greedily selects
   under the byte budget;
4. the **cacher** drops yesterday's cache and pre-parses the selection
   into file-aligned cache tables;
5. from then on, the **plan modifier** rewrites every incoming query's
   physical plan to read cached values through the Value Combiner, with
   predicate pushdown onto the cache table.

Queries run through :meth:`MaxsonSystem.sql`, which both executes them
and feeds the collector — the feedback loop of the production system.

**Cache generations.** The paper drops yesterday's cache before
re-populating; in a live service that would leave a window in which
concurrent queries observe an empty or half-built cache. The system
instead *double-buffers*: each midnight cycle builds generation ``N+1``
into its own cache tables (``{db}__{table}__g{N+1}``) while generation
``N`` keeps serving, then atomically swaps the registry the plan
modifier consults and retires the old generation's tables. With a
:class:`~repro.server.generation.GenerationGuard` installed
(``generation_guard``), retirement is deferred until the last in-flight
query leasing the old generation completes, so no query ever sees a
torn cache.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..engine.catalog import Catalog
from ..engine.metrics import QueryMetrics
from ..engine.session import QueryResult, Session
from ..storage.fs import BlockFileSystem
from ..workload.trace import PathKey
from .cacher import (
    CACHE_DATABASE,
    CacheBuildReport,
    CacheRegistry,
    JsonPathCacher,
)
from .collector import JsonPathCollector
from .journal import BuildJournal
from .maxson_parser import MaxsonPlanModifier
from .predictor import JsonPathPredictor, PredictorConfig
from .resilience import CacheCircuitBreaker, ResilienceStats
from .scoring import ScoredPath, ScoringFunction

__all__ = ["MaxsonConfig", "MidnightReport", "MaxsonSystem"]


def _span(tracer, name: str, **attributes):
    """A tracer span, or a no-op context when tracing is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attributes)


@dataclass
class MaxsonConfig:
    """Maxson's own knobs. Split parallelism and the engine's plan /
    result caches are the host session's settings
    (:class:`~repro.engine.session.Session`), not repeated here."""

    cache_budget_bytes: int = 512 * 1024 * 1024
    mpjp_threshold: int = 2
    selection_strategy: str = "score"
    """'score' (the paper's ranking) or 'random' (Fig 11 comparator)."""
    enable_pushdown: bool = True
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    scoring_sample_rows: int = 64
    random_seed: int = 0
    quarantine_seconds: float = 30.0
    """How long the circuit breaker quarantines a failing cache table
    before half-opening for a re-probe."""
    breaker_failure_threshold: int = 1
    """Cache-read failures before a table is quarantined."""
    build_workers: int = 1
    """Threads parsing raw files concurrently during cache builds. Cache
    files are still written sequentially in file order, so raw/cache
    alignment, crash-journal and generation-swap semantics are identical
    at any worker count; 1 (the default) also keeps seeded fault
    injection deterministic."""


@dataclass
class MidnightReport:
    """Outcome of one midnight cycle."""

    day: int
    predicted_mpjp: int
    candidates_scored: int
    selected: list[ScoredPath]
    build: CacheBuildReport
    skipped_missing_tables: int = 0
    #: What the scoring stage had to chew through (why it took as long
    #: as it did): queries in the history window, their distinct shapes,
    #: paths whose B_j/P_j had to be (re)measured, documents parsed for it.
    history_records: int = 0
    distinct_shapes: int = 0
    paths_measured: int = 0
    documents_sampled: int = 0

    @property
    def cached_paths(self) -> list[PathKey]:
        return [sp.key for sp in self.selected]


class MaxsonSystem:
    """Maxson on top of a :class:`~repro.engine.session.Session`."""

    def __init__(
        self,
        session: Session | None = None,
        config: MaxsonConfig | None = None,
    ) -> None:
        self.session = session or Session()
        self.config = config or MaxsonConfig()
        self.collector = JsonPathCollector()
        self.registry = CacheRegistry()
        self.cacher = JsonPathCacher(
            self.session.catalog,
            self.registry,
            build_workers=self.config.build_workers,
        )
        self.scoring = ScoringFunction(
            self.session.catalog,
            sample_rows=self.config.scoring_sample_rows,
            mpjp_threshold=self.config.mpjp_threshold,
        )
        self.predictor = JsonPathPredictor(self.config.predictor)
        #: Degraded-mode counters shared by the modifier, the combiner,
        #: the build/recovery paths and the server's status surface.
        self.resilience = ResilienceStats()
        #: Quarantines failing cache tables; survives generation swaps
        #: (new generations use new table names, so they start clean).
        self.breaker = CacheCircuitBreaker(
            quarantine_seconds=self.config.quarantine_seconds,
            failure_threshold=self.config.breaker_failure_threshold,
        )
        self.journal = BuildJournal(
            self.session.catalog.fs,
            on_write_failure=lambda _record: self.resilience.add(
                "journal_write_failures"
            ),
        )
        self.modifier = MaxsonPlanModifier(
            self.registry,
            enable_pushdown=self.config.enable_pushdown,
            breaker=self.breaker,
            resilience=self.resilience,
        )
        self.session.add_plan_modifier(self.modifier)
        #: Closes the predict→cache loop: scores each retired generation's
        #: predicted/cached sets against the parse demand it actually saw.
        from ..obs.efficacy import EfficacyAccountant

        self.efficacy = EfficacyAccountant(byte_weights=self._path_bytes)
        self.current_day = 0
        self.cache_build_metrics = QueryMetrics()
        #: Monotonic cache-generation counter; bumped by every swap.
        self.generation = 0
        #: Optional :class:`~repro.server.generation.GenerationGuard`; when
        #: set, old-generation retirement waits for in-flight leases.
        self.generation_guard = None
        self._generation_lock = threading.RLock()
        self._baseline_lock = threading.RLock()
        self._baseline_depth = 0

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_demo(cls, rows_per_table: int = 300) -> "MaxsonSystem":
        """A ready-to-play system over the Table II tables."""
        from ..workload.tables import load_tables

        session = Session(fs=BlockFileSystem())
        load_tables(session.catalog, rows_per_table=rows_per_table, days=3)
        return cls(session=session)

    @property
    def catalog(self) -> Catalog:
        return self.session.catalog

    def _path_bytes(self, keys) -> dict[PathKey, int]:
        """Estimated parse bytes of each path (efficacy byte weighting),
        measured a table at a time: one that is gone or unreadable costs
        its own paths their weight, not everyone's."""
        by_table: dict[tuple[str, str], list[PathKey]] = {}
        for key in keys:
            by_table.setdefault((key.database, key.table), []).append(key)
        out: dict[PathKey, int] = {}
        for table_keys in by_table.values():
            try:
                measured = self.scoring.measure_many(table_keys)
            except Exception:
                continue
            for key, stats in measured.items():
                out[key] = stats.estimated_total_bytes
        return out

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def sql(
        self,
        sql: str,
        day: int | None = None,
        tracer=None,
        deadline_ms: float | None = None,
        cancel_token=None,
    ) -> QueryResult:
        """Execute SQL through the Maxson-modified session and collect its
        JSONPath references. ``tracer`` opts the query into span
        recording; ``deadline_ms``/``cancel_token`` bound its wall time
        (see :meth:`Session.sql`)."""
        result = self.session.sql(
            sql,
            tracer=tracer,
            deadline_ms=deadline_ms,
            cancel_token=cancel_token,
        )
        # The result carries the planner's path references, so recurring
        # queries feed the collector without a second compile (which
        # would both cost plan time and sidestep the plan cache).
        self.collector.record_planned(
            day if day is not None else self.current_day,
            result.referenced_json_paths,
        )
        return result

    def explain_analyze(self, sql: str, day: int | None = None) -> str:
        """``EXPLAIN ANALYZE`` through the Maxson-modified session; the
        query still feeds the collector like any other."""
        planned = self.session.compile(sql)
        self.collector.record_planned(
            day if day is not None else self.current_day,
            planned.referenced_json_paths,
        )
        return self.session.explain_analyze(sql)

    def baseline_sql(self, sql: str) -> QueryResult:
        """Execute without Maxson (plain engine), for comparisons.

        Safe to nest and to call re-entrantly: a depth counter keeps the
        modifier uninstalled until the outermost call finishes, and both
        install and removal are idempotent on the session.
        """
        with self._baseline_lock:
            self._baseline_depth += 1
            self.session.remove_plan_modifier(self.modifier)
        try:
            return self.session.sql(sql)
        finally:
            with self._baseline_lock:
                self._baseline_depth -= 1
                if self._baseline_depth == 0:
                    self.session.add_plan_modifier(self.modifier)

    # ------------------------------------------------------------------
    # cache generations (double-buffered swap)
    # ------------------------------------------------------------------
    def _swap_generation(
        self, keys: list[PathKey], tracer=None
    ) -> CacheBuildReport:
        """Build the next cache generation off to the side and swap it in.

        The new generation's tables carry a ``__g{N}`` suffix so the
        build never touches tables the current generation is serving
        from. Once built, the registry/cacher references are swapped (a
        plan modifier snapshots ``modifier.registry`` once per query, so
        the swap is atomic from a query's point of view) and the old
        generation is retired — immediately when no
        :attr:`generation_guard` is installed, otherwise as soon as the
        last query leasing the old generation drains.
        """
        with self._generation_lock:
            next_generation = self.generation + 1
            new_cacher = JsonPathCacher(
                self.catalog,
                CacheRegistry(),
                row_group_size=self.cacher.row_group_size,
                type_sample_rows=self.cacher.type_sample_rows,
                table_suffix=f"__g{next_generation}",
                build_workers=self.cacher.build_workers,
            )
            # Write-ahead: record the build before its first table exists
            # so a crash mid-build leaves a pending journal entry that
            # recover_orphan_generations() can act on after restart.
            self.journal.begin(next_generation)
            try:
                with _span(
                    tracer,
                    "build",
                    generation=next_generation,
                    keys=len(keys),
                ):
                    build = new_cacher.populate(keys, tracer=tracer)
                    if tracer is not None:
                        tracer.annotate(
                            cache_tables=len(new_cacher.registry.cache_tables()),
                            cache_bytes=new_cacher.registry.total_bytes(),
                        )
            except Exception as exc:
                # Build failed (fs fault, corrupt raw read, ...): GC the
                # half-built generation and keep the old one serving.
                # A simulated process crash (InjectedCrash) is a
                # BaseException and deliberately NOT caught here.
                self._gc_generation(next_generation, new_cacher.registry)
                self.journal.abort(next_generation)
                return self._failed_build(exc)
            self.journal.commit(next_generation)
            old_registry = self.registry
            guard = self.generation_guard
            with _span(
                tracer,
                "swap",
                generation=next_generation,
                retired_tables=len(old_registry.cache_tables()),
                guarded=guard is not None,
            ):
                if guard is None:
                    self._install_generation(next_generation, new_cacher)
                    self._retire_generation(old_registry)
                else:
                    guard.complete_swap(
                        self.generation,
                        next_generation,
                        lambda: self._install_generation(next_generation, new_cacher),
                        lambda: self._retire_generation(old_registry),
                    )
            self._count_build("build_seconds", build.build_seconds)
            self._count_build("generations_built", 1.0)
            return build

    def _install_generation(self, generation: int, cacher: JsonPathCacher) -> None:
        """Point the plan modifier (and the next build) at ``cacher``'s
        registry: the moment a generation starts serving."""
        self.registry = cacher.registry
        self.cacher = cacher
        self.modifier.registry = cacher.registry
        self.generation = generation
        # Cached plans reference the retired generation's scan operators;
        # the registry-identity token in their keys already makes them
        # unreachable, and clearing frees them immediately.
        self.session.invalidate_plan_cache()
        # Result-cache keys carry the same token, so retired entries can
        # never be served; clearing releases their bytes back to the
        # unified budget right away.
        self.session.invalidate_result_cache()
        # Publish the new generation's jsonpath-tier occupancy (reported
        # beside the budgeted tiers; the midnight selector enforces its
        # own budget at selection time).
        self.session.cache_ledger.set_tier(
            "jsonpath", cacher.registry.total_bytes()
        )

    def _retire_generation(self, registry: CacheRegistry) -> None:
        """Drop the tables of a generation nothing reads any more."""
        for table in sorted(registry.cache_tables()):
            if self.catalog.table_exists(CACHE_DATABASE, table):
                self.catalog.drop_table(CACHE_DATABASE, table)
        registry.clear()

    def _count_build(self, counter: str, amount: float) -> None:
        extra = self.cache_build_metrics.extra
        extra[counter] = extra.get(counter, 0.0) + amount

    def _failed_build(self, exc: Exception) -> CacheBuildReport:
        """The report of a build or refresh that raised ``exc``; whatever
        was serving before it keeps serving."""
        self.resilience.add("build_failures")
        self._count_build("failed_builds", 1.0)
        return CacheBuildReport(
            failed=True, error=f"{type(exc).__name__}: {exc}"
        )

    def _gc_generation(self, generation: int, registry: CacheRegistry) -> None:
        """Drop every cache table of a failed/orphaned generation."""
        suffix = f"__g{generation}"
        dropped = 0
        for info in list(self.catalog.list_tables(CACHE_DATABASE)):
            if info.name.endswith(suffix):
                self.catalog.drop_table(info.database, info.name)
                dropped += 1
        registry.clear()
        if dropped:
            self.resilience.add("recovery_actions", dropped)

    def recover_orphan_generations(self) -> list[str]:
        """Garbage-collect cache tables stranded by a crashed build.

        Run at startup (the server does this automatically) or after a
        simulated crash: any ``maxson_cache`` table not referenced by
        the live registry is unreachable by the plan modifier — either a
        half-built generation whose journal entry never committed, or a
        leftover the retirement path did not get to. Both are dropped,
        pending journal entries are closed with ``abort`` records, and
        the dropped table names are returned.
        """
        with self._generation_lock:
            live = self.registry.cache_tables()
            dropped: list[str] = []
            for info in list(self.catalog.list_tables(CACHE_DATABASE)):
                if info.name in live:
                    continue
                self.catalog.drop_table(info.database, info.name)
                dropped.append(info.name)
            for generation in self.journal.pending():
                self.journal.abort(generation)
            if dropped:
                self.resilience.add("recovery_actions", len(dropped))
            return dropped

    def refresh_cache(self) -> CacheBuildReport:
        """Incrementally extend the current generation's cache tables to
        cover raw files appended since the build (repairing invalidated
        tables in place); see :meth:`JsonPathCacher.refresh`.

        A failed refresh (fs fault mid-append) returns a ``failed``
        report instead of raising: the registry still points at the
        previous intact state, and any torn cache file the failure left
        behind is caught at read time (checksums / file-count alignment)
        and answered through the raw-parsing fallback.
        """
        with self._generation_lock:
            keys = [entry.key for entry in self.registry.all_entries()]
            try:
                build = self.cacher.refresh(keys)
            except Exception as exc:
                return self._failed_build(exc)
            self._count_build("build_seconds", build.build_seconds)
            return build

    # ------------------------------------------------------------------
    # the midnight cycle
    # ------------------------------------------------------------------
    def train_predictor(
        self, train_days: list[int], keys: list[PathKey] | None = None
    ) -> None:
        self.predictor.fit(self.collector, train_days, keys)

    def _select_and_swap(
        self,
        day: int,
        predicted,
        cacheable: set[PathKey],
        shapes,
        budget_bytes: int,
        strategy: str,
        tracer=None,
    ) -> MidnightReport:
        """The tail every cycle shares: rank ``cacheable`` against the
        shape log, fill the budget, build and swap in the generation, and
        open its efficacy book. ``predicted`` is what was proposed for
        ``day`` (the cacheable paths plus those over missing tables)."""
        scoring = self.scoring
        with _span(tracer, "score"):
            scored = scoring.score(cacheable, shapes)
            if strategy == "random":
                selected = scoring.random_selection(
                    scored, budget_bytes, seed=self.config.random_seed
                )
            else:
                selected = scoring.select_within_budget(scored, budget_bytes)
            # What the stage had to chew through, for the span and report.
            workload = {
                "history_records": sum(shapes.values()),
                "distinct_shapes": len(shapes),
                **scoring.last_measurement,
            }
            if tracer is not None:
                tracer.annotate(
                    scored=len(scored), selected=len(selected), **workload
                )
        keys = [sp.key for sp in selected]
        build = self._swap_generation(keys, tracer=tracer)
        if not build.failed:
            # Close the book on the generation this swap retired, then
            # start accounting for the one that now serves.
            self.efficacy.close_pending(
                self.collector,
                up_to_day=day,
                threshold=self.config.mpjp_threshold,
            )
            self.efficacy.open_generation(self.generation, day, predicted, keys)
        return MidnightReport(
            day=day,
            predicted_mpjp=len(predicted),
            candidates_scored=len(scored),
            selected=selected,
            build=build,
            skipped_missing_tables=len(predicted) - len(cacheable),
            **workload,
        )

    def _cacheable(self, keys) -> set[PathKey]:
        """Only paths over real tables can be cached."""
        return {
            key
            for key in keys
            if self.catalog.table_exists(key.database, key.table)
        }

    def run_midnight_cycle(
        self,
        day: int | None = None,
        candidate_keys: list[PathKey] | None = None,
        history_days: int = 7,
        tracer=None,
    ) -> MidnightReport:
        """Predict, score, select and cache for ``day`` (default: the
        system's next day).

        With a ``tracer`` the cycle records a ``midnight`` span tree
        (``collect → predict → score → build → swap``), mirroring how
        traced queries record their operator tree.
        """
        target_day = day if day is not None else self.current_day + 1
        with _span(tracer, "midnight", day=target_day):
            with _span(tracer, "collect"):
                shapes = self.collector.shapes_between(
                    max(0, target_day - history_days), target_day - 1
                )
                if tracer is not None:
                    tracer.annotate(history_records=sum(shapes.values()))
            with _span(tracer, "predict"):
                predicted = self.predictor.predict(
                    self.collector, target_day, candidate_keys
                )
                cacheable = self._cacheable(predicted)
                if tracer is not None:
                    tracer.annotate(
                        predicted=len(predicted),
                        cacheable=len(cacheable),
                        skipped_missing_tables=len(predicted) - len(cacheable),
                    )
            report = self._select_and_swap(
                target_day,
                predicted,
                cacheable,
                shapes,
                self.config.cache_budget_bytes,
                self.config.selection_strategy,
                tracer,
            )
            self.current_day = target_day
        return report

    def cache_paths_directly(
        self,
        keys: list[PathKey],
        budget_bytes: int | None = None,
        strategy: str | None = None,
        shapes=None,
    ) -> MidnightReport:
        """Bypass prediction: score and cache the given candidate paths.

        Used by benchmarks that study scoring/caching in isolation
        (Fig 11 / Table V) where the candidate MPJP set is known.
        ``shapes`` is the query log to score against, shape -> count as
        :meth:`JsonPathCollector.shapes_between` returns it (default:
        every collected day up to today).
        """
        if shapes is None:
            shapes = self.collector.shapes_between(0, self.current_day)
        return self._select_and_swap(
            self.current_day,
            keys,
            self._cacheable(keys),
            shapes,
            budget_bytes
            if budget_bytes is not None
            else self.config.cache_budget_bytes,
            strategy or self.config.selection_strategy,
        )

    # ------------------------------------------------------------------
    def cache_summary(self) -> dict[str, object]:
        entries = self.registry.entries()
        self.session.cache_ledger.set_tier(
            "jsonpath", self.registry.total_bytes()
        )
        return {
            "cached_paths": len(entries),
            "cache_tables": len({e.cache_table for e in entries}),
            "cache_bytes": self.registry.total_bytes(),
            "invalid_tables": sorted(self.registry.invalid_tables()),
            "generation": self.generation,
            "build_seconds": self.cache_build_metrics.extra.get(
                "build_seconds", 0.0
            ),
            "failed_builds": int(
                self.cache_build_metrics.extra.get("failed_builds", 0.0)
            ),
            "quarantined_tables": self.breaker.quarantined_tables(),
            "resilience": self.resilience.snapshot(),
            "efficacy": self.efficacy.summary(),
            "plan_cache": self.session.plan_cache_stats(),
            "result_cache": self.session.result_cache_stats(),
            "cache_ledger": self.session.cache_ledger.to_dict(),
            "scan_workers": self.session.scan_workers,
            "worker_backend": self.session.worker_backend,
        }
